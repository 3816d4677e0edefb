"""Bundled desk-scale corpus: standard fans, twist instances, and the runner.

The corpus drives both the test suite and the ``corpus`` CLI command.
Instances cover the bases P1, P2, P1xP1 with fibers P1, P2 and twists
with entries up to 3, including the untwisted products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bundlering, chern, equivariant
from .cohomology import build_ring
from .faces import h_vector_of
from .fan import Fan, make_fan, product_fan
from .lattice import identity, mat_vec
from .twist import (
    CharacteristicPair,
    PiecewiseLinearMap,
    make_plmap,
    tautological_pair,
    twisted_fan,
    twisted_pair,
    principal_classes,
)


def projective_line() -> Fan:
    return make_fan(1, [[1], [-1]], [[0], [1]])


def projective_plane() -> Fan:
    return make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]])


def quadric_surface() -> Fan:
    """P1 x P1 as a product fan (the square fan)."""
    return product_fan(projective_line(), projective_line())


def p1_cubed() -> Fan:
    return product_fan(quadric_surface(), projective_line())


def del_pezzo_6() -> Fan:
    """The hexagon fan: P2 blown up in the three torus-fixed points."""
    return make_fan(
        2,
        [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
    )


def hirzebruch(a: int) -> Fan:
    """The twisted fan of the degree-a Hirzebruch-type surface."""
    phi = make_plmap(1, [[a], [0]])
    return twisted_fan(projective_line(), projective_line(), phi)


@dataclass(frozen=True)
class TwistInstance:
    name: str
    base: Fan
    fiber: Fan
    phi: PiecewiseLinearMap


def corpus_instances() -> tuple[TwistInstance, ...]:
    p1 = projective_line()
    p2 = projective_plane()
    sq = quadric_surface()
    return (
        TwistInstance("p1/p1 untwisted", p1, p1, make_plmap(1, [[0], [0]])),
        TwistInstance("p1/p1 twist 1", p1, p1, make_plmap(1, [[1], [0]])),
        TwistInstance("p1/p1 twist 2", p1, p1, make_plmap(1, [[2], [0]])),
        TwistInstance("p1/p1 twist 3", p1, p1, make_plmap(1, [[3], [0]])),
        TwistInstance("p2/p1 untwisted", p2, p1,
                      make_plmap(1, [[0], [0], [0]])),
        TwistInstance("p2/p1 twist", p2, p1, make_plmap(1, [[1], [0], [0]])),
        TwistInstance("p2/p1 mixed twist", p2, p1,
                      make_plmap(1, [[2], [3], [0]])),
        TwistInstance("p1xp1/p1 twist", sq, p1,
                      make_plmap(1, [[1], [0], [2], [0]])),
        TwistInstance("p1/p2 twist", p1, p2, make_plmap(2, [[1, 2], [0, 0]])),
        TwistInstance("p1xp1/p2 twist", sq, p2,
                      make_plmap(2, [[1, 0], [0, 0], [2, 3], [0, 1]])),
        TwistInstance("p2/p2 twist", p2, p2,
                      make_plmap(2, [[1, 2], [0, 3], [0, 0]])),
    )


def corpus_fans() -> tuple[tuple[str, Fan], ...]:
    """Every fan the acceptance checks sweep, twisted fans included."""
    out = [
        ("P1", projective_line()),
        ("P2", projective_plane()),
        ("P1xP1", quadric_surface()),
        ("P1^3", p1_cubed()),
        ("dP6", del_pezzo_6()),
    ]
    for inst in corpus_instances():
        out.append((f"twisted[{inst.name}]",
                    twisted_fan(inst.base, inst.fiber, inst.phi)))
    return tuple(out)


def corpus_pairs() -> tuple[tuple[str, CharacteristicPair], ...]:
    """Tautological pairs of the corpus fans plus the twisted pairs."""
    out = [(name, tautological_pair(f)) for name, f in corpus_fans()]
    for inst in corpus_instances():
        pair = twisted_pair(
            tautological_pair(inst.base),
            tautological_pair(inst.fiber),
            inst.phi,
        )
        out.append((f"pair[{inst.name}]", pair))
    return tuple(out)


def random_unimodular(dim: int, rng: random.Random):
    """A small random unimodular matrix from elementary operations."""
    m = [list(row) for row in identity(dim)]
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[j] = [x + c * y for x, y in zip(m[j], m[i])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def transform_instance(inst: TwistInstance, u) -> TwistInstance:
    """Apply a fiber-lattice automorphism to the fiber fan and phi values."""
    fiber = Fan(
        dim=inst.fiber.dim,
        rays=tuple(mat_vec(u, w) for w in inst.fiber.rays),
        max_cones=inst.fiber.max_cones,
    )
    phi = PiecewiseLinearMap(
        fiber_rank=inst.phi.fiber_rank,
        values=tuple(mat_vec(u, v) for v in inst.phi.values),
    )
    return TwistInstance(inst.name, inst.base, fiber, phi)


@dataclass(frozen=True)
class CorpusCheck:
    criterion: str
    subject: str
    passed: bool
    detail: str = ""


ISOMORPHISM_TRIALS = 10  # random fiber-coordinate changes per instance
ISOMORPHISM_SEED = 20240331


def run_corpus() -> list[CorpusCheck]:
    """Run the full acceptance sweep; one check record per finding.

    The corpus fans and pairs are built once and held for the sweep: a
    twisted fan's ``fan.tables`` record, its ring included, lives only
    while a twisted fan equal to it does, so the comparisons, the known
    Chern numbers and every later section share the rings they build."""
    checks: list[CorpusCheck] = []

    def record(criterion, subject, passed, detail=""):
        checks.append(CorpusCheck(criterion, subject, bool(passed), detail))

    instances = corpus_instances()
    fans, pairs = corpus_fans(), corpus_pairs()

    # 1. Two-route verification: intrinsic vs bundle formula.
    reports = {}
    for inst in instances:
        rep = chern.compare(inst.base, inst.fiber, inst.phi, inst.name)
        reports[inst.name] = rep
        record("chern-formula", inst.name, rep.equal)

    # 2. Known Chern numbers.
    known = [
        ("P2", projective_plane(), {(1, 1): 9, (2,): 3}),
        ("dP6", del_pezzo_6(), {(1, 1): 6, (2,): 6}),
        ("P1^3", p1_cubed(), {(1, 1, 1): 48, (2, 1): 24, (3,): 8}),
    ]
    for a in range(4):
        known.append(
            (f"Hirzebruch({a})", hirzebruch(a), {(1, 1): 8, (2,): 4})
        )
    for name, f, expected in known:
        ring = build_ring(f)
        numbers = chern.chern_numbers(ring, chern.total_chern_intrinsic(ring))
        ok = all(numbers[k] == v for k, v in expected.items())
        record("chern-numbers", name, ok, f"{numbers}")

    # 3. Gauss-Bonnet on every corpus fan.
    for name, f in fans:
        record("gauss-bonnet", name, chern.verify_gauss_bonnet(f))

    # 4. Ring sanity: Betti = h-vector, Poincare symmetry, Picard rank.
    for name, f in fans:
        ring = build_ring(f)
        ranks = ring.betti()
        ok = (
            ranks == h_vector_of(ring.face_masks, f.dim)
            and ranks == ranks[::-1]
            and ranks[1] == f.ray_count - f.dim
        )
        record("ring-sanity", name, ok, f"betti={ranks}")

    # 5. Masuda verification and the forgetful comparison.
    for name, pair in pairs:
        rep = equivariant.masuda_check(pair)
        record("masuda", name, rep.passed)
        forgot = equivariant.forget(
            pair, equivariant.equivariant_total_chern(pair)
        )
        intrinsic = chern.total_chern_intrinsic(
            equivariant.ordinary_ring(pair)
        )
        record("forget", name, forgot == intrinsic)

    # 6. Cross-mode agreement with the presented-base route.
    for inst in instances:
        pres = bundlering.presentation_from_fan(inst.base)
        lam = bundlering.twisting_from_principal(
            pres, principal_classes(inst.phi)
        )
        ring = bundlering.build_bundle_ring(pres, lam, inst.fiber)
        numbers = bundlering.chern_numbers_bundle(
            ring, bundlering.total_chern_general(ring)
        )
        record(
            "cross-mode", inst.name,
            numbers == reports[inst.name].intrinsic_numbers,
            f"{numbers}",
        )

    # 7. Isomorphism invariance under fiber-coordinate changes.
    rng = random.Random(ISOMORPHISM_SEED)
    moved_fans = []  # held too: a change of coordinates may come back
    for inst in instances:
        expected = reports[inst.name].intrinsic_numbers
        ok = True
        for _ in range(ISOMORPHISM_TRIALS):
            u = random_unimodular(inst.fiber.dim, rng)
            moved = transform_instance(inst, u)
            moved_fans.append(twisted_fan(moved.base, moved.fiber, moved.phi))
            ring = build_ring(moved_fans[-1])
            numbers = chern.chern_numbers(
                ring, chern.total_chern_intrinsic(ring)
            )
            if numbers != expected:
                ok = False
                break
        record("isomorphism-invariance", inst.name, ok)

    return checks
