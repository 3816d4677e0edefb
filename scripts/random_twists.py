#!/usr/bin/env python3
"""Stress the main formula on random twists beyond the bundled corpus.

Draws random piecewise-linear maps over the standard bases and fibers,
compares the intrinsic and bundle-formula Chern classes, checks the Chern
numbers of the bundle ring over the base's presentation (the third route,
whose normal form carries the twisting classes) and by fixed-point
localization on the twisted fan (the fourth, with no ring at all), checks
Gauss-Bonnet, checks that the pairing ``integrate_product`` of seeded
classes of the twisted fan ring and of the presented bundle ring equals
the integral of their product's top component (two independent routes
on both rings: ``integrate`` reads the top basis coefficient times the
point sign, through the base's integral on the bundle ring, and builds
no pairing form), checks that the comparison's class arithmetic and
those pairings leave the cached twisted ring's attribute set as it was
(no table of normal forms outlives its call), and spot-checks
invariance under a random unimodular change of fiber coordinates.  It
checks that the twisted rays are the lifted base rays, in base order,
then the fiber rays, the order the bundle formula reads, and that the
twisted ring's faces inside the fiber rays are exactly the fiber fan's
faces, moved to the twisted rays, which its fiber factor reads.  The
Masuda check must also see a corrupted class: with one x_rho added to
the twisted pair's equivariant total Chern class, the public
restriction must differ from the check's expected polynomial exactly
at the fixed points whose cone holds rho.  The
twisted fan's dual table, ``tables(twisted).duals``, which its record
takes from the base's and fiber's tables by the block inverse, must
equal a fresh Bareiss ``dual_table`` of its rays, determinants and rows,
and its generic point, ``tables(twisted).generic``, which tries each
point first on the cone that rejected the last, must equal the pairings
of a sweep that tries every point on the cones from the first one on.
Each trial also takes a random star
subdivision of a smooth complete threefold that is not projective: its
ring must certify, its ring-route Chern numbers must equal the localized
ones, and its Todd genus c1c2/24 must be 1.  The machine-report writer
``report_json`` must give the text of ``json.dumps(..., indent=2,
sort_keys=True)`` on the comparison's payload and on the Masuda
report's, with its class payload.  Everything is exact; a single
disagreement exits nonzero.

Usage: python scripts/random_twists.py [trials] [seed] [max_entry]

The script imports the package from the ``src`` of its own checkout, so it
runs from a checkout with no PYTHONPATH set.
"""

import json
import random
import sys
from operator import mul
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricbundles import (
    CharacteristicPair,
    Fan,
    RingConsistencyError,
    build_bundle_ring,
    build_ring,
    chern_numbers,
    chern_numbers_localized,
    compare,
    equivariant_total_chern,
    forget,
    make_fan,
    masuda_check,
    presentation_from_fan,
    restrict_to_fixed_point,
    total_chern_general,
    total_chern_intrinsic,
    twisting_from_principal,
)
from toricbundles.cli import _class_payload
from toricbundles.corpus import (
    projective_line,
    projective_plane,
    quadric_surface,
    random_unimodular,
    transform_instance,
    TwistInstance,
)
from toricbundles.equivariant import ordinary_ring
from toricbundles.faces import ray_mask
from toricbundles.fan import dual_table, moment_curve, tables
from toricbundles.formats import report_json
from toricbundles.lattice import mat_vec
from toricbundles.twist import (
    make_plmap,
    principal_classes,
    tautological_pair,
    twisted_fan,
    twisted_pair,
)


def random_class(ring, coefficient):
    """Every basis monomial of the ring with a ``coefficient()``: an integer,
    or over a bundle ring a base class."""
    return ring.reduce_poly({
        mono: coefficient()
        for d in range(len(ring.betti())) for mono in ring.basis_monomials(d)
    })


def pairs_as_it_multiplies(ring, coefficient) -> bool:
    """integrate_product(a, b) == integrate((a*b).component(dim)) on two
    random classes of the ring: the pairing form against the product and
    its top basis coefficient."""
    a, b = random_class(ring, coefficient), random_class(ring, coefficient)
    return ring.integrate_product(a, b) == ring.integrate(
        (a * b).component(ring.dim))


def moved_pair_holds(pair: CharacteristicPair, u) -> bool:
    """The pair with its charmap moved by u passes the Masuda check, and
    its ordinary ring certifies and takes the equivariant class to its
    intrinsic one."""
    charmap = tuple(mat_vec(u, v) for v in pair.charmap)
    moved = CharacteristicPair(complex=pair.complex, charmap=charmap)
    try:
        ring = ordinary_ring(moved)
    except RingConsistencyError:
        return False
    return masuda_check(moved).passed and forget(
        moved, equivariant_total_chern(moved)
    ) == total_chern_intrinsic(ring)


def corruption_detected(pair: CharacteristicPair, rho: int) -> bool:
    """With x_rho added to the pair's equivariant total Chern class, the
    restriction differs from the Masuda check's expected polynomial
    exactly at the cones through rho."""
    total = equivariant_total_chern(pair)
    corrupted = total + total.ring.generator(rho)
    return all(
        (restrict_to_fixed_point(pair, corrupted, check.cone)
         != check.expected) == (rho in check.cone)
        for check in masuda_check(pair).checks
    )


def written_as_json(payloads) -> bool:
    """``report_json`` gives the text of ``json.dumps(..., indent=2,
    sort_keys=True)`` on every payload."""
    return all(report_json(payload) == json.dumps(payload, indent=2,
                                                  sort_keys=True)
               for payload in payloads)


def nonprojective_threefold() -> Fan:
    """14 rays and 24 cones; nine wall relations with positive weights sum
    to zero, so no strictly convex support function exists."""
    rays = [[1, 0, 2], [2, 1, 3], [3, 2, 1], [0, -1, 2], [1, 2, 1],
            [-1, 0, -3], [2, 1, 2], [0, 1, -1], [1, 1, 2], [1, 0, 3],
            [1, 1, -1], [1, 1, 1], [0, 0, -1], [2, 1, 1]]
    cones = [[1, 2, 6], [0, 2, 6], [0, 1, 6], [3, 5, 7], [3, 4, 7],
             [0, 1, 4], [3, 4, 8], [0, 4, 8], [3, 8, 9], [0, 8, 9],
             [0, 3, 9], [1, 5, 10], [1, 2, 10], [5, 7, 11], [1, 5, 11],
             [4, 7, 11], [1, 4, 11], [0, 2, 3], [5, 10, 12], [3, 10, 12],
             [3, 5, 12], [3, 10, 13], [2, 10, 13], [2, 3, 13]]
    return make_fan(3, rays, cones)


def random_star_subdivision(fan: Fan, rng: random.Random, steps: int) -> Fan:
    """``steps`` star subdivisions, each at a random face tau of dimension
    at least 2 of a random maximal cone: one new ray, the sum of tau's
    rays, and each maximal cone sigma containing tau replaced by the cones
    sigma - {rho} + {new ray}, rho in tau."""
    for _ in range(steps):
        sigma = sorted(rng.choice(fan.max_cones))
        tau = frozenset(rng.sample(sigma, rng.randint(2, len(sigma))))
        new = len(fan.rays)
        ray = [sum(fan.rays[rho][i] for rho in tau) for i in range(fan.dim)]
        cones = []
        for cone in fan.max_cones:
            if tau <= cone:
                cones += [sorted(cone - {rho}) + [new] for rho in sorted(tau)]
            else:
                cones.append(sorted(cone))
        fan = make_fan(fan.dim, [list(r) for r in fan.rays] + [ray], cones)
    return fan


def star_subdivision_holds(fan: Fan) -> bool:
    """The fan's ring certifies, its ring-route Chern numbers equal the
    localized ones, and its Todd genus c1c2/24 is 1."""
    try:
        ring = build_ring(fan)
    except RingConsistencyError:
        return False
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    return (numbers == chern_numbers_localized(fan)
            and numbers[(2, 1)] == 24)


def generic_by_restarts(f: Fan) -> list[list[int]]:
    """The pairings <dual row, point> of each cone at the first
    moment-curve point off every wall, each point tried on the cones from
    the first one on: the order of the test differs from the record's,
    which starts each point at the cone that rejected the last, and the
    point found must not."""
    duals = tables(f).duals.rows
    for point in moment_curve(f.dim):
        coordinates = []
        for dual in duals:
            coords = [sum(map(mul, row, point)) for row in dual]
            if 0 in coords:
                break
            coordinates.append(coords)
        else:
            return coordinates


def rays_in_order(twisted: Fan, base: Fan, fiber: Fan, phi) -> bool:
    """The twisted rays are the lifts (v, phi(v)) of the base rays, in base
    order, then the fiber rays (0, w), and the fan records (base, fiber,
    phi.values) as its parts: the order the bundle formula's pullback and
    fiber factor read."""
    lifts = [v + lift for v, lift in zip(base.rays, phi.values)]
    embedded = [(0,) * base.dim + w for w in fiber.rays]
    return (twisted.rays == tuple(lifts + embedded)
            and twisted.parts == (base, fiber, phi.values))


def fiber_faces_embed(twisted: Fan, ring, fiber: Fan) -> bool:
    """The twisted ring's faces that lie inside the fiber rays, the last
    ``fiber.ray_count`` rays of the twisted fan, are exactly the fiber
    fan's faces, each fiber ray moved to its twisted ray (the bundle
    formula's fiber factor reads them off the twisted ring)."""
    shift = twisted.ray_count - fiber.ray_count
    rays = ray_mask(range(shift, twisted.ray_count))
    return {face for face in ring.face_masks if face & rays == face} == {
        face << shift for face in build_ring(fiber).face_masks
    }


def main(trials: int = 25, seed: int = 7, max_entry: int = 3) -> int:
    rng = random.Random(seed)
    moves = random.Random(f"charmap moves {seed}")
    corruptions = random.Random(f"corrupted classes {seed}")
    stars = random.Random(f"star subdivisions {seed}")
    pairings = random.Random(f"pairings {seed}")

    def integer():
        return pairings.randint(-3, 3)

    threefold = nonprojective_threefold()
    bases = [("P1", projective_line()), ("P2", projective_plane()),
             ("P1xP1", quadric_surface())]
    fibers = [("P1", projective_line()), ("P2", projective_plane())]
    failures = 0
    for trial in range(trials):
        bname, base = rng.choice(bases)
        fname, fiber = rng.choice(fibers)
        values = [
            [rng.randint(-max_entry, max_entry) for _ in range(fiber.dim)]
            for _ in range(base.ray_count)
        ]
        phi = make_plmap(fiber.dim, values)
        name = f"trial {trial}: base {bname}, fiber {fname}, phi {values}"
        twisted = twisted_fan(base, fiber, phi)
        ordered = rays_in_order(twisted, base, fiber, phi)
        derived = tables(twisted).duals == dual_table(twisted.rays,
                                                      twisted.max_cones)
        generic = tables(twisted).generic == generic_by_restarts(twisted)
        ring = build_ring(twisted)
        embedded = fiber_faces_embed(twisted, ring, fiber)
        attributes = set(vars(ring))
        report = compare(base, fiber, phi, name)
        pres = presentation_from_fan(base)
        bundle = build_bundle_ring(
            pres, twisting_from_principal(pres, principal_classes(phi)), fiber
        )
        paired = (pairs_as_it_multiplies(ring, integer)
                  and pairs_as_it_multiplies(
                      bundle, lambda: random_class(pres, integer)))
        kept = set(vars(ring)) == attributes
        gauss = report.euler_intrinsic == report.euler_expected
        presented = chern_numbers(
            bundle, total_chern_general(bundle)
        ) == report.intrinsic_numbers
        localized = (chern_numbers_localized(twisted)
                     == report.intrinsic_numbers)
        inst = TwistInstance(name, base, fiber, phi)
        moved = transform_instance(inst, random_unimodular(fiber.dim, rng))
        moved_ring = build_ring(
            twisted_fan(moved.base, moved.fiber, moved.phi)
        )
        invariant = chern_numbers(
            moved_ring, total_chern_intrinsic(moved_ring)
        ) == report.intrinsic_numbers
        pair = twisted_pair(
            tautological_pair(base), tautological_pair(fiber), phi
        )
        quasitoric = moved_pair_holds(
            pair, random_unimodular(pair.complex.dim, moves)
        )
        detected = corruption_detected(
            pair, corruptions.randrange(pair.complex.ray_count)
        )
        masuda = masuda_check(pair).to_dict()
        masuda["equivariant_total_chern"] = _class_payload(
            equivariant_total_chern(pair))
        written = written_as_json([report.to_dict(), masuda])
        star = random_star_subdivision(threefold, stars, stars.randint(1, 3))
        nonprojective = star_subdivision_holds(star)
        ok = (report.equal and presented and localized and gauss and paired
              and kept and invariant and quasitoric and detected
              and nonprojective and embedded and written and derived
              and generic and ordered)
        mark = "ok" if ok else "FAIL"
        print(f"[{mark}] {name}  chi={report.euler_intrinsic}  "
              f"star subdivision: {star.ray_count} rays")
        if not ok:
            failures += 1
    print(f"\n{trials - failures}/{trials} random twists verified")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    sys.exit(main(*args))
