"""Dual-basis relation rows against the rewritten-product rows.

The library builds one row per face S of size d that is not a basis set
bad(sigma): with sigma the cone whose interval [bad(sigma), sigma] holds
S and rho the greatest ray of S outside bad(sigma), x_{S-rho} times the
dual-basis relation of rho on sigma.  ``RewrittenProductRing`` builds the
n normal forms of x_tau * rel_i for every face tau of size d-1 instead.
The two row sets span the same lattice, and every pivot is e_c minus
basis columns, so the column monomials, bases, pivot columns and pivot
vectors must be identical; in the bundle ring the rows' lambda payloads
may differ, normal forms may not.  Degree d builds exactly f_d - h_d
rows, one per allowed column.  Each
cone's rewrite reads the inverse of the relation matrix on its rays from
one table (the fan's dual rows for fan rings, the fiber fan's for bundle
rings, the weight table for pair rings), which must equal
``hnf_inverse`` of that matrix; the weight table comes from the
fans' ``dual_table`` routine, so its determinants must be the charmap
matrices' Bareiss determinants.
"""

import random

import pytest

from helpers import (
    RewrittenProductBundleRing,
    RewrittenProductRing,
    bundle_cases,
    charmap_pair_cases,
    clear_fan_caches,
    cone_vectors,
    cp2_sharp_cp2,
    determinant,
    dp6,
    hnf_inverse,
    p1_power,
    projective_space,
    quasitoric_pairs,
    random_fiber_poly,
    ray_sets,
    star_subdivision_cases,
    star_surface,
)
from toricbundles import (
    CharacteristicPair,
    build_bundle_ring,
    build_ring,
    chern_numbers,
    chern_numbers_bundle,
    make_plmap,
    product_fan,
    tautological_pair,
    total_chern_general,
    twisted_fan,
)
from toricbundles import cohomology
from toricbundles.cohomology import linear_relations
from toricbundles.corpus import corpus_fans, corpus_pairs, random_unimodular
from toricbundles.equivariant import ordinary_ring
from toricbundles.faces import h_vector_of, walk_faces
from toricbundles.fan import cone_duals
from toricbundles.twist import weight_table


def _seeded_twists(count=40, seed=12):
    """Dim-5 twists over the benchmark's bases and fibers, phi in [-3, 3]."""
    p1, p2, p3, p4 = (projective_space(n) for n in (1, 2, 3, 4))
    p1xp1, p2xp1 = product_fan(p1, p1), product_fan(p2, p1)
    bases = {"P2": p2, "P3": p3, "P4": p4, "P1xP1": p1xp1, "P2xP1": p2xp1}
    fibers = {"P1": p1, "P2": p2, "P3": p3, "P1xP1": p1xp1}
    mix = [(b, f) for b in bases for f in fibers
           if bases[b].dim + fibers[f].dim == 5]
    rng = random.Random(seed)
    out = []
    for k in range(count):
        bname, fname = mix[k % len(mix)]
        base, fiber = bases[bname], fibers[fname]
        phi = make_plmap(fiber.dim, [
            [rng.randint(-3, 3) for _ in range(fiber.dim)]
            for _ in range(base.ray_count)
        ])
        out.append((f"twist {k} {fname} over {bname}",
                    twisted_fan(base, fiber, phi).twisted))
    return out


def _fan_cases():
    fans = list(corpus_fans())
    fans += [(f"P{n}", projective_space(n)) for n in range(1, 7)]
    fans += [(f"(P1)^{n}", p1_power(n)) for n in range(1, 6)]
    rng = random.Random(14)
    fans += [(f"star surface {r}", star_surface(r, rng))
             for r in (14, 30, 60, 100, 200)]
    fans += _seeded_twists()
    cases = [(name, lambda f=f: build_ring(f)) for name, f in fans]
    # pairs whose charmap differs from the rays, so the relations are the
    # pair's own: quasitoric charmaps, and the corpus's twisted pairs with
    # the charmap moved by a seeded unimodular matrix
    pairs = quasitoric_pairs() + [("CP2#CP2", cp2_sharp_cp2())]
    rng = random.Random(15)
    for name, pair in corpus_pairs():
        if not name.startswith("pair["):
            continue
        charmap = pair.charmap
        while charmap == pair.charmap:
            u = random_unimodular(pair.complex.dim, rng)
            charmap = tuple(
                tuple(sum(a * b for a, b in zip(row, v)) for row in u)
                for v in pair.charmap
            )
        pairs.append((f"{name} moved", CharacteristicPair(
            complex=pair.complex, charmap=charmap)))
    assert all(pair.charmap != pair.complex.rays for _, pair in pairs)
    cases += [(f"pair {name}", lambda p=p: ordinary_ring(p))
              for name, p in pairs]
    # seeded star subdivisions (the non-projective threefold's among them)
    # and seeded non-toric charmaps
    cases += [(name, lambda f=f: build_ring(f))
              for name, f in star_subdivision_cases()]
    cases += [(f"pair {name}", lambda p=p: ordinary_ring(p))
              for name, p in charmap_pair_cases()]
    return cases


FAN_CASES = _fan_cases()


def _assert_same_pieces(ring, ref):
    assert len(ring._degrees) == len(ref._degrees)
    for piece, ref_piece in zip(ring._degrees, ref._degrees):
        assert piece.monomials == ref_piece.monomials
        assert piece.basis == ref_piece.basis
        assert list(piece.pivots.items()) == list(ref_piece.pivots.items())


@pytest.mark.parametrize("name,make_ring", FAN_CASES,
                         ids=[name for name, _ in FAN_CASES])
def test_dual_rows_give_the_rewritten_product_pivots(name, make_ring):
    ring = make_ring()
    ref = RewrittenProductRing.of(ring)
    _assert_same_pieces(ring, ref)
    for piece in ring._degrees:
        assert not piece.payloads


BUNDLE_CASES = bundle_cases()


@pytest.mark.parametrize("name,base,lam,fiber", BUNDLE_CASES,
                         ids=[case[0] for case in BUNDLE_CASES])
def test_bundle_dual_rows_give_the_rewritten_product_normal_forms(
        name, base, lam, fiber):
    ring = build_bundle_ring(base, lam, fiber)
    ref = RewrittenProductBundleRing(base, lam, fiber)
    _assert_same_pieces(ring, ref)
    rng = random.Random(f"dual rows {name}")
    repeated = 0
    for _ in range(8):
        poly = random_fiber_poly(ring, rng)
        repeated += sum(1 for m in poly if max(m) > 1)
        assert ring.reduce_poly(poly).parts == ref.reduce_poly(poly).parts
    assert repeated > 0
    total = total_chern_general(ring)
    ref_total = total_chern_general(ref)
    assert total.parts == ref_total.parts
    assert chern_numbers_bundle(ring, total) == chern_numbers(ref, ref_total)


def _row_counts(monkeypatch, build):
    """Rows handed to the elimination of each degree while build() runs."""
    counts = []
    eliminate = cohomology.graded_eliminate

    def counting(rows, allowed, columns):
        counts.append(len(rows))
        return eliminate(rows, allowed, columns)

    monkeypatch.setattr(cohomology, "graded_eliminate", counting)
    ring = build()
    monkeypatch.undo()
    return ring, counts


def _expected_counts(ring, fan):
    """Degree d: f_d - h_d rows, the faces of size d less the basis sets."""
    hv = h_vector_of(walk_faces(fan.max_cones), fan.dim)
    return [
        sum(1 for face in ray_sets(ring.face_masks) if len(face) == d) - hv[d]
        for d in range(ring.degree_cap + 1)
    ]


@pytest.mark.parametrize("name,fan", [
    ("dP6xP1", product_fan(dp6(), p1_power(1))), ("(P1)^4", p1_power(4)),
    ("P5", projective_space(5)),
] + [(name, f) for name, f in corpus_fans()])
def test_degree_d_builds_one_row_per_non_basis_face(name, fan, monkeypatch):
    inverses = cone_duals(fan).rows
    ring, counts = _row_counts(monkeypatch, lambda: cohomology._certified_ring(
        fan, linear_relations(fan), "fan ring", inverses))
    assert counts == _expected_counts(ring, fan)


def test_bundle_degree_d_builds_one_row_per_non_basis_face(monkeypatch):
    for name, base, lam, fiber in BUNDLE_CASES:
        build_ring(fiber)  # the fiber ring's own rows are not counted
        ring, counts = _row_counts(
            monkeypatch, lambda: build_bundle_ring(base, lam, fiber)
        )
        assert counts == _expected_counts(ring, fiber), name


def _assert_inverse_rows(ring):
    """Each cone's rewrite reads the inverse of the relations on its rays."""
    assert set(ring._rewrites) == set(ring.max_cones)
    for cone, rewrite in ring._rewrites.items():
        rays = sorted(cone)
        relation_matrix = tuple(
            tuple(rel[rho] for rho in rays) for rel in ring.relations
        )
        assert tuple(rewrite[rho][1] for rho in rays) == (
            hnf_inverse(relation_matrix)
        )


@pytest.mark.parametrize("name,make_ring", FAN_CASES,
                         ids=[name for name, _ in FAN_CASES])
def test_cone_rewrites_read_the_inverse_of_the_relations(name, make_ring):
    _assert_inverse_rows(make_ring())


def test_bundle_cone_rewrites_read_the_inverse_of_the_relations():
    for name, base, lam, fiber in BUNDLE_CASES:
        _assert_inverse_rows(build_bundle_ring(base, lam, fiber))


def test_rings_share_the_dual_rows_of_one_table():
    # a fan ring's inverse rows are the fan's cone_duals rows, a bundle
    # ring's are its fiber ring's, whose rewrites it reads, and the rewrites
    # keep those same tuples
    _, base, lam, fiber = BUNDLE_CASES[-1]
    ring = build_ring(fiber)
    rows = cone_duals(fiber).rows
    assert ring.inverses is rows
    bundle = build_bundle_ring(base, lam, fiber)
    assert bundle.inverses is rows
    assert bundle._rewrites is ring._rewrites
    for cone, dual in zip(fiber.max_cones, rows):
        rewrite = bundle._rewrites[cone]
        assert all(rewrite[rho][1] is row
                   for rho, row in zip(sorted(cone), dual))


def test_cleared_caches_rebuild_every_ring_on_the_new_dual_rows():
    # clearing the per-fan caches together leaves no ring on the old rows:
    # the rebuilt fan ring, a bundle ring over that fan and the fan's
    # tautological pair ring all read the new cone_duals rows
    _, base, lam, fiber = BUNDLE_CASES[-1]
    old = build_ring(fiber)
    clear_fan_caches()
    rows = cone_duals(fiber).rows
    ring = build_ring(fiber)
    assert ring is not old and old.inverses is not rows
    assert ring.inverses is rows
    assert build_bundle_ring(base, lam, fiber).inverses is rows
    assert ordinary_ring(tautological_pair(fiber)) is ring


def test_weight_table_determinants_are_the_charmap_determinants():
    pairs = list(corpus_pairs()) + quasitoric_pairs()
    pairs.append(("CP2#CP2", cp2_sharp_cp2()))
    for name, pair in pairs:
        assert weight_table(pair).determinants == tuple(
            determinant(cone_vectors(pair.charmap, cone))
            for cone in pair.complex.max_cones
        ), name
    assert weight_table(cp2_sharp_cp2()).determinants == (1, 1, -1, -1)


def test_a_pair_ring_reads_the_weight_table_rows():
    # a pair whose charmap is not its rays gets its own ring, whose cone
    # inverses are the weight table's rows, kept as given
    pair = cp2_sharp_cp2()
    clear_fan_caches()
    ring = ordinary_ring(pair)
    assert ring.inverses is weight_table(pair).rows
    assert ring.betti() == [1, 2, 1]
