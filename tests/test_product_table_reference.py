"""The table of normal forms against the all-face-monomial references.

Every product is sum c1 * c2 * NF(m1 * m2) over the basis terms, with NF
read from one table of normal forms: the cone rewrite solves each
monomial it reaches once, and a column's form is read off its pivot row.
``reduce_poly`` reads the same kind of table, and the total class sums
each degree's columns without building a face monomial.
``AllFaceMonomialRing`` and ``AllFaceMonomialBundleRing`` never rewrite:
they eliminate over every face monomial and reduce by walking all their
pivots.  Products, reductions and total classes must agree exactly, with
one table held across all of a ring's calls, on the corpus fans, seeded
dim-5 twists, seeded star subdivisions, seeded non-toric charmaps, the
non-projective threefold and the reference bundle rings.  Tables are
held for one call only: class arithmetic leaves a cached ring's
attribute set as it was, and one ``chern_numbers`` call solves each
monomial once.
"""

import random

import pytest

from helpers import (
    AllFaceMonomialBundleRing,
    AllFaceMonomialRing,
    bundle_cases,
    charmap_pair_cases,
    dim5_twists,
    nonprojective_threefold,
    projective_space,
    random_face_poly,
    random_fiber_poly,
    star_subdivision_cases,
)
from toricbundles import (
    build_bundle_ring,
    build_ring,
    chern_numbers,
    compare,
    make_plmap,
    product_fan,
    total_chern_general,
    total_chern_intrinsic,
    twisted_fan,
)
from toricbundles.cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    NormalForms,
)
from toricbundles.corpus import corpus_fans
from toricbundles.faces import face_monomial_sum
from toricbundles.equivariant import ordinary_ring

RING_CASES = (
    [(name, lambda f=f: build_ring(f)) for name, f in corpus_fans()]
    + [(f"dim-5 twist {k}", lambda f=f: build_ring(f))
       for k, f in enumerate(dim5_twists(40, 5))]
    + [(name, lambda f=f: build_ring(f))
       for name, f in star_subdivision_cases()]
    + [(f"pair {name}", lambda p=p: ordinary_ring(p))
       for name, p in charmap_pair_cases()]
    + [("non-projective threefold",
        lambda: build_ring(nonprojective_threefold()))]
)


@pytest.mark.parametrize("name,make_ring", RING_CASES,
                         ids=[name for name, _ in RING_CASES])
def test_table_products_match_all_face_monomials(name, make_ring):
    ring = make_ring()
    ref = AllFaceMonomialRing(ring)
    total = total_chern_intrinsic(ring)
    assert total.parts == ref.reduce(
        face_monomial_sum(ring.face_masks, ring.ray_count))
    table = ring.normal_forms()
    rng = random.Random(f"product table {name}")
    randoms = []
    for _ in range(4):
        poly = random_face_poly(ring, rng)
        cls = ring.reduce_poly(poly, table)
        assert cls.parts == ref.reduce(poly)
        randoms.append(cls)
    components = [total.component(k) for k in range(ring.dim + 1)]
    pairs = [(a, b) for i, a in enumerate(components)
             for b in components[i:]]
    pairs += list(zip(randoms, randoms[1:] + randoms[:1]))
    pairs += list(zip(components, randoms))
    for a, b in pairs:
        assert ring.multiply(a, b, table).parts == ref.multiply(
            a.parts, b.parts)


BUNDLE_CASES = bundle_cases()


@pytest.mark.parametrize("name,base,lam,fiber", BUNDLE_CASES,
                         ids=[case[0] for case in BUNDLE_CASES])
def test_bundle_table_products_match_all_face_monomials(name, base, lam,
                                                        fiber):
    ring = build_bundle_ring(base, lam, fiber)
    ref = AllFaceMonomialBundleRing(base, lam, fiber)
    unit = base.unit()
    fiber_sum = dict.fromkeys(
        face_monomial_sum(ring.face_masks, ring.ray_count), unit)
    assert ring.face_sum().parts == ref.reduce_poly(fiber_sum).parts
    assert total_chern_general(ring).parts == ref.total_chern().parts
    table = ring.normal_forms()
    basis = [m for d in range(fiber.dim + 1) for m in ring.basis_monomials(d)]
    for m1 in basis:
        for m2 in basis:
            product = ring.multiply(ring.reduce_poly({m1: unit}, table),
                                    ring.reduce_poly({m2: unit}, table), table)
            expected = ref.multiply(ref.reduce_poly({m1: unit}),
                                    ref.reduce_poly({m2: unit}))
            assert product.parts == expected.parts, (m1, m2)
    rng = random.Random(f"bundle product table {name}")
    for _ in range(4):
        poly = random_fiber_poly(ring, rng)
        cls = ring.reduce_poly(poly, table)
        expected = ref.reduce_poly(poly)
        assert cls.parts == expected.parts
        other = ring.reduce_poly(random_fiber_poly(ring, rng), table)
        assert ring.multiply(cls, other, table).parts == ref.multiply(
            expected, CohomologyClass(ref, other.parts)).parts


def test_class_arithmetic_keeps_nothing_on_cached_rings():
    base, fiber = projective_space(2), projective_space(2)
    phi = make_plmap(2, [[0, 0], [1, -1], [2, 1]])
    rings = [build_ring(twisted_fan(base, fiber, phi)),
             build_ring(base), build_ring(fiber)]
    before = [set(vars(ring)) for ring in rings]
    chern_numbers(rings[0], total_chern_intrinsic(rings[0]))
    compare(base, fiber, phi)
    assert [set(vars(ring)) for ring in rings] == before
    for ring in rings:
        assert not any(isinstance(value, NormalForms)
                       for value in vars(ring).values())


@pytest.mark.parametrize("fan", [
    projective_space(5),
    product_fan(projective_space(2), projective_space(2)),
    *dim5_twists(7, 5),
])
def test_one_chern_numbers_call_solves_each_monomial_once(monkeypatch, fan):
    ring = build_ring(fan)
    total = total_chern_intrinsic(ring)
    ring.point_class()  # the ring's own check of every cone, made once
    solved = []
    real = GradedQuotientRing._solve

    def counting(self, table, mono):
        solved.append(mono)
        return real(self, table, mono)

    monkeypatch.setattr(GradedQuotientRing, "_solve", counting)
    chern_numbers(ring, total)
    assert solved
    assert len(solved) == len(set(solved))
