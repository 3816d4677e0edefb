"""Rings with linear relations against the all-face-monomial references.

The library eliminates over squarefree face monomials and rewrites every
other monomial into them; ``AllFaceMonomialRing`` eliminates over every
face monomial.  Both certify the same planned basis, so bases, ranks,
normal forms and products must agree exactly.  The bundle ring does the
same with base-class coefficients and the twisting classes as rewrite
constants and carries; ``AllFaceMonomialBundleRing`` keeps every face
monomial up to fiber degree 2n instead, and the two must agree on bases,
ranks, products, reductions, total Chern classes and Chern numbers.
"""

import random

import pytest

from helpers import (
    AllFaceMonomialBundleRing,
    AllFaceMonomialRing,
    bundle_cases,
    dp6,
    left_to_right_chern_numbers,
    p1,
    p1_power,
    p2,
    projective_space,
    random_face_poly,
    random_fiber_poly,
    supported_on_a_face,
)
from toricbundles import (
    CharacteristicPair,
    build_bundle_ring,
    build_ring,
    chern_numbers_bundle,
    product_fan,
    total_chern_general,
)
from toricbundles.cohomology import CohomologyClass
from toricbundles.corpus import corpus_fans, hirzebruch
from toricbundles.equivariant import ordinary_ring


def _alt_charmap_ring(fan, charmap):
    return ordinary_ring(CharacteristicPair(complex=fan, charmap=charmap))


CASES = [(name, lambda f=f: build_ring(f)) for name, f in corpus_fans()] + [
    ("P5", lambda: build_ring(projective_space(5))),
    ("(P1)^4", lambda: build_ring(p1_power(4))),
    ("dP6xP1", lambda: build_ring(product_fan(dp6(), p1()))),
    ("F3", lambda: build_ring(hirzebruch(3))),
    # characteristic maps that differ from the rays: the relations are not
    # the fan's, so every rewrite goes through the pair's own rows
    ("P2 alt charmap",
     lambda: _alt_charmap_ring(p2(), ((1, 0), (1, 1), (0, -1)))),
    ("P3 alt charmap",
     lambda: _alt_charmap_ring(projective_space(3), (
         (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)))),
]


@pytest.mark.parametrize("name,make_ring", CASES,
                         ids=[name for name, _ in CASES])
def test_squarefree_columns_match_all_face_monomials(name, make_ring):
    ring = make_ring()
    ref = AllFaceMonomialRing(ring)
    assert ring.betti() == ref.betti()
    for d in range(ring.degree_cap + 1):
        assert ring.basis_monomials(d) == ref.basis_monomials(d)
    rng = random.Random(f"reference {name}")
    classes = []
    rewritten = 0
    for _ in range(12):
        poly = random_face_poly(ring, rng)
        rewritten += sum(
            1 for m in poly if max(m) > 1 and sum(m) <= ring.degree_cap
            and supported_on_a_face(ring, m)
        )
        cls = ring.reduce_poly(poly)
        assert cls.parts == ref.reduce(poly)
        classes.append(cls)
    assert rewritten > 0 or ring.degree_cap < 2
    for a, b in zip(classes, classes[1:] + classes[:1]):
        assert (a * b).parts == ref.multiply(a.parts, b.parts)


BUNDLE_CASES = bundle_cases()


@pytest.mark.parametrize("name,base,lam,fiber", BUNDLE_CASES,
                         ids=[case[0] for case in BUNDLE_CASES])
def test_bundle_ring_matches_all_face_monomial_reference(name, base, lam,
                                                         fiber):
    ring = build_bundle_ring(base, lam, fiber)
    ref = AllFaceMonomialBundleRing(base, lam, fiber)
    n = fiber.dim
    assert any(lam.classes) or name.endswith("untwisted")
    assert [ring.rank(d) for d in range(n + 1)] == [
        ref.rank(d) for d in range(n + 1)
    ]
    unit = base.unit()
    basis = []
    for d in range(n + 1):
        assert ring.basis_monomials(d) == ref.basis_monomials(d)
        basis += ring.basis_monomials(d)
    for m1 in basis:
        for m2 in basis:
            prod = ring.reduce_poly({m1: unit}) * ring.reduce_poly({m2: unit})
            expected = ref.reduce_poly({m1: unit}) * ref.reduce_poly({m2: unit})
            assert prod.parts == expected.parts, (m1, m2)
    rng = random.Random(f"bundle reference {name}")
    rewritten = 0
    for _ in range(6):
        poly = random_fiber_poly(ring, rng)
        rewritten += sum(1 for m in poly if max(m) > 1)
        cls = ring.reduce_poly(poly)
        expected = ref.reduce_poly(poly)
        assert cls.parts == expected.parts
        other = ring.reduce_poly(random_fiber_poly(ring, rng))
        assert (cls * other).parts == ref.multiply(
            expected, CohomologyClass(ref, other.parts)
        ).parts
    assert rewritten > 0
    total = total_chern_general(ring)
    ref_total = ref.total_chern()
    assert total.parts == ref_total.parts
    assert chern_numbers_bundle(ring, total) == left_to_right_chern_numbers(
        ref, ref_total
    )
