"""Rings with linear relations against the all-face-monomial reference.

The library eliminates over squarefree face monomials and rewrites every
other monomial into them; ``AllFaceMonomialRing`` eliminates over every
face monomial.  Both certify the same planned basis, so bases, ranks,
normal forms and products must agree exactly.
"""

import random

import pytest

from helpers import (
    AllFaceMonomialRing,
    dp6,
    p1,
    p1_power,
    p2,
    projective_space,
)
from toricbundles import CharacteristicPair, build_ring, product_fan
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


def random_poly(ring, rng, terms=8):
    """Face monomials with repeated exponents, plus terms that must vanish."""
    faces = sorted((f for f in ring.faces if len(f) <= ring.degree_cap),
                   key=lambda f: (len(f), sorted(f)))
    poly = {}
    for _ in range(terms):
        face = sorted(rng.choice(faces))
        exps = [0] * ring.ray_count
        for rho in face:
            exps[rho] = 1
        if face:
            for _ in range(rng.randint(0, ring.degree_cap - len(face))):
                exps[rng.choice(face)] += 1
        mono = tuple(exps)
        poly[mono] = poly.get(mono, 0) + rng.randint(-5, 5)
    for nonface in ring.nonfaces[:2]:
        mono = tuple(2 if i in nonface else 0 for i in range(ring.ray_count))
        poly[mono] = rng.randint(1, 5)
    above = tuple(ring.degree_cap + 1 if i == 0 else 0
                  for i in range(ring.ray_count))
    poly[above] = 7
    return poly


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
        poly = random_poly(ring, rng)
        rewritten += sum(
            1 for m in poly if max(m) > 1 and sum(m) <= ring.degree_cap
            and ring.is_face(i for i, e in enumerate(m) if e)
        )
        cls = ring.reduce_poly(poly)
        assert cls.parts == ref.reduce(poly)
        classes.append(cls)
    assert rewritten > 0 or ring.degree_cap < 2
    for a, b in zip(classes, classes[1:] + classes[:1]):
        assert (a * b).parts == ref.multiply(a.parts, b.parts)
