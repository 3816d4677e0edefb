"""Fixed-point localization against its term-by-term reference.

``restrict_to_fixed_point`` collects a class's terms supported in a cone
and makes one memoised ``WeightPolynomial.substitute`` call;
``helpers.naive_restrict`` and ``helpers.naive_substitute`` expand every
monomial as a fresh product of linear forms, in the tuple-keyed
``helpers.TupleWeightPolynomial``.  The classes are seeded random
face-ring classes with negative coefficients, and products of them, whose
face monomials carry repeated exponents.
"""

import random

import pytest

from helpers import determinant, naive_restrict, naive_substitute, reference_of
from toricbundles import WeightPolynomial, face_ring, restrict_to_fixed_point
from toricbundles.corpus import corpus_pairs
from toricbundles.lattice import identity


def random_class(ring, rng, terms=5):
    monomials = [
        m for d in range(ring.degree_cap + 1) for m in ring.basis_monomials(d)
    ]
    return ring.reduce_poly(
        {rng.choice(monomials): rng.choice([-3, -2, -1, 1, 2, 3])
         for _ in range(terms)}
    )


@pytest.mark.parametrize("degree_bound", [None, 4])
def test_restriction_matches_reference_on_corpus(degree_bound):
    rng = random.Random(2025 if degree_bound is None else 4)
    for name, pair in corpus_pairs():
        ring = face_ring(pair, degree_bound)
        a, b = random_class(ring, rng), random_class(ring, rng)
        for cls in (a, b, a * b, a * a * b):
            for sigma in pair.complex.max_cones:
                assert reference_of(restrict_to_fixed_point(
                    pair, cls, sigma)) == naive_restrict(pair, cls, sigma), (
                    name, degree_bound, sorted(sigma))


def random_unimodular(n, rng):
    """A product of signed permutations and elementary row operations."""
    m = [list(row) for row in identity(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            m[i], m[j] = m[j], m[i]
    assert abs(determinant(m)) == 1
    return [tuple(row) for row in m]


def test_substitute_matches_reference_under_unimodular_forms():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-4, 4)
            for _ in range(rng.randint(0, 6))
        }
        poly = WeightPolynomial(n, terms)
        forms = random_unimodular(n, rng)
        assert reference_of(poly.substitute(forms)) == naive_substitute(
            poly, forms), (terms, forms)
