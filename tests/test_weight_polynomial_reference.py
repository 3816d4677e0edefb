"""Packed ``WeightPolynomial`` against its tuple-keyed reference.

``helpers.TupleWeightPolynomial`` is the arithmetic on exponent tuples;
the library packs each monomial into one integer.  Every operation must
give the same terms, equality, hash and text: on seeded polynomials in
0-6 variables, on seeded substitutions whose Horner cofactors repeat or
differ in one coefficient, and on every restricted and expected
polynomial of the Masuda check over the corpus pairs and seeded twisted
pairs.  The check's power to detect is pinned on corrupted total
classes: x_rho, x_rho^2 added or x_tau taken away must fail exactly at
the fixed points whose cone holds the support, and every restriction,
passed or not, must equal the reference's.
"""

import random

import pytest

from helpers import (
    TupleWeightPolynomial,
    charmap_pair_cases,
    nonprojective_threefold,
)
from toricbundles import (
    WeightPolynomial,
    masuda_check,
    restrict_to_fixed_point,
)
from toricbundles.corpus import (
    corpus_pairs,
    projective_line,
    projective_plane,
    quadric_surface,
)
from toricbundles.equivariant import FIELD_BITS, equivariant_total_chern
from toricbundles.twist import make_plmap, tautological_pair, twisted_pair


def random_terms(n, rng):
    """Up to 8 terms, exponents up to 2n, negative coefficients."""
    return {
        tuple(rng.randint(0, 2 * n) for _ in range(n)): rng.choice(
            [-5, -2, -1, 1, 1, 3, 7]
        )
        for _ in range(rng.randint(0, 8))
    }


def both(n, terms):
    return WeightPolynomial(n, terms), TupleWeightPolynomial(n, terms)


def assert_same(packed, reference):
    assert packed.nvars == reference.nvars
    assert dict(packed.terms) == reference.terms
    assert repr(packed) == repr(reference)
    assert hash(packed) == hash(reference)
    assert packed.is_zero() == reference.is_zero()


@pytest.mark.parametrize("n", range(7))
def test_arithmetic_matches_reference(n):
    rng = random.Random(f"weight polynomials {n}")
    samples = [both(n, {}), both(n, {(0,) * n: 1}), both(n, {(0,) * n: -4})]
    samples += [both(n, random_terms(n, rng)) for _ in range(12)]
    for a, ra in samples:
        assert_same(a, ra)
        for k in (0, 1, -1, 3):
            assert_same(a * k, ra * k)
            assert_same(k * a, k * ra)
        for b, rb in samples:
            assert_same(a + b, ra + rb)
            assert_same(a - b, ra - rb)
            assert_same(a * b, ra * rb)
            assert (a == b) == (ra == rb)
        # degrees reach 2n^2: two target variables keep the expansion small
        m = rng.randint(0, 2)
        forms = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)]
        assert_same(a.substitute(forms), ra.substitute(forms))
        if all(sum(exps) <= 6 for exps in ra.terms):
            square = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
            assert_same(a.substitute(square), ra.substitute(square))


@pytest.mark.parametrize("n", range(1, 6))
def test_substitution_with_repeated_cofactors_matches_reference(n):
    # sum_e t_1^e C_e with each C_e the previous one, or it with one
    # coefficient moved: a reused image must be the image of an equal
    # cofactor; products of (1 + t_k) repeat at every variable
    rng = random.Random(f"repeated cofactors {n}")
    product = {(0,) * n: 1}
    for k in range(n):
        product.update({exps[:k] + (1,) + exps[k + 1:]: c
                        for exps, c in product.items()})
    samples = [product]
    for _ in range(10):
        cofactor = random_terms(n - 1, rng) or {(0,) * (n - 1): 1}
        terms = {}
        for e in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                cofactor = dict(cofactor)
                exps = rng.choice(sorted(cofactor))
                cofactor[exps] += rng.choice([-1, 1])
            terms.update({(e,) + exps: c for exps, c in cofactor.items()})
        samples.append(terms)
    nudged = dict(product)
    nudged[rng.choice(sorted(product))] += 1
    samples.append(nudged)
    for terms in samples:
        a, ra = both(n, terms)
        for m in range(3):
            forms = [tuple(rng.randint(-2, 2) for _ in range(m))
                     for _ in range(n)]
            assert_same(a.substitute(forms), ra.substitute(forms))


def test_constant_and_linear_match_reference():
    for n in range(7):
        assert_same(WeightPolynomial.constant(n, 5),
                    TupleWeightPolynomial.constant(n, 5))
        assert_same(WeightPolynomial.constant(n, 0),
                    TupleWeightPolynomial.constant(n, 0))
        coeffs = tuple(range(-2, n - 2))
        assert_same(WeightPolynomial.linear(coeffs),
                    TupleWeightPolynomial.linear(coeffs))


def seeded_twisted_pairs(count=20):
    rng = random.Random("masuda reference pairs")
    fans = (projective_line(), projective_plane(), quadric_surface())
    pairs = []
    for _ in range(count):
        base, fiber = rng.choice(fans), rng.choice(fans)
        phi = make_plmap(fiber.dim, [
            [rng.randint(-2, 2) for _ in range(fiber.dim)] for _ in base.rays
        ])
        pairs.append(twisted_pair(
            tautological_pair(base), tautological_pair(fiber), phi
        ))
    return pairs


def reference_check(pair, poly, sigma, weights):
    """Restricted and expected polynomials by the tuple-keyed route."""
    rays = sorted(sigma)
    outside = [r for r in range(pair.complex.ray_count) if r not in sigma]
    local = {
        tuple(mono[r] for r in rays): coeff
        for mono, coeff in poly.items()
        if not any(mono[r] for r in outside)
    }
    restricted = TupleWeightPolynomial(len(rays), local).substitute(weights)
    one = TupleWeightPolynomial.constant(pair.complex.dim, 1)
    expected = one
    for w in weights:
        expected = expected * (one + TupleWeightPolynomial.linear(w))
    return restricted, expected


def test_masuda_polynomials_match_reference():
    pairs = [pair for _, pair in corpus_pairs()] + seeded_twisted_pairs()
    assert len(pairs) > 40
    for pair in pairs:
        report = masuda_check(pair)
        assert report.passed
        poly = equivariant_total_chern(pair).to_poly()
        for check in report.checks:
            restricted, expected = reference_check(
                pair, poly, check.cone, check.weights
            )
            assert_same(check.restricted, restricted)
            assert_same(check.expected, expected)


DETECTION_PAIRS = (
    list(corpus_pairs()) + charmap_pair_cases()
    + [("non-projective threefold",
        tautological_pair(nonprojective_threefold()))]
)


@pytest.mark.parametrize("name,pair", DETECTION_PAIRS,
                         ids=[name for name, _ in DETECTION_PAIRS])
def test_corrupted_totals_fail_exactly_at_cones_holding_the_support(name,
                                                                    pair):
    f = pair.complex
    rng = random.Random(f"corrupted totals {name}")
    # a degree bound with room for x_rho^2 when n = 1
    total = equivariant_total_chern(pair, 2 * max(f.dim, 2))
    ring = total.ring
    rho = rng.randrange(f.ray_count)
    cone = sorted(rng.choice(f.max_cones))
    tau = rng.sample(cone, rng.randint(min(2, f.dim), f.dim))
    x = [0] * f.ray_count
    x[rho] = 1
    rho_squared = list(x)
    rho_squared[rho] = 2
    x_tau = [int(r in tau) for r in range(f.ray_count)]
    report = masuda_check(pair)
    assert report.passed
    for mono, sign, support in ((x, 1, {rho}), (rho_squared, 1, {rho}),
                                (x_tau, -1, set(tau))):
        corrupted = total + ring.reduce_poly({tuple(mono): sign})
        poly = corrupted.to_poly()
        for check in report.checks:
            restricted = restrict_to_fixed_point(pair, corrupted, check.cone)
            assert (restricted != check.expected) == support.issubset(
                check.cone), (mono, check.cone)
            reference, _ = reference_check(
                pair, poly, check.cone, check.weights
            )
            assert_same(restricted, reference)


def test_field_overflow_names_the_limit():
    limit = 2 ** FIELD_BITS - 1
    t = WeightPolynomial.linear((1, 0))
    top = WeightPolynomial(2, {(limit, 0): 1})
    assert top == WeightPolynomial(2, {(limit - 1, 0): 1}) * t
    message = f"2\\*\\*FIELD_BITS - 1 = {limit}"
    with pytest.raises(ValueError, match=message):
        WeightPolynomial(2, {(limit, 1): 1})
    with pytest.raises(ValueError, match=message):
        top * t
    with pytest.raises(ValueError, match=message):
        t * top
    with pytest.raises(ValueError, match="not an exponent vector"):
        WeightPolynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="not an exponent vector"):
        WeightPolynomial(2, {(1,): 1})
