import pytest

from helpers import (
    TupleWeightPolynomial,
    congruent_mod_form,
    p1,
    p2,
    reference_of,
    square_fan,
)
from toricbundles import (
    WeightPolynomial,
    build_ring,
    equivariant_total_chern,
    face_ring,
    forget,
    make_plmap,
    masuda_check,
    product_fan,
    restrict_to_fixed_point,
    tautological_pair,
    total_chern_intrinsic,
    twisted_pair,
)
from toricbundles.cohomology import RingConsistencyError
from toricbundles.faces import face_monomial_sum
from toricbundles.corpus import corpus_pairs
from toricbundles.equivariant import fixed_point_weights, ordinary_ring
from toricbundles.fan import walls


def t(n, k):
    return TupleWeightPolynomial.linear(
        tuple(1 if i == k else 0 for i in range(n)))


def one(n):
    return TupleWeightPolynomial.constant(n, 1)


def restricted(pair, cls, sigma):
    """The library's restriction, as the tuple-keyed reference."""
    return reference_of(restrict_to_fixed_point(pair, cls, sigma))


def test_face_ring_ranks():
    assert face_ring(tautological_pair(p1())).betti() == [1, 2]
    assert face_ring(tautological_pair(p2())).betti() == [1, 3, 6]
    assert face_ring(tautological_pair(p2()), degree_bound=0).betti() == [1]


def test_the_face_ring_is_no_quotient_ring():
    # every face monomial is a basis column: nothing is eliminated, and a
    # monomial whose support is no face is zero
    from toricbundles.cohomology import GradedQuotientRing, GradedRing
    from toricbundles.equivariant import FaceRing

    ring = face_ring(tautological_pair(p2()))
    assert isinstance(ring, FaceRing) and isinstance(ring, GradedRing)
    assert not isinstance(ring, GradedQuotientRing)
    assert all(piece.pivots == {} for piece in ring._degrees)
    assert ring.reduce_poly({(1, 1, 1): 1}).is_zero()
    x0 = ring.generator(0)
    assert (x0 * x0).to_poly() == {(2, 0, 0): 1}
    total = equivariant_total_chern(tautological_pair(p2()))
    assert total.parts == ring.face_sum().parts == ((1,), (1, 1, 1),
                                                     (0, 1, 1, 0, 1, 0))


def test_truncated_face_ring_has_no_point_class():
    ring = face_ring(tautological_pair(p2()), degree_bound=0)
    with pytest.raises(ValueError, match="truncated at degree 0.*top degree 4"):
        ring.point_class()
    with pytest.raises(ValueError, match="truncated at degree 0.*top degree 4"):
        ring.integrate(ring.zero())


@pytest.mark.parametrize("bound", [None, 0, 8])
def test_face_ring_pairs_as_it_integrates(bound):
    # no point class, so the pairing raises the error integrate raises
    ring = face_ring(tautological_pair(p2()), degree_bound=bound)
    a, b = ring.face_sum(), ring.unit()
    with pytest.raises((ValueError, RingConsistencyError),
                       match="no point class") as integrated:
        ring.integrate((a * b).component(ring.dim))
    with pytest.raises(type(integrated.value)) as paired:
        ring.integrate_product(a, b)
    assert str(paired.value) == str(integrated.value)


def test_face_ring_rejects_odd_bound():
    with pytest.raises(ValueError):
        face_ring(tautological_pair(p1()), degree_bound=3)


def test_equivariant_total_chern_p1():
    pair = tautological_pair(p1())
    c = equivariant_total_chern(pair)
    assert c.parts == ((1,), (1, 1))  # 1 + x0 + x1; x0*x1 dies


def test_equivariant_total_chern_rank_zero_pair():
    from toricbundles import CharacteristicPair, Fan

    point = CharacteristicPair(
        complex=Fan(dim=0, rays=(), max_cones=(frozenset(),)), charmap=()
    )
    assert equivariant_total_chern(point).parts == ((1,),)  # empty product


def test_equivariant_total_chern_p2():
    pair = tautological_pair(p2())
    c = equivariant_total_chern(pair)
    assert c.coefficients(0) == (1,)
    assert c.coefficients(1) == (1, 1, 1)
    assert c.coefficients(2) == (0, 1, 1, 0, 1, 0)  # the three x_i*x_j faces


def _dim5_twisted_pair():
    """(P2 x P1) over P1 x P1, a twisted pair at the benchmark's dimension."""
    return twisted_pair(
        tautological_pair(square_fan()),
        tautological_pair(product_fan(p2(), p1())),
        make_plmap(3, [[1, 0, -1], [0, 2, 0], [-1, 1, 1], [2, 0, 1]]),
    )


PAIRS = list(corpus_pairs()) + [("dim-5 twisted pair", _dim5_twisted_pair())]


@pytest.mark.parametrize("name,pair", PAIRS, ids=[name for name, _ in PAIRS])
def test_equivariant_total_chern_matches_the_reduce_poly_route(name, pair):
    # the reference: the face-monomial sum brought to normal form by
    # reduce_poly, at the default bound and every bound 2n, 2n + 2, ..., 4n
    n = pair.complex.dim
    for bound in [None, *range(2 * n, 4 * n + 1, 2)]:
        cls = equivariant_total_chern(pair, bound)
        ring = cls.ring
        assert cls == ring.reduce_poly(
            face_monomial_sum(ring.face_masks, ring.ray_count)
        ), bound


def test_restriction_p1_classical_weights():
    pair = tautological_pair(p1())
    c = equivariant_total_chern(pair)
    assert restricted(pair, c, {0}) == one(1) + t(1, 0)
    assert restricted(pair, c, {1}) == one(1) - t(1, 0)


def test_restriction_of_unit_is_unit():
    pair = tautological_pair(p2())
    ring = face_ring(pair)
    for sigma in pair.complex.max_cones:
        assert restricted(pair, ring.unit(), sigma) == one(2)


def test_restriction_p2_standard_cone():
    pair = tautological_pair(p2())
    c = equivariant_total_chern(pair)
    expected = (one(2) + t(2, 0)) * (one(2) + t(2, 1))
    assert restricted(pair, c, {0, 1}) == expected


def test_restriction_is_ring_hom_on_samples():
    pair = tautological_pair(p2())
    ring = face_ring(pair)
    a = ring.reduce_poly({(1, 0, 0): 2, (0, 1, 0): 1})
    b = ring.reduce_poly({(0, 1, 0): 1, (0, 0, 1): -3})
    for sigma in pair.complex.max_cones:
        lhs = restricted(pair, a * b, sigma)
        rhs = restricted(pair, a, sigma) * restricted(pair, b, sigma)
        assert lhs == rhs


def test_fixed_point_weights_dual_basis():
    pair = tautological_pair(p2())
    for sigma in pair.complex.max_cones:
        weights = fixed_point_weights(pair, sigma)
        rays = sorted(sigma)
        for i, u in enumerate(weights):
            for j, rho in enumerate(rays):
                pairing = sum(
                    a * b for a, b in zip(u, pair.charmap[rho])
                )
                assert pairing == (1 if i == j else 0)


def test_fixed_point_weights_requires_maximal_cone():
    pair = tautological_pair(p2())
    with pytest.raises(ValueError):
        fixed_point_weights(pair, {0})


def test_masuda_p1_p2_and_twisted():
    assert masuda_check(tautological_pair(p1())).passed
    assert masuda_check(tautological_pair(p2())).passed
    pair = twisted_pair(
        tautological_pair(p1()), tautological_pair(p1()),
        make_plmap(1, [[1], [0]]),
    )
    report = masuda_check(pair)
    assert report.passed
    assert len(report.checks) == 4


def test_masuda_all_corpus_pairs():
    for name, pair in corpus_pairs():
        assert masuda_check(pair).passed, name


def test_gkm_wall_consistency():
    # restrictions at the two cones of a wall agree modulo the weight of
    # the missing ray, for corpus pairs and the equivariant Chern class
    for name, pair in corpus_pairs():
        if pair.complex.dim > 2:
            continue  # desk-scale sampling; higher dims covered by masuda
        c = equivariant_total_chern(pair)
        cone_list = list(pair.complex.max_cones)
        for wall, containing in walls(pair.complex):
            if len(containing) != 2:
                continue
            sigma, sigma2 = (cone_list[k] for k in containing)
            missing = next(iter(sigma - set(wall)))
            weight = dict(
                zip(sorted(sigma), fixed_point_weights(pair, sigma))
            )[missing]
            ra = restrict_to_fixed_point(pair, c, sigma)
            rb = restrict_to_fixed_point(pair, c, sigma2)
            assert congruent_mod_form(ra, rb, weight), (name, wall)


def test_forget_p1():
    pair = tautological_pair(p1())
    image = forget(pair, equivariant_total_chern(pair))
    assert image.parts == ((1,), (2,))  # 1 + 2x


def test_forget_unit():
    pair = tautological_pair(p2())
    ring = face_ring(pair)
    assert forget(pair, ring.unit()) == build_ring(p2()).unit()


def test_forget_equals_intrinsic_on_corpus():
    for name, pair in corpus_pairs():
        image = forget(pair, equivariant_total_chern(pair))
        assert image == total_chern_intrinsic(ordinary_ring(pair)), name


def test_ordinary_ring_with_nonstandard_charmap():
    # a genuine quasitoric pair: P2 combinatorics, non-ray characteristic map
    f = p2()
    pair_map = ((1, 0), (0, 1), (-1, -1))
    alt = ((1, 0), (1, 1), (0, -1))  # still unimodular on each pair
    from toricbundles import CharacteristicPair

    pair = CharacteristicPair(complex=f, charmap=alt)
    ring = ordinary_ring(pair)
    assert ring.betti() == [1, 1, 1]
    assert masuda_check(pair).passed
    image = forget(pair, equivariant_total_chern(pair))
    assert image == total_chern_intrinsic(ring)


def test_congruent_mod_form_basics():
    a = t(2, 0) * t(2, 0)
    b = t(2, 0) * t(2, 1)
    # t1^2 - t1*t2 = t1 (t1 - t2) vanishes mod (1, -1)
    assert congruent_mod_form(a, b, (1, -1)) is True
    assert not congruent_mod_form(a, b, (0, 1))
    # t1^2 - t2^2 leaves -t2^2 mod t1
    assert congruent_mod_form(a, t(2, 1) * t(2, 1), (1, 0)) is False


def test_weight_polynomial_repr_stable():
    p = WeightPolynomial(2, {(0, 0): 1, (0, 1): 1, (2, 0): -2})
    assert repr(p) == "1 + t2 - 2*t1^2"
