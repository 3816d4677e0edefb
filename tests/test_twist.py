import random

import pytest

from helpers import (
    dim5_twist_data,
    nonprojective_threefold,
    p1,
    p2,
    square_fan,
)
from toricbundles import (
    CharacteristicPair,
    make_fan,
    make_plmap,
    principal_classes,
    product_fan,
    tautological_pair,
    twisted_fan,
    twisted_pair,
    validate,
)
from toricbundles.corpus import corpus_instances
from toricbundles.lattice import mat_vec
from toricbundles.twist import PiecewiseLinearMap, validate_pair


def test_zero_twist_is_product():
    twisted = twisted_fan(p1(), p1(), make_plmap(1, [[0], [0]]))
    assert twisted == product_fan(p1(), p1())


def test_hirzebruch_rays_and_cones():
    a = 2
    twisted = twisted_fan(p1(), p1(), make_plmap(1, [[a], [0]]))
    assert twisted.rays == ((1, a), (-1, 0), (0, 1), (0, -1))
    assert len(twisted.max_cones) == 4
    assert validate(twisted).all_good


def test_p2_p1_zero_twist_counts():
    twisted = twisted_fan(p2(), p1(), make_plmap(1, [[0], [0], [0]]))
    assert twisted.ray_count == 5
    assert len(twisted.max_cones) == 6


def test_ray_and_cone_counts_always_add_and_multiply():
    cases = [
        (p1(), p2(), make_plmap(2, [[1, 2], [0, 3]])),
        (p2(), p1(), make_plmap(1, [[1], [2], [3]])),
        (square_fan(), p1(), make_plmap(1, [[1], [0], [2], [0]])),
    ]
    for base, fiber, phi in cases:
        twisted = twisted_fan(base, fiber, phi)
        assert twisted.ray_count == base.ray_count + fiber.ray_count
        assert len(twisted.max_cones) == (
            len(base.max_cones) * len(fiber.max_cones)
        )
        assert validate(twisted).all_good


def _ray_order_cases():
    cases = [(inst.name, inst.base, inst.fiber, inst.phi)
             for inst in corpus_instances()]
    cases += [(f"dim-5 twist {k}", *data)
              for k, data in enumerate(dim5_twist_data(7, 29))]
    rng = random.Random("twisted ray order")
    threefold = nonprojective_threefold()
    for name, base, fiber in (("P1 over the threefold", threefold, p1()),
                              ("the threefold over P2", p2(), threefold)):
        phi = make_plmap(fiber.dim, [
            [rng.randint(-3, 3) for _ in range(fiber.dim)]
            for _ in range(base.ray_count)
        ])
        cases.append((name, base, fiber, phi))
    return cases


RAY_ORDER_CASES = _ray_order_cases()


@pytest.mark.parametrize("name,base,fiber,phi", RAY_ORDER_CASES,
                         ids=[case[0] for case in RAY_ORDER_CASES])
def test_twisted_rays_are_the_lifts_then_the_fiber_rays(name, base, fiber,
                                                        phi):
    # the bundle formula maps base ray i to twisted ray i and reads the
    # fiber rays as the last fiber.ray_count rays
    twisted = twisted_fan(base, fiber, phi)
    assert twisted.rays == (
        tuple(v + lift for v, lift in zip(base.rays, phi.values))
        + tuple((0,) * base.dim + w for w in fiber.rays)
    )
    assert twisted.parts == (base, fiber, phi.values)


def test_twisted_fan_input_errors():
    with pytest.raises(ValueError):
        twisted_fan(p1(), p1(), make_plmap(1, [[1]]))  # one value, two rays
    with pytest.raises(ValueError):
        twisted_fan(p1(), p2(), make_plmap(1, [[1], [0]]))  # rank mismatch
    incomplete = make_fan(1, [[1], [-1]], [[0]])
    with pytest.raises(ValueError):
        twisted_fan(incomplete, p1(), make_plmap(1, [[0], [0]]))
    non_smooth = make_fan(2, [[1, 0], [1, 2], [-1, -1]],
                          [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError):
        twisted_fan(p1(), non_smooth, make_plmap(2, [[0, 0], [0, 0]]))


def test_block_unimodular_transform_of_codomain():
    base, fiber = p1(), p1()
    phi = make_plmap(1, [[1], [0]])
    u = ((-1,),)  # automorphism of the fiber lattice
    moved_fiber = make_fan(1, [mat_vec(u, w) for w in fiber.rays],
                           [sorted(c) for c in fiber.max_cones])
    moved_phi = PiecewiseLinearMap(1, tuple(mat_vec(u, v) for v in phi.values))
    a = twisted_fan(base, fiber, phi)
    b = twisted_fan(base, moved_fiber, moved_phi)
    # rays are related by the block transform (id, u)
    assert b.rays == tuple(r[:1] + mat_vec(u, r[1:]) for r in a.rays)
    assert b.max_cones == a.max_cones


def test_twisted_pair_tautological_matches_twisted_fan():
    phi = make_plmap(1, [[1], [0]])
    pair = twisted_pair(tautological_pair(p1()), tautological_pair(p1()), phi)
    twisted = twisted_fan(p1(), p1(), phi)
    assert pair.charmap == twisted.rays
    assert pair.complex == twisted


def test_twisted_pair_zero_twist_is_product_pair():
    phi = make_plmap(1, [[0], [0]])
    pair = twisted_pair(tautological_pair(p1()), tautological_pair(p1()), phi)
    assert pair.complex == product_fan(p1(), p1())
    assert pair.charmap == pair.complex.rays


def test_twisted_pair_hirzebruch_unimodular_faces():
    phi = make_plmap(1, [[1], [0]])
    pair = twisted_pair(tautological_pair(p1()), tautological_pair(p1()), phi)
    validate_pair(pair)  # raises on any non-unimodular maximal face
    assert len(pair.complex.max_cones) == 4


def test_nonsingularity_violation_reports_face():
    f = make_fan(1, [[1], [-1]], [[0], [1]])
    with pytest.raises(ValueError, match=r"maximal face \[1\]"):
        validate_pair(CharacteristicPair(complex=f, charmap=((1,), (2,))))


def test_principal_classes_examples():
    assert principal_classes(make_plmap(1, [[0], [0]])) == [(0, 0)]
    a = 3
    assert principal_classes(make_plmap(1, [[a], [0]])) == [(a, 0)]
    phi = make_plmap(1, [[1], [0], [0]])
    assert principal_classes(phi) == [(1, 0, 0)]
    phi2 = make_plmap(2, [[1, 2], [0, 3]])
    assert principal_classes(phi2) == [(1, 0), (2, 3)]
