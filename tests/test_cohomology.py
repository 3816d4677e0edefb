import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dp6,
    fresh_ring,
    p1,
    p1_power,
    p2,
    projective_space,
    square_fan,
    star_surface,
    ray_sets,
    subset_faces,
    subset_minimal_nonfaces,
)
from toricbundles import (
    RingConsistencyError,
    build_ring,
    compare,
    linear_relations,
    make_fan,
    minimal_nonfaces,
    product_fan,
)
from toricbundles.corpus import corpus_fans
from toricbundles.faces import h_vector_of, walk_faces
from toricbundles.fan import tables
from toricbundles.twist import make_plmap, twisted_fan


def hirzebruch_fan(a):
    return twisted_fan(p1(), p1(), make_plmap(1, [[a], [0]]))


def all_sample_fans():
    return [p1(), p2(), square_fan(), dp6(), product_fan(p2(), p1()),
            hirzebruch_fan(2)]


def test_minimal_nonfaces_examples():
    assert minimal_nonfaces(p1()) == [frozenset({0, 1})]
    assert minimal_nonfaces(p2()) == [frozenset({0, 1, 2})]
    # square fan with rays in cyclic order: opposite pairs are the nonfaces
    cyclic_square = make_fan(
        2,
        [[1, 0], [0, 1], [-1, 0], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [3, 0]],
    )
    assert sorted(minimal_nonfaces(cyclic_square), key=sorted) == [
        frozenset({0, 2}),
        frozenset({1, 3}),
    ]
    # the product fan lists the first factor's rays first, so indices shift
    assert sorted(minimal_nonfaces(square_fan()), key=sorted) == [
        frozenset({0, 1}),
        frozenset({2, 3}),
    ]


def test_minimal_nonfaces_match_subset_reference():
    # same lists in the same order (by size, then lexicographically), for
    # the module function and for the ring's property alike
    rng = random.Random("minimal nonfaces")
    fans = [f for _, f in corpus_fans()]
    fans += [projective_space(n) for n in range(1, 6)] + [p1_power(3)]
    fans += [star_surface(14, rng) for _ in range(10)]
    for f in fans:
        expected = subset_minimal_nonfaces(f)
        assert minimal_nonfaces(f) == expected
        assert build_ring(f).nonfaces == expected


def test_linear_relations_examples():
    assert linear_relations(p1()) == [(1, -1)]
    assert linear_relations(p2()) == [(1, 0, -1), (0, 1, -1)]
    a = 3
    assert linear_relations(hirzebruch_fan(a)) == [
        (1, -1, 0, 0),
        (a, 0, 1, -1),
    ]


def test_build_ring_ranks():
    assert build_ring(p1()).betti() == [1, 1]
    assert build_ring(p2()).betti() == [1, 1, 1]
    for a in range(4):
        assert build_ring(hirzebruch_fan(a)).betti() == [1, 2, 1]


def test_build_ring_rejects_bad_fans():
    incomplete = make_fan(1, [[1], [-1]], [[0]])
    with pytest.raises(ValueError):
        build_ring(incomplete)
    non_smooth = make_fan(2, [[1, 0], [1, 2], [-1, -1]],
                          [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError):
        build_ring(non_smooth)


def x(ring, rho, power=1):
    return {tuple(power if i == rho else 0 for i in range(ring.ray_count)): 1}


def test_reduce_examples_p1():
    ring = build_ring(p1())
    assert ring.reduce_poly(x(ring, 0)).coefficients(1) == (1,)
    assert ring.reduce_poly(x(ring, 0, power=2)).is_zero()
    assert ring.reduce_poly({}).is_zero()


def test_reduce_of_basis_monomial_is_itself():
    for fan in all_sample_fans():
        ring = build_ring(fan)
        for d in range(ring.degree_cap + 1):
            for pos, mono in enumerate(ring.basis_monomials(d)):
                reduced = ring.reduce_poly({mono: 1})
                expected = tuple(
                    1 if i == pos else 0
                    for i in range(len(ring.basis_monomials(d)))
                )
                assert reduced.coefficients(d) == expected


def test_multiply_unit_and_sr_relation():
    ring = build_ring(p1())
    a = ring.reduce_poly(x(ring, 0))
    assert a * ring.unit() == a
    product = ring.reduce_poly(x(ring, 0)) * ring.reduce_poly(x(ring, 1))
    assert product.is_zero()  # x0*x1 is a Stanley-Reisner relation


def test_p2_hyperplane_squares_to_point():
    ring = build_ring(p2())
    h = ring.reduce_poly(x(ring, 0))
    assert ring.integrate((h * h).component(2)) == 1


def test_point_and_integrate_examples():
    ring1 = build_ring(p1())
    assert ring1.integrate(ring1.reduce_poly(x(ring1, 0))) == 1
    ring2 = build_ring(p2())
    mono = (1, 1, 0)
    assert ring2.integrate(ring2.reduce_poly({mono: 1})) == 1
    for fan in all_sample_fans():
        ring = build_ring(fan)
        assert ring.integrate(ring.point_class()) == 1


def test_integrate_requires_top_degree():
    ring = build_ring(p2())
    with pytest.raises(ValueError):
        ring.integrate(ring.unit())


def test_betti_equals_h_vector_and_symmetry():
    for fan in all_sample_fans():
        ring = build_ring(fan)
        ranks = ring.betti()
        assert ranks == h_vector_of(walk_faces(fan.max_cones), fan.dim)
        assert ranks == ranks[::-1]
        assert sum(ranks) == len(fan.max_cones)
        assert ranks[1] == fan.ray_count - fan.dim


def test_h_vector_examples():
    for fan, hv in ((p2(), [1, 1, 1]), (square_fan(), [1, 2, 1]),
                    (p1(), [1, 1]), (dp6(), [1, 4, 1])):
        assert h_vector_of(walk_faces(fan.max_cones), fan.dim) == hv


def random_polys(ray_count, max_degree=2):
    monomial = st.lists(
        st.integers(min_value=0, max_value=max_degree),
        min_size=ray_count,
        max_size=ray_count,
    ).map(tuple)
    return st.dictionaries(
        monomial, st.integers(min_value=-4, max_value=4), max_size=5
    )


@settings(max_examples=60)
@given(random_polys(3), random_polys(3))
def test_reduce_is_ring_hom_p2(p, q):
    ring = build_ring(p2())
    product = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            product[key] = product.get(key, 0) + c1 * c2
    lhs = ring.reduce_poly(product)
    rhs = ring.reduce_poly(p) * ring.reduce_poly(q)
    assert lhs == rhs


@settings(max_examples=40)
@given(random_polys(4), random_polys(4))
def test_reduce_is_ring_hom_hirzebruch(p, q):
    ring = build_ring(hirzebruch_fan(2))
    product = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            product[key] = product.get(key, 0) + c1 * c2
    assert ring.reduce_poly(product) == ring.reduce_poly(p) * ring.reduce_poly(q)


def test_sign_symmetry_of_elementary_pieces():
    for fan in all_sample_fans():
        ring = build_ring(fan)
        plus = {}
        minus = {}
        for face in ray_sets(ring.face_masks):
            if len(face) > ring.degree_cap:
                continue
            mono = tuple(1 if i in face else 0 for i in range(ring.ray_count))
            plus[mono] = 1
            minus[mono] = (-1) ** len(face)
        cplus = ring.reduce_poly(plus)
        cminus = ring.reduce_poly(minus)
        for k in range(ring.degree_cap + 1):
            assert cminus.coefficients(k) == tuple(
                (-1) ** k * c for c in cplus.coefficients(k)
            )


def test_point_class_consistency_error_detection():
    # the face ring has no linear relations: its top-degree face monomials
    # stay independent, so even untruncated it has no point class
    from toricbundles import face_ring, tautological_pair

    ring = face_ring(tautological_pair(p2()))
    with pytest.raises(RingConsistencyError, match="no point class"):
        ring.point_class()
    with pytest.raises(RingConsistencyError, match="no point class"):
        ring.integrate(ring.zero())


def _p2_ring_with_cone_forms(forms):
    # a fresh P2 quotient ring whose normal-form table holds the given
    # forms for the monomials of its maximal cones, in cone order
    from toricbundles.cohomology import fixed_point_basis_plan

    f = p2()
    ring = _ring_on_plan(f, fixed_point_basis_plan(f))
    table = ring.normal_forms()
    top = ring._offsets[f.dim]
    for cone, form in zip(ring.max_cones, forms(table, top)):
        table[tuple(int(rho in cone) for rho in range(f.ray_count))] = form
    ring.normal_forms = lambda: table
    return ring


def test_point_class_needs_one_class_from_every_maximal_cone():
    ring = _p2_ring_with_cone_forms(
        lambda table, top: [((top, 1),), ((top, 1),), ((top, -1),)])
    with pytest.raises(RingConsistencyError,
                       match="maximal cones yield different point classes"):
        ring.point_class()


def test_point_class_must_generate_the_top_degree():
    ring = _p2_ring_with_cone_forms(lambda table, top: [((top, 2),)] * 3)
    with pytest.raises(RingConsistencyError,
                       match=r"top degree is not generated by the point "
                             r"class: \(2,\)"):
        ring.integrate(ring.zero())


def test_the_point_fan_ring_takes_the_interval_walk():
    # no relations and one maximal cone, the empty one: its interval
    # [{}, {}] is the only column, a planned basis column
    from toricbundles import chern_numbers, chern_numbers_localized
    from toricbundles.chern import total_chern_intrinsic

    point = make_fan(0, [], [[]])
    ring = build_ring(point)
    assert ring.relations == ()
    assert ring.basis_plan == [frozenset()]
    assert ring.betti() == [1]
    assert ring.integrate(ring.unit()) == 1
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    assert numbers == chern_numbers_localized(point) == {(): 1}


def test_torsion_relations_fail_certification():
    # doubled relations leave Z/2 torsion in degree 2: no unit-pivot basis
    from toricbundles.cohomology import GradedQuotientRing, fixed_point_basis_plan

    f = p2()
    doubled = [tuple(2 * c for c in rel) for rel in linear_relations(f)]
    with pytest.raises(RingConsistencyError):
        GradedQuotientRing(
            relations=doubled, max_cones=f.max_cones,
            basis_plan=fixed_point_basis_plan(f), kind="fan ring",
            inverses=tables(f).duals.rows,
        )


def test_relations_need_a_basis_plan():
    # without a plan the relation rows would be silently ignored, and
    # without the inverses no cone could be rewritten: neither has a default
    from toricbundles.cohomology import GradedQuotientRing, fixed_point_basis_plan

    f = p2()
    for missing in ("basis_plan", "inverses"):
        arguments = dict(
            relations=linear_relations(f), max_cones=f.max_cones,
            basis_plan=fixed_point_basis_plan(f), kind="fan ring",
            inverses=tables(f).duals.rows,
        )
        del arguments[missing]
        with pytest.raises(TypeError, match=missing):
            GradedQuotientRing(**arguments)


def test_a_plan_with_a_repeated_set_names_the_face_two_intervals_hold():
    # with bad set {} on every cone of P2, each interval holds the empty face
    from toricbundles.cohomology import GradedQuotientRing

    f = p2()
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 0: column \(0, 0, 0\) lies "
                             r"in the interval of cone \[0, 2\] and in "
                             r"another"):
        GradedQuotientRing(
            relations=linear_relations(f), max_cones=f.max_cones,
            basis_plan=[frozenset()] * 3, kind="fan ring",
            inverses=tables(f).duals.rows,
        )


def _ring_on_plan(f, plan):
    from toricbundles.cohomology import GradedQuotientRing

    return GradedQuotientRing(
        relations=linear_relations(f), max_cones=f.max_cones,
        basis_plan=plan, kind="fan ring", inverses=tables(f).duals.rows,
    )


def test_a_plan_that_misses_a_face_names_it():
    # the intervals [{0}, {0}] and [{1}, {1}] of P1 leave out the empty face
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 0: column \(0, 0\) lies in "
                             r"no interval$"):
        _ring_on_plan(p1(), [frozenset({0}), frozenset({1})])


def test_a_plan_that_misses_faces_names_the_first_by_sorted_rays():
    # bad(sigma) = sigma on the square: every face but the cones is missed,
    # and the empty face's rays, (), sort first
    f = square_fan()
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 0: column \(0, 0, 0, 0\) "
                             r"lies in no interval$"):
        _ring_on_plan(f, list(f.max_cones))


def test_a_bad_set_that_is_no_face_is_named():
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 3: column \(1, 1, 1\) lies "
                             r"in the interval of cone \[0, 1\] and is no "
                             r"face$"):
        _ring_on_plan(p2(), [frozenset({0, 1, 2}), frozenset(), frozenset()])


def _counting_face_walks(monkeypatch):
    """Record the maximal cones of every submask walk of the face masks,
    wherever a module of the package binds the walk."""
    import sys

    from toricbundles import faces

    calls = []
    real = faces.walk_faces

    def counting(max_cones):
        calls.append(tuple(max_cones))
        return real(max_cones)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricbundles") and vars(module).get(
                "walk_faces") is real:
            monkeypatch.setattr(module, "walk_faces", counting)
    return calls


def test_a_certified_ring_builds_its_face_set_once(monkeypatch):
    calls = _counting_face_walks(monkeypatch)
    ring = fresh_ring(dp6())
    assert len(calls) == 1
    assert ray_sets(ring.face_masks) == subset_faces(dp6().max_cones)
    assert ring.nonfaces == subset_minimal_nonfaces(dp6())
    assert len(calls) == 1  # the minimal non-faces read the same masks


def test_a_warm_compare_walks_the_faces_of_the_twisted_fan_only(monkeypatch):
    # the base ring is warm, and the fiber factor reads the twisted ring's
    # masks inside the fiber rays, so the one walk is the new twisted fan's
    base, fiber = p2(), p1()
    compare(base, fiber, make_plmap(1, [[0], [1], [2]]))
    phi = make_plmap(1, [[5], [-3], [11]])
    twisted = twisted_fan(base, fiber, phi)
    calls = _counting_face_walks(monkeypatch)
    assert compare(base, fiber, phi).equal
    assert calls == [twisted.max_cones]
