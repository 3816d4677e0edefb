import gc
import random
import sys
import threading
import weakref
from math import comb, factorial

import pytest

from helpers import (
    blow_up,
    clear_fan_caches,
    dp6,
    nonprojective_threefold,
    p1,
    p1_power,
    p2,
    projective_space,
    square_fan,
    star_surface,
    surface_c1_squared,
)
from toricbundles import (
    Fan,
    RingConsistencyError,
    build_ring,
    chern_numbers,
    compare,
    euler_characteristic,
    make_plmap,
    product_fan,
    pullback,
    total_chern_bundle_formula,
    total_chern_intrinsic,
    twisted_fan,
    verify_gauss_bonnet,
)
from toricbundles import chern
from toricbundles.chern import partitions
from toricbundles.corpus import corpus_fans, corpus_instances
from toricbundles.fan import FanTables, dual_table, tables
from toricbundles.formats import fan_to_text, parse_fan


def test_total_chern_p1():
    ring = build_ring(p1())
    c = total_chern_intrinsic(ring)
    assert c.parts == ((1,), (2,))


@pytest.mark.parametrize("name,fan,betti,cones,c1_power", [
    ("P7", projective_space(7), [1] * 8, 8, 8 ** 7),
    ("(P1)^6", p1_power(6), [comb(6, k) for k in range(7)], 2 ** 6,
     2 ** 6 * factorial(6)),
], ids=["P7", "(P1)^6"])
def test_high_dimension_closed_forms(name, fan, betti, cones, c1_power):
    # P^n: Betti all 1, n+1 cones, c1^n = (n+1)^n;
    # (P1)^n: Betti binomial, 2^n cones, c1^n = 2^n n!
    n = fan.dim
    assert len(fan.max_cones) == cones
    ring = build_ring(fan)
    assert ring.betti() == betti
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    assert numbers[(n,)] == cones
    assert numbers[(1,) * n] == c1_power


def test_total_chern_p2():
    ring = build_ring(p2())
    c = total_chern_intrinsic(ring)
    assert c.parts == ((1,), (3,), (3,))


def test_total_chern_p1xp1_multiplicative():
    ring = build_ring(square_fan())
    c = total_chern_intrinsic(ring)
    assert c.coefficients(0) == (1,)
    assert c.coefficients(1) == (2, 2)  # 2a + 2b
    assert c.coefficients(2) == (4,)    # 4ab
    assert ring.integrate(c.component(2)) == 4


def test_pullback_unit_and_generator():
    base, fiber = p1(), p1()
    phi = make_plmap(1, [[2], [0]])
    twisted = twisted_fan(base, fiber, phi)
    base_ring = build_ring(base)
    twisted_ring = build_ring(twisted)
    assert pullback(twisted, base_ring.unit()) == twisted_ring.unit()
    image = pullback(twisted, base_ring.reduce_poly({(1, 0): 1}))
    assert image == twisted_ring.reduce_poly({(1, 0, 0, 0): 1})


def test_pullback_point_times_fiber_point_integrates_to_one():
    base, fiber = p2(), p1()
    phi = make_plmap(1, [[0], [0], [0]])
    twisted = twisted_fan(base, fiber, phi)
    twisted_ring = build_ring(twisted)
    pulled_point = pullback(twisted, build_ring(base).point_class())
    # the first fiber ray follows the three lifted base rays
    fiber_point = twisted_ring.reduce_poly({(0, 0, 0, 1, 0): 1})
    assert twisted_ring.integrate(
        (pulled_point * fiber_point).component(3)
    ) == 1


def test_pullback_is_multiplicative_on_samples():
    base, fiber = p2(), p1()
    phi = make_plmap(1, [[1], [2], [0]])
    twisted = twisted_fan(base, fiber, phi)
    base_ring = build_ring(base)
    a = base_ring.reduce_poly({(1, 0, 0): 2, (0, 1, 0): -1})
    b = base_ring.reduce_poly({(0, 0, 1): 3})
    assert pullback(twisted, a * b) == (
        pullback(twisted, a) * pullback(twisted, b))


def test_bundle_formula_equals_intrinsic_zero_twist():
    base = fiber = p1()
    phi = make_plmap(1, [[0], [0]])
    twisted = twisted_fan(base, fiber, phi)
    assert total_chern_bundle_formula(twisted) == (
        total_chern_intrinsic(build_ring(twisted))
    )


def test_bundle_formula_equals_intrinsic_on_corpus():
    for inst in corpus_instances():
        report = compare(inst.base, inst.fiber, inst.phi, inst.name)
        assert report.equal, inst.name
        assert report.intrinsic_numbers == report.bundle_numbers


def test_compare_computes_the_numbers_once_when_the_routes_agree(monkeypatch):
    base, fiber = product_fan(p2(), p1()), square_fan()
    phi = make_plmap(2, [[1, 0], [0, 2], [-1, 1], [2, -1], [0, 1]])
    calls = []

    def counting(ring, total):
        calls.append(total)
        return chern_numbers(ring, total)

    monkeypatch.setattr(chern, "chern_numbers", counting)
    report = compare(base, fiber, phi)
    assert report.equal
    assert len(calls) == 1
    twisted = twisted_fan(base, fiber, phi)
    ring = build_ring(twisted)
    bundle = total_chern_bundle_formula(twisted)
    assert report.bundle_numbers == chern_numbers(ring, bundle)
    assert report.intrinsic_numbers == chern_numbers(
        ring, total_chern_intrinsic(ring)
    )


def test_a_cold_compare_certifies_the_base_and_twisted_fans_only(monkeypatch):
    # the fiber factor reads the twisted ring's faces inside the fiber rays,
    # so compare builds no fiber ring
    from toricbundles import cohomology

    certified = []
    real = cohomology._certified_ring

    def counting(f, *args):
        certified.append(f)
        return real(f, *args)

    monkeypatch.setattr(cohomology, "_certified_ring", counting)
    clear_fan_caches()
    base, fiber = p2(), p1()
    phi = make_plmap(1, [[1], [0], [2]])
    assert compare(base, fiber, phi).equal
    assert certified == [twisted_fan(base, fiber, phi), base]


def test_compare_p2_p1_twist_euler():
    report = compare(p2(), p1(), make_plmap(1, [[1], [0], [0]]))
    assert report.equal
    assert report.euler_intrinsic == report.euler_expected == 6
    assert report.intrinsic_numbers[(3,)] == 6


def test_chern_numbers_p2():
    ring = build_ring(p2())
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    assert numbers == {(1, 1): 9, (2,): 3}


def test_chern_numbers_hirzebruch_family():
    for a in range(4):
        ring = build_ring(twisted_fan(p1(), p1(), make_plmap(1, [[a], [0]])))
        numbers = chern_numbers(ring, total_chern_intrinsic(ring))
        assert numbers == {(1, 1): 8, (2,): 4}


def test_chern_numbers_p1_cubed():
    fan = product_fan(square_fan(), p1())
    ring = build_ring(fan)
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    assert numbers[(1, 1, 1)] == 48
    assert numbers[(3,)] == 8


def test_chern_numbers_del_pezzo_6():
    ring = build_ring(dp6())
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    assert numbers == {(1, 1): 6, (2,): 6}


def test_surface_c1_squared_oracle_agrees_everywhere():
    # independent fan-walk computation vs the ring route, on every
    # 2-dimensional corpus fan (twisted surfaces included)
    checked = 0
    for name, fan in corpus_fans():
        if fan.dim != 2:
            continue
        ring = build_ring(fan)
        numbers = chern_numbers(ring, total_chern_intrinsic(ring))
        assert numbers[(1, 1)] == surface_c1_squared(fan), name
        checked += 1
    assert checked >= 6


def test_gauss_bonnet_everywhere():
    for name, fan in corpus_fans():
        assert verify_gauss_bonnet(fan), name


def test_kunneth_euler_multiplicativity():
    for base, fiber in [(p1(), p2()), (p2(), p1()), (square_fan(), p1())]:
        phi = make_plmap(fiber.dim,
                         [[0] * fiber.dim for _ in range(base.ray_count)])
        ring = build_ring(twisted_fan(base, fiber, phi))
        top = total_chern_intrinsic(ring).component(ring.dim)
        assert ring.integrate(top) == (
            euler_characteristic(base) * euler_characteristic(fiber)
        )


def test_degree_two_part_is_anticanonical():
    for inst in corpus_instances():
        twisted = twisted_fan(inst.base, inst.fiber, inst.phi)
        base_ring = build_ring(inst.base)
        ring = build_ring(twisted)
        total = total_chern_intrinsic(ring)
        divisor_sum = ring.reduce_poly({
            tuple(1 if i == rho else 0 for i in range(ring.ray_count)): 1
            for rho in range(ring.ray_count)
        })
        assert total.component(1) == divisor_sum.component(1)
        pulled_c1 = pullback(
            twisted, total_chern_intrinsic(base_ring).component(1))
        fiber_sum = ring.reduce_poly({
            tuple(1 if i == inst.base.ray_count + tau else 0
                  for i in range(ring.ray_count)): 1
            for tau in range(inst.fiber.ray_count)
        })
        assert total.component(1) == pulled_c1 + fiber_sum.component(1)


def test_partitions_canonical():
    assert partitions(3) == [(1, 1, 1), (2, 1), (3,)]
    assert partitions(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_pullback_rejects_mismatched_rings():
    twisted = twisted_fan(p1(), p1(), make_plmap(1, [[1], [0]]))
    with pytest.raises(ValueError, match="base ring"):
        pullback(twisted, build_ring(p2()).unit())


def test_pullback_checks_the_base_relations_in_the_twisted_ideal(
        monkeypatch):
    # the base ring's relation x0 - x1 perturbed to x0: its image X0 is
    # no relation of the twisted ring, whose linear relations are
    # X0 - X1 and X0 + X2 - X3, so it is not 0 there
    twisted = twisted_fan(p1(), p1(), make_plmap(1, [[1], [0]]))
    base_ring = build_ring(p1())
    pullback(twisted, base_ring.unit())  # the true relations map to 0
    monkeypatch.setattr(base_ring, "relations", ((1, 0),))
    with pytest.raises(RingConsistencyError, match="twisted ideal"):
        pullback(twisted, base_ring.unit())


def test_parts_are_no_constructor_argument():
    # only twisted_fan records parts, so they always agree with the rays
    twisted = twisted_fan(p1(), p1(), make_plmap(1, [[1], [0]]))
    rays = twisted.rays[2:] + twisted.rays[:2]  # fiber rays first
    cones = tuple(frozenset((i + 2) % 4 for i in cone)
                  for cone in twisted.max_cones)
    with pytest.raises(TypeError):
        Fan(2, rays, cones, parts=twisted.parts)
    with pytest.raises(TypeError):
        Fan(2, rays, cones, twisted.parts)
    assert Fan(2, rays, cones).parts is None


def _built_in_order(twisted, copy, twisted_first):
    """With the per-fan caches cleared, build the ring of one of the two
    equal fans and then read the other's record and ring: the record, its
    duals, the Betti numbers and the total class, by both routes."""
    clear_fan_caches()
    first, second = (twisted, copy) if twisted_first else (copy, twisted)
    ring = build_ring(first)
    record = tables(second)
    assert record is tables(first) and build_ring(second) is ring
    assert ring.inverses is record.duals.rows
    return (record.duals, ring.betti(), total_chern_intrinsic(ring).flat,
            total_chern_bundle_formula(twisted).flat)


@pytest.mark.parametrize("phi", [[[1], [0], [2]], [[-2], [3], [1]]])
def test_a_twisted_fan_and_its_parsed_copy_agree_in_either_order(phi):
    twisted = twisted_fan(p2(), p1(), make_plmap(1, phi))
    copy = parse_fan(fan_to_text(twisted))
    assert copy == twisted and copy.parts is None
    results = [_built_in_order(twisted, copy, first) for first in (True, False)]
    assert results[0] == results[1]
    duals, _, intrinsic, bundle = results[0]
    assert duals == dual_table(twisted.rays, twisted.max_cones)
    assert intrinsic == bundle


def _live_records():
    """How many ``FanTables`` exist, unreachable ones in cycles included
    (with the cyclic collector off they stay)."""
    return sum(isinstance(o, FanTables) for o in gc.get_objects())


def test_memory_per_compare_is_bounded(monkeypatch):
    # a twisted fan's record, its ring included, dies with the fan when
    # compare returns, by reference counting alone, while the base's and
    # the fiber's records stay warm
    base, fiber = p2(), p1()
    assert compare(base, fiber, make_plmap(1, [[1], [0], [2]])).equal
    warm = tables(base), tables(fiber)
    built, build_record = [], FanTables.__init__

    def recording(record, fan):
        built.append(weakref.ref(record))
        build_record(record, fan)

    monkeypatch.setattr(FanTables, "__init__", recording)
    rng = random.Random("bounded compares")
    gc.disable()
    try:
        live = _live_records()
        for _ in range(50):
            phi = [[rng.randint(-3, 3)] for _ in range(3)]
            assert compare(base, fiber, make_plmap(1, phi)).equal
        assert _live_records() == live
    finally:
        gc.enable()
    assert len(built) == 50 and all(ref() is None for ref in built)
    assert tables(base) is warm[0] and tables(fiber) is warm[1]


def test_a_parsed_copy_adopts_a_live_twisted_record():
    clear_fan_caches()
    gc.disable()
    try:
        twisted = twisted_fan(p2(), p1(), make_plmap(1, [[1], [0], [2]]))
        ring = build_ring(twisted)
        copy = parse_fan(fan_to_text(twisted))
        record = tables(copy)
        assert record is tables(twisted)
        del twisted
        assert tables(copy) is record and build_ring(copy) is ring
    finally:
        gc.enable()


def test_a_twisted_fan_rebuilt_after_its_record_died_agrees():
    def built():
        twisted = twisted_fan(p2(), p1(), make_plmap(1, [[-2], [3], [1]]))
        record = tables(twisted)
        ring = build_ring(twisted)
        return weakref.ref(record), (
            record.duals, ring.betti(), total_chern_intrinsic(ring).flat,
            total_chern_bundle_formula(twisted).flat)

    clear_fan_caches()
    gc.disable()
    try:
        first, results = built()
        assert first() is None
        second, again = built()
        assert second() is None
    finally:
        gc.enable()
    assert again == results


def test_threads_that_read_one_fan_at_once_keep_one_record():
    # threads that build one fan's record at once, half of them through
    # parsed copies and half through twisted_fan, all read one record
    # afterwards: the parsed copies keep one, which the twisted fans find
    clear_fan_caches()
    phi = make_plmap(1, [[2], [-1], [3]])
    text = fan_to_text(twisted_fan(p2(), p1(), phi))  # its record dies here
    count = 12
    barrier = threading.Barrier(count)
    fans, records = [None] * count, [None] * count

    def read(i):
        barrier.wait(timeout=30)
        fans[i] = (parse_fan(text) if i % 2
                   else twisted_fan(p2(), p1(), phi))
        records[i] = tables(fans[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    kept = records[1]
    assert all(record is kept for record in records[1::2])
    assert all(tables(f) is kept for f in fans)
    assert all(record.report == kept.report for record in records)


def test_a_second_compare_walks_no_base_ring_columns(monkeypatch):
    # the base ring's total class is kept in its fan's record, so a
    # compare over a warm base reads it without walking the base ring
    base, fiber = p2(), p1()
    assert compare(base, fiber, make_plmap(1, [[1], [0], [2]])).equal
    base_ring = build_ring(base)
    walked = []
    real = base_ring._column_form

    def counting(table, d, pos):
        walked.append((d, pos))
        return real(table, d, pos)

    monkeypatch.setattr(base_ring, "_column_form", counting)
    assert compare(base, fiber, make_plmap(1, [[0], [2], [-1]])).equal
    assert walked == []
    assert tables(base).total == total_chern_intrinsic(base_ring)
    assert walked  # the counter sees a walk of the base ring


def test_a_fan_without_parts_names_twisted_fan():
    twisted = twisted_fan(p2(), p1(), make_plmap(1, [[1], [0], [2]]))
    copy = parse_fan(fan_to_text(twisted))
    assert copy == twisted and copy.parts is None
    with pytest.raises(ValueError, match="twisted_fan"):
        total_chern_bundle_formula(copy)
    with pytest.raises(ValueError, match="twisted_fan"):
        pullback(copy, build_ring(p2()).unit())


def test_chern_numbers_of_the_point():
    # the empty partition of a dimension-0 ring integrates the unit
    ring = build_ring(Fan(0, (), (frozenset(),)))
    assert chern_numbers(ring, total_chern_intrinsic(ring)) == {(): 1}


def _recording_tables(monkeypatch, ring):
    """Record every table of normal forms the ring hands out."""
    handed, real = [], ring.normal_forms

    def recording():
        handed.append(real())
        return handed[-1]

    monkeypatch.setattr(ring, "normal_forms", recording)
    return handed


def test_chern_numbers_pair_only_basis_monomials_on_a_face(monkeypatch):
    # a pair whose joint support is no face pairs to zero and is never
    # solved: on an r-ray surface the table keeps O(r) entries, not O(r^2)
    surface = star_surface(200, random.Random("200-ray surface"))
    ring = build_ring(surface)
    total = total_chern_intrinsic(ring)
    handed = _recording_tables(monkeypatch, ring)
    assert chern_numbers(ring, total) == {(1, 1): 12 - 200, (2,): 200}
    assert max(map(len, handed)) <= 2 * surface.ray_count


def test_chern_numbers_frees_its_table_on_return(monkeypatch):
    ring = build_ring(dp6())
    total = total_chern_intrinsic(ring)
    handed = _recording_tables(monkeypatch, ring)
    gc.disable()
    try:
        assert chern_numbers(ring, total) == {(1, 1): 6, (2,): 6}
        refs = [weakref.ref(table) for table in handed]
        handed.clear()
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert refs and not alive


def test_the_total_class_of_a_fresh_record_builds_its_ring():
    clear_fan_caches()
    record = tables(p2())
    assert record.ring is None
    assert record.total.parts == ((1,), (3,), (3,))
    assert record.ring is build_ring(p2())


def _ring_numbers(f):
    ring = build_ring(f)
    return chern_numbers(ring, total_chern_intrinsic(ring))


def _shift(blown, f):
    """c_mu(Bl X) - c_mu(X) per partition mu, by the ring route."""
    before = _ring_numbers(f)
    return {mu: value - before[mu] for mu, value in _ring_numbers(blown).items()}


@pytest.mark.parametrize("n,shift", [
    (2, {(1, 1): -1, (2,): 1}),
    (3, {(1, 1, 1): -8, (2, 1): 0, (3,): 2}),
])
def test_blowing_up_a_point_of_pn_shifts_the_chern_numbers(n, shift):
    pn = projective_space(n)
    assert _shift(blow_up(pn, pn.max_cones[0]), pn) == shift


@pytest.mark.parametrize("name,fan", [
    ("P2", p2()), ("dP6", dp6()), ("P3", projective_space(3)),
    ("(P1)^3", p1_power(3)), ("non-projective threefold",
                               nonprojective_threefold()),
    ("P4", projective_space(4)),
])
def test_a_point_blow_up_shifts_the_chern_numbers_as_on_pn(name, fan):
    # by localization the shift is the new fixed points' terms minus the
    # old one's, which depend only on the cone, unimodularly one of P^n's
    pn = projective_space(fan.dim)
    expected = _shift(blow_up(pn, pn.max_cones[0]), pn)
    rng = random.Random(name)
    for cone in rng.sample(fan.max_cones, min(4, len(fan.max_cones))):
        assert _shift(blow_up(fan, cone), fan) == expected, sorted(cone)
