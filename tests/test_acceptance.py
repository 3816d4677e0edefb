"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
check is exact integer equality; criterion 1 additionally has a 10 s
runtime budget for the whole comparison sweep.
"""

import random
import time

from helpers import dp6, p1, p2, square_fan, surface_c1_squared
from toricbundles import (
    build_ring,
    chern_numbers,
    chern_numbers_bundle,
    compare,
    build_bundle_ring,
    equivariant_total_chern,
    forget,
    make_plmap,
    masuda_check,
    presentation_from_fan,
    principal_classes,
    product_fan,
    total_chern_general,
    total_chern_intrinsic,
    twisted_fan,
    twisting_from_principal,
)
from toricbundles.corpus import (
    corpus_fans,
    corpus_instances,
    corpus_pairs,
    random_unimodular,
    transform_instance,
)
from toricbundles.equivariant import ordinary_ring
from toricbundles.faces import h_vector_of, walk_faces


def report(number: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{verdict}] {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_two_route_chern_equality():
    instances = corpus_instances()
    assert len(instances) >= 8
    base_dims = {tuple(sorted(map(tuple, inst.base.rays))) for inst in instances}
    assert len(base_dims) >= 3  # P1, P2, P1xP1 all appear
    fiber_dims = {inst.fiber.dim for inst in instances}
    assert fiber_dims == {1, 2}
    assert any(all(not any(v) for v in inst.phi.values) for inst in instances)
    assert any(
        max(abs(e) for v in inst.phi.values for e in v) == 3
        for inst in instances
    )
    start = time.time()
    all_equal = True
    for inst in instances:
        rep = compare(inst.base, inst.fiber, inst.phi, inst.name)
        if not rep.equal:
            all_equal = False
        for dc in rep.degrees:
            if dc.intrinsic != dc.bundle:
                all_equal = False
    elapsed = time.time() - start
    report(
        1,
        f"intrinsic = bundle-formula total Chern class on "
        f"{len(instances)} fibered toric varieties "
        f"(exact, {elapsed:.1f}s < 10s)",
        all_equal and elapsed < 10.0,
    )


def test_criterion_2_chern_numbers():
    ok = True
    ring = build_ring(p2())
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    ok &= numbers == {(1, 1): 9, (2,): 3}
    for a in range(4):
        twisted = twisted_fan(p1(), p1(), make_plmap(1, [[a], [0]]))
        ring = build_ring(twisted)
        numbers = chern_numbers(ring, total_chern_intrinsic(ring))
        ok &= numbers == {(1, 1): 8, (2,): 4}
        ok &= surface_c1_squared(twisted) == 8
    ring = build_ring(product_fan(square_fan(), p1()))
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    ok &= numbers[(1, 1, 1)] == 48 and numbers[(3,)] == 8
    ring = build_ring(dp6())
    numbers = chern_numbers(ring, total_chern_intrinsic(ring))
    ok &= numbers == {(1, 1): 6, (2,): 6}
    ok &= surface_c1_squared(dp6()) == 6
    report(
        2,
        "Chern numbers: P2 (9,3); Hirzebruch a in 0..3 (8,4); "
        "(P1)^3 (48,8); del Pezzo 6 (6,6)",
        bool(ok),
    )


def test_criterion_3_gauss_bonnet():
    ok = True
    fans = corpus_fans()
    for name, fan in fans:
        ring = build_ring(fan)
        top = total_chern_intrinsic(ring).component(fan.dim)
        ok &= ring.integrate(top) == len(fan.max_cones)
    report(
        3,
        f"integral of c_top equals the maximal-cone count on "
        f"{len(fans)} corpus fans (twisted fans included)",
        bool(ok),
    )


def test_criterion_4_ring_sanity():
    ok = True
    fans = corpus_fans()
    for name, fan in fans:
        ranks = build_ring(fan).betti()
        ok &= ranks == h_vector_of(walk_faces(fan.max_cones), fan.dim)
        ok &= ranks == ranks[::-1]
        ok &= ranks[1] == fan.ray_count - fan.dim
    report(
        4,
        f"Betti = h-vector, Poincare symmetry, degree-2 rank = rays - dim "
        f"on {len(fans)} corpus fans",
        bool(ok),
    )


def test_criterion_5_masuda_and_forget():
    ok = True
    pairs = corpus_pairs()
    fixed_points = 0
    for name, pair in pairs:
        rep = masuda_check(pair)
        fixed_points += len(rep.checks)
        ok &= rep.passed
        image = forget(pair, equivariant_total_chern(pair))
        ok &= image == total_chern_intrinsic(ordinary_ring(pair))
    report(
        5,
        f"Masuda formula verified at {fixed_points} fixed points of "
        f"{len(pairs)} pairs; forget(c^T) = ordinary total Chern class",
        bool(ok),
    )


def test_criterion_6_cross_mode_agreement():
    ok = True
    instances = corpus_instances()
    for inst in instances:
        pres = presentation_from_fan(inst.base)
        lam = twisting_from_principal(pres, principal_classes(inst.phi))
        ring = build_bundle_ring(pres, lam, inst.fiber)
        numbers = chern_numbers_bundle(ring, total_chern_general(ring))
        twisted_numbers = compare(
            inst.base, inst.fiber, inst.phi
        ).intrinsic_numbers
        ok &= numbers == twisted_numbers
    report(
        6,
        f"presented-base route reproduces twisted-fan Chern numbers on "
        f"{len(instances)} instances (pins the lambda sign convention)",
        bool(ok),
    )


def test_criterion_7_isomorphism_invariance():
    ok = True
    rng = random.Random(1729)
    instances = corpus_instances()
    trials = 10
    for inst in instances:
        ring = build_ring(twisted_fan(inst.base, inst.fiber, inst.phi))
        expected = chern_numbers(ring, total_chern_intrinsic(ring))
        for _ in range(trials):
            u = random_unimodular(inst.fiber.dim, rng)
            moved = transform_instance(inst, u)
            moved_ring = build_ring(
                twisted_fan(moved.base, moved.fiber, moved.phi))
            numbers = chern_numbers(
                moved_ring, total_chern_intrinsic(moved_ring)
            )
            ok &= numbers == expected
    report(
        7,
        f"Chern numbers invariant under {trials} random unimodular "
        f"fiber-coordinate changes per instance "
        f"({trials * len(instances)} trials)",
        bool(ok),
    )
