import pytest

from helpers import (
    bundle_cases,
    fiber_restriction,
    p1,
    p1_presentation,
    p2,
    p2_presentation,
)
from toricbundles import (
    BasePresentation,
    BundleRing,
    TwistingClasses,
    build_bundle_ring,
    build_ring,
    chern_numbers,
    chern_numbers_bundle,
    compare,
    make_plmap,
    presentation_from_fan,
    principal_classes,
    total_chern_general,
    total_chern_intrinsic,
    twisting_from_principal,
)
from toricbundles import cohomology
from toricbundles.cohomology import (
    CohomologyClass,
    GradedRing,
    RingConsistencyError,
)
from toricbundles.corpus import corpus_fans, corpus_instances
from toricbundles.equivariant import face_ring
from toricbundles.faces import face_monomial_sum
from toricbundles.twist import tautological_pair


def test_presentation_rejects_wrong_basis_claim():
    with pytest.raises(RingConsistencyError):
        BasePresentation(
            name="bad",
            generators=[("h", 2)],
            relations=[{(2,): 1}],
            basis={0: [(0,)], 1: []},  # claims rank 0 in degree 2
            top_degree=2,
            integration=1,
            chern={(0,): 1},
        )
    with pytest.raises(RingConsistencyError):
        BasePresentation(
            name="bad2",
            generators=[("h", 2)],
            relations=[],  # no relation, so degree-2 rank is 1, not 0
            basis={0: [(0,)], 1: [(1,)]},
            top_degree=2,
            integration=2,  # also not a unit
            chern={(0,): 1},
        )


def test_presentation_rejects_inhomogeneous_relation():
    with pytest.raises(ValueError):
        BasePresentation(
            name="bad3",
            generators=[("h", 2)],
            relations=[{(2,): 1, (1,): 1}],
            basis={0: [(0,)], 1: [(1,)]},
            top_degree=2,
            integration=1,
            chern={(0,): 1},
        )


def test_bundle_relations_match_hirzebruch():
    # base P1, lambda = a*h, fiber P1: x0 - x1 + a*h = 0 and x0*x1 = 0,
    # so x0 reduces to the basis monomial x1 minus a*h
    base = p1_presentation()
    a = 2
    lam = TwistingClasses(classes=(base.reduce_poly({(1,): a}),))
    ring = build_bundle_ring(base, lam, p1())
    x0 = ring.reduce_poly({(1, 0): base.unit()})
    x1 = ring.reduce_poly({(0, 1): base.unit()})
    minus_ah = ring.reduce_poly({(0, 0): base.reduce_poly({(1,): -a})})
    assert x0 == x1 + minus_ah
    assert not ring.reduce_poly({(1, 1): base.unit()})  # x0*x1 is not a face


def test_twisting_classes_must_be_pure_degree_2():
    base = p2_presentation()
    for poly in ({(2,): 1}, {(0,): 1}, {(1,): 1, (2,): -1}):
        with pytest.raises(ValueError, match="pure degree 2"):
            TwistingClasses(classes=(base.reduce_poly(poly),))
    TwistingClasses(classes=(base.reduce_poly({(1,): -3}), base.zero()))


def test_zero_twist_gives_product_ring():
    base = p1_presentation()
    lam = TwistingClasses(classes=(base.zero(),))
    ring = build_bundle_ring(base, lam, p1())
    x0 = ring.reduce_poly({(1, 0): base.unit()})
    x1 = ring.reduce_poly({(0, 1): base.unit()})
    assert x0 == x1


def test_bundle_ring_is_free_of_fiber_rank():
    base = p2_presentation()
    lam = TwistingClasses(classes=(base.reduce_poly({(1,): 1}),))
    ring = build_bundle_ring(base, lam, p1())
    assert [ring.rank(d) for d in range(2)] == [1, 1]
    fiber2 = p2()
    lam2 = TwistingClasses(classes=(
        base.reduce_poly({(1,): 1}), base.reduce_poly({(1,): 0}),
    ))
    ring2 = build_bundle_ring(base, lam2, fiber2)
    assert sum(ring2.rank(d) for d in range(3)) == len(fiber2.max_cones)
    # per-degree bases coincide with the fiber's ordinary ring
    for d in range(fiber2.dim + 1):
        assert ring2.basis_monomials(d) == tuple(
            ring2.fiber_ring.basis_monomials(d)
        )


def test_hirzebruch_numbers_from_presented_base():
    base = p1_presentation()
    for a in range(4):
        lam = TwistingClasses(classes=(base.reduce_poly({(1,): a}),))
        ring = build_bundle_ring(base, lam, p1())
        numbers = chern_numbers_bundle(ring, total_chern_general(ring))
        assert numbers == {(1, 1): 8, (2,): 4}


def test_p2_base_zero_twist_euler():
    base = p2_presentation()
    lam = TwistingClasses(classes=(base.zero(),))
    ring = build_bundle_ring(base, lam, p1())
    numbers = chern_numbers_bundle(ring, total_chern_general(ring))
    assert numbers[(3,)] == 6  # chi = 3 * 2


def test_integrate_bundle_point_and_degree_mismatch():
    base = p1_presentation()
    lam = TwistingClasses(classes=(base.reduce_poly({(1,): 1}),))
    ring = build_bundle_ring(base, lam, p1())
    point = ring.reduce_poly({(1, 0): base.reduce_poly({(1,): 1})})
    assert ring.integrate(point) == 1
    with pytest.raises(ValueError):
        ring.integrate(ring.unit())


def test_bundle_ring_has_no_point_class():
    base = p1_presentation()
    lam = TwistingClasses(classes=(base.reduce_poly({(1,): 1}),))
    ring = build_bundle_ring(base, lam, p1())
    with pytest.raises(ValueError, match="bundle ring has no point class.*"
                                         "integrate"):
        ring.point_class()


def test_cross_mode_agreement_on_corpus():
    for inst in corpus_instances():
        pres = presentation_from_fan(inst.base)
        lam = twisting_from_principal(pres, principal_classes(inst.phi))
        ring = build_bundle_ring(pres, lam, inst.fiber)
        numbers = chern_numbers_bundle(ring, total_chern_general(ring))
        report = compare(inst.base, inst.fiber, inst.phi, inst.name)
        assert numbers == report.intrinsic_numbers, inst.name


def test_hand_presentation_matches_generated_one():
    hand = p2_presentation()
    generated = presentation_from_fan(p2())
    phi = make_plmap(1, [[1], [0], [0]])
    lam_gen = twisting_from_principal(generated, principal_classes(phi))
    # by linear relations x0 = x2 and x1 = x2, lambda = x0 is h in the
    # hand-written presentation
    lam_hand = TwistingClasses(classes=(hand.reduce_poly({(1,): 1}),))
    ring_gen = build_bundle_ring(generated, lam_gen, p1())
    ring_hand = build_bundle_ring(hand, lam_hand, p1())
    a = chern_numbers_bundle(ring_gen, total_chern_general(ring_gen))
    b = chern_numbers_bundle(ring_hand, total_chern_general(ring_hand))
    assert a == b


def test_fiber_restriction_recovers_fiber_chern_class():
    base = p2_presentation()
    for fiber in (p1(), p2()):
        lam = TwistingClasses(classes=tuple(
            base.reduce_poly({(1,): k}) for k in range(1, fiber.dim + 1)
        ))
        ring = build_bundle_ring(base, lam, fiber)
        total = total_chern_general(ring)
        assert fiber_restriction(ring, total) == total_chern_intrinsic(
            ring.fiber_ring
        )


def test_twisting_classes_must_be_degree_two():
    base = p2_presentation()
    with pytest.raises(ValueError):
        TwistingClasses(classes=(base.reduce_poly({(2,): 1}),))


def test_arity_mismatch_rejected():
    base = p1_presentation()
    lam = TwistingClasses(classes=(base.zero(), base.zero()))
    with pytest.raises(ValueError):
        build_bundle_ring(base, lam, p1())


@pytest.mark.parametrize("constant", [0, 2])
def test_presentation_rejects_chern_class_not_starting_with_one(constant):
    with pytest.raises(RingConsistencyError, match="start with 1"):
        BasePresentation(
            name="P2",
            generators=[("h", 2)],
            relations=[{(3,): 1}],
            basis={0: [(0,)], 1: [(1,)], 2: [(2,)]},
            top_degree=4,
            integration=1,
            chern={(0,): constant, (1,): 3, (2,): 3},
        )


def test_cone_rewrites_are_solved_once_per_ring(monkeypatch):
    calls = []
    original = BundleRing._rewrite_constant

    def counting(self, inverse_row):
        calls.append(inverse_row)
        return original(self, inverse_row)

    monkeypatch.setattr(BundleRing, "_rewrite_constant", counting)
    fiber = p2()
    base = presentation_from_fan(p2())
    x2 = base.reduce_poly({(0, 0, 1): 1})
    ring = build_bundle_ring(base, TwistingClasses((x2, 2 * x2)), fiber)
    numbers = chern_numbers_bundle(ring, total_chern_general(ring))
    assert len(calls) <= fiber.dim * len(fiber.max_cones)
    phi = make_plmap(2, [[0, 0], [0, 0], [1, 2]])
    assert numbers == compare(p2(), fiber, phi).intrinsic_numbers


def test_presentation_rejects_monomial_of_wrong_length():
    base = p2_presentation()
    with pytest.raises(ValueError, match="monomial length"):
        base.reduce_poly({(1, 0): 1})


@pytest.mark.parametrize("name,fan", corpus_fans())
def test_presentation_from_fan_matches_fan_ring(name, fan):
    # the presented ring runs on the weighted-degree hooks, the fan ring on
    # the cone rewrite: products of basis monomials and integrals agree
    ring = build_ring(fan)
    pres = presentation_from_fan(fan)
    basis = [m for d in range(fan.dim + 1) for m in ring.basis_monomials(d)]
    assert basis == [
        m for d in range(fan.dim + 1) for m in pres.basis_monomials(d)
    ]
    for a in basis:
        for b in basis:
            ring_product = ring.reduce_poly({a: 1}) * ring.reduce_poly({b: 1})
            pres_product = pres.reduce_poly({a: 1}) * pres.reduce_poly({b: 1})
            assert ring_product.parts == pres_product.parts
    for top in ring.basis_monomials(fan.dim):
        assert ring.integrate(ring.reduce_poly({top: 1})) == pres.integrate(
            pres.reduce_poly({top: 1})
        )
    assert chern_numbers(pres, pres.chern) == chern_numbers(
        ring, total_chern_intrinsic(ring)
    )


def _bundle_ring_over_p1():
    base = p1_presentation()
    h = base.reduce_poly({(1,): 1})
    lam = TwistingClasses(classes=(2 * h, -1 * h))
    return build_bundle_ring(base, lam, p2())


ONE_CLASS_TYPE_RINGS = [
    ("fan ring", lambda: build_ring(p2())),
    ("presentation", p2_presentation),
    ("bundle ring", _bundle_ring_over_p1),
    ("face ring", lambda: face_ring(tautological_pair(p2()))),
]


@pytest.mark.parametrize("name,make", ONE_CLASS_TYPE_RINGS,
                         ids=[name for name, _ in ONE_CLASS_TYPE_RINGS])
def test_every_ring_makes_plain_cohomology_classes(name, make):
    # one class type: whatever makes a class, of whatever ring, makes a
    # CohomologyClass, and a bundle ring's coefficients are the base's
    ring = make()
    g = ring.generator(0)
    classes = [ring.unit(), ring.zero(), g, g * g, g + g, g - g, 3 * g,
               (g + ring.unit()).component(1), ring.reduce_poly({})]
    if hasattr(ring, "face_sum"):
        classes.append(ring.face_sum())
    if name in ("fan ring", "presentation"):
        classes.append(ring.point_class())
    if name == "bundle ring":
        classes.append(total_chern_general(ring))
    for cls in classes:
        assert type(cls) is CohomologyClass
        assert cls.ring is ring
        if name == "bundle ring":
            for c in (c for part in cls.parts for c in part):
                assert type(c) is CohomologyClass and c.ring is ring.base


def test_a_bundle_ring_runs_the_rank_certificate(monkeypatch):
    # the fiber ring is built (and cached) first, so the wrong h-vector is
    # read by the bundle ring's own constructor only
    base = p1_presentation()
    h = base.reduce_poly({(1,): 1})
    lam = TwistingClasses(classes=(h, 2 * h))
    build_ring(p2())
    monkeypatch.setattr(cohomology, "h_vector_of", lambda faces, n: [1, 2, 1])
    with pytest.raises(RingConsistencyError,
                       match=r"^Betti ranks \[1, 1, 1\] differ from "
                             r"h-vector \[1, 2, 1\]$"):
        BundleRing(base, lam, p2())


@pytest.mark.parametrize("make", [lambda: build_ring(p2()),
                                  _bundle_ring_over_p1],
                         ids=["fan ring", "bundle ring"])
def test_a_class_negates(make):
    # a bundle ring's coefficients are base classes, negated in turn
    ring = make()
    g = ring.generator(0) + ring.unit()
    assert type(-g) is CohomologyClass and (-g).ring is ring
    assert -g == (-1) * g != g
    assert -(-g) == g
    assert g + -g == g - g == ring.zero()
    assert ring.unit() - g == -ring.generator(0)


@pytest.mark.parametrize("name,base,lam,fiber", bundle_cases(),
                         ids=[case[0] for case in bundle_cases()])
def test_face_sum_forms_no_base_product_of_its_own(monkeypatch, name, base,
                                                   lam, fiber):
    # the face sum adds the column forms: integer entries are lifted
    # through the base's unit, class entries added as they are, so its
    # only base products are the lambda carries the column forms make,
    # none over a P1 fiber, and none with the unit as a factor
    ring = BundleRing(base, lam, fiber)
    products = []
    real = GradedRing.multiply

    def counting(self, a, b, table=None):
        if self is base:
            products.append((a, b))
        return real(self, a, b, table)

    monkeypatch.setattr(GradedRing, "multiply", counting)
    total = ring.face_sum()
    summed, products[:] = products[:], []
    table = ring.normal_forms()
    for d, piece in enumerate(ring._degrees):
        for pos in range(len(piece.monomials)):
            ring._column_form(table, d, pos)
    assert len(summed) == len(products)
    assert not any(base.unit() in pair for pair in summed)
    if fiber.dim == 1:
        assert summed == []
    monkeypatch.undo()
    fiber_sum = face_monomial_sum(ring.face_masks, ring.ray_count)
    assert total == ring.reduce_poly(dict.fromkeys(fiber_sum, base.unit()))
