"""Chern numbers from the product tree against the left-to-right walk.

``chern_numbers`` splits each partition into two halves, memoises the
sub-products and pairs the halves with ``integrate_product``, on the
one integer form every ring reads off its table.  The reference
``left_to_right_chern_numbers`` multiplies every partition left to right
and integrates the top component.  The two must agree exactly on fan
rings (the corpus fans, P1-P6, (P1)^1-(P1)^5, star surfaces and seeded
dim-5 twists) and on bundle rings over the corpus presentations and the
fixed presentations in ``perfbench/bases/``, a point and P1 (also with
integration -1).  The
pairing itself is checked against the product route on seeded classes
of all these fan, presented and bundle rings, a bundle ring's integral
against the fiber-first formula, and the number of ring products and
forms per call is pinned.
"""

import random
from functools import cached_property
from operator import add
from pathlib import Path

import pytest

from helpers import (
    dim5_twists,
    left_to_right_chern_numbers,
    p1_power,
    p1_presentation,
    projective_space,
    random_base_class,
    random_face_poly,
    random_fiber_poly,
    star_surface,
)
from toricbundles import (
    BasePresentation,
    TwistingClasses,
    build_bundle_ring,
    build_ring,
    chern_numbers,
    presentation_from_fan,
    product_fan,
    total_chern_general,
    total_chern_intrinsic,
)
from toricbundles.bundlering import BundleRing
from toricbundles.chern import partitions
from toricbundles.corpus import corpus_fans, corpus_instances
from toricbundles.formats import parse_base_presentation

BASES = Path(__file__).parent.parent / "perfbench" / "bases"
FIBERS = {
    "P1": lambda: projective_space(1),
    "P2": lambda: projective_space(2),
    "P3": lambda: projective_space(3),
    "P1xP1": lambda: p1_power(2),
}


def point_presentation():
    """Z with the point's total Chern class 1."""
    return BasePresentation(name="point", generators=[], relations=[],
                            basis={0: [()]}, top_degree=0, integration=1,
                            chern={(): 1})


def negated_p1_presentation():
    """Z[h]/(h^2) with h minus the point class: integration -1."""
    return BasePresentation(name="P1, h = -pt", generators=[("h", 2)],
                            relations=[{(2,): 1}], basis={0: [(0,)], 1: [(1,)]},
                            top_degree=2, integration=-1,
                            chern={(0,): 1, (1,): -2})


def _fan_cases():
    rng = random.Random("chern numbers/star surfaces")
    cases = list(corpus_fans())
    cases += [(f"P{n}", projective_space(n)) for n in range(1, 7)]
    cases += [(f"(P1)^{n}", p1_power(n)) for n in range(1, 6)]
    cases += [(f"star {k}", star_surface(k, rng)) for k in (5, 9, 14)]
    return cases


def _check_fan(fan):
    ring = build_ring(fan)
    total = total_chern_intrinsic(ring)
    assert chern_numbers(ring, total) == left_to_right_chern_numbers(ring, total)


@pytest.mark.parametrize("name,fan", _fan_cases(),
                         ids=[name for name, _ in _fan_cases()])
def test_fan_rings_match_the_left_to_right_walk(name, fan):
    _check_fan(fan)


def test_dim5_twists_match_the_left_to_right_walk():
    for fan in dim5_twists(40, 11):
        assert fan.dim == 5
        _check_fan(fan)


def _presentations():
    out = [(f"corpus {inst.name}", lambda inst=inst: presentation_from_fan(
        inst.base)) for inst in corpus_instances()]
    out += [(f"bases/{path.name}", lambda path=path: parse_base_presentation(
        path.read_text())) for path in sorted(BASES.glob("*.pres"))]
    out += [("point", point_presentation), ("P1 hand", p1_presentation),
            ("P1 negated", negated_p1_presentation)]
    return out


def _twisting(base, fiber, rng):
    """Seeded degree-2 twisting classes, one per fiber coordinate."""
    return TwistingClasses(classes=tuple(
        random_base_class(base, rng).component(1) for _ in range(fiber.dim)
    ))


@pytest.mark.parametrize("name,make", _presentations(),
                         ids=[name for name, _ in _presentations()])
def test_bundle_rings_match_the_left_to_right_walk(name, make):
    base = make()
    rng = random.Random(f"chern numbers/bundle/{name}")
    for fiber_name, fiber in FIBERS.items():
        ring = build_bundle_ring(base, _twisting(base, fiber(), rng), fiber())
        total = total_chern_general(ring)
        assert chern_numbers(ring, total) == left_to_right_chern_numbers(
            ring, total
        ), fiber_name


@pytest.mark.parametrize("name,make", _presentations(),
                         ids=[name for name, _ in _presentations()])
def test_integrate_product_matches_the_product_route(name, make):
    base = make()
    rng = random.Random(f"chern numbers/pairing/{name}")
    for fiber in FIBERS.values():
        ring = build_bundle_ring(base, _twisting(base, fiber(), rng), fiber())
        classes = [ring.reduce_poly(random_fiber_poly(ring, rng))
                   for _ in range(4)]
        for a in classes:
            for b in classes:
                assert ring.integrate_product(a, b) == ring.integrate(
                    (a * b).component(ring.dim)
                )


INTEGER_RINGS = (
    [(name, lambda fan=fan: build_ring(fan)) for name, fan in _fan_cases()]
    + [(f"dim-5 twist {k}", lambda fan=fan: build_ring(fan))
       for k, fan in enumerate(dim5_twists(7, 17))]
    + [(f"presentation {name}", make) for name, make in _presentations()]
)


@pytest.mark.parametrize("name,make", INTEGER_RINGS,
                         ids=[name for name, _ in INTEGER_RINGS])
def test_integrate_product_over_z_matches_the_product_route(name, make):
    # fan rings and presentations pair on the form with K = 1, as bundle
    # rings over a point; seeded classes and the total class, of mixed
    # degrees
    ring = make()
    rng = random.Random(f"chern numbers/pairing over Z/{name}")
    if isinstance(ring, BasePresentation):
        classes = [random_base_class(ring, rng) for _ in range(4)]
        classes.append(ring.chern)
    else:
        classes = [ring.reduce_poly(random_face_poly(ring, rng))
                   for _ in range(4)]
        classes.append(total_chern_intrinsic(ring))
    table = ring.normal_forms()
    values = []
    for a in classes:
        for b in classes:
            expected = ring.integrate((a * b).component(ring.dim))
            assert ring.integrate_product(a, b) == expected
            assert ring.integrate_product(a, b, table) == expected
            values.append(expected)
    assert any(values)


@pytest.mark.parametrize("name,make", _presentations(),
                         ids=[name for name, _ in _presentations()])
def test_bundle_ring_integrates_fiber_first(name, make):
    base = make()
    rng = random.Random(f"chern numbers/integrate/{name}")
    for fiber in FIBERS.values():
        ring = build_bundle_ring(base, _twisting(base, fiber(), rng), fiber())
        n = ring.fiber.dim
        sign = build_ring(ring.fiber).point_class().parts[n][0]
        for _ in range(3):
            cls = ring.reduce_poly(random_fiber_poly(ring, rng))
            top = cls.component(ring.dim)
            assert ring.integrate(top) == sign * base.integrate(
                top.parts[n][0])
            for d in range(ring.dim):
                if cls.component(d):
                    with pytest.raises(ValueError, match="found a component "
                                       f"in degree {2 * d}$"):
                        ring.integrate(cls.component(d))
        with pytest.raises(ValueError, match="found a component in degree 0$"):
            ring.integrate(ring.unit())


@pytest.mark.parametrize("name,make", _presentations(),
                         ids=[name for name, _ in _presentations()])
def test_bundle_ring_integrate_builds_no_pairing(monkeypatch, name, make):
    # integrate reads the top fiber coefficient through the base's
    # integral, and no form; the pairing with the unit is another route
    base = make()
    rng = random.Random(f"chern numbers/integrate without a form/{name}")
    forms = _count_calls(monkeypatch, BundleRing, "_pairing")
    values = []
    for fiber in FIBERS.values():
        ring = build_bundle_ring(base, _twisting(base, fiber(), rng), fiber())
        tops = [ring.reduce_poly(random_fiber_poly(ring, rng)).component(
            ring.dim) for _ in range(3)]
        integrated = [ring.integrate(top) for top in tops]
        assert forms == []
        assert integrated == [ring.integrate_product(top, ring.unit())
                              for top in tops]
        assert forms == [ring] * 3
        forms.clear()
        values += integrated
    assert any(values)


def _top_fiber_coefficients(ring):
    """T_ij, the top-fiber coefficient of every fiber-basis pair product."""
    n = ring.fiber.dim
    basis = [m for d in range(n + 1) for m in ring.basis_monomials(d)]
    return [ring.reduce_poly({tuple(map(add, mi, mj)): ring.base.unit()})
            .parts[n][0] for mi in basis for mj in basis]


def test_golden_p3_over_p2xp1_pairs_carry_positive_degree_base_classes():
    base = parse_base_presentation((BASES / "P2xP1.pres").read_text())
    lam = TwistingClasses(classes=tuple(
        base.reduce_poly(poly) for poly in (
            {(1, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0): 1},
            {(0, 1, 0, 0, 0): -1, (0, 0, 0, 0, 1): 2},
            {(0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): -1},
        )
    ))
    ring = build_bundle_ring(base, lam, projective_space(3))
    assert ring.dim == 6
    assert any(any(map(any, t.parts[1:])) for t in _top_fiber_coefficients(ring))


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from here on, instance methods only."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_builds(monkeypatch, owner, name):
    """Count the evaluations of the cached property owner.name."""
    builds = []
    func = owner.__dict__[name].func

    def counted(self):
        builds.append(self)
        return func(self)

    prop = cached_property(counted)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)
    return builds


@pytest.mark.parametrize("base_fan,n,products", [
    (projective_space(2), 5, 3),
    (product_fan(projective_space(2), projective_space(1)), 6, 4),
], ids=["P3 over P2", "P3 over P2xP1"])
def test_bundle_ring_products_per_call(monkeypatch, base_fan, n, products):
    base = presentation_from_fan(base_fan)  # a fresh object, no cached K
    fiber_fan = projective_space(3)
    rng = random.Random("chern numbers/counting")
    ring = build_bundle_ring(base, _twisting(base, fiber_fan, rng), fiber_fan)
    assert ring.dim == n
    total = total_chern_general(ring)
    multiplies = _count_calls(monkeypatch, BundleRing, "multiply")
    forms = _count_calls(monkeypatch, BundleRing, "_pairing")
    triples = _count_builds(monkeypatch, BasePresentation,
                            "triple_intersections")
    numbers = chern_numbers(ring, total)
    assert len(multiplies) == products
    assert list(numbers) == partitions(n)
    again = chern_numbers(ring, total)
    assert again == numbers
    assert len(multiplies) == 2 * products
    assert forms == [ring, ring]
    other = build_bundle_ring(base, _twisting(base, fiber_fan, rng), fiber_fan)
    chern_numbers(other, total_chern_general(other))
    assert forms == [ring, ring, other]
    assert triples == [base]


def test_fan_ring_products_per_call(monkeypatch):
    ring = build_ring(projective_space(5))
    total = total_chern_intrinsic(ring)
    multiplies = _count_calls(monkeypatch, type(ring), "multiply")
    forms = _count_calls(monkeypatch, type(ring), "_pairing")
    numbers = chern_numbers(ring, total)
    assert len(multiplies) == 3
    assert forms == [ring]
    assert list(numbers) == partitions(5)
