"""The one-pass elimination against the multi-pass reference.

``graded_eliminate`` visits each allowed column once and back-substitutes
at the end; ``multipass_eliminate`` rescans in passes, defers columns and
pushes each pivot into the earlier pivot rows at once.  The reduced
echelon form with unit pivots is unique, so on every graded piece the two
must return the same pivot columns and pivot vectors.  Payloads are only
defined modulo the relations one degree down, so they are not compared
here; the bundle-ring references compare the normal forms they give.
"""

import os

import pytest

from helpers import (
    charmap_pair_cases,
    fresh_ring,
    multipass_eliminate,
    p1_power,
    p2,
    p2_presentation,
    projective_space,
    square_fan,
    star_subdivision_cases,
)
from toricbundles import (
    CharacteristicPair,
    TwistingClasses,
    build_bundle_ring,
    bundlering,
    cohomology,
)
from toricbundles.bundlering import BasePresentation
from toricbundles.cohomology import (
    GradedQuotientRing,
    RingConsistencyError,
    graded_eliminate,
    linear_relations,
)
from toricbundles.corpus import corpus_fans
from toricbundles.equivariant import ordinary_ring
from toricbundles.faces import walk_faces
from toricbundles.fan import tables
from toricbundles.formats import parse_base_presentation

BASES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "bases")


@pytest.fixture
def compared(monkeypatch):
    """Run every elimination both ways, recording one entry per piece."""
    seen = []

    def both(rows, allowed, columns):
        expected = multipass_eliminate(rows, allowed)
        assert len(expected) == len(allowed)
        got = graded_eliminate(rows, allowed, columns)
        assert [(c, v) for c, v, _ in got] == [(c, v) for c, v, _ in expected]
        seen.append(len(got))
        return got

    monkeypatch.setattr(cohomology, "graded_eliminate", both)
    return seen


FANS = list(corpus_fans()) + [
    ("P5", projective_space(5)),
    ("P8", projective_space(8)),
    ("(P1)^4", p1_power(4)),
    ("(P1)^5", p1_power(5)),
    ("(P1)^6", p1_power(6)),
]


@pytest.mark.parametrize("name,fan", FANS, ids=[name for name, _ in FANS])
def test_fan_rings_match_the_reference(compared, name, fan):
    fresh_ring(fan)  # past the cache: every piece is eliminated
    assert compared


STAR_SUBDIVISIONS = star_subdivision_cases()


@pytest.mark.parametrize("name,fan", STAR_SUBDIVISIONS,
                         ids=[name for name, _ in STAR_SUBDIVISIONS])
def test_star_subdivisions_match_the_reference(compared, name, fan):
    fresh_ring(fan)
    assert compared


CHARMAP_PAIRS = charmap_pair_cases()


@pytest.mark.parametrize("name,pair", CHARMAP_PAIRS,
                         ids=[name for name, _ in CHARMAP_PAIRS])
def test_non_toric_charmap_rings_match_the_reference(compared, name, pair):
    ordinary_ring.__wrapped__(pair)
    assert compared


@pytest.mark.parametrize("name,fan,charmap", [
    ("P2", p2(), ((1, 0), (1, 1), (0, -1))),
    ("P3", projective_space(3), (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))),
])
def test_alt_charmap_rings_match_the_reference(compared, name, fan, charmap):
    ordinary_ring.__wrapped__(CharacteristicPair(complex=fan, charmap=charmap))
    assert compared


@pytest.mark.parametrize("path", sorted(
    os.path.join(BASES, name) for name in os.listdir(BASES)
    if name.endswith(".pres")
), ids=os.path.basename)
def test_benchmark_bases_match_the_reference(compared, path):
    with open(path, encoding="utf-8") as fh:
        parse_base_presentation.__wrapped__(fh.read())
    assert compared


def test_bundle_ring_pivots_match_the_reference(compared):
    base = p2_presentation()
    h = base.reduce_poly({(1,): 1})
    build_bundle_ring(base, TwistingClasses((h, 2 * h)), p2())
    assert compared


# P1 x P1 has the maximal cones {0, 2}, {0, 3}, {1, 2}, {1, 3}.  In this
# plan the interval [{}, {0, 2}] holds x0, x2 and x0*x2, [{1}, {1, 2}] holds
# x1 and x1*x2, and the cones {0, 3} and {1, 3} hold only themselves, so no
# interval holds x3: the plan misses it.
SQUARE_WITHOUT_X3 = {
    frozenset({0, 2}): frozenset(), frozenset({0, 3}): frozenset({0, 3}),
    frozenset({1, 2}): frozenset({1}), frozenset({1, 3}): frozenset({1, 3}),
}


def _square_plan(bad_sets, fan):
    return [bad_sets[cone] for cone in fan.max_cones]


def _square_ring(bad_sets):
    fan = square_fan()
    return GradedQuotientRing(
        ray_count=fan.ray_count, dim=fan.dim,
        relations=linear_relations(fan), max_cones=fan.max_cones,
        basis_plan=_square_plan(bad_sets, fan),
        face_masks=walk_faces(fan.max_cones), kind="fan ring",
        inverses=tables(fan).duals.rows,
    )


def test_a_planned_basis_missing_a_column_names_it():
    with pytest.raises(RingConsistencyError,
                       match=r"degree 1: .*\(0, 0, 0, 1\)"):
        _square_ring(SQUARE_WITHOUT_X3)


def test_an_overlapping_plan_names_the_face_two_intervals_hold():
    # [{}, {0, 2}] and [{0}, {0, 3}] both hold x0
    overlapping = {**SQUARE_WITHOUT_X3, frozenset({0, 3}): frozenset({0})}
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 1: column \(1, 0, 0, 0\) "
                             r"lies in the interval of cone \[0, 3\] and "
                             r"in another"):
        _square_ring(overlapping)


def _doubled_h_squared(basis):
    return BasePresentation(
        name="torsion", generators=[("h", 2)], relations=[{(2,): 2}],
        basis=basis, top_degree=4, integration=1,
        chern={(0,): 1, (1,): 3, (2,): 3},
    )


def test_a_non_unit_residual_gcd_names_the_column():
    # 2*h^2 = 0 with h^2 off the basis: the only row has gcd 2 at h^2
    with pytest.raises(RingConsistencyError,
                       match=r"'torsion', degree 4: column \(2,\) has "
                             r"residual gcd 2"):
        _doubled_h_squared({0: [(0,)], 1: [(1,)]})


def test_a_column_no_row_reaches_names_it():
    # h^3 = 0 leaves h^2 free, so a basis without it has no row there
    with pytest.raises(RingConsistencyError,
                       match=r"'P2', degree 4: no relation row reaches "
                             r"column \(2,\)"):
        BasePresentation(
            name="P2", generators=[("h", 2)], relations=[{(3,): 1}],
            basis={0: [(0,)], 1: [(1,)]}, top_degree=4, integration=1,
            chern={(0,): 1, (1,): 3, (2,): 3},
        )


def test_a_relation_among_basis_columns_names_it():
    # 2*h^2 = 0 with h^2 on the basis: the row lies on basis columns only
    with pytest.raises(RingConsistencyError,
                       match=r"'torsion', degree 4: .*basis columns, "
                             r"at \(2,\)"):
        _doubled_h_squared({0: [(0,)], 1: [(1,)], 2: [(2,)]})


@pytest.fixture
def plan_without_x3(monkeypatch):
    """Plan every ring with the square plan above, which misses x3."""
    monkeypatch.setattr(cohomology, "fixed_point_basis_plan",
                        lambda fan: _square_plan(SQUARE_WITHOUT_X3, fan))


def test_a_failing_fan_ring_plan_names_the_fan_ring(plan_without_x3):
    with pytest.raises(RingConsistencyError,
                       match=r"^fan ring, degree 1: .*\(0, 0, 0, 1\)"):
        fresh_ring(square_fan())


def test_a_failing_pair_ring_plan_names_the_pair_ring(plan_without_x3):
    # charmap relations x0 - x1 + x2 - x3 = x2 - x3 = 0, not the rays'
    pair = CharacteristicPair(
        complex=square_fan(), charmap=((1, 0), (-1, 0), (1, 1), (-1, -1))
    )
    with pytest.raises(RingConsistencyError,
                       match=r"^pair ring, degree 1: .*\(0, 0, 0, 1\)"):
        ordinary_ring.__wrapped__(pair)


def test_a_failing_bundle_ring_plan_names_the_bundle_ring(monkeypatch):
    fiber = square_fan()  # a ring of its own, not the cached one
    fiber_ring = cohomology._certified_ring(
        fiber, linear_relations(fiber), "fan ring", tables(fiber).duals.rows)
    fiber_ring.basis_plan = _square_plan(SQUARE_WITHOUT_X3, square_fan())
    monkeypatch.setattr(bundlering, "build_ring", lambda fiber: fiber_ring)
    base = p2_presentation()
    h = base.reduce_poly({(1,): 1})
    with pytest.raises(RingConsistencyError,
                       match=r"^bundle ring, degree 1: .*\(0, 0, 0, 1\)"):
        build_bundle_ring(base, TwistingClasses((h, 2 * h)), square_fan())
