"""The face-bitmask walk against the frozenset walk.

A ring with linear relations keeps every face as a ray bitmask from one
submask walk of the maximal cones, walks each interval [bad(sigma),
sigma] as the submasks of sigma - bad(sigma) and addresses each relation
row's terms by mask.  ``FrozensetWalkRing`` and ``FrozensetWalkBundleRing``
walk the intervals as frozenset unions, test faces against
``subset_faces`` and address rows by monomial.  Both must list the same
columns in the same order, with the same home cones and rays rho, and
hand elimination identical rows (entries in the same order, the same
payloads), so the pivots, payloads and bases are identical too.  The
cases are the corpus fans, P1-P7, (P1)^1-(P1)^6, star surfaces with
4-200 rays, seeded dimension-5 twists, the non-projective threefold and
seeded star subdivisions, the CP2#CP2 pair ring, and bundle rings over
the five benchmark base presentations.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    FrozensetWalkBundleRing,
    FrozensetWalkRing,
    cp2_sharp_cp2,
    dim5_twists,
    fresh_ring,
    nonprojective_threefold,
    p1_power,
    projective_space,
    random_base_class,
    star_subdivision_cases,
    star_surface,
    ray_sets,
    subset_faces,
)
from toricbundles import TwistingClasses, build_ring
from toricbundles import cohomology
from toricbundles.bundlering import BundleRing
from toricbundles.corpus import corpus_fans
from toricbundles.equivariant import ordinary_ring
from toricbundles.faces import h_vector_of, walk_faces
from toricbundles.formats import parse_base_presentation

BASES = Path(__file__).parent.parent / "perfbench" / "bases"
FIBERS = [("P1", projective_space(1)), ("P2", projective_space(2)),
          ("P3", projective_space(3)), ("P1xP1", p1_power(2))]


def _fan_cases():
    rng = random.Random("face masks/star surfaces")
    cases = list(corpus_fans())
    cases += [(f"P{n}", projective_space(n)) for n in range(1, 8)]
    cases += [(f"(P1)^{n}", p1_power(n)) for n in range(1, 7)]
    cases += [(f"star {k}", star_surface(k, rng))
              for k in (4, 5, 9, 14, 30, 60, 100, 200)]
    cases.append(("non-projective threefold", nonprojective_threefold()))
    cases += star_subdivision_cases()
    return cases


FAN_CASES = _fan_cases()


def _recorded(monkeypatch, build):
    """The ring ``build`` makes, and the rows each elimination was given,
    each row as its ordered entries and payload."""
    calls = []
    real = cohomology.graded_eliminate

    def recording(rows, allowed, columns):
        calls.append([(list(vec.items()),
                       list(payload.items()) if payload else payload)
                      for vec, payload in rows])
        return real(rows, allowed, columns)

    monkeypatch.setattr(cohomology, "graded_eliminate", recording)
    try:
        return build(), calls
    finally:
        monkeypatch.undo()


def _assert_same_walk(monkeypatch, build, build_reference):
    ring, rows = _recorded(monkeypatch, build)
    reference, reference_rows = _recorded(monkeypatch, build_reference)
    walked = reference._interval_columns()
    columns, where = ring._interval_columns()
    assert sorted(columns) == sorted(walked)
    for d, entries in columns.items():
        assert [(mono, cone, rho) for mono, _, cone, rho in entries] == sorted(
            walked[d], reverse=True), d
        for pos, (mono, face, _, _) in enumerate(entries):
            assert face == sum(1 << i for i, e in enumerate(mono) if e)
            assert where[face] == pos
    assert len(where) == sum(map(len, columns.values()))
    assert rows == reference_rows
    for mine, theirs in zip(ring._degrees, reference._degrees, strict=True):
        assert mine == theirs
        assert list(mine.pivots) == list(theirs.pivots)
        assert list(mine.payloads) == list(theirs.payloads)
    return ring


def _assert_fan_ring(monkeypatch, fan):
    cached = build_ring(fan)  # its arguments rebuild the reference
    ring = _assert_same_walk(
        monkeypatch, lambda: fresh_ring(fan),
        lambda: FrozensetWalkRing.of(cached))
    assert ray_sets(ring.face_masks) == subset_faces(fan.max_cones)
    assert ring.betti() == h_vector_of(walk_faces(fan.max_cones), fan.dim)


@pytest.mark.parametrize("name,fan", FAN_CASES,
                         ids=[name for name, _ in FAN_CASES])
def test_fan_rings_walk_as_the_frozenset_walk(name, fan, monkeypatch):
    _assert_fan_ring(monkeypatch, fan)


def test_dim5_twists_walk_as_the_frozenset_walk(monkeypatch):
    for fan in dim5_twists(40, 5):
        _assert_fan_ring(monkeypatch, fan)


def test_the_cp2_sharp_cp2_pair_ring_walks_as_the_frozenset_walk(monkeypatch):
    pair = cp2_sharp_cp2()
    cached = ordinary_ring(pair)
    ring = _assert_same_walk(
        monkeypatch, lambda: ordinary_ring.__wrapped__(pair),
        lambda: FrozensetWalkRing.of(cached))
    assert ring.kind == "pair ring" and ring.betti() == [1, 2, 1]


BASE_PATHS = sorted(BASES.glob("*.pres"))


@pytest.mark.parametrize("path", BASE_PATHS,
                         ids=[path.name for path in BASE_PATHS])
def test_bundle_rings_walk_as_the_frozenset_walk(path, monkeypatch):
    base = parse_base_presentation(path.read_text())
    rng = random.Random(f"face masks/bundle/{path.name}")
    for _, fiber in FIBERS:
        lam = TwistingClasses(classes=tuple(
            random_base_class(base, rng).component(1)
            for _ in range(fiber.dim)))
        build_ring(fiber)  # the fiber ring is not compared here
        _assert_same_walk(monkeypatch, lambda: BundleRing(base, lam, fiber),
                          lambda: FrozensetWalkBundleRing(base, lam, fiber))

