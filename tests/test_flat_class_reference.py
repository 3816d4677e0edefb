"""Flat class arithmetic against the per-degree reference.

A ``CohomologyClass`` holds one flat tuple over its ring's numbered
basis; ``helpers.PerDegreeClass`` holds one tuple per degree and rebuilds
each of them in every operation.  On seeded classes of the five
``perfbench/bases`` presentations, a fan ring, a pair ring, a face ring
and bundle rings, whose coefficients are base classes, both must agree
on sums, differences, negation, scalar multiples, every component, truth,
equality, hashing, the per-degree parts and the terms, and a class built
from per-degree parts must give those parts back.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    PerDegreeClass,
    dim5_twists,
    dp6,
    p1_power,
    projective_space,
    random_charmap_pair,
)
from toricbundles import (
    TwistingClasses,
    build_bundle_ring,
    build_ring,
    face_ring,
    tautological_pair,
)
from toricbundles.cohomology import CohomologyClass
from toricbundles.equivariant import ordinary_ring
from toricbundles.formats import parse_base_presentation

BASES = sorted((Path(__file__).parent.parent / "perfbench" / "bases").glob("*.pres"))
SCALARS = (-3, -1, 0, 1, 2)


def _presentation(path):
    return parse_base_presentation(path.read_text())


def _pair_ring():
    rng = random.Random("flat classes/pair ring")
    pair = None
    while pair is None:
        pair = random_charmap_pair(dp6(), rng)
    return ordinary_ring(pair)


def _bundle_ring(path, fiber):
    base = _presentation(path)
    rng = random.Random(f"flat classes/twist {path.name}")
    lam = TwistingClasses(classes=tuple(
        base.reduce_poly({m: rng.randint(-2, 2) for m in base.basis_monomials(1)})
        for _ in range(fiber.dim)))
    return build_bundle_ring(base, lam, fiber)


RINGS = (
    [(f"bases/{path.name}", lambda path=path: _presentation(path))
     for path in BASES]
    + [("fan ring dP6", lambda: build_ring(dp6())),
       ("fan ring dim-5 twist", lambda: build_ring(next(dim5_twists(1, 11)))),
       ("pair ring", _pair_ring),
       ("face ring", lambda: face_ring(tautological_pair(projective_space(2)),
                                       6)),
       ("bundle ring P2/P2", lambda: _bundle_ring(BASES[1], projective_space(2))),
       ("bundle ring P2xP1/(P1)^2", lambda: _bundle_ring(BASES[2], p1_power(2)))]
)


def _parts(ring, rng, zero=False):
    """Seeded per-degree parts of the library class and of the reference
    class, all zero one time in four; a bundle ring's coefficients are
    seeded base classes, built both ways."""
    zero = zero or rng.random() < 0.25
    shape = ring.betti()
    if not hasattr(ring, "base"):
        parts = tuple(tuple(0 if zero else rng.choice((0, 0, 1, -1, 2, -5))
                            for _ in range(rank)) for rank in shape)
        return parts, parts
    pairs = [[_parts(ring.base, rng, zero) for _ in range(rank)]
             for rank in shape]
    return (
        tuple(tuple(CohomologyClass(ring.base, p) for p, _ in part)
              for part in pairs),
        tuple(tuple(PerDegreeClass(ring.base, q) for _, q in part)
              for part in pairs),
    )


@pytest.mark.parametrize("name,make", RINGS, ids=[name for name, _ in RINGS])
def test_flat_classes_compute_as_per_degree_classes(name, make):
    ring = make()
    rng = random.Random(f"flat classes/{name}")
    samples = []
    for _ in range(8):
        parts, ref_parts = _parts(ring, rng)
        cls = CohomologyClass(ring, parts)
        assert cls.parts == parts
        samples.append((cls, PerDegreeClass(ring, ref_parts)))
    samples.append((ring.zero(), PerDegreeClass.of(ring.zero())))
    samples.append((ring.unit(), PerDegreeClass.of(ring.unit())))
    # the largest total degree, past which every component is zero
    top = ring.dim if hasattr(ring, "base") else len(ring.betti()) - 1
    for (a, ra), (b, rb) in zip(samples, samples[1:] + samples[:1]):
        assert PerDegreeClass.of(a) == ra
        assert PerDegreeClass.of(a + b) == ra + rb
        assert PerDegreeClass.of(a - b) == ra - rb
        assert PerDegreeClass.of(-a) == -ra
        for s in SCALARS:
            assert PerDegreeClass.of(s * a) == s * ra
        for k in range(-1, top + 2):
            assert PerDegreeClass.of(a.component(k)) == ra.component(k), k
        assert bool(a) == bool(ra) and a.is_zero() == (not ra)
        assert not (a - a) and not (ra - ra)
        assert (a == b) == (ra == rb)
        same = CohomologyClass(ring, a.parts)
        assert same == a and hash(same) == hash(a)
        assert len({a, b, same}) == len({ra, rb})
        assert {m: c if isinstance(c, int) else PerDegreeClass.of(c)
                for m, c in a.to_poly().items()} == ra.to_poly()


def test_classes_of_different_rings_differ():
    a, b = build_ring(projective_space(2)), build_ring(dp6())
    x, y = a.unit(), b.unit()
    assert x.flat[:1] == y.flat[:1] and x != y
    with pytest.raises(ValueError, match="different rings"):
        x + y
    with pytest.raises(ValueError, match="different rings"):
        x - y


def test_a_class_is_immutable():
    cls = build_ring(projective_space(2)).unit()
    with pytest.raises(AttributeError):
        cls.flat = (0, 0, 0)
