"""The dual-basis certificate of ``validate`` against the pairwise reference.

``validate`` certifies a complete well-formed fan from one dual basis per
maximal cone (wall pairing plus one generic point covered once) and
sends every fan the certificate rejects to the pairwise check, so its
whole report must equal ``pairwise_validate``'s on valid fans, invalid
fans and fans the certificate alone can reject.  Each report is a fresh
record's, ``FanTables(f).report``, past the per-fan cache.  The linear
algebra it
reads (``det_adjugate``) is checked here too, and so is ``hnf_inverse``,
the reference for the dual rows of a unimodular cone.
"""

import random

import pytest

from helpers import (
    determinant,
    hnf_inverse,
    mat_mul,
    p1_power,
    pairwise_validate,
    projective_space,
    star_surface,
)
from toricbundles import fan as fan_module
from toricbundles import make_plmap, product_fan, twisted_fan
from toricbundles.corpus import corpus_fans
from toricbundles.fan import Fan, FanTables
from toricbundles.lattice import det_adjugate, identity


def _bases_and_fibers():
    p1, p2, p3, p4 = (projective_space(n) for n in (1, 2, 3, 4))
    bases = [p2, p3, p4, product_fan(p1, p1), product_fan(p2, p1)]
    fibers = [p1, p2, p3, product_fan(p1, p1)]
    return bases, fibers


def seeded_twists(seed, count):
    """Twisted fans over the base and fiber mix, phi entries in [-3, 3]."""
    rng = random.Random(seed)
    bases, fibers = _bases_and_fibers()
    out = []
    for k in range(count):
        base = bases[k % len(bases)]
        fiber = fibers[(k // len(bases)) % len(fibers)]
        values = [
            [rng.randint(-3, 3) for _ in range(fiber.dim)] for _ in base.rays
        ]
        phi = make_plmap(fiber.dim, values)
        out.append(twisted_fan(base, fiber, phi))
    return out


def valid_fans():
    fans = [fan for _, fan in corpus_fans()]
    fans += [projective_space(n) for n in range(1, 6)]
    fans += [p1_power(n) for n in range(1, 6)]
    fans += seeded_twists(11, 20)
    rng = random.Random(14)
    fans += [star_surface(n, rng) for n in (14, 15, 20, 40, 100, 200)]
    return fans


def corrupted(fan, rng):
    """A dropped cone, a replaced cone, a flipped ray and a perturbed ray."""
    cones = list(fan.max_cones)
    out = [Fan(fan.dim, fan.rays, tuple(cones[1:]))]
    k = rng.randrange(len(cones))
    replacement = frozenset(rng.sample(range(fan.ray_count), fan.dim))
    if replacement not in cones:
        out.append(Fan(fan.dim, fan.rays,
                       tuple(cones[:k] + [replacement] + cones[k + 1:])))
    rays = list(fan.rays)
    i = rng.randrange(len(rays))
    flipped = rays[:i] + [tuple(-x for x in rays[i])] + rays[i + 1:]
    out.append(Fan(fan.dim, tuple(flipped), fan.max_cones))
    j = rng.randrange(fan.dim)
    bumped = tuple(x + (c == j) for c, x in enumerate(rays[i]))
    out.append(Fan(fan.dim, tuple(rays[:i] + [bumped] + rays[i + 1:]),
                   fan.max_cones))
    return out


def double_cover_of_the_circle():
    """Ten rays winding twice around the origin, consecutive cones."""
    rays = ((1, 0), (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (1, 1),
            (0, 1), (-1, 1), (0, -1))
    cones = tuple(frozenset({i, (i + 1) % 10}) for i in range(10))
    return Fan(2, rays, cones)


def test_valid_fans_match_the_reference():
    for fan in valid_fans():
        report = FanTables(fan).report
        assert report == pairwise_validate(fan)
        assert report.all_good


def test_corrupted_fans_match_the_reference():
    rng = random.Random(23)
    invalid = 0
    for fan in valid_fans():
        if fan.ray_count > 40:
            continue  # the reference is quadratic in the cones
        for bad in corrupted(fan, rng):
            report = FanTables(bad).report
            assert report == pairwise_validate(bad), bad
            invalid += not report.all_good
    assert invalid > 100


def test_only_the_point_count_rejects_the_double_cover():
    fan = double_cover_of_the_circle()
    report = FanTables(fan).report
    assert report == pairwise_validate(fan)
    assert report.smooth and report.complete and not report.well_formed
    assert any("do not meet in a face" in d for d in report.diagnostics)


def test_a_certified_fan_makes_no_pairwise_calls(monkeypatch):
    calls = []
    real = fan_module._meet_in_face

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fan_module, "_meet_in_face", counting)
    for fan in valid_fans():
        assert FanTables(fan).report.all_good
    assert calls == []
    assert not FanTables(double_cover_of_the_circle()).report.well_formed
    assert calls


def test_a_ray_outside_every_cone_still_spoils_a_certified_fan():
    p2 = projective_space(2)
    fan = Fan(2, p2.rays + ((1, 1),), p2.max_cones)
    report = FanTables(fan).report
    assert report == pairwise_validate(fan)
    assert report.complete and not report.well_formed
    assert report.diagnostics == ("ray 3 = (1, 1) lies in no maximal cone",)


def _seeded_matrices(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        n = k % 7
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 2 and k % 3 == 0:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]  # singular
        yield tuple(map(tuple, m))


def test_det_adjugate_on_seeded_matrices():
    singular = 0
    for m in _seeded_matrices(5, 700):
        n = len(m)
        d, adj = det_adjugate(m)
        assert d == determinant(m)
        if d == 0:
            assert adj is None
            singular += 1
        else:
            scaled = tuple(tuple(d * x for x in row) for row in identity(n))
            assert mat_mul(m, adj) == scaled
            assert mat_mul(adj, m) == scaled
    assert singular > 100
    assert det_adjugate(()) == (1, ())


def test_det_adjugate_rejects_non_square():
    with pytest.raises(ValueError):
        det_adjugate(((1, 2),))


def _seeded_unimodular(seed, count):
    """Products of elementary matrices and signed permutations."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 6
        m = [list(row) for row in identity(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        rng.shuffle(m)
        m[0] = [-x for x in m[0]]
        yield tuple(map(tuple, m))


def test_hnf_inverse_inverts_unimodular_matrices_and_rejects_the_rest():
    for m in _seeded_unimodular(7, 120):
        assert mat_mul(hnf_inverse(m), m) == identity(len(m))
    for m in _seeded_matrices(9, 140):
        if determinant(m) not in (1, -1):
            with pytest.raises(ValueError, match="determinant"):
                hnf_inverse(m)
