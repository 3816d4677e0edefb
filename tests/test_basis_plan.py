"""The fixed-point basis plan, read at the fan's first generic point.

``fixed_point_basis_plan`` takes each maximal cone's negative-coordinate
ray set at ``first_generic_coordinates``, the point validation and
localization already read, so a request sweeps the moment curve once per
fan.  ``sweeping_basis_plan`` searches the moment curve for the first
point whose sets are distinct and count the h-vector; on every complete
simplicial fan the first generic point already does, so the two plans
must be equal, the non-projective threefold included.  That fan is
pinned here too: it validates, and its ring and localization agree.
"""

import random

import pytest

from helpers import (
    clear_fan_caches,
    cp2_sharp_cp2,
    dim5_twists,
    nonprojective_threefold,
    p1,
    p1_power,
    p2,
    projective_space,
    star_surface,
    sweeping_basis_plan,
)
from toricbundles import (
    build_ring,
    chern_numbers,
    chern_numbers_localized,
    make_plmap,
    product_fan,
    total_chern_intrinsic,
    validate,
)
from toricbundles import fan as fan_module
from toricbundles.cli import main
from toricbundles.cohomology import fixed_point_basis_plan
from toricbundles.corpus import corpus_fans
from toricbundles.faces import h_vector_of, walk_faces
from toricbundles.formats import fan_to_text, plmap_to_text


def _plan_cases():
    rng = random.Random("basis plan/star surfaces")
    cases = list(corpus_fans())
    cases += [(f"P{n}", projective_space(n)) for n in range(1, 8)]
    cases += [(f"(P1)^{n}", p1_power(n)) for n in range(1, 7)]
    cases += [(f"star {k}", star_surface(k, rng))
              for k in (4, 5, 6, 10, 14, 30, 60, 100, 200)]
    cases += [(f"dim-5 twist {k}", f)
              for k, f in enumerate(dim5_twists(40, 5))]
    cases.append(("CP2#CP2 square", cp2_sharp_cp2().complex))
    cases.append(("non-projective threefold", nonprojective_threefold()))
    return cases


PLAN_CASES = _plan_cases()


@pytest.mark.parametrize("name,fan", PLAN_CASES,
                         ids=[name for name, _ in PLAN_CASES])
def test_the_first_generic_point_gives_the_sweeping_plan(name, fan):
    hv = h_vector_of(walk_faces(fan.max_cones), fan.dim)
    assert fixed_point_basis_plan(fan) == sweeping_basis_plan(fan, hv)


@pytest.fixture
def moment_curve_calls(monkeypatch):
    """Every moment-curve sweep's dimension, with the per-fan caches emptied."""
    calls = []
    real = fan_module.moment_curve

    def counting(dim):
        calls.append(dim)
        return real(dim)

    monkeypatch.setattr(fan_module, "moment_curve", counting)
    clear_fan_caches()
    return calls


def test_cmd_chern_sweeps_the_moment_curve_once(tmp_path, capsys,
                                                moment_curve_calls):
    f = star_surface(14, random.Random("one sweep per fan"))
    path = tmp_path / "surface.fan"
    path.write_text(fan_to_text(f))
    assert main(["--format", "machine", "chern", str(path)]) == 0
    capsys.readouterr()
    assert moment_curve_calls == [2]


def test_cmd_compare_sweeps_the_moment_curve_once_per_fan(tmp_path, capsys,
                                                          moment_curve_calls):
    base = product_fan(p2(), p1())
    fiber = p1_power(2)
    phi = make_plmap(2, [[1, 0], [0, 2], [-1, 1], [2, -1], [0, 1]])
    files = {"base.fan": fan_to_text(base), "fiber.fan": fan_to_text(fiber),
             "phi.plm": plmap_to_text(phi)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["--format", "machine", "compare"]
                + [str(tmp_path / name) for name in files]) == 0
    capsys.readouterr()
    assert sorted(moment_curve_calls) == [2, 3, 5]


def test_the_nonprojective_threefold_validates():
    report = validate(nonprojective_threefold())
    assert report.all_good, report.diagnostics


def test_the_nonprojective_threefold_ring_and_localization_agree():
    f = nonprojective_threefold()
    ring = build_ring(f)
    assert ring.betti() == [1, 11, 11, 1]
    expected = {(1, 1, 1): 16, (2, 1): 24, (3,): 24}
    assert chern_numbers(ring, total_chern_intrinsic(ring)) == expected
    assert chern_numbers_localized(f) == expected
