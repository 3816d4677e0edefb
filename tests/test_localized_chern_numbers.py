"""Chern numbers by fixed-point localization against the ring route.

``chern_numbers_localized`` sums prod_k e_{mu_k}(w) / e_n(w) over the
maximal cones, with w the weights of each cone's dual rows at one generic
point; ``chern_numbers`` multiplies the Chern classes in the fan ring.
The two must agree exactly on the corpus fans, P1-P6, (P1)^1-(P1)^5,
star surfaces with 14 to 200 rays and seeded dim-5 twists.  A ``chern``
request takes its numbers by localization and ``compare`` checks the
ring route against it; both read each maximal cone's dual basis from one
table per fan, so a request runs one Bareiss pass per cone of each parsed
fan, and none on a twisted fan, whose table comes from its base's and
fiber's.
"""

import json
import random

import pytest

from helpers import (
    clear_fan_caches,
    cone_vectors,
    dim5_twists,
    generic_coordinates,
    p1,
    p1_power,
    p2,
    plmap_to_text,
    projective_space,
    star_surface,
    thousand_wall_surface,
)
from toricbundles import (
    RingConsistencyError,
    build_ring,
    chern_numbers,
    chern_numbers_localized,
    compare,
    lattice,
    make_fan,
    make_plmap,
    product_fan,
    total_chern_intrinsic,
    twisted_fan,
)
from toricbundles import chern, fan as fan_module
from toricbundles.cli import main
from toricbundles.corpus import corpus_fans
from toricbundles.fan import tables
from toricbundles.formats import fan_to_text


def _fan_cases():
    rng = random.Random("localized chern numbers/star surfaces")
    cases = list(corpus_fans())
    cases += [(f"P{n}", projective_space(n)) for n in range(1, 7)]
    cases += [(f"(P1)^{n}", p1_power(n)) for n in range(1, 6)]
    cases += [(f"star {k}", star_surface(k, rng)) for k in (14, 30, 100, 200)]
    cases += [(f"dim-5 twist {k}", f)
              for k, f in enumerate(dim5_twists(40, 23))]
    return cases


FAN_CASES = _fan_cases()


@pytest.mark.parametrize("name,fan", FAN_CASES,
                         ids=[name for name, _ in FAN_CASES])
def test_localized_numbers_equal_the_ring_route(name, fan):
    ring = build_ring(fan)
    expected = chern_numbers(ring, total_chern_intrinsic(ring))
    got = chern_numbers_localized(fan)
    assert got == expected
    assert list(got) == list(expected)  # partitions(n) order


def test_localized_numbers_of_the_point():
    assert chern_numbers_localized(make_fan(0, [], [[]])) == {(): 1}


def test_localized_numbers_reject_an_invalid_fan():
    # the half line is not complete
    half_line = make_fan(1, [[1]], [[0]])
    with pytest.raises(ValueError, match="chern_numbers_localized"):
        chern_numbers_localized(half_line)


def test_a_fractional_localization_sum_names_the_partition(monkeypatch):
    # t0 = (1, 2), since (1, 1) pairs to 0 with a dual row of cone [1, 2];
    # doubling the second dual row of the cone [0, 1] turns its term
    # (1 + 2)^2 / (1 * 2) into (1 + 4)^2 / (1 * 4), so c1^2 sums to 9 + 7/4
    f = p2()
    record = tables(f)
    assert record.report.all_good  # validated on the true rows
    rows = list(record.duals.rows)
    u, v = rows[0]
    rows[0] = (u, tuple(2 * x for x in v))
    monkeypatch.setattr(record, "generic",
                        next(generic_coordinates(rows, f.dim)))
    with pytest.raises(RingConsistencyError,
                       match=r"Chern number 1\+1: fixed-point localization "
                             r"sums to 43/4, not an integer"):
        chern_numbers_localized(f)


def test_compare_checks_the_ring_route_against_localization(monkeypatch):
    base, fiber = p2(), p1()
    phi = make_plmap(1, [[1], [0], [0]])
    assert compare(base, fiber, phi).intrinsic_numbers == (
        chern_numbers_localized(twisted_fan(base, fiber, phi))
    )
    real = chern.chern_numbers_localized

    def one_off(f):
        numbers = real(f)
        numbers[(2, 1)] += 1
        return numbers

    monkeypatch.setattr(chern, "chern_numbers_localized", one_off)
    with pytest.raises(RingConsistencyError,
                       match=r"Chern number 2\+1: the ring route gives 24, "
                             r"fixed-point localization 25"):
        compare(base, fiber, phi)


def test_cmd_compare_exits_2_when_localization_disagrees(tmp_path, capsys,
                                                         monkeypatch):
    real = chern.chern_numbers_localized

    def one_off(f):
        numbers = real(f)
        numbers[(1, 1)] += 1
        return numbers

    monkeypatch.setattr(chern, "chern_numbers_localized", one_off)
    base = tmp_path / "p1.fan"
    base.write_text(fan_to_text(p1()))
    phi = tmp_path / "phi.plm"
    phi.write_text(plmap_to_text(make_plmap(1, [[1], [0]])))
    assert main(["compare", str(base), str(base), str(phi)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Chern number 1+1: the ring route gives 8, "
        "fixed-point localization 9\n"
    )


def test_cmd_chern_takes_no_ring_products_for_its_numbers(tmp_path, capsys,
                                                          monkeypatch):
    def refused(*args):
        raise AssertionError("chern_numbers called")

    monkeypatch.setattr(chern, "chern_numbers", refused)
    path = tmp_path / "p1p1.fan"
    path.write_text(fan_to_text(p1_power(2)))
    assert main(["--format", "machine", "chern", str(path)]) == 0
    assert '"1+1": 8' in capsys.readouterr().out


def test_cmd_chern_finds_a_generic_point_past_a_thousand_walls(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    # the first generic point of this surface is t = 1000.  A smooth
    # complete surface with r rays has c2 = r and c1^2 = 12 - r.
    def refused(*args):
        raise AssertionError("pairwise fallback called")

    monkeypatch.setattr(fan_module, "_pairwise_checks", refused)
    f = thousand_wall_surface()
    r = f.ray_count
    path = tmp_path / "wide.fan"
    path.write_text(fan_to_text(f))
    assert main(["--format", "machine", "chern", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chern_numbers"] == {"1+1": 12 - r, "2": r} == {
        "1+1": -991, "2": 1003}
    assert payload["gauss_bonnet"] is True


@pytest.fixture
def bareiss_passes(monkeypatch):
    """Every det_adjugate call's matrix, with the per-fan caches emptied."""
    calls = []
    real = lattice.det_adjugate

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(lattice, "det_adjugate", counting)
    monkeypatch.setattr(fan_module, "det_adjugate", counting)
    clear_fan_caches()
    return calls


def _cone_matrices(*fans):
    return sorted(cone_vectors(f.rays, cone) for f in fans for cone in f.max_cones)


def test_cmd_chern_runs_one_bareiss_pass_per_cone(tmp_path, capsys,
                                                  bareiss_passes):
    f = star_surface(14, random.Random("one pass per cone"))
    path = tmp_path / "surface.fan"
    path.write_text(fan_to_text(f))
    assert main(["--format", "machine", "chern", str(path)]) == 0
    capsys.readouterr()
    assert sorted(bareiss_passes) == _cone_matrices(f)


def test_cmd_compare_runs_one_bareiss_pass_per_cone(tmp_path, capsys,
                                                    bareiss_passes):
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
    # the twisted fan's table comes from the base's and fiber's by the
    # block inverse, so no twisted cone gets a Bareiss pass
    assert sorted(bareiss_passes) == _cone_matrices(base, fiber)
