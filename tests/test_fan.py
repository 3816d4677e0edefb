import pytest

from helpers import dp6, p1, p2, pairwise_validate, scan_walls, square_fan
from toricbundles import Fan, make_fan, product_fan, validate, walls
from toricbundles import fan as fan_module
from toricbundles.corpus import corpus_fans


def test_p1_validates():
    report = validate(p1())
    assert report.simplicial and report.smooth
    assert report.complete and report.well_formed
    assert report.diagnostics == ()


def test_incomplete_p1_variant():
    f = make_fan(1, [[1], [-1]], [[0]])
    report = validate(f)
    assert not report.complete
    assert report.well_formed


def test_non_smooth_cone_detected():
    f = make_fan(2, [[1, 0], [1, 2]], [[0, 1]])
    report = validate(f)
    assert not report.smooth
    assert any("determinant 2" in d for d in report.diagnostics)


def test_non_primitive_ray_detected():
    f = make_fan(1, [[2], [-1]], [[0], [1]])
    report = validate(f)
    assert not report.well_formed
    assert any("not primitive" in d for d in report.diagnostics)


def test_cones_not_meeting_in_faces_detected():
    # cone(e1, e1+2e2) contains cone(e2)'s wall region: overlap, not a face
    f = make_fan(2, [[1, 0], [0, 1], [1, 2]], [[0, 1], [1, 2]])
    report = validate(f)
    assert not report.well_formed
    assert any("do not meet in a face" in d for d in report.diagnostics)


@pytest.mark.parametrize("fan", [
    # cone(e1, e1+2e2) lies inside cone(e1, e2)
    make_fan(2, [[1, 0], [0, 1], [1, 2]], [[0, 1], [0, 2]]),
    make_fan(1, [[1], [-1]], [[0]]),  # incomplete P1
], ids=["overlapping", "incomplete-p1"])
def test_a_rejected_fan_builds_one_wall_map(fan, monkeypatch):
    """The certificate rejects both fans, and the pairwise check reads the
    wall map the certificate built."""
    real = fan_module._wall_map
    built = []

    def counting(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(fan_module, "_wall_map", counting)
    report = fan_module.FanTables(fan).report
    assert built == [fan]
    assert not report.all_good
    assert report == pairwise_validate(fan)


def test_proper_two_cone_fan_is_well_formed():
    f = make_fan(2, [[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]])
    report = validate(f)
    assert report.well_formed and report.smooth
    assert not report.complete


def test_rejects_non_simplicial_input():
    with pytest.raises(ValueError):
        make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1, 2]])
    with pytest.raises(ValueError):
        make_fan(2, [[1, 0], [0, 1]], [[0]])


def test_rejects_bad_indices_and_duplicates():
    with pytest.raises(ValueError):
        make_fan(1, [[1], [-1]], [[0], [2]])
    with pytest.raises(ValueError):
        make_fan(1, [[1], [-1]], [[0], [0]])


def test_rejects_a_repeated_ray_index():
    # a set would drop the repeat and accept [0, 1, 1] as the cone [0, 1]
    with pytest.raises(ValueError, match=r"\[0, 1, 1\] does not have exactly 2"):
        make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1, 1], [0, 2], [1, 2]])


def test_product_p1_p1():
    f = product_fan(p1(), p1())
    assert f.ray_count == 4
    assert len(f.max_cones) == 4
    assert validate(f).all_good


def test_product_p1_p2_counts():
    f = product_fan(p1(), p2())
    assert f.ray_count == 5
    assert len(f.max_cones) == 6
    assert validate(f).all_good


def test_product_with_point_fan_is_identity():
    point = Fan(dim=0, rays=(), max_cones=(frozenset(),))
    f = p2()
    g = product_fan(f, point)
    assert g.rays == f.rays
    assert g.max_cones == f.max_cones


def test_product_cone_counts_multiply():
    for f in (p1(), p2(), square_fan()):
        for g in (p1(), p2()):
            prod = product_fan(f, g)
            assert len(prod.max_cones) == len(f.max_cones) * len(g.max_cones)


def test_product_smoothness_is_conjunction():
    bad = make_fan(2, [[1, 0], [1, 2], [-1, -1], [0, -1], [-1, 1]],
                   [[0, 1], [1, 4], [4, 2], [2, 3], [3, 0]])
    assert not validate(bad).smooth
    assert validate(bad).complete
    assert not validate(product_fan(bad, p1())).smooth
    assert validate(product_fan(p1(), p1())).smooth


def test_walls_p1():
    ws = walls(p1())
    assert ws == [((), (0, 1))]


def test_walls_p2():
    ws = walls(p2())
    assert len(ws) == 3
    for _, containing in ws:
        assert len(containing) == 2


def test_walls_square_fan():
    assert len(walls(square_fan())) == 4


WALL_CASES = [
    *(fan for _, fan in corpus_fans()),
    Fan(0, (), (frozenset(),)),
    Fan(0, (), ()),
    p1(),
    make_fan(1, [[1], [-1]], [[0]]),
    # the wall {0} lies in three cones
    make_fan(2, [[1, 0], [0, 1], [-1, -1], [0, -1]], [[0, 1], [0, 2], [0, 3]]),
    # cone(e1, e2) overlaps cone(e1, e1 + 2e2): the wall {0} lies in both,
    # with both apexes on one side of it
    make_fan(2, [[1, 0], [0, 1], [1, 2]], [[0, 1], [0, 2]]),
]


@pytest.mark.parametrize("fan", WALL_CASES)
def test_walls_match_the_scan_reference(fan):
    assert walls(fan) == scan_walls(fan)


def test_completeness_criterion_matches_wall_pairing():
    for fan in (p1(), p2(), square_fan(), dp6()):
        report = validate(fan)
        paired = all(len(c) == 2 for _, c in walls(fan))
        assert report.complete == paired == True  # noqa: E712


def test_ray_in_no_maximal_cone_makes_a_complete_fan_ill_formed():
    f = make_fan(2, [[1, 0], [0, 1], [-1, -1], [5, 7]],
                 [[0, 1], [1, 2], [0, 2]])
    report = validate(f)
    assert report.complete and report.smooth
    assert not report.well_formed
    assert report.diagnostics == ("ray 3 = (5, 7) lies in no maximal cone",)


def test_disconnected_is_incomplete():
    # two opposite quadrant cones: every wall is in one cone only
    f = make_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [2, 3]])
    report = validate(f)
    assert not report.complete
