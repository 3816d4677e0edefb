import json
import random
import sys

import pytest

from helpers import (
    P1_PRESENTATION,
    P2_PRESENTATION,
    clear_fan_caches,
    cone_vectors,
    determinant,
    monomial_to_text,
    p1,
    p2,
    polynomial_to_text,
    star_surface,
)
from toricbundles import (
    chern,
    cli,
    equivariant,
    make_plmap,
    tautological_pair,
    twist,
    twisted_fan,
    twisted_pair,
)
from toricbundles.cli import build_parser, main
from toricbundles.cohomology import RingConsistencyError
from toricbundles import fan as fan_module
from toricbundles.fan import Fan, ValidationReport
from toricbundles.formats import (
    ParseError,
    fan_to_text,
    pair_to_text,
    parse_base_presentation,
    parse_fan,
    parse_pair,
    parse_plmap,
    parse_polynomial,
    parse_twisting,
    plmap_to_text,
)

P1_FAN = """\
# projective line
dim 1
rays
1
-1
max_cones
0
1
"""

P1_INCOMPLETE = """\
dim 1
rays
1
-1
max_cones
0
"""

PHI_A1 = """\
fiber_rank 1
values
0 1
1 0
"""

LAMBDA_2H = """\
classes
2*h
"""


def test_fan_roundtrip():
    fan = parse_fan(P1_FAN)
    assert fan == p1()
    assert parse_fan(fan_to_text(fan)) == fan


def test_point_fan_roundtrip():
    # the point's one maximal cone, the zero cone, is written as an empty line
    point = Fan(0, (), (frozenset(),))
    assert fan_to_text(point) == "dim 0\nrays\nmax_cones\n\n"
    assert parse_fan(fan_to_text(point)) == point
    assert parse_fan("dim 0\nrays\nmax_cones\n") == point


def test_pair_roundtrip():
    pair = tautological_pair(p2())
    assert parse_pair(pair_to_text(pair)) == pair


def test_plmap_roundtrip():
    phi = make_plmap(2, [[1, 2], [0, 3]])
    assert parse_plmap(plmap_to_text(phi), p1()) == phi


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_fan("rays\n1\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_fan("dim 2\nrays\n1 0\n0 x\nmax_cones\n0 1\n")
    with pytest.raises(ParseError, match="ray index and 1 coordinates"):
        parse_plmap("fiber_rank 1\nvalues\n0 1 2\n1 0\n", p1())
    with pytest.raises(ParseError, match="duplicate"):
        parse_plmap("fiber_rank 1\nvalues\n0 1\n0 2\n", p1())


INTEGER_HEADERS = [
    # (keyword, parse of a text whose header line reads 'keyword value',
    # the header's line number)
    ("dim", lambda value: parse_fan(P1_FAN.replace("dim 1", f"dim {value}")),
     2),
    ("fiber_rank", lambda value: parse_plmap(
        "# phi\n" + PHI_A1.replace("fiber_rank 1", f"fiber_rank {value}"),
        p1()), 2),
    ("top_degree", lambda value: parse_base_presentation(
        P1_PRESENTATION.replace("top_degree 2", f"top_degree {value}")), 2),
    ("integration", lambda value: parse_base_presentation(
        P1_PRESENTATION.replace("integration 1", f"integration {value}")), 10),
]


@pytest.mark.parametrize("keyword,parse,line", INTEGER_HEADERS,
                         ids=[keyword for keyword, _, _ in INTEGER_HEADERS])
@pytest.mark.parametrize("value,message", [
    ("1 2", "{keyword} takes exactly one integer"),
    ("", "{keyword} takes exactly one integer"),
    ("x", "expected integers, got 'x'"),
], ids=["two tokens", "no token", "not an integer"])
def test_integer_headers_take_exactly_one_integer(keyword, parse, line,
                                                  value, message):
    with pytest.raises(ParseError) as error:
        parse(value)
    assert str(error.value) == f"line {line}: " + message.format(
        keyword=keyword)


@pytest.mark.parametrize("values,line", [("0 1\n", 3), ("", 2)],
                         ids=["one value", "no value"])
def test_cmd_twist_names_the_line_of_a_missing_value(tmp_path, capsys,
                                                     values, line):
    # the last value line, or the 'values' line when the block is empty
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi = write(tmp_path, "phi.plm", "fiber_rank 1\nvalues\n" + values)
    assert run_cli(tmp_path, "twist", base, base, phi) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: line {line}: phi must assign a value to all 2 rays\n")


@pytest.mark.parametrize("values,line", [("1 0\n", 11), ("", 10)],
                         ids=["one value", "no value"])
def test_cmd_equivariant_names_the_line_of_a_short_charmap(tmp_path, capsys,
                                                           values, line):
    # the last value line, or the 'charmap' line (line 10) when it is empty
    text = pair_to_text(tautological_pair(p2()))
    text = text[:text.index("charmap\n") + len("charmap\n")] + values
    pair = write(tmp_path, "p2.pair", text)
    assert run_cli(tmp_path, "equivariant", pair) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    count = len(values.split("\n")) - 1
    assert captured.err == (
        f"parse error: line {line}: charmap has {count} values for 3 rays\n")


def test_polynomial_parsing():
    gens = {"h": 0, "k": 1}
    assert parse_polynomial("1 + 2*h", gens, 2) == {(0, 0): 1, (1, 0): 2}
    assert parse_polynomial("-h^2*k + 3", gens, 2) == {(2, 1): -1, (0, 0): 3}
    assert parse_polynomial("h - h", gens, 2) == {}
    with pytest.raises(ParseError, match="unknown generator"):
        parse_polynomial("z", gens, 2)


@pytest.mark.parametrize("text", ["h^-1", "h^+1", "h^", "2*k - h^-2*k"])
def test_polynomial_parsing_rejects_signed_and_empty_exponents(text):
    # terms are split at signs, so these once read as h - 1, h + 1 and h
    with pytest.raises(ParseError, match=r"^line 7: exponent after '\^' "
                       "must be an unsigned integer in "):
        parse_polynomial(text, {"h": 0, "k": 1}, 2, 7)


@pytest.mark.parametrize("exponent", ["-1", "+1", ""])
def test_cmd_bundle_rejects_a_signed_or_empty_exponent(tmp_path, capsys,
                                                       exponent):
    pres = write(tmp_path, "p2.pres", P2_H_PRESENTATION)
    lam = write(tmp_path, "lam.tw", f"classes\nh^{exponent}\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: line 2: exponent after '^' must be an unsigned "
        f"integer in 'h^{exponent}'\n"
    )


def test_monomial_text():
    names = ["x0", "x1", "x2"]
    assert monomial_to_text((0, 0, 0), names) == "1"
    assert monomial_to_text((2, 0, 1), names) == "x0^2*x2"
    assert polynomial_to_text({(2, 0, 1): -3, (0, 0, 0): 1}, names) == (
        "1 - 3*x0^2*x2"
    )


def test_polynomial_text_roundtrip():
    rng = random.Random("polynomial text")
    names = ["h", "k", "x2"]
    gens = {name: i for i, name in enumerate(names)}
    assert polynomial_to_text({}, names) == "0"
    for _ in range(200):
        poly = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 3) for _ in names)
            poly[mono] = rng.choice([-7, -2, -1, 1, 1, 2, 5])
        text = polynomial_to_text(poly, names)
        assert parse_polynomial(text, gens, len(names)) == poly, text


def test_presentation_and_twisting_files():
    pres = parse_base_presentation(P1_PRESENTATION)
    assert pres.name == "P1"
    assert pres.rank(0) == pres.rank(1) == 1
    lam = parse_twisting(LAMBDA_2H, pres)
    assert len(lam.classes) == 1
    assert lam.classes[0].coefficients(1) == (2,)


def run_cli(tmp_path, *argv):
    return main([str(a) for a in argv])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cmd_validate_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "p1.fan", P1_FAN)
    bad = write(tmp_path, "bad.fan", P1_INCOMPLETE)
    assert run_cli(tmp_path, "validate", good) == 0
    out = capsys.readouterr().out
    assert "complete:    True" in out
    assert run_cli(tmp_path, "validate", bad) == 1
    out = capsys.readouterr().out
    assert "complete:    False" in out


def test_cmd_ray_in_no_maximal_cone_is_an_input_error(tmp_path, capsys):
    stray = write(tmp_path, "stray.fan", "dim 2\nrays\n1 0\n0 1\n-1 -1\n"
                  "5 7\nmax_cones\n0 1\n1 2\n0 2\n")
    assert run_cli(tmp_path, "validate", stray) == 1
    out = capsys.readouterr().out
    assert "well_formed: False" in out
    assert "  - ray 3 = (5, 7) lies in no maximal cone" in out
    assert run_cli(tmp_path, "chern", stray) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ray 3 = (5, 7) lies in no maximal cone" in captured.err


def test_cmd_fan_without_maximal_cones_names_the_cause(tmp_path, capsys):
    empty = write(tmp_path, "empty.fan", P1_INCOMPLETE.replace("max_cones\n0\n",
                                                            "max_cones\n"))
    assert run_cli(tmp_path, "validate", empty) == 1
    out = capsys.readouterr().out
    assert "complete:    False" in out
    assert "  - fan has no maximal cones" in out
    assert run_cli(tmp_path, "chern", empty) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: build_ring requires a well-formed smooth complete fan; "
        "fan has no maximal cones\n"
    )


P2_CONES_FROM_LINE_7 = "dim 2\nrays\n1 0\n0 1\n-1 -1\nmax_cones\n"


@pytest.mark.parametrize("cones,message", [
    ("0 1 1\n0 2\n1 2\n",
     "line 7: maximal cone [0, 1, 1] does not have exactly 2 distinct rays"),
    ("0\n0 2\n1 2\n",
     "line 7: maximal cone [0] does not have exactly 2 distinct rays"),
    ("0 1\n0 1\n0 2\n1 2\n", "line 8: duplicate maximal cone [0, 1]"),
])
def test_cmd_chern_names_the_bad_cone_line(tmp_path, capsys, cones, message):
    fan = write(tmp_path, "bad.fan", P2_CONES_FROM_LINE_7 + cones)
    assert run_cli(tmp_path, "chern", fan) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: {message}")

def test_cmd_validate_parse_error(tmp_path, capsys):
    broken = write(tmp_path, "broken.fan", "dim x\n")
    assert run_cli(tmp_path, "validate", broken) == 1
    assert "parse error" in capsys.readouterr().err


def test_cmd_twist_writes_fan_file(tmp_path, capsys):
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi = write(tmp_path, "phi.plm", PHI_A1)
    out_path = tmp_path / "twisted.fan"
    code = main(["--output", str(out_path), "twist", str(base), str(base),
                 str(phi)])
    assert code == 0
    twisted = parse_fan(out_path.read_text())
    expected = twisted_fan(p1(), p1(), make_plmap(1, [[1], [0]])).twisted
    assert twisted == expected


def test_cmd_twist_failing_validation_is_a_finding(tmp_path, capsys,
                                                  monkeypatch):
    failing = ValidationReport(
        simplicial=True, smooth=True, complete=False, well_formed=True,
        diagnostics=("a generic point lies in no cone",),
    )
    monkeypatch.setattr(twist, "validate", lambda fan: failing)
    phi = make_plmap(1, [[1], [0]])
    with pytest.raises(RingConsistencyError, match="failed validation"):
        twisted_fan(p1(), p1(), phi)
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi_path = write(tmp_path, "phi.plm", PHI_A1)
    assert run_cli(tmp_path, "twist", base, base, phi_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: twisted fan of smooth complete data failed validation: "
        "a generic point lies in no cone\n"
    )


def test_cmd_compare_human_and_exit(tmp_path, capsys):
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi = write(tmp_path, "phi.plm", PHI_A1)
    assert run_cli(tmp_path, "compare", base, base, phi) == 0
    out = capsys.readouterr().out
    assert "verdict: equal" in out
    assert "c1 c1 = 8" in out
    assert "c2 = 4" in out


def test_cmd_compare_reports_a_top_degree_mismatch(tmp_path, capsys,
                                                   monkeypatch):
    # one point class more on the bundle route: only the top degree
    # differs, and c_2 of that route is one above the intrinsic c_2
    formula = chern.total_chern_bundle_formula

    def one_point_more(*args):
        total = formula(*args)
        return total + total.ring.point_class()

    monkeypatch.setattr(chern, "total_chern_bundle_formula", one_point_more)
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi = write(tmp_path, "phi.plm", PHI_A1)
    assert run_cli(tmp_path, "compare", base, base, phi) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: NOT EQUAL"
    assert [line.endswith("[MISMATCH]") for line in lines[1:4]] == [
        False, False, True
    ]
    i = lines.index("Chern numbers (intrinsic route):")
    assert lines[i + 1:i + 6] == [
        "  c1 c1 = 8", "  c2 = 4",
        "Chern numbers (bundle-formula route):", "  c1 c1 = 8", "  c2 = 5",
    ]
    assert main(["--format", "machine", "compare", str(base), str(base),
                 str(phi)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is False
    assert [d["equal"] for d in payload["degrees"]] == [True, True, False]
    assert payload["chern_numbers_bundle"]["2"] == (
        payload["chern_numbers_intrinsic"]["2"] + 1
    )


def test_cmd_chern_machine_output_stable(tmp_path, capsys):
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert main(["--format", "machine", "chern", str(fan)]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["schema"] == "toricbundles-report/1"
    assert payload["chern_numbers"] == {"1": 2}
    assert main(["--format", "machine", "chern", str(fan)]) == 0
    assert capsys.readouterr().out == first  # byte stable


@pytest.mark.parametrize("fmt,calls", [("machine", 0), ("human", 1)])
def test_cmd_chern_renders_human_lines_only_for_human_format(
        tmp_path, capsys, monkeypatch, fmt, calls):
    fan = write(tmp_path, "p2.fan", fan_to_text(p2()))
    rendered = []
    real = cli._class_lines

    def counting(cls, label):
        rendered.append(label)
        return real(cls, label)

    monkeypatch.setattr(cli, "_class_lines", counting)
    assert main(["--format", fmt, "chern", str(fan)]) == 0
    assert len(rendered) == calls
    out = capsys.readouterr().out
    assert ("total Chern class:" in out) == (fmt == "human")


def test_cmd_cohomology(tmp_path, capsys):
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert run_cli(tmp_path, "cohomology", fan) == 0
    out = capsys.readouterr().out
    assert "[1, 1]" in out


def test_cmd_cohomology_and_chern_of_the_point(tmp_path, capsys):
    point = write(tmp_path, "point.fan",
                  fan_to_text(Fan(0, (), (frozenset(),))))
    assert run_cli(tmp_path, "--format", "machine", "cohomology", point) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == payload["h_vector"] == [1]
    assert payload["euler_characteristic"] == 1
    assert run_cli(tmp_path, "--format", "machine", "chern", point) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chern_numbers"] == {"": 1}
    assert payload["gauss_bonnet"] is True


def test_cmd_cohomology_walks_the_faces_once(tmp_path, capsys, monkeypatch):
    # the ring's face masks give the h-vector too, so a request on a
    # fresh fan walks the maximal cones' submasks once
    from toricbundles import corpus, faces

    walks = []
    walk_faces = faces.walk_faces

    def counting(max_cones):
        walks.append(max_cones)
        return walk_faces(max_cones)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("toricbundles")
                and getattr(module, "walk_faces", None) is walk_faces):
            monkeypatch.setattr(module, "walk_faces", counting)
    clear_fan_caches()
    fan = write(tmp_path, "dp6.fan", fan_to_text(corpus.del_pezzo_6()))
    assert run_cli(tmp_path, "--format", "machine", "cohomology", fan) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == payload["h_vector"] == [1, 4, 1]
    assert len(walks) == 1


def test_corpus_ring_sanity_walks_no_faces(monkeypatch):
    # ring sanity reads the h-vector off each ring's face masks, so with
    # no twist instances or pairs a corpus run walks the maximal cones'
    # submasks once per ring it builds, and no more
    from toricbundles import cohomology, corpus, faces

    walks = []
    walk_faces = faces.walk_faces

    def counting(max_cones):
        walks.append(max_cones)
        return walk_faces(max_cones)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("toricbundles")
                and getattr(module, "walk_faces", None) is walk_faces):
            monkeypatch.setattr(module, "walk_faces", counting)
    monkeypatch.setattr(corpus, "corpus_instances", lambda: [])
    monkeypatch.setattr(corpus, "corpus_pairs", lambda: [])
    clear_fan_caches()
    checks = corpus.run_corpus()
    assert {c.criterion for c in checks} == {
        "chern-numbers", "gauss-bonnet", "ring-sanity"}
    assert all(c.passed for c in checks)
    assert len(walks) == cohomology.build_ring.cache_info().currsize == 8


def test_cmd_equivariant(tmp_path, capsys):
    pair_path = write(tmp_path, "p2.pair", pair_to_text(tautological_pair(p2())))
    assert run_cli(tmp_path, "equivariant", pair_path) == 0
    out = capsys.readouterr().out
    assert "masuda check: pass" in out


def test_cmd_equivariant_builds_the_face_ring_once(tmp_path, capsys,
                                                  monkeypatch):
    pair_path = write(tmp_path, "p2.pair", pair_to_text(tautological_pair(p2())))
    assert main(["--format", "machine", "equivariant", "--degree-bound", "4",
                 str(pair_path)]) == 0
    explicit = capsys.readouterr().out
    builds = []
    real = equivariant.face_ring

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(equivariant, "face_ring", counting)
    assert main(["--format", "machine", "equivariant", str(pair_path)]) == 0
    assert len(builds) == 1
    # the class the Masuda check restricted is the one reported
    assert capsys.readouterr().out == explicit


def test_cmd_equivariant_validates_the_pair_once(tmp_path, capsys,
                                                monkeypatch):
    # the weight table is the pair's only validation: parsing builds it
    # with the fans' dual_table, and the face ring and the Masuda check
    # read the same table, so a request makes one det_adjugate pass per
    # maximal cone, parse included, and takes no separate determinant
    pair = parse_pair(pair_to_text(twisted_pair(
        tautological_pair(p2()), tautological_pair(p1()),
        make_plmap(1, [[1], [-2], [0]]),
    )))
    pair_path = write(tmp_path, "twist.pair", pair_to_text(pair))
    passes, determinants = [], []
    det_adjugate = fan_module.det_adjugate

    def counting_pass(m):
        passes.append(m)
        return det_adjugate(m)

    def counting_determinant(m):
        determinants.append(m)
        return determinant(m)

    monkeypatch.setattr(fan_module, "det_adjugate", counting_pass)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("toricbundles")
                and getattr(module, "determinant", None) is determinant):
            monkeypatch.setattr(module, "determinant", counting_determinant)
    clear_fan_caches()
    assert main(["--format", "machine", "equivariant", str(pair_path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert determinants == []
    assert sorted(passes) == sorted(
        cone_vectors(pair.charmap, cone) for cone in pair.complex.max_cones
    )


def test_weight_table_keeps_the_pair_error():
    # two cones are not lattice bases; the table fails with
    # validate_pair's message, at the same first offending cone
    bad = twist.CharacteristicPair(complex=p2(), charmap=((1, 0), (0, 1), (2, 3)))
    with pytest.raises(ValueError) as expected:
        twist.validate_pair(bad)
    assert str(expected.value) == (
        "charmap values on maximal face [0, 2] have determinant 3, "
        "not a lattice basis"
    )
    for call in (equivariant.weight_table, equivariant.masuda_check,
                 equivariant.face_ring):
        with pytest.raises(ValueError) as got:
            call(bad)
        assert str(got.value) == str(expected.value)


def test_masuda_failure_is_reported_at_the_corrupted_cones(tmp_path, capsys,
                                                          monkeypatch):
    # one more x0 in the total class breaks the check exactly at the
    # fixed points of the cones through ray 0
    pair = tautological_pair(p2())
    honest = equivariant.equivariant_total_chern

    def corrupted(p, degree_bound=None):
        total = honest(p, degree_bound)
        return total + total.ring.generator(0)

    monkeypatch.setattr(equivariant, "equivariant_total_chern", corrupted)
    report = equivariant.masuda_check(pair)
    assert [c.passed for c in report.checks] == [
        0 not in c.cone for c in report.checks
    ]
    assert sum(not c.passed for c in report.checks) == 2
    pair_path = write(tmp_path, "p2.pair", pair_to_text(pair))
    assert main(["--format", "machine", "equivariant", str(pair_path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    for point in payload["fixed_points"]:
        assert point["passed"] is (0 not in point["cone"])
        assert (point["restricted"] == point["expected"]) is point["passed"]
    assert run_cli(tmp_path, "equivariant", pair_path) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "masuda check: FAIL"
    assert sum(line.endswith(" [FAIL]") for line in lines) == 2


def test_main_is_reentrant_across_commands(tmp_path, capsys):
    # one shared parser serves every call: running the commands back to
    # back gives what each gives from a parser of its own
    fan = str(write(tmp_path, "p1.fan", P1_FAN))
    pair = str(write(tmp_path, "p2.pair", pair_to_text(tautological_pair(p2()))))
    pres = str(write(tmp_path, "p1.pres", P1_PRESENTATION))
    lam_a = str(write(tmp_path, "a.tw", LAMBDA_2H))
    lam_b = str(write(tmp_path, "b.tw", "classes\n-3*h\n"))
    report = tmp_path / "report.txt"
    runs = [
        ["--format", "machine", "--output", str(report), "validate", fan],
        ["chern", fan],
        ["--format", "machine", "equivariant", "--degree-bound", "2", pair],
        ["bundle", pres, lam_a, fan],
        ["validate", fan],
        ["--format", "machine", "chern", fan],
        ["equivariant", pair],
        ["--format", "machine", "bundle", pres, lam_b, fan],
    ]

    def outcome(call, argv):
        code = call(argv)
        text = report.read_text() if report.exists() else ""
        report.unlink(missing_ok=True)
        return code, capsys.readouterr().out, text

    def fresh(argv):
        args = build_parser.__wrapped__().parse_args(argv)
        return args.handler(args)

    shared = [outcome(main, argv) for argv in runs]
    alone = [outcome(fresh, argv) for argv in reversed(runs)][::-1]
    assert shared == alone
    assert [code for code, _, _ in shared] == [0] * len(runs)
    assert shared[0][2] and not shared[0][1]


def test_cmd_bundle(tmp_path, capsys):
    pres = write(tmp_path, "p1.pres", P1_PRESENTATION)
    lam = write(tmp_path, "lam.tw", LAMBDA_2H)
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 0
    out = capsys.readouterr().out
    assert "c1 c1 = 8" in out
    assert "c2 = 4" in out


TORSION_PRESENTATION = """\
name torsion
top_degree 4
generators
h 2
relations
2*h^2
basis
0 : 1
2 : h
4 : h^2
integration 1
chern
1 + 3*h + 3*h^2
"""


def test_cmd_bundle_twisting_class_off_degree_2_names_its_line(tmp_path,
                                                               capsys):
    pres = write(tmp_path, "p2.pres", P2_PRESENTATION)
    lam = write(tmp_path, "lam.tw", "# a degree-4 class\nclasses\nx0^2\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: line 3: twisting classes must be pure degree 2\n"
    )


def test_cmd_bundle_inconsistent_presentation_is_a_finding(tmp_path, capsys):
    # 2*h^2 = 0 leaves Z/2 in degree 4, so the claimed basis h^2 fails
    # certification: a one-line error and exit 2, not a traceback
    pres = write(tmp_path, "torsion.pres", TORSION_PRESENTATION)
    lam = write(tmp_path, "lam.tw", "classes\nh\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: base presentation 'torsion'")
    assert "degree 4" in lines[0]


def test_cmd_bundle_zero_relation_imposes_nothing(tmp_path, capsys):
    lam = write(tmp_path, "lam.tw", LAMBDA_2H)
    fan = write(tmp_path, "p1.fan", P1_FAN)
    plain = write(tmp_path, "p1.pres", P1_PRESENTATION)
    assert main(["--format", "machine", "bundle", str(plain), str(lam),
                 str(fan)]) == 0
    expected = capsys.readouterr().out
    for zero in ("0", "h - h"):
        text = P1_PRESENTATION.replace("relations\n", f"relations\n{zero}\n")
        pres = write(tmp_path, "zero.pres", text)
        assert main(["--format", "machine", "bundle", str(pres), str(lam),
                     str(fan)]) == 0
        assert capsys.readouterr().out == expected


def test_cmd_bundle_repeated_basis_monomial_is_a_finding(tmp_path, capsys):
    lam = write(tmp_path, "lam.tw", "classes\nx0\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    good = write(tmp_path, "p2.pres", P2_PRESENTATION)
    assert main(["--format", "machine", "bundle", str(good), str(lam),
                 str(fan)]) == 0
    assert json.loads(capsys.readouterr().out)["chern_numbers"]["1+1+1"] == 56
    # x2 listed twice claims rank 2 in degree 2 and once gave 1+1+1 = 832
    pres = write(tmp_path, "dup.pres",
                 P2_PRESENTATION.replace("2 : x2\n", "2 : x2 x2\n"))
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: base presentation 'P2'")
    assert "degree 2" in lines[0]
    assert "(0, 0, 1)" in lines[0]


def test_cmd_bundle_chern_class_must_start_with_one(tmp_path, capsys):
    lam = write(tmp_path, "lam.tw", "classes\nx0\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    good = write(tmp_path, "p2.pres", P2_PRESENTATION)
    assert main(["--format", "machine", "bundle", str(good), str(lam),
                 str(fan)]) == 0
    numbers = json.loads(capsys.readouterr().out)["chern_numbers"]
    assert (numbers["1+1+1"], numbers["2+1"]) == (56, 24)
    # c(TB) = 2 + ... or 0 + ... would give 1+1+1 = 124 or 0, not 56
    for constant in ("2 + ", ""):
        text = P2_PRESENTATION.replace("\n1 + x2", f"\n{constant}x2")
        pres = write(tmp_path, "bad.pres", text)
        assert run_cli(tmp_path, "bundle", pres, lam, fan) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: total Chern class must start with 1"
        )


P2_H_PRESENTATION = """\
name P2
top_degree 4
generators
h 2
relations
h^3
basis
0 : 1
2 : h
4 : h^2
integration 1
chern
1 + 3*h + 3*h^2
"""


@pytest.mark.parametrize("bad_line,lineno,message", [
    ("2 : h\n2 : h", 10, "basis degree 2 is listed twice"),
    ("2 : h^2", 9, "'h^2' is not of degree 2"),
    ("2 : h\n8 : h^4", 10, "basis degree 8 is outside 0..4"),
    ("-2 : h\n2 : h", 9, "basis degree -2 is outside 0..4"),
])
def test_cmd_bundle_rejects_malformed_basis_lines(tmp_path, capsys, bad_line,
                                                  lineno, message):
    lam = write(tmp_path, "lam.tw", "classes\nh\n")
    fan = write(tmp_path, "p1.fan", P1_FAN)
    good = write(tmp_path, "p2.pres", P2_H_PRESENTATION)
    assert run_cli(tmp_path, "bundle", good, lam, fan) == 0
    capsys.readouterr()
    pres = write(tmp_path, "bad.pres",
                 P2_H_PRESENTATION.replace("2 : h", bad_line))
    assert run_cli(tmp_path, "bundle", pres, lam, fan) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: line {lineno}: {message}\n"


def test_cmd_chern_many_ray_surface(tmp_path, capsys):
    # c1^2 = 12 - rays and c2 = rays; the minimal non-faces of 40 rays
    # must come from the faces, not from 2^40 subsets
    fan = star_surface(40, random.Random("40-ray surface"))
    path = write(tmp_path, "surface.fan", fan_to_text(fan))
    assert main(["--format", "machine", "chern", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chern_numbers"] == {"1+1": -28, "2": 40}
    assert payload["gauss_bonnet"] is True


def test_cmd_corpus_machine_byte_stable(capsys):
    assert main(["--format", "machine", "corpus"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["failures"] == 0
    assert payload["total"] >= 100
    assert main(["--format", "machine", "corpus"]) == 0
    assert capsys.readouterr().out == first


def test_machine_compare_schema(tmp_path, capsys):
    base = write(tmp_path, "p1.fan", P1_FAN)
    phi = write(tmp_path, "phi.plm", PHI_A1)
    assert main(["--format", "machine", "compare", str(base), str(base),
                 str(phi)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["chern_numbers_intrinsic"] == {"1+1": 8, "2": 4}
    assert payload["euler_expected"] == 4


def test_cmd_equivariant_refuses_a_degree_bound_past_the_limit(
        tmp_path, capsys, monkeypatch):
    pair_path = write(tmp_path, "p2.pair", pair_to_text(tautological_pair(p2())))
    built = []
    monkeypatch.setattr(equivariant, "FaceRing",
                        lambda *args, **kwargs: built.append(args))
    limit = equivariant.DEGREE_BOUND_LIMIT * 2
    assert main(["equivariant", "--degree-bound", str(limit + 2),
                 str(pair_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: degree bound {limit + 2} exceeds the limit "
        f"DEGREE_BOUND_LIMIT * dim = {equivariant.DEGREE_BOUND_LIMIT} * 2 "
        f"= {limit}\n"
    )
    assert built == []


P1_PAIR = P1_FAN + "charmap\n1\n-1\n"

# (grammar, file text, line of the bad token); on the old int() reader every
# text read as a valid file: '0_1' as 1, and non-ASCII digits as their value
NON_ASCII_INTEGERS = [
    ("fan", P1_FAN.replace("rays\n1\n", "rays\n0_1\n"), 4),
    ("fan", P1_FAN.replace("dim 1", "dim \u0661"), 2),
    ("fan", P1_FAN.replace("max_cones\n0\n", "max_cones\n\uff10\n"), 7),
    ("pair", P1_PAIR.replace("charmap\n1\n", "charmap\n0_1\n"), 10),
    ("pair", P1_PAIR.replace("charmap\n1\n", "charmap\n\u0661\n"), 10),
    ("phi", PHI_A1.replace("0 1\n", "0 0_1\n"), 3),
    ("phi", PHI_A1.replace("1 0\n", "\u0661 0\n"), 4),
    ("phi", PHI_A1.replace("fiber_rank 1", "fiber_rank \uff11"), 1),
    ("presentation", P2_H_PRESENTATION.replace("top_degree 4",
                                               "top_degree \u0664"), 2),
    ("presentation", P2_H_PRESENTATION.replace("h 2\n", "h 0_2\n"), 4),
    ("presentation", P2_H_PRESENTATION.replace("h^3", "h^\u0663"), 6),
    ("presentation", P2_H_PRESENTATION.replace("2 : h", "\u0662 : h"), 9),
    ("presentation", P2_H_PRESENTATION.replace("4 : h^2", "4 : h^0_2"), 10),
    ("presentation", P2_H_PRESENTATION.replace("integration 1",
                                               "integration \uff11"), 11),
    ("presentation", P2_H_PRESENTATION.replace("3*h^2", "0_3*h^2"), 13),
    ("presentation", P2_H_PRESENTATION.replace("3*h +", "\u0663*h +"), 13),
    ("twisting", "classes\n0_2*h\n", 2),
    ("twisting", "classes\n\u0662*h\n", 2),
    ("twisting", "classes\nh^\u0661\n", 2),
]


@pytest.mark.parametrize("grammar,text,lineno", NON_ASCII_INTEGERS,
                         ids=[f"{grammar}-line-{lineno}" for grammar, _, lineno
                              in NON_ASCII_INTEGERS])
def test_integers_are_ascii_digits_in_every_grammar(tmp_path, capsys,
                                                    grammar, text, lineno):
    files = {"fan": P1_FAN, "pair": P1_PAIR, "phi": PHI_A1,
             "presentation": P2_H_PRESENTATION, "twisting": LAMBDA_2H}
    files[grammar] = text
    paths = {name: write(tmp_path, name, body) for name, body in files.items()}
    command = {
        "fan": ["validate", paths["fan"]],
        "pair": ["equivariant", paths["pair"]],
        "phi": ["compare", paths["fan"], paths["fan"], paths["phi"]],
        "presentation": ["bundle", paths["presentation"], paths["twisting"],
                         paths["fan"]],
    }
    command["twisting"] = command["presentation"]
    assert run_cli(tmp_path, *command[grammar]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: line {lineno}: ")


def test_a_leading_plus_still_reads():
    assert parse_fan(P1_FAN.replace("rays\n1\n", "rays\n+1\n")) == p1()
