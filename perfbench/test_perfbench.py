"""The benchmark's oracle accepts real answers and catches a perturbed one."""

import copy
import json

import inputs
import oracle
from toricbundles import cli


def _answer(tmp_path, workload):
    command, files, expect = next(inputs.WORKLOADS[workload](0))
    paths = []
    for i, (suffix, text) in enumerate(files):
        path = tmp_path / f"in{i}.{suffix}"
        path.write_text(text)
        paths.append(str(path))
    out = tmp_path / "out.json"
    argv = ["--format", "machine", "--output", str(out), command, *paths]
    assert cli.main(argv) == 0
    return command, json.loads(out.read_text()), expect


def test_todd_polynomial_low_degrees():
    f = oracle.Fraction
    assert oracle.todd_polynomial(2) == {(2,): f(1, 12), (1, 1): f(1, 12)}
    assert oracle.todd_polynomial(3) == {(2, 1): f(1, 24)}


def test_one_perturbed_chern_number_is_caught(tmp_path):
    command, report, expect = _answer(tmp_path, "surfaces")
    assert oracle.check(command, report, expect) == []
    for key in report["chern_numbers"]:
        bad = copy.deepcopy(report)
        bad["chern_numbers"][key] += 1
        assert oracle.check(command, bad, expect), key


def test_equivariant_fixed_points_are_counted(tmp_path):
    command, report, expect = _answer(tmp_path, "equivariant")
    assert oracle.check(command, report, expect) == []
    bad = copy.deepcopy(report)
    bad["fixed_points"].pop()
    assert oracle.check(command, bad, expect)
