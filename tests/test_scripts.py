"""Smoke tests for the stand-alone scripts, so they keep running."""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import generic_coordinates, load_script, nonprojective_threefold
from toricbundles import Fan, RingConsistencyError, make_plmap, validate
from toricbundles.fan import FanTables


def _load(name="random_twists"):
    return load_script(name)


def test_random_twists_script(capsys):
    assert _load().main(3, 7, 3) == 0
    assert "3/3 random twists verified" in capsys.readouterr().out


def test_random_twists_script_runs_without_pythonpath(tmp_path):
    # as README runs it: from a checkout, with no PYTHONPATH set, here
    # from another directory too
    script = Path(__file__).resolve().parents[1] / "scripts" / "random_twists.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), "1", "7", "3"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "1/1 random twists verified" in done.stdout


def test_random_twists_script_fails_on_a_wrong_localized_route(capsys,
                                                               monkeypatch):
    module = _load()
    real = module.chern_numbers_localized

    def one_off(f):
        numbers = real(f)
        numbers[max(numbers)] += 1
        return numbers

    monkeypatch.setattr(module, "chern_numbers_localized", one_off)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_wrong_forgetful_route(capsys,
                                                              monkeypatch):
    module = _load()
    real = module.forget

    def doubled(pair, cls):
        return 2 * real(pair, cls)

    monkeypatch.setattr(module, "forget", doubled)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_blind_restriction(capsys,
                                                          monkeypatch):
    module = _load()
    real = module.restrict_to_fixed_point

    def blind(pair, cls, sigma):
        return real(pair, module.equivariant_total_chern(pair), sigma)

    monkeypatch.setattr(module, "restrict_to_fixed_point", blind)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_when_a_ring_keeps_an_attribute(
        capsys, monkeypatch):
    module = _load()
    real = module.compare

    def keeping(base, fiber, phi, name):
        report = real(base, fiber, phi, name)
        ring = module.build_ring(module.twisted_fan(base, fiber, phi))
        monkeypatch.setattr(ring, "_products", {}, raising=False)
        return report

    monkeypatch.setattr(module, "compare", keeping)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_failing_star_subdivision(
        capsys, monkeypatch):
    module = _load()
    monkeypatch.setattr(module, "star_subdivision_holds", lambda fan: False)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_wrong_report_writer(capsys,
                                                            monkeypatch):
    module = _load()
    real = module.report_json
    monkeypatch.setattr(module, "report_json",
                        lambda payload: real(payload).replace("\n  ", "\n "))
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_wrong_twisted_dual_table(
        capsys, monkeypatch):
    # the script's fresh Bareiss table differs from the derived one in one
    # entry of one row
    module = _load()
    real = module.dual_table

    def one_off(vectors, max_cones):
        table = real(vectors, max_cones)
        (first, *rest), *others = table.rows
        return table._replace(rows=(((first[0] + 1,) + first[1:], *rest),
                                    *others))

    monkeypatch.setattr(module, "dual_table", one_off)
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_random_twists_script_fails_on_a_later_generic_point(capsys,
                                                            monkeypatch):
    # the second point off every wall gives a plan, a certificate and
    # localization as valid as the first, so only the script's own sweep
    # sees that the record did not take the first
    module = _load()

    def second_point(record):
        sweep = generic_coordinates(record.duals.rows, record.fan.dim)
        next(sweep)
        return next(sweep)

    monkeypatch.setattr(FanTables, "generic", property(second_point))
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def _fiber_first(twisted):
    """The twisted fan with its fiber rays listed first, without parts."""
    fiber = twisted.parts[1]
    shift = twisted.ray_count - fiber.ray_count
    rays = twisted.rays[shift:] + twisted.rays[:shift]
    cones = tuple(frozenset((i + fiber.ray_count) % twisted.ray_count
                            for i in cone) for cone in twisted.max_cones)
    return Fan(twisted.dim, rays, cones)


def test_random_twists_script_fails_on_a_fiber_first_ray_order(capsys,
                                                               monkeypatch):
    module = _load()
    real = module.twisted_fan
    monkeypatch.setattr(module, "twisted_fan",
                        lambda *args: _fiber_first(real(*args)))
    assert module.main(2, 7, 3) == 2
    assert "0/2 random twists verified" in capsys.readouterr().out


def test_ray_order_check_reads_the_rays_and_the_parts():
    module = _load()
    base, fiber = module.projective_plane(), module.projective_line()
    phi = make_plmap(1, [[1], [0], [2]])
    twisted = module.twisted_fan(base, fiber, phi)
    assert module.rays_in_order(twisted, base, fiber, phi)
    swapped = _fiber_first(twisted)
    assert validate(swapped).all_good
    assert not module.rays_in_order(swapped, base, fiber, phi)
    # no constructor takes parts, so give the fiber-first fan the twisted
    # fan's by hand: the check still reads the rays
    object.__setattr__(swapped, "parts", twisted.parts)
    assert not module.rays_in_order(swapped, base, fiber, phi)
    # equal to the twisted fan, but it does not record its parts
    copy = Fan(twisted.dim, twisted.rays, twisted.max_cones)
    assert copy == twisted
    assert not module.rays_in_order(copy, base, fiber, phi)


def test_star_subdivision_check_needs_every_route(monkeypatch):
    module = _load()
    threefold = module.nonprojective_threefold()
    assert threefold == nonprojective_threefold()
    star = module.random_star_subdivision(threefold, random.Random(3), 2)
    report = validate(star)
    assert len(star.rays) == 16 and report.smooth and report.complete
    assert module.star_subdivision_holds(star)
    real = module.chern_numbers_localized

    def one_off(f):
        numbers = real(f)
        numbers[(3,)] += 1
        return numbers

    monkeypatch.setattr(module, "chern_numbers_localized", one_off)
    assert not module.star_subdivision_holds(star)
    monkeypatch.undo()

    # both routes agree, but on a Todd genus of 2
    doubled = {(1, 1, 1): 32, (2, 1): 48, (3,): 48}
    monkeypatch.setattr(module, "chern_numbers", lambda ring, c: doubled)
    monkeypatch.setattr(module, "chern_numbers_localized", lambda f: doubled)
    assert not module.star_subdivision_holds(star)
    monkeypatch.undo()

    def uncertified(f):
        raise RingConsistencyError("no unit pivot")

    monkeypatch.setattr(module, "build_ring", uncertified)
    assert not module.star_subdivision_holds(star)


def test_src_lines_counts_every_module(capsys):
    module = _load("src_lines")
    assert module.count('"""Doc."""\n\n# note\nx = 1  # one\n') == (4, 1)
    two_line_doc = 'def f():\n    """Two\n    lines."""\n    return 1\n'
    assert module.count(two_line_doc) == (4, 2)
    assert module.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in module.PACKAGE.glob("*.py"))
    assert [row[0] for row in rows[1:-1]] == modules
    total = sum(len(p.read_text().splitlines())
                for p in module.PACKAGE.glob("*.py"))
    assert rows[-1][:2] == ["total", str(total)]
    assert int(rows[-1][2]) == sum(int(row[2]) for row in rows[1:-1])


def test_src_lines_deltas_against_a_base(capsys, monkeypatch):
    module = _load("src_lines")
    now = {"a.py": '"""Doc."""\nx = 1\ny = 2\n', "b.py": "z = 3\n"}
    base = {"a.py": "x = 1  # one\n\n", "c.py": "w = 1\nv = 2\n"}
    assert module.deltas(now, base) == [
        ("a.py", 1, 2, 1), ("b.py", 0, 1, 1), ("c.py", 2, 0, -2),
    ]
    # against the working tree itself every delta is 0
    monkeypatch.setattr(module, "base_sources",
                        lambda rev: module.current_sources())
    assert module.main(["--base", "REV"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "base", "code", "delta"]
    modules = sorted(p.name for p in module.PACKAGE.glob("*.py"))
    assert [row[0] for row in rows[1:-1]] == modules
    assert all(row[1] == row[2] and row[3] == "+0" for row in rows[1:])


def _git_tree(module):
    if shutil.which("git") is None or not (module.ROOT / ".git").exists():
        pytest.skip("needs git and the repository's own git tree")


def test_src_lines_reads_the_package_at_a_git_revision():
    module = _load("src_lines")
    _git_tree(module)
    sources = module.base_sources("HEAD")
    listed = subprocess.run(
        ["git", "ls-tree", "--name-only", "HEAD", "src/toricbundles/"],
        cwd=module.ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert sorted(sources) == sorted(
        Path(p).name for p in listed if p.endswith(".py"))
    assert sources["fan.py"] == subprocess.run(
        ["git", "show", "HEAD:src/toricbundles/fan.py"],
        cwd=module.ROOT, capture_output=True, text=True, check=True,
    ).stdout


def test_src_lines_refuses_an_unknown_revision(capsys):
    module = _load("src_lines")
    _git_tree(module)
    assert module.main(["--base", "no-such-revision"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: cannot read revision no-such-revision: ")
