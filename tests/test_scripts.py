"""Smoke tests for the stand-alone scripts, so they keep running."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name="random_twists"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_random_twists_script(capsys):
    assert _load().main(3, 7, 3) == 0
    assert "3/3 random twists verified" in capsys.readouterr().out


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
