"""Smoke test for the stand-alone script, so it keeps running."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "random_twists.py"


def _load():
    spec = importlib.util.spec_from_file_location("random_twists", SCRIPT)
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
