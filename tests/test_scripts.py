"""Smoke test for the stand-alone script, so it keeps running."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "random_twists.py"


def test_random_twists_script(capsys):
    spec = importlib.util.spec_from_file_location("random_twists", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(3, 7, 3) == 0
    assert "3/3 random twists verified" in capsys.readouterr().out
