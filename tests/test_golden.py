"""Reports compared byte for byte with the files in tests/golden/.

Each case writes its inputs (built here from the corpus constructors,
the P2 presentation text and the fixed presentations read from
``perfbench/bases/``) to a temporary directory, runs ``cli.main``
with ``--output`` and compares the report with
``tests/golden/<case>.<format>.txt``.  A change that is meant to alter a
report regenerates the files with ``PYTHONPATH=src python
tests/test_golden.py`` and shows the new bytes in its diff.
"""

import random
import tempfile
from pathlib import Path

import pytest

from helpers import (
    P2_PRESENTATION,
    cp2_sharp_cp2,
    p1_power,
    pair_to_text,
    plmap_to_text,
    projective_space,
    star_surface,
)
from toricbundles import corpus
from toricbundles.cli import main
from toricbundles.fan import product_fan
from toricbundles.formats import fan_to_text
from toricbundles.twist import make_plmap, tautological_pair, twisted_pair

GOLDEN = Path(__file__).parent / "golden"
BASES = Path(__file__).parent.parent / "perfbench" / "bases"
# Presented-base bundles: (base file, twisting classes, fiber fan).
BUNDLES = {
    "bundle-p2-over-p4": ("P4.pres", "classes\nx0\n-2*x1 + x4\n",
                          corpus.projective_plane),
    "bundle-p1xp1-over-p2xp1": ("P2xP1.pres", "classes\nx0 + x3\n2*x4\n",
                                corpus.quadric_surface),
    # dim 6: every top-fiber coefficient T_ij of a fiber-basis pair is a
    # base class of positive degree, so the bundle ring's intersection
    # form reads the base's triple products
    "bundle-p3-over-p2xp1": ("P2xP1.pres",
                             "classes\nx0 + x3\n-x1 + 2*x4\nx2 - x3\n",
                             lambda: projective_space(3)),
}


# Fans the chern golden cases read, beside the corpus's dP6.
CHERN_FANS = {
    "chern-dP6": corpus.del_pezzo_6,
    # 30 rays: 30 fixed points, c1^2 = 12 - 30 and c2 = 30
    "chern-star-30": lambda: star_surface(30, random.Random("30-ray star")),
    "chern-p1-power-4": lambda: p1_power(4),
}


def _instance(name):
    return next(i for i in corpus.corpus_instances() if i.name == name)


def _inputs(case):
    """{file name: text} and the command arguments naming those files."""
    if case in CHERN_FANS:
        return {"x.fan": fan_to_text(CHERN_FANS[case]())}, ["chern", "x.fan"]
    if case == "cohomology-dP6":
        return {"dp6.fan": fan_to_text(corpus.del_pezzo_6())}, [
            "cohomology", "dp6.fan"]
    if case == "compare-p2-p1-mixed-twist":
        inst = _instance("p2/p1 mixed twist")
        files = {
            "base.fan": fan_to_text(inst.base),
            "fiber.fan": fan_to_text(inst.fiber),
            "phi.plm": plmap_to_text(inst.phi),
        }
        return files, ["compare", "base.fan", "fiber.fan", "phi.plm"]
    if case == "compare-p1xp1-over-p2xp1":
        # a dim-5 twist, the shape of the benchmark's compare requests
        base = product_fan(corpus.projective_plane(), corpus.projective_line())
        phi = make_plmap(2, [[1, 0], [0, 2], [-1, 1], [2, -1], [0, 1]])
        files = {
            "base.fan": fan_to_text(base),
            "fiber.fan": fan_to_text(corpus.quadric_surface()),
            "phi.plm": plmap_to_text(phi),
        }
        return files, ["compare", "base.fan", "fiber.fan", "phi.plm"]
    if case == "equivariant-p1-p2-twist":
        pair = dict(corpus.corpus_pairs())["pair[p1/p2 twist]"]
        return {"p.pair": pair_to_text(pair)}, ["equivariant", "p.pair"]
    if case == "equivariant-p1-p2-twist-bound-4n":
        # the largest degree bound the face ring accepts, 4 * dim
        pair = dict(corpus.corpus_pairs())["pair[p1/p2 twist]"]
        return {"p.pair": pair_to_text(pair)}, [
            "equivariant", "--degree-bound", "12", "p.pair"]
    if case == "equivariant-p2xp1-over-p1xp1":
        # a dim-5 twisted pair: 24 fixed points with five weights each
        fiber = product_fan(corpus.projective_plane(), corpus.projective_line())
        pair = twisted_pair(
            tautological_pair(corpus.quadric_surface()),
            tautological_pair(fiber),
            make_plmap(3, [[1, 0, -1], [0, 2, 0], [-1, 1, 1], [2, 0, 1]]),
        )
        return {"p.pair": pair_to_text(pair)}, ["equivariant", "p.pair"]
    if case == "equivariant-cp2-sharp-cp2":
        # the first golden whose charmap is not the rays
        return {"p.pair": pair_to_text(cp2_sharp_cp2())}, [
            "equivariant", "p.pair"]
    if case == "bundle-p2-over-p2":
        files = {
            "p2.pres": P2_PRESENTATION,
            "lam.tw": "classes\nx2\n2*x2\n",
            "p2.fan": fan_to_text(corpus.projective_plane()),
        }
        return files, ["bundle", "p2.pres", "lam.tw", "p2.fan"]
    if case in BUNDLES:
        base, lam, fiber = BUNDLES[case]
        files = {
            "base.pres": (BASES / base).read_text(),
            "lam.tw": lam,
            "fiber.fan": fan_to_text(fiber()),
        }
        return files, ["bundle", "base.pres", "lam.tw", "fiber.fan"]
    assert case == "corpus"
    return {}, ["corpus"]


CASES = [
    (case, fmt)
    for case in (
        *CHERN_FANS,
        "cohomology-dP6",
        "compare-p2-p1-mixed-twist",
        "compare-p1xp1-over-p2xp1",
        "equivariant-p1-p2-twist",
        "equivariant-p1-p2-twist-bound-4n",
        "equivariant-p2xp1-over-p1xp1",
        "equivariant-cp2-sharp-cp2",
        "bundle-p2-over-p2",
        *BUNDLES,
    )
    for fmt in ("machine", "human")
] + [("corpus", "machine")]


def _report(case, fmt, directory: Path) -> str:
    files, argv = _inputs(case)
    for name, text in files.items():
        (directory / name).write_text(text)
    argv = [str(directory / a) if a in files else a for a in argv]
    out = directory / "report.txt"
    assert main(["--format", fmt, "--output", str(out)] + argv) == 0
    return out.read_text()


@pytest.mark.parametrize("case,fmt", CASES)
def test_report_matches_golden_file(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.{fmt}.txt").read_text()
    assert _report(case, fmt, tmp_path) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, fmt in CASES:
        with tempfile.TemporaryDirectory() as directory:
            text = _report(case, fmt, Path(directory))
        (GOLDEN / f"{case}.{fmt}.txt").write_text(text)


if __name__ == "__main__":
    regenerate()
