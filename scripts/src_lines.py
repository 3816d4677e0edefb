#!/usr/bin/env python3
"""Count the lines of each ``src/toricbundles`` module.

Prints, per module and in total, every line of the file and its code-only
lines: lines that hold a token of code, not counting blank lines, comment
lines, or the lines of module, class and function docstrings.  With
``--base REV`` it prints instead each module's code lines at the git
revision REV (read with ``git show``), now, and the difference; a module
absent on one side counts 0 there.

Usage: python scripts/src_lines.py [--base REV]
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricbundles"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(all lines, code-only lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def deltas(now: dict, base: dict) -> list[tuple[str, int, int, int]]:
    """(module, code lines at base, code lines now, now - base) for every
    module named on either side of two {module name: source} maps, sorted
    by name; a module missing on one side counts 0 there."""
    rows = []
    for name in sorted(now.keys() | base.keys()):
        old = count(base[name])[1] if name in base else 0
        new = count(now[name])[1] if name in now else 0
        rows.append((name, old, new, new - old))
    return rows


def current_sources() -> dict:
    """{module name: source} of the package in the working tree."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def base_sources(rev: str) -> dict:
    """{module name: source} of the package at git revision rev."""

    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout

    package = PACKAGE.relative_to(ROOT).as_posix() + "/"
    return {Path(path).name: git("show", f"{rev}:{path}")
            for path in git("ls-tree", "--name-only", rev, package).split()
            if path.endswith(".py")}


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="print code-line deltas against git revision REV")
    args = parser.parse_args(argv)
    if args.base is not None:
        try:
            base = base_sources(args.base)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: cannot read revision {args.base}: {exc}",
                  file=sys.stderr)
            return 1
        rows = deltas(current_sources(), base)
        print(f"{'module':<16} {'base':>6} {'code':>6} {'delta':>6}")
        for name, old, new, diff in rows:
            print(f"{name:<16} {old:>6} {new:>6} {diff:>+6}")
        old, new = sum(r[1] for r in rows), sum(r[2] for r in rows)
        print(f"{'total':<16} {old:>6} {new:>6} {new - old:>+6}")
        return 0
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, text in current_sources().items():
        lines, code = count(text)
        totals[0] += lines
        totals[1] += code
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
