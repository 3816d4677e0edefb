"""Command-line front end: validation, twisting, Chern reports, corpus runs.

Exit codes: 0 success, 1 parse/validation error, 2 mathematical
inconsistency (a failed comparison or corpus finding, or a
RingConsistencyError such as a base presentation whose claimed basis
does not hold).  Reports are deterministic; ``--format machine`` emits
JSON with a schema tag, written by ``formats.report_json``, and
``--format human`` a plain-text summary.  Every monomial text of a
report comes from ``formats.monomial_texts``, a class's basis in one
batch per degree.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import bundlering, chern, corpus, equivariant
from .cohomology import RingConsistencyError, build_ring
from .faces import h_vector_of
from .fan import validate
from .formats import (
    ParseError,
    fan_to_text,
    monomial_texts,
    parse_base_presentation,
    parse_fan,
    parse_pair,
    parse_plmap,
    parse_twisting,
    report_json,
)
from .twist import twisted_fan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FINDING = 2
SCHEMA = "toricbundles-report/1"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, command: str, payload: dict, human_lines: list[str]) -> None:
    if args.format == "machine":
        body = {"schema": SCHEMA, "command": command}
        body.update(payload)
        _write(args, report_json(body) + "\n")
    else:
        _write(args, "\n".join(human_lines) + "\n")


def _class_payload(cls) -> dict:
    ring = cls.ring
    names = [f"x{i}" for i in range(ring.ray_count)]
    out = {}
    for d, part in enumerate(cls.parts):
        out[str(2 * d)] = {
            "basis": monomial_texts(ring.basis_monomials(d), names),
            "coefficients": list(part),
        }
    return out


def _class_lines(cls, label: str) -> list[str]:
    lines = [label]
    ring = cls.ring
    names = [f"x{i}" for i in range(ring.ray_count)]
    for d, part in enumerate(cls.parts):
        terms = [(m, c) for m, c in zip(ring.basis_monomials(d), part) if c]
        texts = monomial_texts([m for m, _ in terms], names)
        line = " + ".join(("" if c == 1 else f"{c}*") + text
                          for (_, c), text in zip(terms, texts))
        lines.append(f"  degree {2 * d}: " + (line or "0"))
    return lines


def _numbers_lines(numbers: dict) -> list[str]:
    return [
        "  c" + " c".join(str(i) for i in part) + f" = {value}"
        for part, value in sorted(numbers.items())
    ]


def cmd_validate(args) -> int:
    fan = parse_fan(_read(args.fan))
    report = validate(fan)
    payload = {
        "simplicial": report.simplicial,
        "smooth": report.smooth,
        "complete": report.complete,
        "well_formed": report.well_formed,
        "diagnostics": list(report.diagnostics),
    }
    lines = [
        f"simplicial:  {report.simplicial}",
        f"smooth:      {report.smooth}",
        f"complete:    {report.complete}",
        f"well_formed: {report.well_formed}",
    ]
    lines += [f"  - {d}" for d in report.diagnostics]
    _emit(args, "validate", payload, lines)
    return EXIT_OK if report.all_good else EXIT_INPUT


def cmd_twist(args) -> int:
    base = parse_fan(_read(args.base))
    fiber = parse_fan(_read(args.fiber))
    phi = parse_plmap(_read(args.phi), base)
    _write(args, fan_to_text(twisted_fan(base, fiber, phi), "twisted fan"))
    return EXIT_OK


def cmd_cohomology(args) -> int:
    fan = parse_fan(_read(args.fan))
    ring = build_ring(fan)
    ranks = ring.betti()
    hv = h_vector_of(ring.face_masks, fan.dim)
    payload = {
        "betti": ranks,
        "h_vector": hv,
        "euler_characteristic": len(fan.max_cones),
        "rays": fan.ray_count,
        "dim": fan.dim,
    }
    lines = [
        f"betti (by even degree): {ranks}",
        f"h-vector:               {hv}",
        f"euler characteristic:   {len(fan.max_cones)}",
    ]
    _emit(args, "cohomology", payload, lines)
    return EXIT_OK


def cmd_chern(args) -> int:
    fan = parse_fan(_read(args.fan))
    ring = build_ring(fan)
    total = chern.total_chern_intrinsic(ring)
    numbers = chern.chern_numbers_localized(fan)
    euler = chern.euler_characteristic(fan)
    payload, lines = {}, []
    if args.format == "machine":
        payload = {
            "total_chern": _class_payload(total),
            "chern_numbers": chern.numbers_payload(numbers),
            "euler_characteristic": euler,
            "gauss_bonnet": ring.integrate(total.component(fan.dim)) == euler,
        }
    else:
        lines = _class_lines(total, "total Chern class:")
        lines.append("Chern numbers:")
        lines += _numbers_lines(numbers)
        lines.append(f"euler characteristic: {euler}")
    _emit(args, "chern", payload, lines)
    return EXIT_OK


def cmd_compare(args) -> int:
    base = parse_fan(_read(args.base))
    fiber = parse_fan(_read(args.fiber))
    phi = parse_plmap(_read(args.phi), base)
    report = chern.compare(base, fiber, phi)
    payload = report.to_dict()
    lines = [f"verdict: {'equal' if report.equal else 'NOT EQUAL'}"]
    for dc in report.degrees:
        mark = "ok" if dc.equal else "MISMATCH"
        lines.append(
            f"  degree {dc.degree}: intrinsic {list(dc.intrinsic)} "
            f"bundle {list(dc.bundle)} [{mark}]"
        )
    lines.append("Chern numbers (intrinsic route):")
    lines += _numbers_lines(report.intrinsic_numbers)
    lines.append("Chern numbers (bundle-formula route):")
    lines += _numbers_lines(report.bundle_numbers)
    lines.append(
        f"euler characteristic: {report.euler_intrinsic} "
        f"(expected {report.euler_expected})"
    )
    _emit(args, "compare", payload, lines)
    return EXIT_OK if report.equal else EXIT_FINDING


def cmd_equivariant(args) -> int:
    pair = parse_pair(_read(args.pair))
    if args.degree_bound is not None:
        # first, so that a bound past its limit fails before any ring is built
        total = equivariant.equivariant_total_chern(pair, args.degree_bound)
    report = equivariant.masuda_check(pair)
    if args.degree_bound is None:
        total = report.total
    payload, lines = {}, []
    if args.format == "machine":
        payload = report.to_dict()
        payload["equivariant_total_chern"] = _class_payload(total)
    else:
        lines.append(f"masuda check: {'pass' if report.passed else 'FAIL'}")
        for check, restricted, expected in report.rendered():
            mark = "ok" if check.passed else "FAIL"
            lines.append(
                f"  fixed point {list(check.cone)}: restricted "
                f"{restricted} expected {expected} [{mark}]"
            )
        lines += _class_lines(total, "equivariant total Chern class (truncated):")
    _emit(args, "equivariant", payload, lines)
    return EXIT_OK if report.passed else EXIT_FINDING


def cmd_bundle(args) -> int:
    base = parse_base_presentation(_read(args.base))
    lam = parse_twisting(_read(args.twisting), base)
    fiber = parse_fan(_read(args.fiber))
    ring = bundlering.build_bundle_ring(base, lam, fiber)
    total = bundlering.total_chern_general(ring)
    numbers = bundlering.chern_numbers_bundle(ring, total)
    payload = {
        "base": base.name,
        "fiber_rank_per_degree": [
            ring.rank(d) for d in range(fiber.dim + 1)
        ],
        "chern_numbers": chern.numbers_payload(numbers),
        "total_dimension": ring.dim,
    }
    lines = [
        f"base: {base.name}",
        f"bundle ring free of rank {len(fiber.max_cones)} over the base "
        f"(per fiber degree: {[ring.rank(d) for d in range(fiber.dim + 1)]})",
        "Chern numbers of the total space:",
    ]
    lines += _numbers_lines(numbers)
    _emit(args, "bundle", payload, lines)
    return EXIT_OK


def cmd_corpus(args) -> int:
    checks = corpus.run_corpus()
    failures = [c for c in checks if not c.passed]
    payload = {
        "checks": [
            {
                "criterion": c.criterion,
                "subject": c.subject,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in checks
        ],
        "total": len(checks),
        "failures": len(failures),
    }
    lines = []
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.criterion}: {c.subject}")
    lines.append(
        f"{len(checks) - len(failures)}/{len(checks)} corpus checks passed"
    )
    _emit(args, "corpus", payload, lines)
    return EXIT_OK if not failures else EXIT_FINDING


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="toricbundles",
        description=(
            "Exact cohomology rings and Chern classes of smooth complete "
            "toric varieties and toric variety bundles."
        ),
    )
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--output", default=None, help="write the report to a file"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a fan file")
    p.add_argument("fan")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("twist", help="emit the twisted fan of base/fiber/phi")
    p.add_argument("base")
    p.add_argument("fiber")
    p.add_argument("phi")
    p.set_defaults(handler=cmd_twist)

    p = sub.add_parser("cohomology", help="Betti numbers and h-vector")
    p.add_argument("fan")
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("chern", help="total Chern class and Chern numbers")
    p.add_argument("fan")
    p.set_defaults(handler=cmd_chern)

    p = sub.add_parser(
        "compare", help="intrinsic vs bundle-formula Chern class comparison"
    )
    p.add_argument("base")
    p.add_argument("fiber")
    p.add_argument("phi")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser(
        "equivariant", help="Masuda fixed-point verification for a pair file"
    )
    p.add_argument("pair")
    p.add_argument(
        "--degree-bound", type=int, default=None,
        help="truncation degree for the equivariant class (even, at most "
             f"{equivariant.DEGREE_BOUND_LIMIT}n; default 2n)",
    )
    p.set_defaults(handler=cmd_equivariant)

    p = sub.add_parser(
        "bundle", help="Chern numbers over a presented base"
    )
    p.add_argument("base")
    p.add_argument("twisting")
    p.add_argument("fiber")
    p.set_defaults(handler=cmd_bundle)

    p = sub.add_parser("corpus", help="run the full bundled acceptance sweep")
    p.set_defaults(handler=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RingConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDING


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
