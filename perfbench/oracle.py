"""Exact checks of the CLI's machine output that use no library route.

The Todd genus of a smooth complete toric variety is 1, so the Chern
numbers of every answer must give 1 under the Todd polynomial, computed
here from scratch with Fractions.  The top Chern number and the number of
torus fixed points must both equal the number of maximal cones, which the
benchmark knows from its own inputs.  ``compare`` must report equal routes
and ``masuda`` a passed check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial


def _series_inverse(a, n):
    """Power series 1/a truncated after x^n (a[0] != 0)."""
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / Fraction(a[0])
    for k in range(1, n + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0]
    return out


def _series_log(a, n):
    """log(a) for a power series with a[0] == 1, truncated after x^n."""
    q = [Fraction(0)] + list(a[1:n + 1])
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        power = [sum(power[i] * q[k - i] for i in range(k + 1)) for k in range(n + 1)]
        for k in range(n + 1):
            out[k] += Fraction((-1) ** (j + 1), j) * power[k]
    return out


def _mul(p, q, n):
    """Product of polynomials in c_1..c_n, keyed by partitions, up to weight n."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            if sum(a) + sum(b) <= n:
                key = tuple(sorted(a + b, reverse=True))
                out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _add(p, q, scale=1):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


@cache
def todd_polynomial(n: int) -> dict[tuple[int, ...], Fraction]:
    """Degree-n Todd class as a polynomial in Chern classes, keyed by partition.

    log td = sum_k a_k p_k with log(x / (1 - e^-x)) = sum_k a_k x^k, the
    power sums p_k come from the Chern classes by Newton's identities, and
    td = exp(log td) truncated at weight n.
    """
    # (1 - e^-x) / x = sum_k (-1)^k x^k / (k + 1)!
    denominator = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    a = _series_log(_series_inverse(denominator, n), n)
    c = [None] + [{(k,): Fraction(1)} for k in range(1, n + 1)]
    p = [None]
    for k in range(1, n + 1):
        pk = {(k,): Fraction((-1) ** (k - 1) * k)}
        for i in range(1, k):
            pk = _add(pk, _mul(c[i], p[k - i], n), (-1) ** (i - 1))
        p.append(pk)
    log_td = {}
    for k in range(1, n + 1):
        log_td = _add(log_td, p[k], a[k])
    total = {(): Fraction(1)}
    term = {(): Fraction(1)}
    for j in range(1, n + 1):
        term = {k: v / j for k, v in _mul(term, log_td, n).items()}
        total = _add(total, term)
    return {k: v for k, v in total.items() if sum(k) == n}


def partitions(n: int, cap=None):
    """Partitions of n as descending tuples."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    ]


def _partition(key: str) -> tuple[int, ...]:
    return tuple(sorted((int(i) for i in key.split("+")), reverse=True))


def check_chern_numbers(numbers: dict, dim: int, cones: int) -> list[str]:
    """Problems with a ``"2+1": value`` Chern-number table, [] if none."""
    table = {_partition(k): v for k, v in numbers.items()}
    todd = todd_polynomial(dim)
    problems = []
    if set(table) != set(partitions(dim)):
        problems.append(f"partitions {sorted(table)} are not those of {dim}")
        return problems
    genus = sum(coeff * table[part] for part, coeff in todd.items())
    if genus != 1:
        problems.append(f"Todd genus {genus}, expected 1")
    if table[(dim,)] != cones:
        problems.append(f"c_top = {table[(dim,)]}, expected {cones} cones")
    return problems


def check(command: str, report: dict, expect: dict) -> list[str]:
    """Problems with one machine-format report, [] if it is correct."""
    dim, cones = expect["dim"], expect["cones"]
    if report.get("command") != command:
        return [f"report is for {report.get('command')!r}, not {command!r}"]
    if command == "compare":
        problems = []
        if report["equal"] is not True:
            problems.append("compare does not report equal")
        intrinsic = report["chern_numbers_intrinsic"]
        if report["chern_numbers_bundle"] != intrinsic:
            problems.append("the two routes give different Chern numbers")
        return problems + check_chern_numbers(intrinsic, dim, cones)
    if command == "chern":
        return check_chern_numbers(report["chern_numbers"], dim, cones)
    if command == "bundle":
        problems = check_chern_numbers(report["chern_numbers"], dim, cones)
        if report["total_dimension"] != dim:
            problems.append(f"total dimension {report['total_dimension']}")
        return problems
    if command == "equivariant":
        problems = []
        if report["passed"] is not True:
            problems.append("masuda check does not report passed")
        points = {tuple(fp["cone"]) for fp in report["fixed_points"]}
        if len(points) != cones or len(report["fixed_points"]) != cones:
            problems.append(
                f"{len(report['fixed_points'])} fixed points, expected {cones}"
            )
        return problems
    return [f"no oracle for {command!r}"]
