"""Exact integer linear algebra on lattice vectors and matrices.

Vectors are tuples of Python ints, matrices are tuples of row vectors.
Everything is arbitrary precision and there is no floating point anywhere;
downstream ring reductions rely on these routines being exact.
"""

from __future__ import annotations

from math import gcd

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def vector(entries) -> IntVector:
    return tuple(int(e) for e in entries)


def matrix(rows) -> IntMatrix:
    m = tuple(vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix rows must have equal length")
    return m


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_primitive(v: IntVector) -> bool:
    """True iff the gcd of the entries is 1.  The zero vector is not primitive."""
    g = 0
    for e in v:
        g = gcd(g, e)
    return g == 1


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_adjugate(m: IntMatrix) -> tuple[int, IntMatrix | None]:
    """Determinant and adjugate, ``m @ adj == det * I``, in one exact pass.

    Fraction-free Gauss-Jordan (Bareiss) elimination on ``[m | I]``: every
    intermediate entry is a minor of that block, so each division is
    exact, and the last pivot times the row operations done is ``det``
    times the inverse.  A singular matrix returns ``(0, None)``.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det_adjugate requires a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
            elif p != prev:  # a row with f == 0 only rescales
                a[i] = [p * x // prev for x in a[i]]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)
