"""Exact integer linear algebra on lattice vectors and matrices.

Vectors are tuples of Python ints, matrices are tuples of row vectors;
``graded_eliminate`` works on sparse rows, {column: int} dicts.
Everything is arbitrary precision and there is no floating point anywhere;
downstream ring reductions rely on these routines being exact.
RingConsistencyError, the package's error for a mathematical finding,
lives here, below every module that raises it.
"""

from __future__ import annotations

from math import gcd

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


class RingConsistencyError(RuntimeError):
    """An internal invariant of a ring or twisted-fan computation failed.

    Signals wrong input data (torsion, inconsistent point classes, a base
    presentation that is not what it claims) or a construction that fails
    its own validation, rather than a recoverable condition.
    """


def vector(entries) -> IntVector:
    return tuple(int(e) for e in entries)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_primitive(v: IntVector) -> bool:
    """True iff the gcd of the entries is 1.  The zero vector is not primitive."""
    g = 0
    for e in v:
        g = gcd(g, e)
    return g == 1


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


def graded_eliminate(rows, allowed, columns):
    """Exact integer elimination with unit pivots, in one left-to-right pass.

    ``rows`` is a list of ``(vec, payload)``: ``vec`` a sparse ``{column:
    int}`` dict, ``payload`` a sparse dict combined linearly alongside it,
    or None.  ``columns`` are the column monomials, named in errors.
    Returns the ``(column, vec, payload)`` pivots in column order, each +1
    at its column and 0 at every other pivot column.  A wrong plan raises
    RingConsistencyError naming the column monomial: an allowed column
    with no row or a residual gcd other than 1, or a row left over that
    is nonzero only on basis columns.

    One pass is enough: let L be the lattice the rows span and B the
    planned basis, the columns not in ``allowed``, and suppose Z^cols/L is
    free on B.  For each allowed column c, L then holds v = e_c minus a
    combination of B, zero at every allowed column but c.  The pivots
    found so far and the filed rows span L; each pivot is 1 at its own
    column, where v, the pivots after it and the filed rows vanish, so v
    is a combination of the filed rows alone.  Those vanish before c, so the
    rows filed under c have gcd 1 there: a correct plan never defers a
    column.  Conversely, unit pivots everywhere and no row left mean the
    pivots span L, so Z^cols/L is free on B.
    """

    def axpy(target, source, factor):
        """Row target += factor * row source, payload included."""
        for part, add_part in zip(target, source):
            if add_part is None:
                continue
            for k, v in add_part.items():
                new = part.get(k, 0) + factor * v
                if new:
                    part[k] = new
                else:
                    part.pop(k, None)

    # Nonzero rows by leading allowed column; None holds rows without one.
    allowed = frozenset(allowed)
    filed: dict = {}

    def file(row):
        if row[0]:
            lead = min((k for k in row[0] if k in allowed), default=None)
            filed.setdefault(lead, []).append(row)

    for vec, payload in rows:
        file((dict(vec), None if payload is None else dict(payload)))
    pivots = []
    for col in sorted(allowed):
        hits = filed.pop(col, None)
        if not hits:
            raise RingConsistencyError(
                f"no relation row reaches column {columns[col]}, so the planned "
                "basis misses a monomial"
            )
        # Combine rows pairwise until one alone is nonzero at this column;
        # the others are zero there and are filed again.
        lead = hits[0]
        for other in hits[1:]:
            while col in other[0]:
                a, b = lead[0][col], other[0][col]
                if abs(a) > abs(b):
                    lead, other = other, lead
                    a, b = b, a
                axpy(other, lead, -(b // a))
                if col in other[0]:
                    lead, other = other, lead
            file(other)
        g = lead[0][col]
        if g not in (1, -1):
            raise RingConsistencyError(
                f"column {columns[col]} has residual gcd {abs(g)}, not a unit "
                "pivot (unexpected torsion or a wrong prescribed basis)"
            )
        if g == -1:
            for part in lead:
                for k in part or ():
                    part[k] = -part[k]
        pivots.append((col, lead[0], lead[1]))
    if filed:
        raise RingConsistencyError(
            "a relation row is nonzero only on basis columns, at "
            f"{columns[min(filed[None][0][0])]}: the planned basis is not free"
        )
    done = {}
    for col, vec, payload in reversed(pivots):
        for k in [k for k in vec if k > col and k in allowed]:
            axpy((vec, payload), done[k], -vec[k])
        done[col] = (vec, payload)
    return pivots
