"""Simplicial full-dimensional fans: construction, validation, products, walls.

Only simplicial fans whose maximal cones are full-dimensional are
representable; cones are recorded as sets of ray indices.  Smoothness,
completeness and the cones-meet-in-faces condition are decided exactly
(integer determinants, wall pairing, rational separating hyperplanes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd

from .lattice import IntVector, determinant, is_primitive, vector


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: lattice rank, primitive ray generators, maximal cones.

    Immutable and hashable; all validation beyond basic shape checks is done
    by :func:`validate`, which reports problems instead of raising.
    """

    dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("fan dimension must be >= 0")
        for ray in self.rays:
            if len(ray) != self.dim:
                raise ValueError(f"ray {ray} does not have length {self.dim}")
        seen = set()
        for cone in self.max_cones:
            maximal_cone(cone, self.dim, len(self.rays), seen)

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone) -> tuple[IntVector, ...]:
        """Rays of a cone as matrix rows, in increasing index order."""
        return tuple(self.rays[i] for i in sorted(cone))


def maximal_cone(indices, dim: int, ray_count: int, seen: set) -> frozenset[int]:
    """The cone of dim distinct in-range ray indices, new to (and put in) seen."""
    cone = frozenset(indices)
    if len(cone) != dim or len(indices) != dim:
        raise ValueError(
            f"maximal cone {sorted(indices)} does not have exactly {dim} "
            "distinct rays (only simplicial full-dimensional fans are supported)"
        )
    if any(i < 0 or i >= ray_count for i in cone):
        raise ValueError(f"cone {sorted(cone)} has out-of-range ray indices")
    if cone in seen:
        raise ValueError(f"duplicate maximal cone {sorted(cone)}")
    seen.add(cone)
    return cone


def make_fan(dim, rays, max_cones) -> Fan:
    """Build a Fan from plain lists (rays as int lists, cones as index lists)."""
    seen: set = set()
    return Fan(
        dim=int(dim),
        rays=tuple(vector(r) for r in rays),
        max_cones=tuple(
            maximal_cone([int(i) for i in c], int(dim), len(rays), seen)
            for c in max_cones
        ),
    )


@dataclass(frozen=True)
class ValidationReport:
    simplicial: bool
    smooth: bool
    complete: bool
    well_formed: bool
    diagnostics: tuple[str, ...]

    @property
    def all_good(self) -> bool:
        return self.simplicial and self.smooth and self.complete and self.well_formed


def walls(f: Fan) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Codimension-1 ray subsets of maximal cones with their containing cones.

    Returns (wall ray indices, indices of maximal cones containing the wall),
    both sorted.  In dimension 1 the single wall is the empty ray set.
    """
    if f.dim == 0:
        return []
    wall_set = set()
    for cone in f.max_cones:
        for i in cone:
            wall_set.add(cone - {i})
    out = []
    for wall in sorted(wall_set, key=sorted):
        containing = tuple(
            k for k, cone in enumerate(f.max_cones) if wall <= cone
        )
        out.append((tuple(sorted(wall)), containing))
    return out


def _fm_feasible(rows: list[tuple[list[int], int]], nvars: int) -> bool:
    """Exact Fourier-Motzkin feasibility for a system <a, y> >= c.

    Rows are (coefficients, lower bound).  Integer-only: positive/negative
    pairs are combined by cross-multiplying, so no divisions occur.
    """
    def normalized(coeffs, c):
        g = 0
        for e in coeffs:
            g = gcd(g, e)
        g = gcd(g, c)
        if g > 1:
            return tuple(e // g for e in coeffs), c // g
        return tuple(coeffs), c

    system = {normalized(coeffs, c) for coeffs, c in rows}
    for var in range(nvars):
        pos, neg, rest = [], [], set()
        for coeffs, c in system:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, c))
            elif a < 0:
                neg.append((coeffs, c))
            else:
                rest.add((coeffs, c))
        for (cp, bp), (cn, bn) in itertools.product(pos, neg):
            s, t = -cn[var], cp[var]
            combo = [s * x + t * y for x, y in zip(cp, cn)]
            rest.add(normalized(combo, s * bp + t * bn))
        system = rest
    return all(c <= 0 for _, c in system)


def _meet_in_face(f: Fan, sigma: frozenset, tau: frozenset) -> bool:
    """Whether two maximal cones intersect exactly in their common face.

    Decided by searching for a rational hyperplane vanishing on the common
    rays, strictly positive on the rest of sigma and strictly negative on
    the rest of tau; such a hyperplane exists iff the cones meet in a face.
    """
    common = sigma & tau
    rows = []
    for i in common:
        v = list(f.rays[i])
        rows.append((v, 0))
        rows.append(([-x for x in v], 0))
    for i in sigma - common:
        rows.append((list(f.rays[i]), 1))
    for i in tau - common:
        rows.append(([-x for x in f.rays[i]], 1))
    return _fm_feasible(rows, f.dim)


@cache
def validate(f: Fan) -> ValidationReport:
    """Compute the smooth/complete/well-formed flags with diagnostics.

    Problems are reported, never raised.  The completeness test (every wall
    in exactly two maximal cones, connected adjacency graph) is only
    conclusive for well-formed fans.  Every ray of a complete fan lies in a
    maximal cone, so a listed ray that lies in none makes a complete fan
    ill-formed; an incomplete fan may list rays its cones do not use yet.
    """
    diagnostics = []
    well_formed = True

    seen = {}
    for i, ray in enumerate(f.rays):
        if not is_primitive(ray):
            diagnostics.append(f"ray {i} = {ray} is not primitive")
            well_formed = False
        if ray in seen:
            diagnostics.append(f"rays {seen[ray]} and {i} coincide")
            well_formed = False
        seen[ray] = i

    smooth = True
    degenerate = False
    for k, cone in enumerate(f.max_cones):
        d = determinant(f.cone_matrix(cone))
        if d == 0:
            diagnostics.append(f"cone {sorted(cone)} is degenerate (determinant 0)")
            degenerate = True
        elif d not in (1, -1):
            if smooth:
                diagnostics.append(
                    f"cone {sorted(cone)} is not smooth (determinant {d})"
                )
            smooth = False
    if degenerate:
        well_formed = False
        smooth = False

    if well_formed:
        for (a, sigma), (b, tau) in itertools.combinations(
            enumerate(f.max_cones), 2
        ):
            if not _meet_in_face(f, sigma, tau):
                diagnostics.append(
                    f"cones {sorted(sigma)} and {sorted(tau)} do not meet in a face"
                )
                well_formed = False
                break

    complete = len(f.max_cones) > 0
    if not complete:
        diagnostics.append("fan has no maximal cones")
    adjacency = {k: set() for k in range(len(f.max_cones))}
    for wall, containing in walls(f):
        if len(containing) != 2:
            if complete:
                diagnostics.append(
                    f"wall {list(wall)} lies in {len(containing)} maximal cones"
                )
            complete = False
        else:
            a, b = containing
            adjacency[a].add(b)
            adjacency[b].add(a)
    if complete and f.dim > 0:
        reached = {0}
        frontier = [0]
        while frontier:
            here = frontier.pop()
            for there in adjacency[here]:
                if there not in reached:
                    reached.add(there)
                    frontier.append(there)
        if len(reached) != len(f.max_cones):
            diagnostics.append("maximal-cone adjacency graph is disconnected")
            complete = False
    if complete:
        used = frozenset().union(*f.max_cones)
        for i, ray in enumerate(f.rays):
            if i not in used:
                diagnostics.append(f"ray {i} = {ray} lies in no maximal cone")
                well_formed = False

    return ValidationReport(
        simplicial=True,
        smooth=smooth,
        complete=complete,
        well_formed=well_formed,
        diagnostics=tuple(diagnostics),
    )


def product_fan(f: Fan, g: Fan) -> Fan:
    """Product fan: embedded rays of f then g, cones all unions."""
    rays = [r + (0,) * g.dim for r in f.rays]
    rays += [(0,) * f.dim + r for r in g.rays]
    shift = f.ray_count
    cones = [
        sigma | frozenset(i + shift for i in tau)
        for sigma in f.max_cones
        for tau in g.max_cones
    ]
    return Fan(dim=f.dim + g.dim, rays=tuple(rays), max_cones=tuple(cones))


def require_smooth_complete(f: Fan, context: str) -> None:
    """Raise ValueError unless the fan is well-formed, smooth and complete."""
    report = validate(f)
    if not report.all_good:
        raise ValueError(
            f"{context} requires a well-formed smooth complete fan; "
            + "; ".join(report.diagnostics[:3])
        )
