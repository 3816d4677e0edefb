"""Simplicial full-dimensional fans: construction, validation, products, walls.

Only simplicial fans whose maximal cones are full-dimensional are
representable; cones are recorded as sets of ray indices.  Smoothness,
completeness and the cones-meet-in-faces condition are decided exactly
from one dual basis per maximal cone (``dual_table``, a Bareiss pass per
cone, which also gives a characteristic pair its weights, or on a
twisted fan ``twisted_duals``, the block inverse of its base's and
fiber's tables): a complete well-formed fan is certified by wall pairing
plus one generic point covered once (the first moment-curve point off
every wall, which always exists), and any fan that certificate rejects
is decided by the pairwise check (wall counts, adjacency, and a
Fourier-Motzkin search for a separating hyperplane between every two
cones).

Everything derived from a fan's rays and cones lives in one record,
``FanTables``, read through ``tables``, one per fan: the dual table, the
generic point, the validation report, and the fan ring and its total class,
which ``cohomology.build_ring`` stores there.  Each is built on first
read.  A record lives as long as the traffic it serves: one that a fan
without ``parts`` has read (a base, a fiber, a parsed fan) is kept for
the life of the process, and one that only twisted fans have read lives
while one of those ``Fan`` objects does, which holds it, and is freed
with the last of them.  ``tables.cache_clear()`` drops every record.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from .lattice import IntVector, det_adjugate, is_primitive, vector


def moment_curve(dim: int):
    """The candidate generic directions (1, t, ..., t^(dim-1)), t = 1, 2, ..."""
    for t in itertools.count(1):
        yield tuple(t ** k for k in range(dim))


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: lattice rank, primitive ray generators, maximal cones.

    Immutable and hashable; all validation beyond basic shape checks is done
    by :func:`validate`, which reports problems instead of raising.
    ``parts`` is (base, fiber, lifts) on a twisted fan of smooth fans,
    lifts holding phi(v) of each base ray v, and None otherwise.  It is
    no constructor argument: only ``twist.twisted_fan`` sets it, on the
    ``stacked_fan`` it assembled from those parts after checking both
    smooth and complete, so the parts always agree with the rays (the
    lifted base rays (v, phi(v)), in base order, then the fiber rays
    (0, w)) and the cones.  ``tables(f).duals`` and the bundle formula
    read them.  ``parts`` is left out of equality, hashing and repr, so a
    twisted fan equals its parsed copy, which has no parts.  A fan with
    parts holds its ``tables`` record, once read, in ``_tables``, and so
    keeps it alive (see ``tables``).
    """

    dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[frozenset[int], ...]
    parts: tuple | None = field(default=None, init=False, compare=False,
                                repr=False)

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


def _wall_map(f: Fan) -> dict[frozenset, list[tuple[int, int, int]]]:
    """{wall: [(cone index, apex position, apex)]}, from one pass over the
    maximal cones of f (a fan or its ``FanTables`` record, which keeps its
    cones): each cone minus one ray, its apex, is a wall, and the
    apex's position is in the cone's sorted rays.  A cone of a fan of
    dimension 0 has no rays and so no walls."""
    sides: dict[frozenset, list] = {}
    for k, cone in enumerate(f.max_cones):
        for pos, apex in enumerate(sorted(cone)):
            sides.setdefault(cone - {apex}, []).append((k, pos, apex))
    return sides


def walls(f: Fan) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Codimension-1 ray subsets of maximal cones with their containing cones.

    Returns (wall ray indices, indices of maximal cones containing the wall),
    both sorted, read off ``_wall_map``: a simplicial cone contains a wall
    exactly when the wall is the cone minus one ray.  In dimension 1 the
    single wall is the empty ray set.
    """
    return _sorted_walls(_wall_map(f))


def _sorted_walls(sides: dict) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``walls`` from a ``_wall_map``."""
    return [(tuple(sorted(wall)), tuple(k for k, _, _ in pair))
            for wall, pair in sorted(sides.items(),
                                     key=lambda item: sorted(item[0]))]


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


class ConeDuals(NamedTuple):
    """Every maximal cone's determinant and dual rows, in ``max_cones``
    order; a degenerate cone has determinant 0 and rows None."""

    determinants: tuple[int, ...]
    rows: tuple[tuple[IntVector, ...] | None, ...]


def dual_table(vectors, max_cones) -> ConeDuals:
    """Each cone's determinant and dual rows, one ``det_adjugate`` (one
    Bareiss pass) each.

    ``vectors`` (a fan's rays or a pair's charmap values) are indexed by
    ray, in sorted ray order per cone.  Dual row i is the adjugate's
    column i signed by the determinant: it pairs to |det| with vector i
    and to 0 with the cone's others, so <dual_i, v> has the sign of v's
    i-th coordinate in the cone's basis.  On a unimodular cone the rows
    are the inverse of the matrix whose columns are the cone's vectors:
    the linear relations restricted to the cone.
    """
    determinants, rows = [], []
    for cone in max_cones:
        d, adj = det_adjugate(tuple(vectors[i] for i in sorted(cone)))
        determinants.append(d)
        rows.append(None if adj is None else tuple(
            tuple(x if d > 0 else -x for x in column) for column in zip(*adj)
        ))
    return ConeDuals(tuple(determinants), tuple(rows))


def twisted_duals(base: Fan, fiber: Fan, lifts) -> ConeDuals:
    """The ``dual_table`` of the twisted fan of smooth fans base and fiber,
    base ray i lifted to (v_i, lifts[i]), from their ``tables`` duals.

    The cone of base cone sigma and fiber cone tau lists sigma's lifted
    rays first, then tau's rays (0, w_j), so its matrix is block
    triangular: its determinant is det_sigma * det_tau, base ray i's row
    is sigma's u_i followed by zeros, and fiber ray j's row is
    (-sum_i <lifts[i], f_j> u_i, f_j), i over sigma, with f_j tau's row
    of w_j.  Both determinants are +-1, so each row pairs to 1 = |det|
    with its own ray, as ``dual_table``'s rows do.
    """
    base_duals, fiber_duals = tables(base).duals, tables(fiber).duals
    pad = (0,) * fiber.dim
    determinants, rows = [], []
    for sigma, d, us in zip(base.max_cones, *base_duals):
        lifted = [lifts[i] for i in sorted(sigma)]
        columns = tuple(zip(*us))
        padded = tuple(u + pad for u in us)
        for e, fs in zip(*fiber_duals):
            determinants.append(d * e)
            cone_rows = list(padded)
            for f in fs:
                weights = [sum(map(mul, lift, f)) for lift in lifted]
                cone_rows.append(tuple(-sum(map(mul, weights, column))
                                       for column in columns) + f)
            rows.append(tuple(cone_rows))
    return ConeDuals(tuple(determinants), tuple(rows))


class FanTables:
    """What a fan's rays and cones determine, each built on first read.

    ``tables`` keeps one record per fan, keyed by fan equality, so a
    twisted fan and its parsed copy share one; their tables agree, as a
    twisted fan's parts agree with its rays.  ``FanTables(f)`` builds a
    fresh record, past that cache.  A record keeps the fan's ``dim``,
    ``rays``, ``max_cones`` and ``parts``, not the ``Fan``: a twisted fan
    holds its record, and a record that held the fan back would live
    until the cyclic garbage collector ran.  ``ring`` is the fan ring,
    None until ``cohomology.build_ring`` stores it, and ``total`` its
    total Chern class, its ``face_sum``, which builds the ring first if
    need be: the bundle formula reads the base's on every request.
    """

    def __init__(self, fan: Fan):
        self.dim, self.rays, self.max_cones = fan.dim, fan.rays, fan.max_cones
        self.parts = fan.parts
        self.ring = None

    @cached_property
    def duals(self) -> ConeDuals:
        """The ``dual_table`` of the fan's rays: validation, the basis plan,
        the fan ring's cone rewrites and localization read it.  A fan with
        ``parts`` takes it from its base's and fiber's tables
        (``twisted_duals``), with no Bareiss pass; any other fan runs one
        pass per cone."""
        if self.parts is not None:
            return twisted_duals(*self.parts)
        return dual_table(self.rays, self.max_cones)

    @cached_property
    def generic(self) -> list[list[int]]:
        """The pairings <dual row, point> of each cone, one list per cone in
        ``max_cones`` order, at the first moment-curve point off every wall.

        A point lies on a wall of a cone exactly when it pairs to 0 with one
        of the cone's dual rows.  Read by the completeness certificate, the
        basis plan and fixed-point localization.  Every maximal cone must
        have its dual rows (none degenerate).  Each point is tried first on
        the cone that rejected the one before, then on the others in
        cyclic order: where the cones reject successive points in turn,
        as on a surface with many rays in one quadrant, the pairings grow
        with the cones plus the points tried, not with their product.
        The point found is the same in any test order: the first one that
        no cone rejects.

        The search always ends.  A nondegenerate cone's dual rows are
        nonzero, so each row u gives a nonzero polynomial sum_k u_k t^k of
        degree at most n - 1, which has at most n - 1 roots.  With R dual
        rows in all, at most R(n - 1) values of t put the point on a wall,
        so one of t = 1, ..., R(n - 1) + 1 does not.
        """
        duals = self.duals.rows
        coordinates = [None] * len(duals)
        start = 0
        for point in moment_curve(self.dim):
            for k in itertools.chain(range(start, len(duals)), range(start)):
                coordinates[k] = [sum(map(mul, row, point)) for row in duals[k]]
                if 0 in coordinates[k]:
                    start = k
                    break
            else:
                return coordinates

    @cached_property
    def report(self) -> ValidationReport:
        """The smooth/complete/well-formed flags with diagnostics.

        Problems are reported, never raised.  One dual basis per maximal
        cone (``duals``) gives its determinant (smoothness, degeneracy)
        and, when the rays are primitive and distinct and no cone is
        degenerate, a certificate that the fan is complete and its cones
        meet in faces:

        (a) every wall (a cone minus one ray) lies in exactly two maximal
            cones, whose remaining rays lie strictly on opposite sides of it;
        (b) the first moment-curve point off every cone's walls
            (``generic``) lies in exactly one maximal cone.

        Proof.  Off the walls, let N(x) count the cones containing x.  Take
        a path that avoids the (n-2)-dimensional faces and the pairwise
        intersections of distinct wall hyperplanes: where it crosses a
        hyperplane H, every cone with the crossing point on its boundary
        has it inside exactly one facet, a wall in H, and by (a) that wall
        pairs the cone with one cone on the other side; so N is the same
        on both sides.  Such paths connect any two points off the walls (a
        finite union of codimension-2 subspaces does not disconnect R^n
        for n >= 2; for n = 1 the one wall is the origin), so N = 1 off
        the walls by (b): the cones cover a dense set, hence everything,
        and no two interiors meet.  Near a point y in the relative
        interior of a face A, the walls through y are those containing A,
        and (a) pairs them among the cones containing A, so the count made
        with those cones alone is constant near y, and positive.  If
        relint A and relint B met at y for faces A != B, the cones
        containing them would share one (else N >= 2 near y), and distinct
        faces of one simplicial cone have disjoint relative interiors.  So
        every point of two cones lies in a common face: the cones meet in
        faces.

        A fan the certificate rejects goes to the pairwise check: every
        wall in exactly two maximal cones and a connected adjacency graph
        (only conclusive for well-formed fans), and a separating
        hyperplane for each two cones.  Every ray of a complete fan lies
        in a maximal cone, so a listed ray that lies in none makes a
        complete fan ill-formed; an incomplete fan may list rays its cones
        do not use yet.
        """
        diagnostics = []
        well_formed = True

        seen = {}
        for i, ray in enumerate(self.rays):
            if not is_primitive(ray):
                diagnostics.append(f"ray {i} = {ray} is not primitive")
                well_formed = False
            if ray in seen:
                diagnostics.append(f"rays {seen[ray]} and {i} coincide")
                well_formed = False
            seen[ray] = i

        smooth = True
        degenerate = False
        for cone, d in zip(self.max_cones, self.duals.determinants):
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

        sides = _wall_map(self)
        if well_formed and self._certified_complete(sides):
            complete = True
        else:
            well_formed, complete = _pairwise_checks(self, sides, well_formed,
                                                     diagnostics)
        if complete:
            used = frozenset().union(*self.max_cones)
            for i, ray in enumerate(self.rays):
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

    def _certified_complete(self, sides: dict) -> bool:
        """Conditions (a) and (b) of ``report``, from the cones' dual rows:
        (a) reads the fan's ``_wall_map`` and pairs each wall's apex in its
        first cone with the other cone's apex."""
        duals, rays = self.duals.rows, self.rays
        for pair in sides.values():
            if len(pair) != 2:
                return False
            (k, pos, _), (_, _, other) = pair
            if sum(map(mul, duals[k][pos], rays[other])) >= 0:
                return False
        return sum(min(coords, default=1) > 0 for coords in self.generic) == 1

    @cached_property
    def total(self):
        """The fan ring's total Chern class, its ``face_sum``; the ring is
        built (``cohomology.build_ring``) if it is not yet, on a fan equal
        to the record's, with its parts, that lives only as long as the
        call."""
        from .cohomology import build_ring  # cohomology imports this module

        fan = Fan(self.dim, self.rays, self.max_cones)
        object.__setattr__(fan, "parts", self.parts)
        return build_ring(fan).face_sum()


_kept: dict = {}  # the records that fans without parts read
_live = weakref.WeakValueDictionary()  # every record while it lives


def tables(f: Fan) -> FanTables:
    """The fan's record, one per fan equality at any moment: built on the
    first read, and kept while the traffic it serves lasts.

    A fan without ``parts`` (a base, a fiber, a parsed fan) keeps its
    record for the life of the process, as it may come back with the
    next request.  A twisted fan (``parts`` set by ``twist.twisted_fan``)
    holds its record in ``_tables`` instead, so a record that only
    twisted fans read is freed, by reference counting, with the last of
    them: no later request builds the same twist.  A parsed copy that
    reads such a record while it lives adopts it, which is then kept.
    ``tables.cache_clear()`` drops every record.  Two threads that build
    a record at once may each get their own, with equal tables; only
    one is kept.
    """
    key = (f.dim, f.rays, f.max_cones)
    record = _kept.get(key)
    if record is None:
        record = _live.get(key) or _live.setdefault(key, FanTables(f))
        if f.parts is None:
            record = _kept.setdefault(key, record)
        else:
            object.__setattr__(f, "_tables", record)
    return record


def _drop_all_records() -> None:
    """``tables.cache_clear()``: every record is built again on next read."""
    _kept.clear()
    _live.clear()


tables.cache_clear = _drop_all_records


def validate(f: Fan) -> ValidationReport:
    """The fan's validation report, ``tables(f).report``: problems are
    reported, never raised (see ``FanTables.report``)."""
    return tables(f).report


def _pairwise_checks(f: Fan, sides: dict, well_formed: bool,
                     diagnostics: list):
    """(well_formed, complete) from cone pairs, walls and adjacency.

    f is a fan or its ``FanTables`` record, which keeps its rays and
    cones.  Appends its diagnostics; ``sides`` is the fan's
    ``_wall_map``, read in the order of ``walls``, and ``well_formed``
    says whether the cone pairs are still to be checked.
    """
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
    for wall, containing in _sorted_walls(sides):
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
    return well_formed, complete


def product_fan(f: Fan, g: Fan) -> Fan:
    """Product fan: embedded rays of f then g, cones all unions."""
    return stacked_fan(f, g, ((0,) * g.dim,) * f.ray_count)


def stacked_fan(base: Fan, fiber: Fan, lifts) -> Fan:
    """The fan of the rays (v_i, lifts[i]) over the base rays v_i, then
    (0, w) over the fiber rays w, and of the cones sigma | (tau moved past
    the base rays), base cone sigma by fiber cone tau, base-major.  With
    every lift 0 it is the product fan; ``twist.twisted_fan`` builds the
    twisted fan with it and records the parts on it."""
    rays = [v + lift for v, lift in zip(base.rays, lifts)]
    rays += [(0,) * base.dim + w for w in fiber.rays]
    shift = base.ray_count
    cones = [sigma | frozenset(i + shift for i in tau)
             for sigma in base.max_cones for tau in fiber.max_cones]
    return Fan(base.dim + fiber.dim, tuple(rays), tuple(cones))


def require_smooth_complete(f: Fan, context: str) -> None:
    """Raise ValueError unless the fan is well-formed, smooth and complete."""
    report = validate(f)
    if not report.all_good:
        raise ValueError(
            f"{context} requires a well-formed smooth complete fan; "
            + "; ".join(report.diagnostics[:3])
        )
