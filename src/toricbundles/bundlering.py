"""The Chern class formula over an arbitrary presented base.

A base is supplied as a finite presentation of its even cohomology
(generators, vanishing relation polynomials, per-degree bases, an
integration functional, and its total Chern class).  Given twisting
classes lambda (one degree-2 class per fiber lattice coordinate) and a
smooth complete fiber fan, the bundle ring adjoins the fiber generators
with the Stanley-Reisner relations and the inhomogeneous linear relations

    sum_tau <m, v_tau> x_tau + lambda(m) = 0,

making a free base-module on the fiber monomial basis.  The sign is
pinned by the mandatory agreement with the twisted-fan route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import partitions
from .cohomology import (
    CohomologyClass,
    Monomial,
    Poly,
    RingConsistencyError,
    _face_monomials,
    build_ring,
    graded_eliminate,
    linear_relations,
)
from .fan import Fan, require_smooth_complete


def _weighted_monomials(weights: list[int], half_degree: int) -> list[Monomial]:
    """Exponent tuples with given weighted half-degree, x_0-heavy first."""
    out = []

    def grow(i: int, left: int, exps: list[int]):
        if left == 0:
            out.append(tuple(exps) + (0,) * (len(weights) - i))
            return
        if i == len(weights):
            return
        for k in range(left // weights[i], -1, -1):
            grow(i + 1, left - k * weights[i], exps + [k])

    grow(0, half_degree, [])
    return sorted(out, reverse=True)


class BasePresentation:
    """User-supplied graded ring data for the base of a bundle.

    The presentation is trusted input; construction runs the cheap
    consistency checks (the claimed per-degree bases must be reproducible
    from the relations with unit pivots, degree 0 must be the unit, the
    top degree must have rank one and integration value +-1) and raises
    RingConsistencyError when they fail.  Degrees above ``top_degree``
    are zero by contract.
    """

    def __init__(self, name: str, generators, relations, basis,
                 top_degree: int, integration: int, chern: Poly):
        self.name = name
        self.generators = tuple((str(g), int(d)) for g, d in generators)
        for g, d in self.generators:
            if d <= 0 or d % 2:
                raise ValueError(f"generator {g} must have positive even degree")
        if top_degree < 0 or top_degree % 2:
            raise ValueError("top degree must be a nonnegative even integer")
        self.top_degree = top_degree
        self.half_top = top_degree // 2
        self.relations = tuple(dict(r) for r in relations)
        for rel in self.relations:
            degs = {self._half_degree(m) for m in rel}
            if len(degs) > 1:
                raise ValueError("relation polynomials must be homogeneous")
        self.basis = {
            k: tuple(tuple(m) for m in monos) for k, monos in basis.items()
        }
        self.integration_value = int(integration)
        if self.integration_value not in (1, -1):
            raise RingConsistencyError(
                "top basis element must integrate to +-1"
            )
        self._degrees = []
        weights = [d // 2 for _, d in self.generators]
        for k in range(self.half_top + 1):
            monomials = tuple(_weighted_monomials(weights, k))
            index = {m: i for i, m in enumerate(monomials)}
            claimed = self.basis.get(k, ())
            positions = []
            for mono in claimed:
                if mono not in index:
                    raise RingConsistencyError(
                        f"claimed basis monomial {mono} has wrong degree {2 * k}"
                    )
                positions.append(index[mono])
            rows = []
            for rel in self.relations:
                rel_deg = self._half_degree(next(iter(rel)))
                if rel_deg > k:
                    continue
                for mono in _weighted_monomials(weights, k - rel_deg):
                    vec = {}
                    for rmono, coeff in rel.items():
                        prod = tuple(a + b for a, b in zip(rmono, mono))
                        pos = index[prod]
                        vec[pos] = vec.get(pos, 0) + coeff
                    if vec:
                        rows.append((vec, None))
            allowed = set(range(len(monomials))) - set(positions)
            try:
                pivots = graded_eliminate(rows, len(monomials), allowed)
            except RingConsistencyError as exc:
                raise RingConsistencyError(
                    f"base presentation {name!r} is inconsistent in degree "
                    f"{2 * k}: {exc}"
                ) from exc
            if len(pivots) != len(allowed):
                raise RingConsistencyError(
                    f"base presentation {name!r}: degree {2 * k} rank is not "
                    f"{len(positions)} as claimed"
                )
            self._degrees.append((monomials, index, tuple(pivots),
                                  tuple(positions)))
        if self.rank(0) != 1 or self._degrees[0][0][self._degrees[0][3][0]] != (
            (0,) * len(self.generators)
        ):
            raise RingConsistencyError("degree 0 basis must be the unit")
        if self.rank(self.half_top) != 1:
            raise RingConsistencyError("top degree must have rank one")
        self.chern = self.reduce_poly(chern)

    def _half_degree(self, mono: Monomial) -> int:
        return sum(e * (d // 2) for e, (_, d) in zip(mono, self.generators))

    def rank(self, k: int) -> int:
        return len(self._degrees[k][3])

    def basis_monomials(self, k: int) -> tuple[Monomial, ...]:
        monomials, _, _, positions = self._degrees[k]
        return tuple(monomials[i] for i in positions)

    # -- classes -------------------------------------------------------------

    def reduce_poly(self, poly: Poly) -> "PresentedClass":
        buckets: dict[int, dict] = {}
        for mono, coeff in poly.items():
            if coeff == 0:
                continue
            mono = tuple(mono)
            k = self._half_degree(mono)
            if k > self.half_top:
                continue
            pos = self._degrees[k][1][mono]
            bucket = buckets.setdefault(k, {})
            bucket[pos] = bucket.get(pos, 0) + coeff
        return PresentedClass(self, tuple(
            self._reduce_degree(k, buckets.get(k, {}))
            for k in range(self.half_top + 1)
        ))

    def _reduce_degree(self, k: int, vec: dict) -> tuple[int, ...]:
        _, _, pivots, positions = self._degrees[k]
        work = dict(vec)
        for col, row, _ in pivots:
            c = work.get(col)
            if c:
                for kk, v in row.items():
                    new = work.get(kk, 0) - c * v
                    if new:
                        work[kk] = new
                    else:
                        work.pop(kk, None)
        return tuple(work.get(i, 0) for i in positions)

    def zero(self) -> "PresentedClass":
        return self.reduce_poly({})

    def unit(self) -> "PresentedClass":
        return self.reduce_poly({(0,) * len(self.generators): 1})

    def multiply(self, a: "PresentedClass", b: "PresentedClass") -> "PresentedClass":
        if a.base is not self or b.base is not self:
            raise ValueError("classes live over different base presentations")
        poly: Poly = {}
        for k1, part1 in enumerate(a.parts):
            basis1 = self.basis_monomials(k1)
            for m1, c1 in zip(basis1, part1):
                if c1 == 0:
                    continue
                for k2, part2 in enumerate(b.parts):
                    if k1 + k2 > self.half_top:
                        continue
                    basis2 = self.basis_monomials(k2)
                    for m2, c2 in zip(basis2, part2):
                        if c2 == 0:
                            continue
                        prod = tuple(x + y for x, y in zip(m1, m2))
                        poly[prod] = poly.get(prod, 0) + c1 * c2
        return self.reduce_poly(poly)

    def integrate(self, cls: "PresentedClass") -> int:
        """Integration functional on a class concentrated in the top degree."""
        if cls.base is not self:
            raise ValueError("class lives over a different base presentation")
        for k, part in enumerate(cls.parts):
            if k != self.half_top and any(part):
                raise ValueError("integrate expects a top-degree class")
        return cls.parts[self.half_top][0] * self.integration_value


@dataclass(frozen=True)
class PresentedClass:
    """Per-degree coefficients over the claimed bases of a BasePresentation."""

    base: BasePresentation
    parts: tuple[tuple[int, ...], ...]

    def component(self, k: int) -> "PresentedClass":
        parts = tuple(
            part if kk == k else (0,) * len(part)
            for kk, part in enumerate(self.parts)
        )
        return PresentedClass(self.base, parts)

    def coefficients(self, k: int) -> tuple[int, ...]:
        return self.parts[k]

    def is_zero(self) -> bool:
        return all(not any(part) for part in self.parts)

    def degrees(self):
        return [k for k, part in enumerate(self.parts) if any(part)]

    def __add__(self, other):
        if self.base is not other.base:
            raise ValueError("classes live over different base presentations")
        return PresentedClass(self.base, tuple(
            tuple(x + y for x, y in zip(p, q))
            for p, q in zip(self.parts, other.parts)
        ))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar: int):
        return PresentedClass(self.base, tuple(
            tuple(scalar * x for x in p) for p in self.parts
        ))

    def __mul__(self, other):
        return self.base.multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, PresentedClass)
            and self.base is other.base
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((id(self.base), self.parts))


@dataclass(frozen=True)
class TwistingClasses:
    """One degree-2 base class per fiber lattice coordinate."""

    classes: tuple[PresentedClass, ...]

    def __post_init__(self):
        for cls in self.classes:
            for k, part in enumerate(cls.parts):
                if k != 1 and any(part):
                    raise ValueError("twisting classes must be pure degree 2")


class BundleRing:
    """Cohomology of a toric variety bundle over a presented base.

    A free base-module with basis the fiber monomial basis; fiber
    monomials of any degree reduce via the twisted linear relations, each
    reduction step trading one fiber degree for a degree-2 base factor
    lambda_i.
    """

    def __init__(self, base: BasePresentation, lam: TwistingClasses, fiber: Fan):
        require_smooth_complete(fiber, "build_bundle_ring fiber")
        if len(lam.classes) != fiber.dim:
            raise ValueError(
                f"{len(lam.classes)} twisting classes for a rank-{fiber.dim} fiber"
            )
        for cls in lam.classes:
            if cls.base is not base:
                raise ValueError("twisting classes must live over the base")
        self.base = base
        self.lam = lam.classes
        self.fiber = fiber
        self.fiber_ring = build_ring(fiber)
        n = fiber.dim
        self.fiber_cap = 2 * n
        self.total_half_top = base.half_top + n
        relations = linear_relations(fiber)
        ring = self.fiber_ring
        self._degrees = []
        for d in range(self.fiber_cap + 1):
            monomials = tuple(_face_monomials(ring.ray_count, ring.faces, d))
            planned = set(ring.basis_monomials(d)) if d <= n else set()
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            if d >= 1:
                lower = self._degrees[d - 1][0]
                for mono in lower:
                    for i, rel in enumerate(relations):
                        vec = {}
                        for rho, coeff in enumerate(rel):
                            if coeff == 0:
                                continue
                            bumped = mono[:rho] + (mono[rho] + 1,) + mono[rho + 1:]
                            pos = index.get(bumped)
                            if pos is not None:
                                vec[pos] = vec.get(pos, 0) + coeff
                        if vec:
                            rows.append((vec, {(i, mono): 1}))
            allowed = set(range(len(monomials))) - {
                index[m] for m in planned
            }
            pivots = graded_eliminate(rows, len(monomials), allowed)
            if len(pivots) != len(allowed):
                raise RingConsistencyError(
                    f"bundle ring fiber degree {d} is not free of the "
                    "expected rank"
                )
            basis_positions = tuple(
                i for i in range(len(monomials))
                if i not in {c for c, _, _ in pivots}
            )
            self._degrees.append((monomials, index, tuple(pivots),
                                  basis_positions))
        if sum(len(deg[3]) for deg in self._degrees) != len(fiber.max_cones):
            raise RingConsistencyError(
                "bundle ring rank differs from the fiber maximal-cone count"
            )

    def rank(self, d: int) -> int:
        return len(self._degrees[d][3])

    def basis_monomials(self, d: int):
        monomials, _, _, positions = self._degrees[d]
        return tuple(monomials[i] for i in positions)

    # -- reduction -----------------------------------------------------------

    def reduce_raw(self, buckets) -> "BundleClass":
        """Reduce {fiber degree -> {raw monomial position -> base class}}.

        Pivot rows carry their provenance (relation index, lower monomial);
        using relation i against a class c pushes the carry -c*lambda_i
        onto the lower monomial, cascading down the fiber degrees.
        """
        work = {
            d: dict(buckets.get(d, {})) for d in range(self.fiber_cap + 1)
        }
        zero = self.base.zero()
        for d in range(self.fiber_cap, 0, -1):
            monomials, index, pivots, _ = self._degrees[d]
            lower_index = self._degrees[d - 1][1]
            vec_d = work[d]
            for col, vec, payload in pivots:
                c = vec_d.get(col)
                if c is None or c.is_zero():
                    vec_d.pop(col, None)
                    continue
                for pos, coeff in vec.items():
                    prev = vec_d.get(pos, zero)
                    vec_d[pos] = prev - coeff * c
                for (i, mono), mult in payload.items():
                    carry = (-mult) * (self.lam[i] * c)
                    pos = lower_index[mono]
                    prev = work[d - 1].get(pos, zero)
                    work[d - 1][pos] = prev + carry
        parts = []
        for d in range(self.fiber_cap + 1):
            monomials, index, pivots, positions = self._degrees[d]
            vec_d = work[d]
            pivot_cols = {c for c, _, _ in pivots}
            for pos, cls in vec_d.items():
                if pos in pivot_cols and not cls.is_zero():
                    raise RingConsistencyError(
                        "bundle reduction left residue on a pivot column"
                    )
            parts.append(tuple(
                vec_d.get(pos, zero) for pos in positions
            ))
        return BundleClass(self, tuple(parts))

    def zero(self) -> "BundleClass":
        return self.reduce_raw({})

    def unit(self) -> "BundleClass":
        return self.reduce_raw({0: {0: self.base.unit()}})

    def multiply(self, a: "BundleClass", b: "BundleClass") -> "BundleClass":
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes live in different bundle rings")
        buckets: dict[int, dict] = {}
        for d1, part1 in enumerate(a.parts):
            basis1 = self.basis_monomials(d1)
            for m1, c1 in zip(basis1, part1):
                if c1.is_zero():
                    continue
                for d2, part2 in enumerate(b.parts):
                    d = d1 + d2
                    if d > self.fiber_cap:
                        continue
                    basis2 = self.basis_monomials(d2)
                    index = self._degrees[d][1]
                    for m2, c2 in zip(basis2, part2):
                        if c2.is_zero():
                            continue
                        prod = tuple(x + y for x, y in zip(m1, m2))
                        pos = index.get(prod)
                        if pos is None:
                            continue  # support is not a face
                        bucket = buckets.setdefault(d, {})
                        prev = bucket.get(pos, self.base.zero())
                        bucket[pos] = prev + c1 * c2
        return self.reduce_raw(buckets)

    def integrate(self, cls: "BundleClass") -> int:
        """Fiber-first integration of a class of top total degree.

        Pushes forward along the fiber (only the top fiber basis monomial
        survives, weighted by its fiber integral) and applies the base
        integration functional.  Raises on any off-degree component.
        """
        if cls.ring is not self:
            raise ValueError("class lives in a different bundle ring")
        n = self.fiber.dim
        top = self.total_half_top
        for d, part in enumerate(cls.parts):
            for c in part:
                for k, base_part in enumerate(c.parts):
                    if any(base_part) and d + k != top:
                        raise ValueError(
                            "integrate expects a class of top total degree "
                            f"{2 * top}, found a component in degree {2 * (d + k)}"
                        )
        if self.rank(n) != 1:
            raise RingConsistencyError("fiber top degree must have rank one")
        top_integral = self.fiber_ring.integrate(_unit_top_class(self.fiber_ring))
        return top_integral * self.base.integrate(cls.parts[n][0])


def _unit_top_class(ring) -> CohomologyClass:
    """The class with coefficient 1 on the top-degree basis monomial."""
    parts = tuple(
        (1,) if d == ring.dim else (0,) * len(ring.basis_monomials(d))
        for d in range(ring.degree_cap + 1)
    )
    return CohomologyClass(ring, parts)


@dataclass(frozen=True)
class BundleClass:
    """Element of a BundleRing: base classes indexed by the fiber basis."""

    ring: BundleRing
    parts: tuple[tuple[PresentedClass, ...], ...]

    def component(self, k: int) -> "BundleClass":
        """Homogeneous piece of total cohomological degree 2k."""
        out = []
        for d, part in enumerate(self.parts):
            kk = k - d
            out.append(tuple(
                c.component(kk) if 0 <= kk <= self.ring.base.half_top
                else 0 * c
                for c in part
            ))
        return BundleClass(self.ring, tuple(out))

    def is_zero(self) -> bool:
        return all(c.is_zero() for part in self.parts for c in part)

    def __add__(self, other):
        if self.ring is not other.ring:
            raise ValueError("classes live in different bundle rings")
        return BundleClass(self.ring, tuple(
            tuple(x + y for x, y in zip(p, q))
            for p, q in zip(self.parts, other.parts)
        ))

    def __rmul__(self, scalar: int):
        return BundleClass(self.ring, tuple(
            tuple(scalar * c for c in part) for part in self.parts
        ))

    def __mul__(self, other):
        return self.ring.multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, BundleClass)
            and self.ring is other.ring
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((id(self.ring), self.parts))


def build_bundle_ring(base: BasePresentation, lam: TwistingClasses,
                      fiber: Fan) -> BundleRing:
    return BundleRing(base, lam, fiber)


def total_chern_general(ring: BundleRing) -> BundleClass:
    """Image of c(TB) times the product of (1 + x_tau) over fiber rays."""
    pulled = ring.reduce_raw({0: {0: ring.base.chern}})
    buckets: dict[int, dict] = {}
    unit = ring.base.unit()
    for face in ring.fiber_ring.faces:
        d = len(face)
        if d > ring.fiber_cap:
            continue
        mono = tuple(
            1 if i in face else 0 for i in range(ring.fiber.ray_count)
        )
        pos = ring._degrees[d][1][mono]
        bucket = buckets.setdefault(d, {})
        bucket[pos] = unit
    factor = ring.reduce_raw(buckets)
    return pulled * factor


def integrate_bundle(ring: BundleRing, cls: BundleClass) -> int:
    return ring.integrate(cls)


def chern_numbers_bundle(ring: BundleRing,
                         total: BundleClass) -> dict[tuple[int, ...], int]:
    """Chern numbers of the total space via the presented-base route."""
    n = ring.total_half_top
    out = {}
    for part in partitions(n):
        cls = ring.unit()
        for k in part:
            cls = cls * total.component(k)
        out[part] = ring.integrate(cls.component(n))
    return out


def fiber_restriction(ring: BundleRing, cls: BundleClass) -> CohomologyClass:
    """Set the base's positive-degree classes to zero: the fiber-fan class."""
    parts = []
    for d in range(ring.fiber.dim + 1):
        part = cls.parts[d]
        parts.append(tuple(c.parts[0][0] for c in part))
    return CohomologyClass(ring.fiber_ring, tuple(parts))


def presentation_from_fan(f: Fan, name: str = "") -> BasePresentation:
    """Package the cohomology ring of a smooth complete fan as a presentation."""
    ring = build_ring(f)
    generators = [(f"x{i}", 2) for i in range(f.ray_count)]
    relations: list[Poly] = []
    for nonface in sorted(ring.nonfaces, key=sorted):
        mono = tuple(1 if i in nonface else 0 for i in range(f.ray_count))
        relations.append({mono: 1})
    for rel in ring.relations:
        poly: Poly = {}
        for rho, coeff in enumerate(rel):
            if coeff:
                mono = tuple(
                    1 if i == rho else 0 for i in range(f.ray_count)
                )
                poly[mono] = coeff
        relations.append(poly)
    basis = {
        k: tuple(ring.basis_monomials(k)) for k in range(f.dim + 1)
    }
    integration = ring.integrate(_unit_top_class(ring))
    chern_poly: Poly = {}
    for face in ring.faces:
        if len(face) <= f.dim:
            mono = tuple(1 if i in face else 0 for i in range(f.ray_count))
            chern_poly[mono] = 1
    return BasePresentation(
        name=name or f"H*({f.ray_count} rays, dim {f.dim})",
        generators=generators,
        relations=relations,
        basis=basis,
        top_degree=2 * f.dim,
        integration=integration,
        chern=chern_poly,
    )


def twisting_from_principal(base_pres: BasePresentation,
                            coefficient_vectors) -> TwistingClasses:
    """Twisting classes from divisor-coefficient vectors over the base rays.

    Only meaningful when the presentation's generators are the base ray
    classes, as produced by presentation_from_fan.
    """
    classes = []
    ngen = len(base_pres.generators)
    for coeffs in coefficient_vectors:
        if len(coeffs) != ngen:
            raise ValueError(
                "coefficient vector length differs from the generator count"
            )
        poly: Poly = {}
        for rho, coeff in enumerate(coeffs):
            if coeff:
                mono = tuple(1 if i == rho else 0 for i in range(ngen))
                poly[mono] = coeff
        classes.append(base_pres.reduce_poly(poly))
    return TwistingClasses(classes=tuple(classes))
