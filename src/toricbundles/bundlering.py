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

Both rings here run on the engine of ``cohomology``: one GradedPiece per
degree, certified against the claimed (presentation) or the fiber
ring's (bundle) basis.  Base classes are CohomologyClass instances, and
a BundleClass is a CohomologyClass whose coefficients are base classes;
it differs only in taking components by total degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .chern import chern_numbers
from .cohomology import (
    CohomologyClass,
    GradedPiece,
    Monomial,
    Poly,
    RingConsistencyError,
    _face_monomials,
    basis_products,
    build_ring,
    face_monomial_sum,
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
    are zero by contract.  Its classes are CohomologyClass instances.
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
        # A zero relation imposes nothing and has no degree.
        relations = ({m: c for m, c in rel.items() if c} for rel in relations)
        self.relations = tuple(rel for rel in relations if rel)
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
        self._degrees: list[GradedPiece] = []
        weights = [d // 2 for _, d in self.generators]
        for k in range(self.half_top + 1):
            monomials = _weighted_monomials(weights, k)
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            for rel in self.relations:
                rel_deg = self._half_degree(next(iter(rel)))
                if rel_deg > k:
                    continue
                for mono in _weighted_monomials(weights, k - rel_deg):
                    rows.append(({
                        index[tuple(map(add, rmono, mono))]: coeff
                        for rmono, coeff in rel.items()
                    }, None))
            self._degrees.append(GradedPiece.build(
                monomials, index, rows, self.basis.get(k, ()),
                f"base presentation {name!r}, degree {2 * k}",
            ))
        if self.basis_monomials(0) != ((0,) * len(self.generators),):
            raise RingConsistencyError("degree 0 basis must be the unit")
        if self.rank(self.half_top) != 1:
            raise RingConsistencyError("top degree must have rank one")
        self.chern = self.reduce_poly(chern)

    def _half_degree(self, mono: Monomial) -> int:
        return sum(e * (d // 2) for e, (_, d) in zip(mono, self.generators))

    def rank(self, k: int) -> int:
        return self._degrees[k].rank

    def basis_monomials(self, k: int) -> tuple[Monomial, ...]:
        return self._degrees[k].basis_monomials()

    # -- classes -------------------------------------------------------------

    def reduce_poly(self, poly: Poly) -> CohomologyClass:
        buckets: list[dict] = [{} for _ in self._degrees]
        for mono, coeff in poly.items():
            mono = tuple(mono)
            k = self._half_degree(mono)
            if coeff and k <= self.half_top:
                buckets[k][self._degrees[k].index[mono]] = coeff
        return CohomologyClass(self, tuple(
            piece.reduce(bucket) for piece, bucket in zip(self._degrees, buckets)
        ))

    def zero(self) -> CohomologyClass:
        return self.reduce_poly({})

    def unit(self) -> CohomologyClass:
        return self.reduce_poly({(0,) * len(self.generators): 1})

    def multiply(self, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes live over different base presentations")
        poly: Poly = {}
        for _, prod, c1, c2 in basis_products(self._degrees, a.parts, b.parts):
            poly[prod] = poly.get(prod, 0) + c1 * c2
        return self.reduce_poly(poly)

    def integrate(self, cls: CohomologyClass) -> int:
        """Integration functional on a class concentrated in the top degree."""
        if cls.ring is not self:
            raise ValueError("class lives over a different base presentation")
        for k, part in enumerate(cls.parts):
            if k != self.half_top and any(part):
                raise ValueError("integrate expects a top-degree class")
        return cls.parts[self.half_top][0] * self.integration_value


@dataclass(frozen=True)
class TwistingClasses:
    """One degree-2 base class per fiber lattice coordinate."""

    classes: tuple[CohomologyClass, ...]

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
    lambda_i.  ``dim`` is the complex dimension of the total space.
    """

    def __init__(self, base: BasePresentation, lam: TwistingClasses, fiber: Fan):
        require_smooth_complete(fiber, "build_bundle_ring fiber")
        if len(lam.classes) != fiber.dim:
            raise ValueError(
                f"{len(lam.classes)} twisting classes for a rank-{fiber.dim} fiber"
            )
        for cls in lam.classes:
            if cls.ring is not base:
                raise ValueError("twisting classes must live over the base")
        self.base = base
        self.lam = lam.classes
        self.fiber = fiber
        self.fiber_ring = build_ring(fiber)
        n = fiber.dim
        self.fiber_cap = 2 * n
        self.dim = base.half_top + n
        relations = linear_relations(fiber)
        ring = self.fiber_ring
        self._degrees: list[GradedPiece] = []
        for d in range(self.fiber_cap + 1):
            monomials = _face_monomials(ring.ray_count, ring.faces, d)
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            if d >= 1:
                # Row (mono, i) is mono * relation i; its payload records
                # both, so reduction knows which lambda_i to carry down.
                for mono in self._degrees[d - 1].monomials:
                    for i, rel in enumerate(relations):
                        vec = {}
                        for rho, coeff in enumerate(rel):
                            if coeff == 0:
                                continue
                            bumped = mono[:rho] + (mono[rho] + 1,) + mono[rho + 1:]
                            pos = index.get(bumped)
                            if pos is not None:
                                vec[pos] = coeff
                        if vec:
                            rows.append((vec, {(i, mono): 1}))
            planned = ring.basis_monomials(d) if d <= n else ()
            self._degrees.append(GradedPiece.build(
                monomials, index, rows, planned, f"bundle ring fiber degree {d}"
            ))
        if sum(piece.rank for piece in self._degrees) != len(fiber.max_cones):
            raise RingConsistencyError(
                "bundle ring rank differs from the fiber maximal-cone count"
            )

    def rank(self, d: int) -> int:
        return self._degrees[d].rank

    def basis_monomials(self, d: int) -> tuple[Monomial, ...]:
        return self._degrees[d].basis_monomials()

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
            lower_index = self._degrees[d - 1].index
            vec_d = work[d]
            for col, vec, payload in self._degrees[d].pivots:
                c = vec_d.get(col)
                if not c:
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
        for piece, vec_d in zip(self._degrees, work.values()):
            pivot_cols = {c for c, _, _ in piece.pivots}
            for pos, cls in vec_d.items():
                if pos in pivot_cols and cls:
                    raise RingConsistencyError(
                        "bundle reduction left residue on a pivot column"
                    )
            parts.append(tuple(
                vec_d.get(pos, zero) for pos in piece.basis_positions
            ))
        return BundleClass(self, tuple(parts))

    def zero(self) -> "BundleClass":
        return self.reduce_raw({})

    def unit(self) -> "BundleClass":
        return self.reduce_raw({0: {0: self.base.unit()}})

    def multiply(self, a: "BundleClass", b: "BundleClass") -> "BundleClass":
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes live in different bundle rings")
        zero = self.base.zero()
        buckets: dict[int, dict] = {}
        for d, prod, c1, c2 in basis_products(self._degrees, a.parts, b.parts):
            pos = self._degrees[d].index.get(prod)
            if pos is None:
                continue  # support is not a face
            bucket = buckets.setdefault(d, {})
            bucket[pos] = bucket.get(pos, zero) + c1 * c2
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
        for d, part in enumerate(cls.parts):
            for c in part:
                for k, base_part in enumerate(c.parts):
                    if any(base_part) and d + k != self.dim:
                        raise ValueError(
                            "integrate expects a class of top total degree "
                            f"{2 * self.dim}, found a component in degree "
                            f"{2 * (d + k)}"
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


class BundleClass(CohomologyClass):
    """Element of a BundleRing: base classes indexed by the fiber basis."""

    def component(self, k: int) -> "BundleClass":
        """Homogeneous piece of total cohomological degree 2k."""
        half_top = self.ring.base.half_top
        return BundleClass(self.ring, tuple(
            tuple(
                c.component(k - d) if 0 <= k - d <= half_top else 0 * c
                for c in part
            )
            for d, part in enumerate(self.parts)
        ))


def build_bundle_ring(base: BasePresentation, lam: TwistingClasses,
                      fiber: Fan) -> BundleRing:
    return BundleRing(base, lam, fiber)


def total_chern_general(ring: BundleRing) -> BundleClass:
    """Image of c(TB) times the product of (1 + x_tau) over fiber rays."""
    pulled = ring.reduce_raw({0: {0: ring.base.chern}})
    unit = ring.base.unit()
    buckets: dict[int, dict] = {}
    for mono in face_monomial_sum(ring.fiber_ring.faces, ring.fiber.ray_count):
        d = sum(mono)
        buckets.setdefault(d, {})[ring._degrees[d].index[mono]] = unit
    return pulled * ring.reduce_raw(buckets)


def integrate_bundle(ring: BundleRing, cls: BundleClass) -> int:
    return ring.integrate(cls)


def chern_numbers_bundle(ring: BundleRing,
                         total: BundleClass) -> dict[tuple[int, ...], int]:
    """Chern numbers of the total space via the presented-base route."""
    return chern_numbers(ring, total)


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
        k: ring.basis_monomials(k) for k in range(f.dim + 1)
    }
    integration = ring.integrate(_unit_top_class(ring))
    return BasePresentation(
        name=name or f"H*({f.ray_count} rays, dim {f.dim})",
        generators=generators,
        relations=relations,
        basis=basis,
        top_degree=2 * f.dim,
        integration=integration,
        chern=face_monomial_sum(ring.faces, f.ray_count),
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
