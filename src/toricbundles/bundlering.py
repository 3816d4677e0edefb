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

Both rings here run on the ring skeleton of ``cohomology``
(GradedRing): one GradedPiece per degree, certified against the claimed
(presentation) or the fiber ring's (bundle) basis, and one reduce_poly,
multiply and integrate.  Both multiply as every ring does, through a
table of normal forms (NormalForms).  The presentation supplies the
three hooks directly: weighted degrees, every weighted monomial a column
(its normal form read off its pivot row) and ``integration_value``; it
keeps its one table for its lifetime, filled on first read, so each
product of basis monomials is solved once per presentation.  The bundle
ring is the fiber's GradedQuotientRing with base classes as
coefficients: the same squarefree columns in fiber degrees 0..n, the
same cone rewrite and normal form, whose rewrite of x_rho gains the
constant mu_rho = -sum_j inv[rho][j] lambda_j (solved for a cone and ray
on first need and kept by the ring), and the same column forms, whose
pivots carry the lambda cofactors of their rows one fiber degree down.
Its table entries hold integers in the monomial's own fiber degree and
base classes below, and it hands out a new table per call.  Its classes
are CohomologyClass instances, as the base's are, with base classes as
coefficients, so their components are taken by total degree.

Chern numbers pair two classes on the integer form of ``cohomology``
(GradedRing.integrate_product): the bundle ring is a free H*(B)-module
on the fiber basis monomials, its coefficient triples are the base's
``triple_intersections`` and its point sign is the fiber's, set when
the ring is built.  ``integrate`` is GradedRing's: the fiber's point
sign times the base integral of the top fiber basis coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .chern import chern_numbers
from .cohomology import (
    CohomologyClass,
    GradedPiece,
    GradedQuotientRing,
    GradedRing,
    Monomial,
    Poly,
    NormalForms,
    RingConsistencyError,
    build_ring,
    linear_relations,
)
from .faces import face_monomial_sum
from .fan import Fan, require_smooth_complete


def _weighted_monomials(weights: tuple, half_degree: int) -> list[Monomial]:
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


class BasePresentation(GradedRing):
    """User-supplied graded ring data for the base of a bundle.

    The presentation is trusted input; construction runs the cheap
    consistency checks (the claimed per-degree bases must be reproducible
    from the relations with unit pivots, degree 0 must be the unit, the
    top degree must have rank one and integration value +-1) and raises
    RingConsistencyError when they fail.  Degrees above ``top_degree``
    are zero by contract.  The constructor checks and the piece build are
    its own, and it keeps its table of normal forms for its lifetime; the
    other ring operations, ``multiply`` among them, are GradedRing's.
    ``dim`` and ``half_top`` are half the top degree.
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
        self.dim = self.half_top = self.monomial_cap = top_degree // 2
        self._nvars = len(self.generators)
        self._weights = tuple(d // 2 for _, d in self.generators)
        # A zero relation imposes nothing and has no degree.
        relations = ({m: c for m, c in rel.items() if c} for rel in relations)
        self.relations = tuple(rel for rel in relations if rel)
        for rel in self.relations:
            degs = {self._degree(m) for m in rel}
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
        for k in range(self.half_top + 1):
            monomials = _weighted_monomials(self._weights, k)
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            for rel in self.relations:
                rel_deg = self._degree(next(iter(rel)))
                if rel_deg > k:
                    continue
                for mono in _weighted_monomials(self._weights, k - rel_deg):
                    rows.append(({
                        index[tuple(map(add, rmono, mono))]: coeff
                        for rmono, coeff in rel.items()
                    }, None))
            self._degrees.append(GradedPiece.build(
                monomials, index, rows, self.basis.get(k, ()),
                f"base presentation {name!r}, degree {2 * k}",
            ))
        self._lay_out()
        if self.basis_monomials(0) != ((0,) * self._nvars,):
            raise RingConsistencyError("degree 0 basis must be the unit")
        if self.rank(self.half_top) != 1:
            raise RingConsistencyError("top degree must have rank one")
        self._forms = NormalForms(self)
        self.chern = self.reduce_poly(chern)
        if self.chern.flat[0] != 1:
            raise RingConsistencyError(
                f"total Chern class must start with 1, not {self.chern.flat[0]}"
            )

    def _degree(self, mono: Monomial) -> int:
        """The weighted half-degree of a monomial."""
        return sum(map(mul, mono, self._weights))

    def normal_forms(self) -> NormalForms:
        """The presentation's one table, kept for its lifetime: bundle
        products, lambda carries and twists all multiply through it."""
        return self._forms

    def _point_data(self) -> int:
        return self.integration_value

    @cached_property
    def triple_intersections(self) -> tuple[tuple[int, int, int, int], ...]:
        """The nonzero integrals K[p,q,r] = int_B e_p e_q e_r, as (p, q, r, K).

        The basis classes e_p are numbered across degrees, lowest first, as
        a class's ``flat`` runs and as in the product table.  Read off it:
        e_p e_q = sum_s c_s e_s, and each e_s e_r of top degree is a
        multiple of the top basis monomial.
        """
        numbered = list(zip(self._basis_degrees, self._basis))
        forms = self._forms
        out = []
        for p, (kp, mp) in enumerate(numbered):
            for q, (kq, mq) in enumerate(numbered):
                if kp + kq > self.half_top:
                    continue
                entries = forms[tuple(map(add, mp, mq))]
                for r, (kr, mr) in enumerate(numbered):
                    if kp + kq + kr != self.half_top:
                        continue
                    value = 0
                    for s, c in entries:
                        top = forms[tuple(map(add, numbered[s][1], mr))]
                        value += sum(c * v for _, v in top)
                    if value:
                        out.append((p, q, r, self.integration_value * value))
        return tuple(out)


@dataclass(frozen=True)
class TwistingClasses:
    """One degree-2 base class per fiber lattice coordinate."""

    classes: tuple[CohomologyClass, ...]

    def __post_init__(self):
        if any(cls != cls.component(1) for cls in self.classes):
            raise ValueError("twisting classes must be pure degree 2")


class BundleRing(GradedQuotientRing):
    """Cohomology of a toric variety bundle over a presented base.

    The fiber ring with base-class coefficients, certified against the fiber
    ring's basis plan and solved on its cones with the fiber ring's
    inverses, the fiber fan's dual rows.  Relation i is sum_rho rel_i[rho]
    x_rho + lambda_i = 0, so on a cone the rewrite of its k-th ray gains the
    constant mu_k = -sum_j inv[k][j] lambda_j, and the row of a face S,
    x_tau times sum_j inv[k][j] relation_j (tau = S - {k}), carries the
    cofactors c_j = inv[k][j] of lambda_j x_tau.  ``dim`` is the complex
    dimension of the total space; fiber monomials of higher degree vanish.
    It is set after GradedQuotientRing's constructor, whose rank checks
    read the fiber's dimension and the fiber ring's face masks.
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
        self.fiber = fiber
        self.fiber_ring = build_ring(fiber)
        self._zero = base.zero()
        self._one = base.unit()
        self._lam = lam.classes
        self._constants: dict = {}
        super().__init__(
            fiber.ray_count, fiber.dim, linear_relations(fiber),
            fiber.max_cones, self.fiber_ring.basis_plan,
            self.fiber_ring.face_masks, "bundle ring", self.fiber_ring.inverses,
        )
        self.dim = self.monomial_cap = base.half_top + fiber.dim
        # fiber-first integration keeps the top fiber basis monomial's
        # coefficient, with the fiber's point sign
        self._point = self.fiber_ring._point_data()

    def _constant(self, cone: frozenset, rho: int) -> CohomologyClass:
        """mu_rho on the cone, solved on first need and kept by the ring."""
        key = cone, rho
        if key not in self._constants:
            self._constants[key] = self._rewrite_constant(
                self._rewrites[cone][rho][1])
        return self._constants[key]

    def _solve_rewrites(self) -> dict:
        """The fiber ring's rewrites: the relations and inverse rows are
        the fiber ring's, and the constants come apart (``_constant``)."""
        return self.fiber_ring._rewrites

    def _rewrite_constant(self, inverse_row) -> CohomologyClass:
        """mu_k = -sum_j inv[k][j] lambda_j, from inverse_row = inv[k]."""
        mu = self._zero
        for inv, lam in zip(inverse_row, self._lam):
            mu = mu - inv * lam
        return mu

    def _row_payload(self, tau_pos, inverse_row) -> dict:
        """The row's lambda cofactors, {(j, position of tau): inv[k][j]}."""
        return {(j, tau_pos): c for j, c in enumerate(inverse_row) if c}

    def point_class(self):
        raise ValueError("the bundle ring has no point class: pair classes "
                         "with integrate")

    @property
    def _coefficient_triples(self) -> tuple:
        return self.base.triple_intersections


def build_bundle_ring(base: BasePresentation, lam: TwistingClasses,
                      fiber: Fan) -> BundleRing:
    return BundleRing(base, lam, fiber)


def total_chern_general(ring: BundleRing) -> CohomologyClass:
    """Image of c(TB) times the product of (1 + x_tau) over fiber rays."""
    pulled = ring.reduce_poly({(0,) * ring.ray_count: ring.base.chern})
    return pulled * ring.face_sum()


def chern_numbers_bundle(ring: BundleRing,
                         total: CohomologyClass) -> dict[tuple[int, ...], int]:
    """Chern numbers of the total space via the presented-base route."""
    return chern_numbers(ring, total)


def _linear_poly(coeffs) -> Poly:
    """The linear form sum_i coeffs[i] * x_i as a polynomial."""
    n = len(coeffs)
    return {tuple(int(i == j) for i in range(n)): c
            for j, c in enumerate(coeffs) if c}


def presentation_from_fan(f: Fan, name: str = "") -> BasePresentation:
    """Package the cohomology ring of a smooth complete fan as a presentation."""
    ring = build_ring(f)
    generators = [(f"x{i}", 2) for i in range(f.ray_count)]
    relations: list[Poly] = []
    for nonface in sorted(ring.nonfaces, key=sorted):
        mono = tuple(1 if i in nonface else 0 for i in range(f.ray_count))
        relations.append({mono: 1})
    relations += map(_linear_poly, ring.relations)
    basis = {
        k: ring.basis_monomials(k) for k in range(f.dim + 1)
    }
    return BasePresentation(
        name=name or f"H*({f.ray_count} rays, dim {f.dim})",
        generators=generators,
        relations=relations,
        basis=basis,
        top_degree=2 * f.dim,
        integration=ring._point_data(),
        chern=face_monomial_sum(ring.face_masks, f.ray_count),
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
        classes.append(base_pres.reduce_poly(_linear_poly(coeffs)))
    return TwistingClasses(classes=tuple(classes))
