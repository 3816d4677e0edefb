"""Equivariant cohomology of characteristic pairs.

The model is the face ring (Stanley-Reisner quotient with no linear
relations), truncated at a caller-chosen degree; equivariant total Chern
classes restrict at the fixed points of maximal cones to products over
dual-basis weights, which is the content of the Masuda-formula check.
The weight convention: u_i is dual to the charmap values of the cone,
<u_i, Lambda(rho_j)> = delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    build_ring,
    face_monomial_sum,
    fixed_point_basis_plan,
    h_vector,
)
from .formats import polynomial_to_text
from .lattice import IntVector, hermite_normal_form, invert_unimodular
from .twist import CharacteristicPair, validate_pair


class WeightPolynomial:
    """Integer polynomial in the degree-2 generators t_1..t_n of H*(BT)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def constant(nvars: int, value: int) -> "WeightPolynomial":
        return WeightPolynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def linear(coeffs: IntVector) -> "WeightPolynomial":
        n = len(coeffs)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if i == k else 0 for i in range(n))] = c
        return WeightPolynomial(n, terms)

    def _check(self, other):
        if not isinstance(other, WeightPolynomial) or other.nvars != self.nvars:
            raise ValueError("weight polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return WeightPolynomial(self.nvars, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) - v
        return WeightPolynomial(self.nvars, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPolynomial(
                self.nvars, {k: other * v for k, v in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                terms[k] = terms.get(k, 0) + v1 * v2
        return WeightPolynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, WeightPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, forms: list[IntVector]) -> "WeightPolynomial":
        """Replace each t_k by an integer linear form in new variables."""
        if len(forms) != self.nvars:
            raise ValueError("need one linear form per variable")
        nvars = len(forms[0]) if forms else 0
        out = WeightPolynomial(nvars)
        for exps, coeff in self.terms.items():
            term = WeightPolynomial.constant(nvars, coeff)
            for k, e in enumerate(exps):
                linear = WeightPolynomial.linear(forms[k])
                for _ in range(e):
                    term = term * linear
            out = out + term
        return out

    def __repr__(self):
        return polynomial_to_text(
            self.terms, [f"t{k + 1}" for k in range(self.nvars)]
        )


def face_ring(p: CharacteristicPair, degree_bound=None) -> GradedQuotientRing:
    """Stanley-Reisner quotient with no linear relations, truncated.

    ``degree_bound`` is cohomological (even); the default 2n keeps every
    degree the downstream checks use.  Per-degree ranks are pure face
    statistics: every face monomial is a basis element.
    """
    validate_pair(p)
    f = p.complex
    bound = 2 * f.dim if degree_bound is None else degree_bound
    if bound < 0 or bound % 2:
        raise ValueError("degree bound must be a nonnegative even integer")
    return GradedQuotientRing(
        ray_count=f.ray_count,
        dim=f.dim,
        relations=(),
        max_cones=f.max_cones,
        degree_cap=bound // 2,
    )


def equivariant_total_chern(p: CharacteristicPair,
                            degree_bound=None) -> CohomologyClass:
    """Reduced product of (1 + x_rho) in the (truncated) face ring."""
    ring = face_ring(p, degree_bound)
    return ring.reduce_poly(face_monomial_sum(ring.faces, ring.ray_count))


def fixed_point_weights(p: CharacteristicPair, sigma) -> tuple[IntVector, ...]:
    """Dual-basis weights u_i of a maximal cone, <u_i, Lambda(rho_j)> = delta_ij.

    Order follows the sorted ray indices of the cone.  Raises if the cone
    is not maximal in the pair or its charmap values are not a basis.
    """
    sigma = frozenset(sigma)
    if sigma not in p.complex.max_cones:
        raise ValueError(f"{sorted(sigma)} is not a maximal cone of the pair")
    inverse = invert_unimodular(p.charmap_matrix(sigma))
    n = p.complex.dim
    return tuple(
        tuple(inverse[k][i] for k in range(n)) for i in range(n)
    )


def restrict_to_fixed_point(p: CharacteristicPair, cls: CohomologyClass,
                            sigma) -> WeightPolynomial:
    """Localize a face-ring class at the fixed point of a maximal cone.

    Generators outside the cone go to 0; the i-th generator of the cone
    goes to the linear form of the dual-basis weight u_i.
    """
    sigma = frozenset(sigma)
    weights = fixed_point_weights(p, sigma)
    rays = sorted(sigma)
    ray_to_weight = dict(zip(rays, weights))
    ring = cls.ring
    n = p.complex.dim
    out = WeightPolynomial(n)
    for d, part in enumerate(cls.parts):
        basis = ring.basis_monomials(d)
        for mono, coeff in zip(basis, part):
            if coeff == 0:
                continue
            support = [i for i, e in enumerate(mono) if e]
            if any(i not in sigma for i in support):
                continue
            term = WeightPolynomial.constant(n, coeff)
            for i in support:
                linear = WeightPolynomial.linear(ray_to_weight[i])
                for _ in range(mono[i]):
                    term = term * linear
            out = out + term
    return out


@dataclass(frozen=True)
class FixedPointCheck:
    cone: tuple[int, ...]
    weights: tuple[IntVector, ...]
    restricted: WeightPolynomial
    expected: WeightPolynomial

    @property
    def passed(self) -> bool:
        return self.restricted == self.expected


@dataclass(frozen=True)
class MasudaReport:
    """Per-fixed-point comparison of the restricted equivariant Chern class.

    ``total`` is the equivariant total Chern class that was restricted, in
    the face ring of the default degree bound.
    """

    checks: tuple[FixedPointCheck, ...]
    total: CohomologyClass

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "fixed_points": [
                {
                    "cone": list(c.cone),
                    "weights": [list(w) for w in c.weights],
                    "restricted": repr(c.restricted),
                    "expected": repr(c.expected),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def masuda_check(p: CharacteristicPair) -> MasudaReport:
    """Verify the equivariant Chern formula at every fixed point.

    At each maximal cone the restriction of prod(1 + x_rho) must equal the
    product of (1 + u_i) over the cone's dual-basis weights, as exact
    integer weight polynomials.
    """
    validate_pair(p)
    n = p.complex.dim
    total = equivariant_total_chern(p)
    checks = []
    for sigma in p.complex.max_cones:
        weights = fixed_point_weights(p, sigma)
        lhs = restrict_to_fixed_point(p, total, sigma)
        rhs = WeightPolynomial.constant(n, 1)
        for w in weights:
            rhs = rhs * (
                WeightPolynomial.constant(n, 1) + WeightPolynomial.linear(w)
            )
        checks.append(
            FixedPointCheck(
                cone=tuple(sorted(sigma)),
                weights=weights,
                restricted=lhs,
                expected=rhs,
            )
        )
    return MasudaReport(checks=tuple(checks), total=total)


@cache
def ordinary_ring(p: CharacteristicPair) -> GradedQuotientRing:
    """The ordinary cohomology ring of a pair: charmap values as relations.

    Cached, and a tautological toric pair gets the (shared) build_ring of
    its fan, so classes computed both ways are directly comparable.
    """
    validate_pair(p)
    f = p.complex
    if p.charmap == f.rays:
        return build_ring(f)
    relations = [
        tuple(p.charmap[rho][i] for rho in range(f.ray_count))
        for i in range(f.dim)
    ]
    return GradedQuotientRing(
        ray_count=f.ray_count,
        dim=f.dim,
        relations=relations,
        max_cones=f.max_cones,
        degree_cap=f.dim,
        basis_plan=fixed_point_basis_plan(
            f.ray_count, f.dim, f.max_cones, f.rays, h_vector(f)
        ),
    )


def forget(p: CharacteristicPair, cls: CohomologyClass,
           target: GradedQuotientRing | None = None) -> CohomologyClass:
    """Pass from the equivariant model to ordinary cohomology.

    Imposes the linear relations read off the charmap; the image of the
    equivariant total Chern class is the ordinary one.
    """
    ring = target if target is not None else ordinary_ring(p)
    poly = {}
    for d, part in enumerate(cls.parts):
        if d > ring.degree_cap:
            break
        basis = cls.ring.basis_monomials(d)
        for mono, coeff in zip(basis, part):
            if coeff:
                poly[mono] = poly.get(mono, 0) + coeff
    return ring.reduce_poly(poly)


def congruent_mod_form(a: WeightPolynomial, b: WeightPolynomial,
                       form: IntVector) -> bool:
    """Whether two weight polynomials agree modulo a primitive linear form.

    Used for the GKM-style wall consistency of fixed-point restrictions:
    rewrite in coordinates where the form becomes the first variable and
    check that the difference has no term avoiding it.
    """
    column = tuple((c,) for c in form)
    h, u = hermite_normal_form(column)
    if h[0] != (1,):
        raise ValueError(f"linear form {form} is not primitive")
    n = len(form)
    # t_k -> sum_j u[j][k] y_j turns the form into y_1.
    substitution = [tuple(u[j][k] for j in range(n)) for k in range(n)]
    image = (a - b).substitute(substitution)
    return all(exps[0] > 0 for exps in image.terms)
