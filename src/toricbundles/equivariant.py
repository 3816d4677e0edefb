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
from operator import add

from .cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    _certified_ring,
    build_ring,
    face_monomial_sum,
)
from .formats import polynomial_to_text
from .lattice import IntVector, hermite_normal_form, invert_unimodular, transpose
from .twist import CharacteristicPair, validate_pair

DEGREE_BOUND_LIMIT = 4
"""A face ring's degree bound is at most this many times the complex
dimension: face rings are nonzero in every degree, and the face monomials
of a degree grow without end."""


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
        return WeightPolynomial(n, {
            tuple(int(i == k) for i in range(n)): c
            for k, c in enumerate(coeffs)
        })

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
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPolynomial(
                self.nvars, {k: other * v for k, v in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(map(add, k1, k2))
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
        """Replace each t_k by an integer linear form in new variables.

        The one expansion of products of linear forms.  Monomials are
        expanded in sorted order, each from its memoised prefix:
        x^e = x^(e - e_k) t_k for the last variable t_k of x^e costs one
        product with a linear form.
        """
        if len(forms) != self.nvars:
            raise ValueError("need one linear form per variable")
        nvars = len(forms[0]) if forms else 0
        linear = [[(j, c) for j, c in enumerate(f) if c] for f in forms]
        memo = {(0,) * self.nvars: {(0,) * nvars: 1}}

        def expand(exps):
            if exps not in memo:
                k = max(i for i, e in enumerate(exps) if e)
                prefix = expand(exps[:k] + (exps[k] - 1,) + exps[k + 1:])
                product = {}
                for m, v in prefix.items():
                    for j, c in linear[k]:
                        key = m[:j] + (m[j] + 1,) + m[j + 1:]
                        product[key] = product.get(key, 0) + v * c
                memo[exps] = product
            return memo[exps]

        out = {}
        for exps in sorted(self.terms):
            for m, v in expand(exps).items():
                out[m] = out.get(m, 0) + self.terms[exps] * v
        return WeightPolynomial(nvars, out)

    def __repr__(self):
        return polynomial_to_text(
            self.terms, [f"t{k + 1}" for k in range(self.nvars)]
        )


def face_ring(p: CharacteristicPair, degree_bound=None) -> GradedQuotientRing:
    """Stanley-Reisner quotient with no linear relations, truncated.

    ``degree_bound`` is cohomological (even, at most DEGREE_BOUND_LIMIT
    times n); the default 2n keeps every degree the downstream checks
    use.  Per-degree ranks are pure face statistics: every face monomial
    is a basis element.
    """
    validate_pair(p)
    f = p.complex
    bound = 2 * f.dim if degree_bound is None else degree_bound
    if bound < 0 or bound % 2:
        raise ValueError("degree bound must be a nonnegative even integer")
    if bound > DEGREE_BOUND_LIMIT * f.dim:
        raise ValueError(
            f"degree bound {bound} exceeds the limit DEGREE_BOUND_LIMIT * dim "
            f"= {DEGREE_BOUND_LIMIT} * {f.dim} = {DEGREE_BOUND_LIMIT * f.dim}"
        )
    return GradedQuotientRing(
        ray_count=f.ray_count,
        dim=f.dim,
        relations=(),
        max_cones=f.max_cones,
        degree_cap=bound // 2,
        kind="face ring",
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
    return transpose(invert_unimodular(p.charmap_matrix(sigma)))


def restrict_to_fixed_point(p: CharacteristicPair, cls: CohomologyClass,
                            sigma) -> WeightPolynomial:
    """Localize a face-ring class at the fixed point of a maximal cone.

    Generators outside the cone go to 0; the i-th generator of the cone
    goes to the linear form of the dual-basis weight u_i.
    """
    sigma = frozenset(sigma)
    return _restrict(p, cls.to_poly(), sigma, fixed_point_weights(p, sigma))


def _restrict(p, poly: dict, sigma, weights) -> WeightPolynomial:
    # The terms supported in the cone, in its variables; one substitution.
    rays = sorted(sigma)
    outside = [r for r in range(p.complex.ray_count) if r not in sigma]
    local = {
        tuple(map(mono.__getitem__, rays)): coeff
        for mono, coeff in poly.items()
        if not any(map(mono.__getitem__, outside))
    }
    return WeightPolynomial(len(rays), local).substitute(weights)


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
        fixed_points = []
        for c in self.checks:
            # Equal polynomials print identically: render a passed one once.
            restricted = repr(c.restricted)
            fixed_points.append({
                "cone": list(c.cone),
                "weights": [list(w) for w in c.weights],
                "restricted": restricted,
                "expected": restricted if c.passed else repr(c.expected),
                "passed": c.passed,
            })
        return {"passed": self.passed, "fixed_points": fixed_points}


def masuda_check(p: CharacteristicPair) -> MasudaReport:
    """Verify the equivariant Chern formula at every fixed point.

    At each maximal cone the restriction of prod(1 + x_rho) must equal the
    product of (1 + u_i) over the cone's dual-basis weights, as exact
    integer weight polynomials.
    """
    validate_pair(p)
    one = WeightPolynomial.constant(p.complex.dim, 1)
    total = equivariant_total_chern(p)
    poly = total.to_poly()
    checks = []
    for sigma in p.complex.max_cones:
        weights = fixed_point_weights(p, sigma)
        rhs = one
        for w in weights:
            rhs = rhs * (one + WeightPolynomial.linear(w))
        checks.append(FixedPointCheck(
            tuple(sorted(sigma)), weights, _restrict(p, poly, sigma, weights), rhs
        ))
    return MasudaReport(checks=tuple(checks), total=total)


@cache
def ordinary_ring(p: CharacteristicPair) -> GradedQuotientRing:
    """The ordinary cohomology ring of a pair: charmap values as relations.

    Cached, and a tautological toric pair gets the (shared) build_ring of
    its fan, so classes computed both ways are directly comparable; any
    other pair gets the same certified construction and rank checks.
    """
    validate_pair(p)
    f = p.complex
    if p.charmap == f.rays:
        return build_ring(f)
    relations = [
        tuple(p.charmap[rho][i] for rho in range(f.ray_count))
        for i in range(f.dim)
    ]
    return _certified_ring(f, relations, "pair ring")


def forget(p: CharacteristicPair, cls: CohomologyClass,
           target: GradedQuotientRing | None = None) -> CohomologyClass:
    """Pass from the equivariant model to ordinary cohomology.

    Imposes the linear relations read off the charmap; the image of the
    equivariant total Chern class is the ordinary one.
    """
    ring = target if target is not None else ordinary_ring(p)
    return ring.reduce_poly(cls.to_poly())


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
    # t_k -> sum_j u[j][k] y_j turns the form into y_1.
    image = (a - b).substitute(transpose(u))
    return all(exps[0] > 0 for exps in image.terms)
