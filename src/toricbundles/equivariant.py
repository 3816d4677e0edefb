"""Equivariant cohomology of characteristic pairs.

The model is the face ring Z[x_rho]/I_Sigma, ``FaceRing``, truncated at a
caller-chosen degree: a GradedRing whose columns are the face monomials
of each degree, every one a basis monomial, so nothing is eliminated and
its total Chern class prod (1 + x_rho) is 1 on every squarefree column.
The ordinary rings (fan, pair, bundle) are its quotients by linear
relations, ``cohomology.GradedQuotientRing``, and ``forget`` passes to
the pair's.  Equivariant total Chern classes restrict at the fixed
points of maximal cones to products over dual-basis weights, which is
the content of the Masuda-formula check.
The weight convention: u_i is dual to the charmap values of the cone,
<u_i, Lambda(rho_j)> = delta_ij.

The check computes each side once per fixed point, by its own code.  The
class's terms are indexed by support bitmask once; a cone reads only the
submasks of its own mask, packs those terms in its variables and makes
one ``WeightPolynomial.substitute`` call (Horner's rule, which reuses a
repeated cofactor's image).  The expected product of (1 + u_i) is
expanded from the weights alone, on packed keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

from .cohomology import (
    CohomologyClass,
    GradedPiece,
    GradedQuotientRing,
    GradedRing,
    _certified_ring,
    build_ring,
)
from .faces import face_monomials, walk_faces
from .formats import join_terms, monomial_texts
from .lattice import IntVector, RingConsistencyError
from .twist import CharacteristicPair, weight_table

DEGREE_BOUND_LIMIT = 4
"""A face ring's degree bound is at most this many times the complex
dimension: face rings are nonzero in every degree, and the face monomials
of a degree grow without end."""

FIELD_BITS = 8
"""Width of each field of a packed weight monomial.  The key of t^e in n
variables holds sum(e) in its top field, then e_1, ..., e_n, each in its
own field, so a product of monomials is one integer addition and integer
order is the render order (total degree, then exponents)."""
_FIELD_MAX = (1 << FIELD_BITS) - 1


@cache
def _units(nvars: int) -> tuple[int, ...]:
    """The packed keys of t_1, ..., t_n: degree 1, exponent 1 in one field."""
    degree = 1 << FIELD_BITS * nvars
    return tuple(degree | 1 << FIELD_BITS * (nvars - 1 - k) for k in range(nvars))


@cache
def _key_texts(nvars: int) -> dict[int, str]:
    """{packed key: monomial text} in t1..tn, filled as polynomials render.
    A packed key means a monomial only for its number of variables, so
    each number has its own table."""
    return {}


def _exponents(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent vector of a packed key."""
    return tuple(
        key >> FIELD_BITS * (nvars - 1 - k) & _FIELD_MAX for k in range(nvars)
    )


def _degree_limit(degree: int) -> None:
    if degree > _FIELD_MAX:
        raise ValueError(
            f"weight monomial degree {degree} exceeds the field limit "
            f"2**FIELD_BITS - 1 = {_FIELD_MAX}"
        )


class WeightPolynomial:
    """Integer polynomial in the degree-2 generators t_1..t_n of H*(BT).

    Terms are kept under packed monomial keys (see FIELD_BITS); ``terms``
    is the read-only view by exponent tuples.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        units = _units(nvars)
        packed = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError(
                    f"{exps} is not an exponent vector of {nvars} variables"
                )
            _degree_limit(sum(exps))
            if coeff:
                packed[sum(e * u for e, u in zip(exps, units))] = coeff
        self.nvars = nvars
        self._terms = packed

    @staticmethod
    def _packed(nvars: int, terms: dict) -> "WeightPolynomial":
        """From packed keys, dropping zero coefficients."""
        out = object.__new__(WeightPolynomial)
        out.nvars = nvars
        out._terms = {k: v for k, v in terms.items() if v}
        return out

    @property
    def terms(self):
        return MappingProxyType({
            _exponents(key, self.nvars): coeff
            for key, coeff in self._terms.items()
        })

    @staticmethod
    def constant(nvars: int, value: int) -> "WeightPolynomial":
        return WeightPolynomial._packed(nvars, {0: value})

    @staticmethod
    def linear(coeffs: IntVector) -> "WeightPolynomial":
        return WeightPolynomial._packed(
            len(coeffs), dict(zip(_units(len(coeffs)), coeffs))
        )

    def _check(self, other):
        if not isinstance(other, WeightPolynomial) or other.nvars != self.nvars:
            raise ValueError("weight polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        terms = self._terms.copy()
        for k, v in other._terms.items():
            terms[k] = terms.get(k, 0) + v
        return WeightPolynomial._packed(self.nvars, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPolynomial._packed(
                self.nvars, {k: other * v for k, v in self._terms.items()}
            )
        self._check(other)
        a, b = self._terms, other._terms
        if a and b:
            # the largest key has the largest degree, in the top field
            _degree_limit((max(a) + max(b)) >> FIELD_BITS * self.nvars)
        terms = {}
        get = terms.get
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                terms[k] = get(k, 0) + v1 * v2
        return WeightPolynomial._packed(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, WeightPolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self._terms

    def substitute(self, forms: list[IntVector]) -> "WeightPolynomial":
        """Replace each t_k by an integer linear form in new variables.

        Exact for every polynomial, by Horner's rule in one variable at a
        time: P = sum_e t_1^e P_e is ((P_top L_1 + ...) L_1 + P_0) for the
        form L_1 of t_1, and each cofactor P_e is substituted the same way
        in t_2, ..., t_n.  A cofactor equal to the one substituted just
        before it reuses that image, so 1 + t_1 times anything costs one
        substitution and one product with a linear form.
        """
        n = self.nvars
        if len(forms) != n:
            raise ValueError("need one linear form per variable")
        target = _units(len(forms[0]) if forms else 0)
        linear = [[(target[j], c) for j, c in enumerate(f) if c] for f in forms]
        unit = _units(n)

        def horner(terms: dict, k: int) -> dict:
            if k == n:  # only the constant key is left
                return terms
            shift = FIELD_BITS * (n - 1 - k)
            cofactors = {}
            for key, v in terms.items():
                e = key >> shift & _FIELD_MAX
                cofactors.setdefault(e, {})[key - e * unit[k]] = v
            out, last, image, form = {}, None, {}, linear[k]
            for e in range(max(cofactors, default=-1), -1, -1):
                cofactor = cofactors.get(e)
                if cofactor and cofactor != last:
                    last, image = cofactor, horner(cofactor, k + 1)
                grown = image.copy() if cofactor else {}
                get = grown.get
                for m, v in out.items():
                    for u, c in form:
                        q = m + u
                        grown[q] = get(q, 0) + v * c
                out = grown
            return out

        return WeightPolynomial._packed(len(target), horner(self._terms, 0))

    def __repr__(self):
        """Terms in render order, through the shared joiner; monomial
        texts come from the table of this number of variables."""
        texts, terms = _key_texts(self.nvars), self._terms
        missing = [key for key in terms if key not in texts]
        if missing:
            names = [f"t{k + 1}" for k in range(self.nvars)]
            texts.update(zip(missing, monomial_texts(
                [_exponents(key, self.nvars) for key in missing], names)))
        keys = sorted(terms)
        return join_terms(zip(map(terms.__getitem__, keys),
                              map(texts.__getitem__, keys)))


class FaceRing(GradedRing):
    """The face ring Z[x_rho]/I_Sigma, truncated above ``degree_cap``.

    Its columns are the face monomials of each degree, made in one pass
    over the face masks (``faces.face_monomials``), and every column is a
    basis column: nothing is eliminated, and any other monomial is zero.
    It has no point class: its pieces go on past the complex dimension.
    """

    def __init__(self, ray_count, dim, max_cones, degree_cap):
        self.ray_count = self._nvars = ray_count
        self.dim = dim
        self.degree_cap = self.monomial_cap = degree_cap
        self.face_masks = walk_faces(max_cones)
        columns = face_monomials(ray_count, self.face_masks, degree_cap)
        self._degrees = [GradedPiece(m, {c: i for i, c in enumerate(m)}, {},
                                     {}, range(len(m)), m) for m in columns]
        self._lay_out()

    def face_sum(self) -> CohomologyClass:
        """prod (1 + x_rho): 1 on every squarefree column, 0 elsewhere.  A
        monomial of degree d is squarefree when it has d nonzero exponents."""
        return CohomologyClass._of(self, tuple(
            int(m.count(0) == self.ray_count - d)
            for m, d in zip(self._basis, self._basis_degrees)))

    def _point_data(self):
        cap, top = 2 * self.degree_cap, 2 * self.dim
        if top > cap:
            raise ValueError(f"ring is truncated at degree {cap}, below its "
                             f"top degree {top}: it has no point class")
        raise RingConsistencyError("face ring has no point class: its top "
                                   "face monomials are independent")


def face_ring(p: CharacteristicPair, degree_bound=None) -> FaceRing:
    """The face ring of a pair's complex, truncated.

    ``degree_bound`` is cohomological (even, at most DEGREE_BOUND_LIMIT
    times n); the default 2n keeps every degree the downstream checks
    use.  Per-degree ranks are pure face statistics: every face monomial
    is a basis element.
    """
    weight_table(p)
    f = p.complex
    bound = 2 * f.dim if degree_bound is None else degree_bound
    if bound < 0 or bound % 2:
        raise ValueError("degree bound must be a nonnegative even integer")
    if bound > DEGREE_BOUND_LIMIT * f.dim:
        raise ValueError(
            f"degree bound {bound} exceeds the limit DEGREE_BOUND_LIMIT * dim "
            f"= {DEGREE_BOUND_LIMIT} * {f.dim} = {DEGREE_BOUND_LIMIT * f.dim}"
        )
    return FaceRing(f.ray_count, f.dim, f.max_cones, bound // 2)


def equivariant_total_chern(p: CharacteristicPair,
                            degree_bound=None) -> CohomologyClass:
    """Product of (1 + x_rho) in the (truncated) face ring."""
    return face_ring(p, degree_bound).face_sum()


def fixed_point_weights(p: CharacteristicPair, sigma) -> tuple[IntVector, ...]:
    """Dual-basis weights u_i of a maximal cone, <u_i, Lambda(rho_j)> = delta_ij.

    Order follows the sorted ray indices of the cone.  Raises if the cone
    is not maximal in the pair or the pair is not nonsingular.
    """
    sigma = frozenset(sigma)
    cones = p.complex.max_cones
    if sigma not in cones:
        raise ValueError(f"{sorted(sigma)} is not a maximal cone of the pair")
    return weight_table(p).rows[cones.index(sigma)]


def restrict_to_fixed_point(p: CharacteristicPair, cls: CohomologyClass,
                            sigma) -> WeightPolynomial:
    """Localize a face-ring class at the fixed point of a maximal cone.

    Generators outside the cone go to 0; the i-th generator of the cone
    goes to the linear form of the dual-basis weight u_i.
    """
    sigma = frozenset(sigma)
    weights = fixed_point_weights(p, sigma)
    return _restrict(_supported_terms(cls), sigma, weights)


def _supported_terms(cls: CohomologyClass) -> dict:
    """The terms of a class by support bitmask: {mask: [([(ray, exponent)],
    coeff)]}."""
    _degree_limit(len(cls.ring.betti()) - 1)
    out = {}
    for mono, coeff in cls.to_poly().items():
        sparse = [(r, e) for r, e in enumerate(mono) if e]
        mask = sum(1 << r for r, _ in sparse)
        out.setdefault(mask, []).append((sparse, coeff))
    return out


def _restrict(terms: dict, sigma, weights) -> WeightPolynomial:
    # The terms whose support is a submask of the cone's, packed in its
    # variables; one substitution.
    rays = sorted(sigma)
    slot = dict(zip(rays, _units(len(rays))))
    cone = sub = sum(1 << r for r in rays)
    local = {}
    while True:
        for sparse, coeff in terms.get(sub, ()):
            local[sum(e * slot[r] for r, e in sparse)] = coeff
        if not sub:
            break
        sub = (sub - 1) & cone
    return WeightPolynomial._packed(len(rays), local).substitute(weights)


@dataclass(frozen=True)
class FixedPointCheck:
    cone: tuple[int, ...]
    weights: tuple[IntVector, ...]
    restricted: WeightPolynomial
    expected: WeightPolynomial

    @cached_property
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

    def rendered(self) -> list:
        """(check, restricted text, expected text) per fixed point.

        Equal polynomials print identically, so a passed point's
        polynomial is rendered once.
        """
        out = []
        for c in self.checks:
            restricted = repr(c.restricted)
            expected = restricted if c.passed else repr(c.expected)
            out.append((c, restricted, expected))
        return out

    def to_dict(self) -> dict:
        fixed_points = [
            {
                "cone": list(c.cone),
                "weights": [list(w) for w in c.weights],
                "restricted": restricted,
                "expected": expected,
                "passed": c.passed,
            }
            for c, restricted, expected in self.rendered()
        ]
        return {"passed": self.passed, "fixed_points": fixed_points}


def masuda_check(p: CharacteristicPair) -> MasudaReport:
    """Verify the equivariant Chern formula at every fixed point.

    At each maximal cone the restriction of prod(1 + x_rho) must equal the
    product of (1 + u_i) over the cone's dual-basis weights, as exact
    integer weight polynomials.
    """
    table = weight_table(p)
    n = p.complex.dim
    units = _units(n)
    total = equivariant_total_chern(p)
    terms = _supported_terms(total)
    checks = []
    for sigma, weights in zip(p.complex.max_cones, table.rows):
        expected = {0: 1}
        for w in weights:  # times (1 + u_i), on packed keys
            factor = expected.copy()
            get = factor.get
            linear = [(u, c) for u, c in zip(units, w) if c]
            for m, v in expected.items():
                for u, c in linear:
                    q = m + u
                    factor[q] = get(q, 0) + v * c
            expected = factor
        checks.append(FixedPointCheck(
            tuple(sorted(sigma)), weights, _restrict(terms, sigma, weights),
            WeightPolynomial._packed(n, expected),
        ))
    return MasudaReport(checks=tuple(checks), total=total)


@cache
def ordinary_ring(p: CharacteristicPair) -> GradedQuotientRing:
    """The ordinary cohomology ring of a pair: charmap values as relations.

    Cached, and a tautological toric pair gets the (shared) build_ring of
    its fan, so classes computed both ways are directly comparable; any
    other pair gets the same certified construction and rank checks, with
    its weight table as the relations' inverses on the cones.
    """
    table = weight_table(p)
    f = p.complex
    if p.charmap == f.rays:
        return build_ring(f)
    relations = [
        tuple(p.charmap[rho][i] for rho in range(f.ray_count))
        for i in range(f.dim)
    ]
    return _certified_ring(f, relations, "pair ring", table.rows)


def forget(p: CharacteristicPair, cls: CohomologyClass) -> CohomologyClass:
    """Pass from the equivariant model to the pair's ``ordinary_ring``.

    Imposes the linear relations read off the charmap; the image of the
    equivariant total Chern class is the ordinary one.
    """
    return ordinary_ring(p).reduce_poly(cls.to_poly())
