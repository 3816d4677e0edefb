"""Graded quotient rings Z[x_ray]/(Stanley-Reisner + linear relations).

Per-degree integer monomial bases are certified by exact sparse
elimination with unit pivots only, one left-to-right pass per degree
(``lattice.graded_eliminate``); reduction to normal form,
multiplication, integration against the point class, and
Betti/h-vector bookkeeping all live here.  Monomials are
exponent tuples over the ray indices, ordered lexicographically with
smaller ray indices first, and the elimination walks columns left to
right, so bases and coefficient vectors are bit-stable across runs.

GradedRing is the one ring skeleton, also of the presented base and the
bundle ring in ``bundlering`` and of the face ring in ``equivariant``:
every ring stores one GradedPiece per degree (columns, unit pivots keyed
by column certifying a planned basis, the basis monomials), and
reduce_poly, multiply, integrate, the pairing ``integrate_product`` (the
top-degree integral of a product, read off an integer form) and the
ranks are written once.  Rings differ in three hooks: the degree of a
monomial, its normal form (the cone rewrite here, the column itself on a
presentation) and the sign of the top basis monomial's integral, and in
their coefficient ring: Z, or the base classes of a bundle ring.  When a
ring is built, its basis monomials are numbered across degrees, lowest
first, and fixed.  CohomologyClass is the one class type of every ring:
one flat tuple of coefficients over that numbering, so a sum, a scalar
multiple, a test for zero or equality is one tuple operation, also on
the base classes a bundle class holds as coefficients; its per-degree
parts are a view for reports, and its components are taken by total
degree (a base class coefficient by its own).  A quotient ring's
face_sum, its class of prod (1 + x_rho), sums its columns' forms, as
every face is a column; ``faces.face_monomial_sum`` writes the same
expansion as a polynomial, for a presentation's Chern class and the
fiber factor of the bundle formula.
The bundle ring is a GradedQuotientRing whose relations have the
twisting classes as constants (see ``bundlering``).  Minimal non-faces
are grown from the face masks, and a ring computes them only when they
are read.

Products go through one table of normal forms, NormalForms: {monomial:
its coordinates over the numbered basis}.  multiply is sum c1 * c2 *
NF(m1 * m2) over the nonzero terms of its factors' flat tuples, walked
against the numbered basis (the one product loop), the coefficients of
each product monomial summed first, and reduce_poly is sum c * NF(m);
both add the entries of each form straight into one flat tuple.  An
entry is solved on first read: the cone rewrite below trades one
repeated exponent and reads the entries of the monomials it reaches, so
each is solved once, down to columns, whose forms come straight off
their pivot rows (the basis entries negated, and a bundle pivot's lambda
payload carried one fiber degree down).  A fan, pair or bundle ring
hands out a new table per call, which the caller may hold across several
products (``chern_numbers`` holds one for all of its products), so no
table outlives its call on a cached ring; a presentation keeps one for
its lifetime.  No reduction walks the pivots: a normal form only ever
reads the pivot rows of the columns it reaches.  Every face is a column,
so face_sum, the total class, sums the column forms of each degree, with
no monomial built or rewritten, and it forms no product of its own: an
integer entry is lifted through the coefficient ring's unit, and a base
class entry added as it is.

Every ring pairs two classes on one integer form instead of multiplying
them.  A ring is a free module over its coefficient ring R on its basis
monomials m_i (degree d_i, the top one m_top of degree n): R is Z for a
fan ring or a presentation, a bundle over a point, and H*(B) for a
bundle ring over the base B.  Let e_p be R's basis classes (e_0 = 1 for
Z).  The relations are R-linear, so the normal form is too: for
a = sum a_i m_i and b = sum b_j m_j,

    NF(a b) = sum_ij a_i b_j NF(m_i m_j),   NF(m_i m_j) = sum_k T^k_ij m_k.

Integration is fiber-first: pi_* keeps only the coefficient of m_top,
with the point sign s of m_top, and int_R reads the top degree of R
(all of Z) and is zero elsewhere.  Write T_ij = T^top_ij, nonzero only
when n <= d_i + d_j, since the normal form keeps total degree and lowers
the degree over R, and K[p,q,r] = int_R e_p e_q e_r (K = 1 at p = q = r = 0
on Z).  Then

    int a b = s int_R sum_ij a_i b_j T_ij
            = sum_ij sum_pq a_i[p] b_j[q] M_ij[p][q],
    M_ij[p][q] = s sum_r T_ij[r] K[p,q,r].

K is nonzero only in total degree top of R, so the sum reads exactly the
top total-degree component of a b, as integrate((a*b).component(dim))
does.  Each T_ij is the top entry of one read of the call's table of
normal forms, K is read once per presentation off its table, and M, an
integer matrix per basis pair, is built once per table, on first use by
``integrate_product``: the pairing is then integer arithmetic only.

A quotient ring eliminates over the squarefree face monomials of each
degree, one column per face of that size.  A monomial with a repeated
exponent is first rewritten into them: on sigma, the home cone of its
support (below; ``face_masks`` maps each face to it), the relations
solve for each x_rho of sigma as an integer combination of the x_rho'
outside sigma, and trading one repeated factor lowers (degree - support
size), so the rewrite terminates.  The solve reads the inverse of the
relation matrix on sigma's rays, given to the ring as its basis plan is:
the dual rows of the fan's ``cone_duals`` table (the one Bareiss pass
per cone that validation and the plan read too), of the fiber fan's for
a bundle ring, or a pair's ``weight_table``.  Each cone's rewrite checks
that the rows invert the relations on its rays and is solved once, when
the ring is built, in ``_rewrites``; a bundle ring takes its fiber
ring's, solved on the same relations and rows.

A face is a ray bitmask (bit rho for each ray rho of it; see ``faces``),
and a ring's faces come from one walk of each maximal cone's submasks,
which also gives the h-vector by popcount.  The plan gives each maximal
cone sigma a set bad(sigma), and each face S lies in exactly one
interval [bad(sigma), sigma], its home (see fixed_point_basis_plan); the
constructor walks the intervals once, each as the submasks of sigma -
bad(sigma) by size, checking this, listing each degree's columns and
keeping each face's home cone in ``face_masks``, which the rewrite reads.
Degree d has one row per face S of size d but bad(sigma): x_{S-rho} *
(x_rho - rewrite of x_rho on sigma), rho the greatest ray of S outside
bad(sigma) (any would do; this one keeps a bundle ring's lambda payloads
sparse), so f_d - h_d rows for as many allowed columns, each addressed
by masks: S - rho is S with bit rho cleared, and its neighbours S - rho
+ rho' add one bit.  The rows lie in the ideal, so when unit-pivot
elimination certifies the quotient by them free on the plan, of rank
h_d, it maps onto H^{2d}, free of the same rank, isomorphically: bases
and coefficients are those of elimination over all face monomials, and
rows that fall short fail elimination, naming the column.  On a
projective fan the system is unit-triangular: each other term
x_{S-rho+rho'} (rho' not in sigma) lies in V(S-rho), and S-rho's home is
sigma, so its home's fixed point is in the closure of sigma's
Bialynicki-Birula cell, an order acyclic on every projective fan.  The
face ring itself, with no relations, is ``equivariant.FaceRing``: there
every face monomial is a basis column and nothing is eliminated.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from operator import add, itemgetter, mul, neg, sub
from typing import NamedTuple

from .fan import (
    GENERIC_DIRECTION_BUDGET,
    Fan,
    cone_duals,
    first_generic_coordinates,
    require_smooth_complete,
)
from .faces import (
    h_vector_of,
    mask_rays,
    nonfaces_of,
    ray_mask,
    squarefree,
    walk_faces,
)
from .lattice import IntVector, RingConsistencyError, graded_eliminate

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]

_new, _set = object.__new__, object.__setattr__


def minimal_nonfaces(f: Fan) -> list[frozenset[int]]:
    """Inclusion-minimal ray sets contained in no maximal cone."""
    return nonfaces_of(walk_faces(f.max_cones), f.ray_count)


def linear_relations(f: Fan) -> list[IntVector]:
    """One relation per lattice coordinate: entry at ray rho is rho's coordinate."""
    return [tuple(ray[i] for ray in f.rays) for i in range(f.dim)]


def fixed_point_basis_plan(f: Fan):
    """Each maximal cone's negative-coordinate ray set, in ``max_cones`` order.

    For each maximal cone take tau(sigma), the rays whose coordinate of
    the generic direction v (in the cone's ray basis) is negative; the
    squarefree monomials x_tau(sigma) are the classical per-degree basis
    of the quotient ring.  v is the point whose pairings
    ``first_generic_coordinates`` caches for the completeness certificate
    and localization: the first moment-curve point (1, t, t^2, ...) that
    pairs to nonzero with every cone's dual row in ``cone_duals``, so the
    sign of a coordinate is the sign Cramer's rule gives and the plan is
    deterministic.

    On any complete simplicial fan, projective or not, each face tau lies
    in exactly one interval [tau(sigma), sigma] (Fulton, *Introduction to
    Toric Varieties*, section 5.2).  Take p in the relative interior of
    tau and a small e > 0.  For a maximal cone sigma containing tau, the
    coordinates of p + e*v in sigma's ray basis are those of p (positive
    on tau, zero off it) plus e times those of v, so p + e*v is interior
    to sigma exactly when tau(sigma) <= tau.  And p + e*v lies on no wall
    hyperplane (v lies on none), so it is interior to exactly one maximal
    cone, which contains p and so, as cones meet in faces, tau.  So the
    intervals partition the faces: the sets tau(sigma) are distinct (each
    lies in its own interval only), and as an interval [tau, sigma] adds
    t^|tau| (1 + t)^(n - |tau|) to the face polynomial, the sets of each
    size k number h_k.  The ring walks the intervals and rejects a plan
    that does not partition the faces.  The plan depends only on the fan
    geometry; elimination later certifies it against whatever linear
    relations the ring carries.
    """
    cones = [sorted(cone) for cone in f.max_cones]
    for cone_sorted, dual in zip(cones, cone_duals(f).rows):
        if dual is None:
            raise RingConsistencyError(
                f"cone {cone_sorted} has linearly dependent rays"
            )
    coordinates = first_generic_coordinates(f)
    if coordinates is None:
        raise RingConsistencyError(
            "no generic direction yields a fixed-point basis plan among the "
            f"first {GENERIC_DIRECTION_BUDGET} moment-curve points (1, t, t^2, ...)"
        )
    return [
        frozenset(rho for rho, c in zip(cone_sorted, coords) if c < 0)
        for cone_sorted, coords in zip(cones, coordinates)
    ]


class GradedPiece(NamedTuple):
    """One degree of a graded ring: columns, unit pivots and the basis.

    ``monomials`` are the column monomials and ``index`` their positions;
    ``pivots`` are graded_eliminate's rows keyed by their columns (1 there,
    otherwise nonzero only on basis columns) and ``payloads`` the payloads
    that are not None, keyed the same way;
    ``basis_positions`` are the columns left without a pivot and
    ``basis`` their monomials.  Every ring in the package, the bundle ring
    included, stores one piece per degree.
    """

    monomials: tuple[Monomial, ...]
    index: dict
    pivots: dict
    payloads: dict
    basis_positions: tuple[int, ...]
    basis: tuple[Monomial, ...]

    @classmethod
    def build(cls, monomials, index, rows, planned, label: str) -> "GradedPiece":
        """Eliminate ``rows`` over the columns outside the planned basis.

        ``planned`` lists the basis monomials the elimination must
        certify.  ``label`` names the ring and degree in every error.
        """
        monomials = tuple(monomials)
        positions = set()
        for mono in planned:
            pos = index.get(mono)
            if pos is None:
                raise RingConsistencyError(
                    f"{label}: basis monomial {mono} is not a column "
                    "monomial of this degree"
                )
            if pos in positions:
                raise RingConsistencyError(
                    f"{label}: basis monomial {mono} is listed twice"
                )
            positions.add(pos)
        allowed = set(range(len(monomials))) - positions
        try:
            pivots = graded_eliminate(rows, allowed, monomials)
        except RingConsistencyError as exc:
            raise RingConsistencyError(f"{label}: {exc}") from exc
        basis = tuple(sorted(positions))
        return cls(monomials, index, {col: vec for col, vec, _ in pivots},
                   {col: payload for col, _, payload in pivots if payload},
                   basis, tuple(monomials[i] for i in basis))

    @property
    def rank(self) -> int:
        return len(self.basis_positions)


def _add_term(terms: dict, key, value) -> None:
    """terms[key] += value, dropping zeros; values are ints or classes."""
    if key in terms:
        value = terms[key] + value
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


class NormalForms(dict):
    """A ring's product table: {monomial: its normal form}, each solved once.

    An entry is the normal form's nonzero (flat basis position,
    coefficient) pairs, over the ring's basis numbered across degrees,
    lowest first, as a class's ``flat`` runs.  A missing entry is solved
    by the ring's ``_solve``, as a {position: coefficient} dict, on first
    read, and that reads the entries of the monomials it reaches, so every
    intermediate monomial is solved once too.  Fan, pair and bundle rings
    hand out a new table per call, so none outlives it; a presentation
    keeps one for its lifetime.  ``pairing`` is the ring's integer form
    read off this table, built on first use.
    """

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def __missing__(self, mono: Monomial) -> tuple:
        form = self[mono] = tuple(self.ring._solve(self, mono).items())
        return form

    @cached_property
    def pairing(self) -> dict:
        """The ring's integer form on this table (``GradedRing._pairing``)."""
        return self.ring._pairing(self)


class CohomologyClass:
    """A class of a ring: one flat tuple of coefficients over its basis.

    ``flat`` runs over the ring's basis monomials numbered across degrees,
    lowest degree first, as its table of normal forms numbers them, so
    sums, scalar multiples, truth, equality and hashing are each one tuple
    operation.  ``parts`` is the per-degree view, which reports read, and
    ``CohomologyClass(ring, parts)`` builds a class from it.  The ring is
    any GradedRing: a GradedQuotientRing or a BasePresentation, with
    integer coefficients, or a BundleRing, whose coefficients are classes
    over its base, so its degrees are total ones.  It is the one class
    type: products and integrals go through the ring's one skeleton.  A
    class is falsy exactly when it is zero, and immutable.
    """

    __slots__ = ("ring", "flat")

    def __init__(self, ring, parts):
        _set(self, "ring", ring)
        _set(self, "flat", tuple(itertools.chain.from_iterable(parts)))

    @staticmethod
    def _of(ring, flat: tuple) -> "CohomologyClass":
        """The class of ``flat``, a tuple over the ring's numbered basis."""
        cls = _new(CohomologyClass)
        _set(cls, "ring", ring)
        _set(cls, "flat", flat)
        return cls

    def __setattr__(self, name, value):
        raise AttributeError("classes are immutable")

    @property
    def parts(self) -> tuple[tuple, ...]:
        """The coefficients of each degree, lowest first."""
        flat, offsets = self.flat, self.ring._offsets
        return tuple(flat[lo:hi] for lo, hi in zip(offsets, offsets[1:]))

    def component(self, k: int) -> "CohomologyClass":
        """The homogeneous piece in total cohomological degree 2k: integer
        coefficients of degree k are kept whole, and a base class
        coefficient, in fiber degree d, keeps its component in degree
        k - d."""
        ring, flat = self.ring, self.flat
        if not isinstance(flat[0], int):
            return CohomologyClass._of(ring, tuple(
                c.component(k - d) for c, d in zip(flat, ring._basis_degrees)))
        offsets = ring._offsets
        lo, hi = offsets[k:k + 2] if 0 <= k < len(offsets) - 1 else (0, 0)
        return CohomologyClass._of(
            ring, (0,) * lo + flat[lo:hi] + (0,) * (len(flat) - hi))

    def coefficients(self, k: int) -> tuple[int, ...]:
        return self.parts[k]

    def to_poly(self) -> dict:
        """The nonzero terms, as {basis monomial: coefficient}."""
        return {mono: coeff for mono, coeff in zip(self.ring._basis, self.flat)
                if coeff}

    def _total_degrees(self) -> set[int]:
        """The total degrees of the nonzero terms: a base class
        coefficient adds its own to its basis monomial's."""
        return {d + k for d, c in zip(self.ring._basis_degrees, self.flat) if c
                for k in ((0,) if isinstance(c, int) else c._total_degrees())}

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return any(self.flat)

    def _check(self, other: "CohomologyClass") -> None:
        if self.ring is not other.ring:
            raise ValueError("classes live in different rings")

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        return CohomologyClass._of(self.ring, tuple(map(add, self.flat, other.flat)))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        return CohomologyClass._of(self.ring, tuple(map(sub, self.flat, other.flat)))

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass._of(self.ring, tuple(map(neg, self.flat)))

    def __rmul__(self, scalar: int) -> "CohomologyClass":
        flat = tuple(map(mul, itertools.repeat(scalar), self.flat))
        return CohomologyClass._of(self.ring, flat)

    def __mul__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self.ring.multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyClass)
            and self.ring is other.ring
            and self.flat == other.flat
        )

    def __hash__(self):
        return hash((id(self.ring), self.flat))

    def __repr__(self):
        return f"CohomologyClass({self.ring!r}, {self.parts!r})"


class GradedRing:
    """The one ring skeleton: reduce, multiply, integrate, pair and ranks.

    A ring stores one GradedPiece per degree in ``_degrees``, its variable
    count ``_nvars``, its complex dimension ``dim`` and
    ``monomial_cap``, the degree above which monomials vanish; once its
    pieces are built, ``_lay_out`` numbers their basis monomials across
    degrees, the numbering every class's ``flat`` and every table entry
    runs over.  Subclasses differ in three hooks: ``_degree`` of a
    monomial, ``_solve`` (a monomial's normal form, here its column's, and
    zero if it is no column) and ``_point_data``, the integral (+-1) of
    the top basis monomial.  Coefficients are ``_zero``/``_one``, over the
    coefficient ring whose triple integrals are ``_coefficient_triples``,
    and ``_lam`` are the twisting classes the bundle ring's pivots carry.
    Every ring's classes are CohomologyClass.  Reduction and products sum
    normal forms read from a NormalForms table, which ``normal_forms``
    hands out, and the pairing reads the integer form the table holds.
    ``integrate`` is written once: the point sign times the top basis
    coefficient, an integer or, through the base's integral, a base class.
    """

    _zero = 0
    _one = 1
    # K[p,q,r] = int e_p e_q e_r as (p, q, r, K): on Z, int 1 = 1
    _coefficient_triples: tuple = ((0, 0, 0, 1),)
    _lam: tuple = ()
    _degrees: list[GradedPiece]

    def _degree(self, mono: Monomial) -> int:
        return sum(mono)

    def _lay_out(self) -> None:
        """Number the basis monomials of ``_degrees`` across degrees, lowest
        first: ``_basis`` lists them, ``_basis_degrees`` their degrees,
        ``_offsets`` where each degree starts and then their count, and
        ``_slots`` maps each degree's basis column positions to numbers."""
        pieces = self._degrees
        self._basis = tuple(m for piece in pieces for m in piece.basis)
        self._basis_degrees = tuple(d for d, piece in enumerate(pieces)
                                    for _ in piece.basis)
        self._offsets = tuple(itertools.accumulate(
            (piece.rank for piece in pieces), initial=0))
        self._slots = [dict(zip(piece.basis_positions, itertools.count(start)))
                       for piece, start in zip(pieces, self._offsets)]

    def normal_forms(self) -> NormalForms:
        """A new table of normal forms, to be held for one call."""
        return NormalForms(self)

    def _solve(self, table: NormalForms, mono: Monomial) -> dict:
        """The normal form of mono: its column's, or zero if it is none."""
        d = self._degree(mono)
        pos = self._degrees[d].index.get(mono)
        return {} if pos is None else self._column_form(table, d, pos)

    def _column_form(self, table: NormalForms, d: int, pos: int) -> dict:
        """The normal form of column pos of degree d, read off its pivot row.

        A basis column is itself; a pivot column is minus the basis entries
        of its row, and minus c_j * lambda_j times the normal form of the
        column one degree down that a bundle pivot's payload names.  Entries
        in the column's own degree are integers, those below base classes.
        """
        slots = self._slots[d]
        if pos in slots:
            return {slots[pos]: 1}
        piece = self._degrees[d]
        form = {slots[k]: -v for k, v in piece.pivots[pos].items() if k != pos}
        payload = piece.payloads.get(pos)
        if payload:
            below = self._degrees[d - 1].monomials
            for (j, lower), c in payload.items():
                for k, v in table[below[lower]]:
                    _add_term(form, k, (-c * v) * self._lam[j])
        return form

    @property
    def top_degree(self) -> int:
        """Top cohomological degree 2*dim."""
        return 2 * self.dim

    def rank(self, d: int) -> int:
        return self._degrees[d].rank

    def betti(self) -> list[int]:
        """Basis ranks per even degree; index k is cohomological degree 2k."""
        return [piece.rank for piece in self._degrees]

    def basis_monomials(self, d: int) -> tuple[Monomial, ...]:
        return self._degrees[d].basis

    def _combine(self, terms: dict, table) -> "CohomologyClass":
        """The class of sum c * NF(m) over terms {monomial m: c}."""
        if table is None:
            table = self.normal_forms()
        flat = [self._zero] * self._offsets[-1]
        for mono, coeff in terms.items():
            for k, v in table[mono]:
                flat[k] = flat[k] + v * coeff
        return CohomologyClass._of(self, tuple(flat))

    def reduce_poly(self, poly: dict, table=None) -> "CohomologyClass":
        """Normal form of a polynomial in the ring's variables.

        Monomials above ``monomial_cap`` are dropped: for rings of complete
        fans and presentations they vanish, for truncated face rings that
        is the truncation.  ``table`` is a NormalForms of this ring to read
        and fill, by default a new one.
        """
        terms = {}
        for mono, coeff in poly.items():
            if not coeff:
                continue
            if len(mono) != self._nvars:
                raise ValueError("monomial length does not match variable count")
            mono = tuple(mono)
            if self._degree(mono) <= self.monomial_cap:
                terms[mono] = coeff
        return self._combine(terms, table)

    def zero(self) -> "CohomologyClass":
        return self.reduce_poly({})

    def unit(self) -> "CohomologyClass":
        return self.reduce_poly({(0,) * self._nvars: self._one})

    def generator(self, rho: int) -> "CohomologyClass":
        """The class of variable rho, on a fan the divisor of ray rho."""
        return self.reduce_poly({squarefree(1 << rho, self._nvars): self._one})

    def multiply(self, a: "CohomologyClass", b: "CohomologyClass",
                 table=None) -> "CohomologyClass":
        """sum c1 * c2 * NF(m1 * m2) over the nonzero basis terms of a and b
        (the one product loop), with each product monomial's coefficients
        summed first; products above ``monomial_cap`` vanish, or are
        truncated away, and are skipped.  ``table`` as in ``reduce_poly``."""
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes live in different rings")
        basis, degrees, cap = self._basis, self._basis_degrees, self.monomial_cap
        right = [term for term in zip(basis, degrees, b.flat) if term[2]]
        terms: dict = {}
        for m1, d1, c1 in zip(basis, degrees, a.flat):
            if c1:
                for m2, d2, c2 in right:  # in degree order
                    if d1 + d2 > cap:
                        break
                    _add_term(terms, tuple(map(add, m1, m2)), c1 * c2)
        return self._combine(terms, table)

    def integrate(self, cls: "CohomologyClass") -> int:
        """Fiber-first integral of a class of top total degree: the point
        sign times its top basis coefficient, through the base's integral
        when that is a base class.  Raises on a component in any other
        total degree, naming the lowest; take component(dim) first."""
        if cls.ring is not self:
            raise ValueError("class lives in a different ring")
        off = sorted(cls._total_degrees() - {self.dim})
        if off:
            raise ValueError("integrate expects a class of top total degree "
                             f"{2 * self.dim}, found a component in degree "
                             f"{2 * off[0]}")
        sign, top = self._point_data(), cls.flat[-1]
        return sign * (top if isinstance(top, int) else top.ring.integrate(top))

    def point_class(self) -> "CohomologyClass":
        """The class of a point, on a fan the product of the rays of any
        maximal cone: the top basis monomial times its integral."""
        sign = self._point_data()
        return CohomologyClass._of(self, (0,) * (self._offsets[-1] - 1) + (sign,))

    @staticmethod
    def _coefficients(c) -> tuple[int, ...]:
        """A coefficient over the coefficient ring's basis e_p: an integer c
        is c e_0 = (c,), also in a bundle ring's table, where e_0 is the
        base's unit, and a base class its ``flat``."""
        return (c,) if isinstance(c, int) else c.flat

    def _pairing(self, forms: NormalForms) -> dict:
        """{(i, j): the nonzero entries (p, q, M_ij[p][q])} (module docstring).

        Basis monomials m_i are numbered across degrees (``_lay_out``),
        and T_ij is the top entry of forms[m_i * m_j], for the pairs with
        n <= d_i + d_j <= ``monomial_cap``, n the top piece.  M_ij = M_ji,
        as m_i m_j = m_j m_i and K is symmetric, so each unordered pair is
        read once.
        """
        sign, n = self._point_data(), len(self._degrees) - 1
        top, pairing = self._offsets[n], {}
        numbered = enumerate(zip(self._basis_degrees, self._basis))
        pairs = itertools.combinations_with_replacement(numbered, 2)
        for (i, (di, mi)), (j, (dj, mj)) in pairs:
            if not n <= di + dj <= self.monomial_cap:
                continue
            product = forms[tuple(map(add, mi, mj))]
            t = self._coefficients(next((v for k, v in product if k == top), 0))
            entries: dict = {}
            for p, q, r, k in self._coefficient_triples:
                if r < len(t) and t[r]:
                    _add_term(entries, (p, q), sign * t[r] * k)
            if entries:
                pairing[i, j] = pairing[j, i] = tuple(
                    (p, q, v) for (p, q), v in entries.items())
        return pairing

    def integrate_product(self, a: "CohomologyClass", b: "CohomologyClass",
                          table=None) -> int:
        """int a * b = sum a_i[p] b_j[q] M_ij[p][q], in integers only, on the
        form ``table`` holds (a NormalForms of this ring, by default a new
        one); no product is formed."""
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes live in different rings")
        if table is None:
            table = self.normal_forms()
        av = list(map(self._coefficients, a.flat))
        bv = list(map(self._coefficients, b.flat))
        return sum(av[i][p] * bv[j][q] * v for (i, j), entries
                   in table.pairing.items() for p, q, v in entries)


class GradedQuotientRing(GradedRing):
    """Z[x_rho]/(Stanley-Reisner ideal + integer linear relations).

    The face ring's quotient by one linear relation per lattice
    coordinate, ``dim`` of them: pieces are materialized up to degree
    ``dim``, the lattice rank, above which everything vanishes, so
    ``degree_cap`` and ``monomial_cap`` are ``dim``.  The columns of each
    graded piece are its squarefree face monomials and every other
    monomial is rewritten into them (see the module docstring).  Instances
    are immutable after construction, apart from caches filled on first
    use, and safe to share between threads.  Every argument is required.
    ``face_masks`` is every face of ``max_cones`` as a ray bitmask (one
    ``faces.walk_faces``); the ring's ``face_masks`` maps each of them to
    its home cone, the cone whose interval holds it.  ``kind`` names the ring
    (fan, pair or bundle ring) in elimination errors.  The ring gets, per
    maximal cone in ``max_cones`` order, its plan's frozenset bad(sigma)
    and in ``inverses`` the inverse of its relation matrix on the cone's
    sorted rays (the fan's ``cone_duals`` rows, or a pair's weight table),
    which the cone rewrites check and read, each once, at construction.

    The constructor certifies the ring, whoever builds it: after
    elimination it checks the rank invariants (Betti ranks equal the
    h-vector of its own ``face_masks``, their sum the number of maximal
    cones, the degree-2 rank rays minus ``dim``, and Poincare symmetry),
    and a violation raises RingConsistencyError.

    Its hooks: the plain degree, the cone rewrite as normal form and the
    point class's sign.  The bundle ring subclasses it, and its twisting
    classes enter through ``_constant`` and ``_row_payload``.
    """

    def __init__(self, ray_count, dim, relations, max_cones, basis_plan,
                 face_masks, kind, inverses):
        self.ray_count = self._nvars = ray_count
        self.dim = self.degree_cap = self.monomial_cap = dim
        self.relations = tuple(tuple(r) for r in relations)
        self.max_cones = tuple(frozenset(c) for c in max_cones)
        self.basis_plan = basis_plan
        self.inverses = inverses
        self.face_masks = face_masks
        self.kind = kind
        self._point = None
        columns = self._interval_columns()
        self._rewrites = self._solve_rewrites()
        self._degrees = []
        for d in range(dim + 1):
            self._degrees.append(self._build_degree(d, columns))
        self._lay_out()
        ranks, hv = self.betti(), h_vector_of(self.face_masks, dim)
        if ranks != hv:
            raise RingConsistencyError(f"Betti ranks {ranks} differ from h-vector {hv}")
        if sum(ranks) != len(self.max_cones):
            raise RingConsistencyError("total rank differs from maximal-cone count")
        if dim >= 1 and ranks[1] != ray_count - dim:
            raise RingConsistencyError("degree-2 rank differs from Picard rank")
        if ranks != ranks[::-1]:
            raise RingConsistencyError(f"Betti ranks {ranks} are not symmetric")

    @cached_property
    def nonfaces(self) -> list[frozenset[int]]:
        """Minimal non-faces (Stanley-Reisner generators), on first use."""
        return nonfaces_of(self.face_masks, self.ray_count)

    def _interval_columns(self) -> tuple[dict, dict]:
        """{degree: its columns (monomial, face mask, home cone, greatest ray
        outside bad(home) or None) in column order}, and {face mask: its
        position in its degree}, from one walk of the plan's intervals
        [bad(sigma), sigma], each the submasks of sigma - bad(sigma) by size,
        then in combinations order, and makes ``face_masks`` {face mask: its
        home cone}; a face no interval or two hold raises
        RingConsistencyError, of the missed faces the one whose sorted rays
        come first."""
        n, faces, homes, columns = self.ray_count, self.face_masks, {}, {}
        for cone, bad in zip(self.max_cones, self.basis_plan):
            low = ray_mask(bad)
            free = [1 << r for r in sorted(cone - bad)]
            for size in range(len(free) + 1):
                column = columns.setdefault(len(bad) + size, [])
                for extra in itertools.combinations(free, size):
                    face = low | sum(extra)
                    if face in homes or face not in faces:
                        raise RingConsistencyError(
                            f"{self.kind}, degree {len(bad) + size}: column "
                            f"{squarefree(face, n)} lies in the interval of "
                            f"cone {sorted(cone)} and "
                            + ("in another" if face in homes else "is no face")
                        )
                    homes[face] = cone
                    column.append((squarefree(face, n), face, cone,
                                   extra[-1].bit_length() - 1 if extra else None))
        self.face_masks = homes
        for face in sorted(set(faces).difference(homes), key=mask_rays):
            raise RingConsistencyError(
                f"{self.kind}, degree {face.bit_count()}: column "
                f"{squarefree(face, n)} lies in no interval"
            )
        where = {}
        for column in columns.values():
            column.sort(key=itemgetter(0), reverse=True)
            where.update((e[1], i) for i, e in enumerate(column))
        return columns, where

    def _build_degree(self, d: int, columns) -> GradedPiece:
        label = f"{self.kind}, degree {d}"
        entries, where = columns[0].get(d, ()), columns[1]
        monomials = [mono for mono, *_ in entries]
        rows, planned = [], []
        for pos, (mono, face, cone, rho) in enumerate(entries):
            if rho is None:
                planned.append(mono)
                continue
            # S's row x_{S-rho} * (x_rho - its rewrite on the home): 1 at
            # x_S, -row[rho'] at each x_{S-rho+rho'}, payload from inverse_row
            tau = face ^ 1 << rho
            row, inverse_row = self._rewrites[cone][rho]
            vec = {pos: 1}
            for other, a in enumerate(row):
                if a:
                    wider = where.get(tau | 1 << other)
                    if wider is not None:
                        vec[wider] = -a
            rows.append((vec, self._row_payload(where[tau], inverse_row)))
        return GradedPiece.build(monomials, {m: i for i, m in enumerate(monomials)},
                                 rows, planned, label)

    def _row_payload(self, tau_pos: int, inverse_row):
        """What the dual row of inverse_row carries besides columns: nothing."""
        return None

    # -- rewriting into columns ----------------------------------------------

    def _solve_rewrites(self) -> dict:
        """{maximal cone: its rewrite (see ``_solve_cone``)}, from one
        transpose of the relations."""
        transposed = tuple(zip(*self.relations))
        return {cone: self._solve_cone(cone, inverse, transposed)
                for cone, inverse in zip(self.max_cones, self.inverses)}

    def _solve_cone(self, cone: frozenset, inverse, transposed) -> dict:
        """Solve the relations on a maximal cone.

        Returns {rho in the cone: (row, inverse_row)}: x_rho is the sum of
        row[rho'] * x_rho' over the rays rho' (row is dense and zero on the
        cone), plus ``_constant(cone, rho)``, which a bundle ring makes from
        inverse_row, rho's row of the inverse relation matrix.  ``inverse``
        is the ring's ``inverses`` entry of the cone, kept as given; its
        rows must pair to the identity with the relations on the cone's
        rays, read off ``transposed``, the relations' columns.
        """
        rays = sorted(cone)
        if len(self.relations) != len(rays) or len(inverse) != len(rays):
            raise RingConsistencyError(
                f"{len(self.relations)} linear relations cannot be solved "
                f"on the {len(rays)} rays of cone {rays}"
            )
        rewrite = {}
        for inverse_row, rho in zip(inverse, rays):
            pairing = [sum(map(mul, inverse_row, column))
                       for column in transposed]
            if any(pairing[other] != (other == rho) for other in rays):
                raise RingConsistencyError(
                    f"the inverse rows given for cone {rays} do not "
                    "invert its linear relations"
                )
            rewrite[rho] = (tuple(
                0 if other in cone else -value
                for other, value in enumerate(pairing)
            ), inverse_row)
        return rewrite

    def _constant(self, cone: frozenset, rho: int):
        """The constant of rho's rewrite on cone: None, as the relations
        have none."""
        return None

    def _solve(self, table: NormalForms, mono: Monomial) -> dict:
        """The normal form of mono, in basis coordinates.

        Columns are read off their pivot rows.  Every other monomial
        vanishes unless it has a repeated exponent and a face as support:
        then one repeated x_rho is traded through its cone rewrite, and the
        monomials that step reaches are read from the table.
        """
        d = self._degree(mono)
        if d < len(self._degrees):
            pos = self._degrees[d].index.get(mono)
            if pos is not None:
                return self._column_form(table, d, pos)
        support = sum(1 << i for i, e in enumerate(mono) if e)
        cone = self.face_masks.get(support)  # the support's home cone
        if cone is None or support.bit_count() == d:
            return {}
        rho = next(i for i, e in enumerate(mono) if e > 1)
        lowered = mono[:rho] + (mono[rho] - 1,) + mono[rho + 1:]
        form: dict = {}
        for other, a in enumerate(self._rewrites[cone][rho][0]):
            if a and (support | 1 << other) in self.face_masks:
                bumped = lowered[:other] + (1,) + lowered[other + 1:]
                for k, v in table[bumped]:
                    _add_term(form, k, a * v)
        constant = self._constant(cone, rho)
        if constant:
            for k, v in table[lowered]:
                _add_term(form, k, v * constant)
        return form

    def face_sum(self) -> "CohomologyClass":
        """The class of the sum of x_tau over the faces tau, prod (1 + x_rho).

        Every face monomial is a column and every column a face monomial,
        so the sum is that of the columns' forms, with no monomial built or
        rewritten; an integer entry is lifted through ``_one`` and a base
        class entry added as it is, with no product by the unit.
        """
        table, one = self.normal_forms(), self._one
        flat = [self._zero] * self._offsets[-1]
        for d, piece in enumerate(self._degrees):
            for pos in range(len(piece.monomials)):
                for k, v in self._column_form(table, d, pos).items():
                    flat[k] = flat[k] + (v * one if isinstance(v, int) else v)
        return CohomologyClass._of(self, tuple(flat))

    # -- integration -------------------------------------------------------

    def _point_data(self):
        if self._point is None:
            n = self.dim
            forms = self.normal_forms()
            top = self._offsets[n]
            reduced = None
            for cone in self.max_cones:
                form = dict(forms[squarefree(ray_mask(cone), self.ray_count)])
                this = tuple(form.get(top + i, 0) for i in range(self.rank(n)))
                if reduced is None:
                    reduced = this
                elif this != reduced:
                    raise RingConsistencyError(
                        "maximal cones yield different point classes"
                    )
            if reduced is None or len(reduced) != 1 or reduced[0] not in (1, -1):
                raise RingConsistencyError(
                    f"top degree is not generated by the point class: {reduced}"
                )
            self._point = reduced[0]
        return self._point


@cache
def build_ring(f: Fan) -> GradedQuotientRing:
    """Integral cohomology ring of a smooth complete fan; other fans are rejected."""
    require_smooth_complete(f, "build_ring")
    return _certified_ring(f, linear_relations(f), "fan ring",
                           cone_duals(f).rows)


def _certified_ring(f: Fan, relations, kind: str,
                    inverses) -> GradedQuotientRing:
    """The quotient of the face ring of f by the given linear relations.

    ``inverses`` are the relations' inverses on the maximal cones (see
    GradedQuotientRing).  This supplies the fan's part: the basis plan,
    read at the fan's first generic point, and the face masks of one walk
    of the cones' submasks.  The ring's constructor certifies it.
    """
    return GradedQuotientRing(
        f.ray_count, f.dim, relations, f.max_cones, fixed_point_basis_plan(f),
        walk_faces(f.max_cones), kind, inverses,
    )
