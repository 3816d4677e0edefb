"""Total Chern classes and Chern numbers of toric varieties and twisted fans.

Two independent routes to the total Chern class of a fibered toric
variety are implemented: the intrinsic ray product on the twisted fan,
and the bundle formula (pullback of the base class times the fiber ray
product).  ``compare`` checks their exact per-degree equality; the formula
holds, so a disagreement falsifies the implementation.  Both read the
twisted ``Fan`` alone: its parts give the base and fiber, and its ray
order (lifted base rays, then fiber rays) the map of base rays and the
fiber rays.  ``pullback`` maps a base class only after checking that
every base linear relation lands in the twisted ring's ideal.

Chern numbers have two routes.  The ring route, ``chern_numbers``, works
in any ring, the bundle ring included: a balanced product tree of ring
products, paired on the ring's integer form by ``integrate_product``,
with no product formed for the pairing.  Fixed-point
localization, ``chern_numbers_localized``, needs only the fan: one exact
sum over the maximal cones of products of elementary symmetric functions
of each cone's dual rows, read from the fan's ``tables`` record at the
generic point the completeness certificate found.  The
``chern`` command takes its numbers by localization; ``compare`` takes
them by the ring route and checks them against localization on the
twisted fan; ``bundle`` has only the ring route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm
from operator import add, mul

from .cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    RingConsistencyError,
    build_ring,
)
from .faces import face_monomial_sum
from .fan import Fan, require_smooth_complete, tables
from .twist import PiecewiseLinearMap, twisted_fan


def total_chern_intrinsic(ring: GradedQuotientRing) -> CohomologyClass:
    """Reduced product of (1 + x_rho) over all rays: the ring's face sum."""
    return ring.face_sum()


def _parts(twisted: Fan) -> tuple:
    """The twisted fan's (base, fiber, lifts); a fan that does not record
    them (a parsed copy) raises ValueError."""
    if twisted.parts is None:
        raise ValueError(
            "the bundle formula needs a fan built by twisted_fan, which "
            "records its base and fiber"
        )
    return twisted.parts


def pullback(twisted: Fan, cls: CohomologyClass) -> CohomologyClass:
    """Image of a base class under the projection of a twisted fan.

    The ring map sends the base generator of ray sigma to the generator
    of its lifted ray, which ``twisted_fan`` lists first, in base order:
    a base monomial is padded with a zero exponent per fiber ray.  Every
    base linear relation is first checked to land in the twisted ring's
    ideal (RingConsistencyError otherwise), so a fan whose rays are not
    in that order fails fast and the bundle-formula route keeps its own
    check.
    """
    base, fiber, _ = _parts(twisted)
    if cls.ring is not build_ring(base):
        raise ValueError("class does not live on the base ring")
    twisted_ring = build_ring(twisted)
    forms = twisted_ring.normal_forms()
    pad = (0,) * fiber.ray_count

    def image(poly):
        return twisted_ring.reduce_poly(
            {mono + pad: coeff for mono, coeff in poly.items()}, forms)

    units = [tuple(int(i == rho) for i in range(base.ray_count))
             for rho in range(base.ray_count)]
    for rel in cls.ring.relations:
        if not image(dict(zip(units, rel))).is_zero():
            raise RingConsistencyError(
                "base linear relation does not map into the twisted ideal"
            )
    return image(cls.to_poly())


def _fiber_factor(fiber: Fan,
                  twisted_ring: GradedQuotientRing) -> CohomologyClass:
    """Product of (1 + x_tau) over the embedded fiber rays, the last
    ``fiber.ray_count`` rays: the twisted ring's faces that lie inside
    them, which are the fiber fan's faces moved to their twisted rays, as
    every twisted cone is a lifted base cone joined to a fiber cone."""
    fiber_rays = ((1 << fiber.ray_count) - 1) << (
        twisted_ring.ray_count - fiber.ray_count)
    embedded = [m for m in twisted_ring.face_masks if m & fiber_rays == m]
    return twisted_ring.reduce_poly(
        face_monomial_sum(embedded, twisted_ring.ray_count)
    )


def total_chern_bundle_formula(twisted: Fan) -> CohomologyClass:
    """Main-formula route: pullback of the base class times the fiber product.

    The base and fiber are the twisted fan's parts; the base's total class
    is computed once per base, and kept in its ``tables`` record with its
    ring.  Never touches the twisted fan's full ray product, so comparing
    it with the intrinsic route is a genuine two-route check.
    """
    base, fiber, _ = _parts(twisted)
    pulled = pullback(twisted, tables(base).total)
    return pulled * _fiber_factor(fiber, build_ring(twisted))


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as descending tuples, in canonical sorted order."""
    return list(_partitions(n))


@cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    def gen(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


def chern_numbers(ring, total: CohomologyClass) -> dict[tuple[int, ...], int]:
    """Integrals of all monomials in the Chern classes, keyed by partition.

    ``ring`` is a GradedQuotientRing or a BundleRing; ``ring.dim`` is the
    complex dimension.  Each partition is split greedily in two: its
    parts, largest first, go to the half A or B of smaller degree, ties
    to A.  Sub-products are memoised by their descending tuples, as
    product(mu) = product(mu[1:]) * c_mu[0] (a single part is c_k
    itself, and the empty product the unit), each half's suffixes built
    shortest first by a plain loop, so nothing holds the call's table
    once it returns, and the number is
    ``ring.integrate_product(product(A), product(B))``.  Every ring, fan
    or bundle, makes 3 ring products at n = 5 and 4 at n = 6, where a
    left-to-right walk makes 13 and 24: the pairing reads the ring's
    integer form and makes no product.  Every product and the form read
    one table of normal forms, held for this call only, so each product
    monomial is solved once and the form is built once.  The result
    keeps ``partitions(n)`` order.
    """
    n = ring.dim
    components = [total.component(k) for k in range(n + 1)]
    table = ring.normal_forms()
    products = {(): ring.unit(), **{(k,): c for k, c in enumerate(components)}}
    out = {}
    for part in _partitions(n):
        a, b = (), ()
        for k in part:
            if sum(a) <= sum(b):
                a += (k,)
            else:
                b += (k,)
        for half in (a, b):
            for mu in (half[i:] for i in reversed(range(len(half) - 1))):
                if mu not in products:
                    products[mu] = ring.multiply(products[mu[1:]],
                                                 components[mu[0]], table)
        out[part] = ring.integrate_product(products[a], products[b], table)
    return out


def chern_numbers_localized(f: Fan) -> dict[tuple[int, ...], int]:
    """Chern numbers of a smooth complete fan by fixed-point localization.

    The torus T of the variety X fixes one point x_sigma per maximal cone
    sigma.  In H_T(X) = Z[x_rho]/(Stanley-Reisner ideal) a character m of
    T is the class sum_rho <m, v_rho> x_rho (these classes are the linear
    relations, which vanish in ordinary cohomology).  Restriction to
    x_sigma is a ring map into H_T(pt) = Sym(M) that fixes characters and
    sends x_rho to 0 for rho outside sigma (D_rho misses x_sigma).  So
    sum_{rho in sigma} <m, v_rho> x_rho|sigma = m for every m, and
    x_rho|sigma = u_rho, where <u_rho, v_rho'> = delta_{rho rho'} on
    sigma: u_rho is sigma's dual row of rho in ``tables(f).duals``.  The
    total Chern class is prod (1 + x_rho), so c_k|sigma = e_k(u), the
    k-th elementary symmetric function of sigma's dual rows, and the
    Euler class of the tangent space at x_sigma is its top Chern class
    e_n(u).  The point class prod_{rho in sigma} x_rho restricts to
    e_n(u) at sigma and to 0 at every other fixed point, so the sum below
    gives it 1, as ``integrate`` does.  Atiyah-Bott localization,

        int_X alpha = sum_sigma alpha|sigma / e_n(u at sigma),

    holds for alpha in H_T^{2n}(X), where both sides are integers.  For a
    partition mu of n, alpha = prod_k c_{mu_k} gives
    int c_mu = sum_sigma prod_k e_{mu_k}(w) / e_n(w), with the weights
    w = <u, t0> of sigma's dual rows at one point t0 where no weight is
    zero: evaluation at t0 is a ring map on the fractions whose
    denominators are products of weights.  The opposite convention
    x_rho|sigma = -u_rho multiplies each term's numerator and denominator
    by (-1)^n, so the numbers do not depend on it.

    t0 is the first moment-curve point (1, t, t^2, ...) with no zero
    weight at any cone, which ``tables(f).generic`` always finds.
    The sum is exact, over the common denominator lcm_sigma e_n(w); a
    remainder raises RingConsistencyError naming the partition.  The
    result keeps ``partitions(n)`` order.
    """
    require_smooth_complete(f, "chern_numbers_localized")
    n = f.dim
    weights = tables(f).generic
    # symmetric[k][i] = e_k of the weights of cone i, one list per k,
    # multiplied out one weight of every cone at a time
    symmetric = [[1] * len(weights)]
    for column in zip(*weights):
        symmetric.append(list(map(mul, column, symmetric[-1])))
        for k in range(len(symmetric) - 2, 0, -1):
            symmetric[k] = list(map(
                add, symmetric[k], map(mul, column, symmetric[k - 1])
            ))
    denominator = lcm(*symmetric[n])
    scale = [denominator // e for e in symmetric[n]]
    out = {}
    for part in _partitions(n):
        terms = scale
        for k in part:
            terms = map(mul, terms, symmetric[k])
        total = sum(terms)
        value, remainder = divmod(total, denominator)
        if remainder:
            g = gcd(total, denominator)
            raise RingConsistencyError(
                f"Chern number {partition_name(part)}: fixed-point "
                f"localization sums to {total // g}/{denominator // g}, "
                "not an integer"
            )
        out[part] = value
    return out


def partition_name(part: tuple[int, ...]) -> str:
    """A partition written as '2+1+1'."""
    return "+".join(map(str, part))


def numbers_payload(numbers: dict) -> dict[str, int]:
    """Chern numbers keyed by their partition written as '2+1+1'."""
    return {
        partition_name(part): value
        for part, value in sorted(numbers.items())
    }


def euler_characteristic(f: Fan) -> int:
    """Number of maximal cones (the topological Euler characteristic)."""
    return len(f.max_cones)


def verify_gauss_bonnet(f: Fan) -> bool:
    """Check that the top Chern class integrates to the Euler characteristic."""
    ring = build_ring(f)
    top = total_chern_intrinsic(ring).component(f.dim)
    return ring.integrate(top) == euler_characteristic(f)


@dataclass(frozen=True)
class DegreeComparison:
    degree: int  # cohomological degree 2k reported as 2k
    intrinsic: tuple[int, ...]
    bundle: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.intrinsic == self.bundle


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the intrinsic vs bundle-formula Chern class comparison."""

    name: str
    equal: bool
    degrees: tuple[DegreeComparison, ...]
    intrinsic_numbers: dict
    bundle_numbers: dict
    euler_expected: int
    euler_intrinsic: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "equal": self.equal,
            "degrees": [
                {
                    "degree": dc.degree,
                    "intrinsic": list(dc.intrinsic),
                    "bundle": list(dc.bundle),
                    "equal": dc.equal,
                }
                for dc in self.degrees
            ],
            "chern_numbers_intrinsic": numbers_payload(self.intrinsic_numbers),
            "chern_numbers_bundle": numbers_payload(self.bundle_numbers),
            "euler_expected": self.euler_expected,
            "euler_intrinsic": self.euler_intrinsic,
        }


def compare(base: Fan, fiber: Fan, phi: PiecewiseLinearMap,
            name: str = "") -> ComparisonReport:
    """Compute both routes to c(TE) on the twisted fan and compare exactly.

    The Chern numbers of the intrinsic class come by the ring route and
    must equal fixed-point localization on the twisted fan; a difference
    raises RingConsistencyError naming the partition.
    """
    twisted = twisted_fan(base, fiber, phi)
    twisted_ring = build_ring(twisted)
    intrinsic = total_chern_intrinsic(twisted_ring)
    bundle = total_chern_bundle_formula(twisted)
    degrees = tuple(
        DegreeComparison(2 * d, intrinsic.parts[d], bundle.parts[d])
        for d in range(twisted_ring.degree_cap + 1)
    )
    numbers = chern_numbers(twisted_ring, intrinsic)
    localized = chern_numbers_localized(twisted)
    for part, value in numbers.items():
        if localized[part] != value:
            raise RingConsistencyError(
                f"Chern number {partition_name(part)}: the ring route gives "
                f"{value}, fixed-point localization {localized[part]}"
            )
    return ComparisonReport(
        name=name,
        equal=all(dc.equal for dc in degrees),
        degrees=degrees,
        intrinsic_numbers=numbers,
        bundle_numbers=(numbers if bundle == intrinsic
                        else chern_numbers(twisted_ring, bundle)),
        euler_expected=euler_characteristic(twisted),
        euler_intrinsic=twisted_ring.integrate(
            intrinsic.component(twisted_ring.dim)
        ),
    )
