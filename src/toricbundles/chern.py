"""Total Chern classes and Chern numbers of toric varieties and twisted fans.

Two independent routes to the total Chern class of a fibered toric
variety are implemented: the intrinsic ray product on the twisted fan,
and the bundle formula (pullback of the base class times the fiber ray
product).  ``compare`` checks their exact per-degree equality; the formula
holds, so a disagreement falsifies the implementation.

Chern numbers come from a balanced product tree: each partition of n is
split greedily into two halves A and B (parts largest first, each to the
half of smaller degree, ties to A), sub-products are memoised by their
descending tuples, and the number is the ring's pairing
``integrate_product`` of the two halves.  At n = 5 that is 3 ring
products instead of the 13 of a left-to-right walk, and 4 instead of 24
at n = 6; a fan ring pairs by one more product each (9 at n = 5), a
bundle ring on its integer intersection form (see ``bundlering``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    RingConsistencyError,
    _faces,
    build_ring,
    face_monomial_sum,
)
from .fan import Fan
from .twist import PiecewiseLinearMap, TwistDecomposition, twisted_fan


def total_chern_intrinsic(ring: GradedQuotientRing) -> CohomologyClass:
    """Reduced product of (1 + x_rho) over all rays."""
    return ring.reduce_poly(face_monomial_sum(ring.faces, ring.ray_count))


class PullbackMap:
    """The ring map of the projection of a twisted fan onto its base.

    Sends the base generator of ray sigma to the generator of the lifted
    ray; at construction every base linear relation is checked to land in
    the twisted ring's ideal, so inconsistent bookkeeping fails fast.
    """

    def __init__(self, decomp: TwistDecomposition,
                 base_ring: GradedQuotientRing,
                 twisted_ring: GradedQuotientRing):
        if base_ring.ray_count != len(decomp.graph_ray_of):
            raise ValueError("base ring does not match the decomposition")
        if twisted_ring.ray_count != decomp.twisted.ray_count:
            raise ValueError("twisted ring does not match the decomposition")
        self.decomp = decomp
        self.base_ring = base_ring
        self.twisted_ring = twisted_ring
        for rel in base_ring.relations:
            image = self._map_poly(
                {self._unit_monomial(rho): coeff
                 for rho, coeff in enumerate(rel) if coeff}
            )
            if not self.twisted_ring.reduce_poly(image).is_zero():
                raise RingConsistencyError(
                    "base linear relation does not map into the twisted ideal"
                )

    def _unit_monomial(self, rho: int):
        return tuple(
            1 if i == rho else 0 for i in range(self.base_ring.ray_count)
        )

    def _map_poly(self, poly):
        mapped = {}
        for mono, coeff in poly.items():
            image = [0] * self.twisted_ring.ray_count
            for rho, e in enumerate(mono):
                if e:
                    image[self.decomp.graph_ray_of[rho]] = e
            mapped[tuple(image)] = mapped.get(tuple(image), 0) + coeff
        return mapped

    def apply(self, cls: CohomologyClass) -> CohomologyClass:
        if cls.ring is not self.base_ring:
            raise ValueError("class does not live on the base ring")
        return self.twisted_ring.reduce_poly(self._map_poly(cls.to_poly()))


def pullback(decomp: TwistDecomposition, base_ring: GradedQuotientRing,
             twisted_ring: GradedQuotientRing,
             cls: CohomologyClass) -> CohomologyClass:
    return PullbackMap(decomp, base_ring, twisted_ring).apply(cls)


def _fiber_factor(decomp: TwistDecomposition, fiber: Fan,
                  twisted_ring: GradedQuotientRing) -> CohomologyClass:
    """Product of (1 + x_tau) over the embedded fiber rays."""
    embedded = {
        frozenset(decomp.fiber_ray_of[tau] for tau in face)
        for face in _faces(fiber.max_cones)
    }
    return twisted_ring.reduce_poly(
        face_monomial_sum(embedded, twisted_ring.ray_count)
    )


def total_chern_bundle_formula(decomp: TwistDecomposition, base: Fan,
                               fiber: Fan) -> CohomologyClass:
    """Main-formula route: pullback of the base class times the fiber product.

    Never touches the twisted fan's full ray product, so comparing it with
    the intrinsic route is a genuine two-route check.
    """
    base_ring = build_ring(base)
    twisted_ring = build_ring(decomp.twisted)
    pulled = pullback(decomp, base_ring, twisted_ring,
                      total_chern_intrinsic(base_ring))
    return pulled * _fiber_factor(decomp, fiber, twisted_ring)


def partitions(n: int):
    """Partitions of n as descending tuples, in canonical sorted order."""
    def gen(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return sorted(gen(n, n))


def chern_numbers(ring, total: CohomologyClass) -> dict[tuple[int, ...], int]:
    """Integrals of all monomials in the Chern classes, keyed by partition.

    ``ring`` is a GradedQuotientRing or a BundleRing; ``ring.dim`` is the
    complex dimension.  Each partition is split greedily in two: its
    parts, largest first, go to the half A or B of smaller degree, ties
    to A.  Sub-products are memoised by their descending tuples, as
    product(mu) = product(mu[1:]) * c_mu[0] (a single part is c_k
    itself), and the number is ``ring.integrate_product(product(A),
    product(B))``, or the integral of product(A) when B is empty.  A
    bundle ring makes 3 ring products at n = 5 and 4 at n = 6, where a
    left-to-right walk makes 13 and 24; a fan ring's pairing is one more
    product, 9 in all at n = 5.  The result keeps ``partitions(n)`` order.
    """
    n = ring.dim
    components = [total.component(k) for k in range(n + 1)]
    products = {}

    def product(mu):
        if mu not in products:
            products[mu] = (product(mu[1:]) * components[mu[0]]
                            if len(mu) > 1
                            else components[mu[0]] if mu else ring.unit())
        return products[mu]

    out = {}
    for part in partitions(n):
        a, b = (), ()
        for k in part:
            if sum(a) <= sum(b):
                a += (k,)
            else:
                b += (k,)
        out[part] = (ring.integrate_product(product(a), product(b)) if b
                     else ring.integrate(product(a).component(n)))
    return out


def numbers_payload(numbers: dict) -> dict[str, int]:
    """Chern numbers keyed by their partition written as '2+1+1'."""
    return {
        "+".join(str(i) for i in part): value
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
    """Compute both routes to c(TE) on the twisted fan and compare exactly."""
    decomp = twisted_fan(base, fiber, phi)
    twisted_ring = build_ring(decomp.twisted)
    intrinsic = total_chern_intrinsic(twisted_ring)
    bundle = total_chern_bundle_formula(decomp, base, fiber)
    degrees = tuple(
        DegreeComparison(2 * d, intrinsic.parts[d], bundle.parts[d])
        for d in range(twisted_ring.degree_cap + 1)
    )
    numbers = chern_numbers(twisted_ring, intrinsic)
    return ComparisonReport(
        name=name,
        equal=all(dc.equal for dc in degrees),
        degrees=degrees,
        intrinsic_numbers=numbers,
        bundle_numbers=(numbers if bundle == intrinsic
                        else chern_numbers(twisted_ring, bundle)),
        euler_expected=euler_characteristic(decomp.twisted),
        euler_intrinsic=twisted_ring.integrate(
            intrinsic.component(twisted_ring.dim)
        ),
    )
