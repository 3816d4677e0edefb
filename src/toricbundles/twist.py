"""Twisted fans and twisted characteristic pairs.

A fibered toric variety over a toric base is cut out by a twisted fan: the
base cones are lifted to the graphs of an integral piecewise-linear map
into the fiber lattice and summed with the fiber cones.  Coordinates in
the total lattice are ordered (base, fiber) throughout the repo, and the
twisted rays list the lifted base rays first, then the fiber rays.  The
twisted ``Fan`` records its parts (base, fiber, lifts), and with that ray
order they are all the bundle formula needs.  Each twisted cone's ray
matrix is block triangular, so its dual rows are the base cone's, padded
with zeros, and the fiber cone's, corrected by the twist: the twisted
fan's ``fan.tables`` record builds its dual table from the base's and
fiber's, with no Bareiss pass of its own.  A characteristic pair's
charmap need not be its rays (a quasitoric manifold); its weight table
is ``fan.dual_table`` on the charmap values, one Bareiss pass per cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cohomology import RingConsistencyError
from .fan import (ConeDuals, Fan, dual_table, require_smooth_complete,
                  stacked_fan, validate)
from .lattice import IntVector, vector


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Integral values of a piecewise-linear map on the base fan's rays.

    One fiber-lattice vector per base ray; linearity on each simplicial
    cone is automatic and integrality on a smooth cone follows from
    integrality on its ray basis.
    """

    fiber_rank: int
    values: tuple[IntVector, ...]

    def __post_init__(self):
        for v in self.values:
            if len(v) != self.fiber_rank:
                raise ValueError(
                    f"value {v} does not lie in a rank-{self.fiber_rank} lattice"
                )


def make_plmap(fiber_rank, values) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(int(fiber_rank), tuple(vector(v) for v in values))


def twisted_fan(base: Fan, fiber: Fan, phi: PiecewiseLinearMap) -> Fan:
    """Build the twisted fan of (base, fiber, phi).

    Rays are the graphs (v, phi(v)) of the base rays followed by the
    embedded fiber rays (0, w), so base ray i is twisted ray i and fiber
    ray j is twisted ray base.ray_count + j; maximal cones are all unions
    of a lifted base cone with a fiber cone.  Smoothness and completeness
    of the inputs transfer to the output, which is validated.  The output
    is ``fan.stacked_fan`` of the parts, and only here, once both parts
    are checked smooth and complete, does a fan get its ``parts`` (base,
    fiber, phi.values): its dual table then comes from the base's and
    fiber's by the block inverse (``fan.twisted_duals``), and the bundle
    formula finds its base there.
    """
    require_smooth_complete(base, "twisted_fan base")
    require_smooth_complete(fiber, "twisted_fan fiber")
    if len(phi.values) != base.ray_count:
        raise ValueError(
            f"phi has {len(phi.values)} values for {base.ray_count} base rays"
        )
    if phi.fiber_rank != fiber.dim:
        raise ValueError(
            f"phi maps into rank {phi.fiber_rank} but the fiber has rank {fiber.dim}"
        )
    twisted = stacked_fan(base, fiber, phi.values)
    object.__setattr__(twisted, "parts", (base, fiber, phi.values))
    report = validate(twisted)
    if not report.all_good:
        raise RingConsistencyError(
            "twisted fan of smooth complete data failed validation: "
            + "; ".join(report.diagnostics)
        )
    return twisted


def principal_classes(phi: PiecewiseLinearMap) -> list[IntVector]:
    """Divisor-coefficient vectors of the twisting classes on the base.

    For fiber coordinate i the class is sum over base rays sigma of
    phi(v_sigma)[i] times the divisor of sigma; entry order follows the
    base rays.
    """
    return [
        tuple(value[i] for value in phi.values)
        for i in range(phi.fiber_rank)
    ]


@dataclass(frozen=True)
class CharacteristicPair:
    """Simplicial combinatorics plus a ray-to-lattice characteristic map.

    The complex is carried by a Fan (geometric rays included); charmap
    assigns to each ray a vector in a rank-dim lattice.  Nonsingularity
    (each maximal cone's charmap values form a lattice basis) is checked
    by :func:`validate_pair`.
    """

    complex: Fan
    charmap: tuple[IntVector, ...]

    def __post_init__(self):
        if len(self.charmap) != self.complex.ray_count:
            raise ValueError("charmap must assign a value to every ray")
        for v in self.charmap:
            if len(v) != self.complex.dim:
                raise ValueError(
                    f"charmap value {v} does not have length {self.complex.dim}"
                )


@lru_cache(maxsize=1)
def weight_table(p: CharacteristicPair) -> ConeDuals:
    """The ``dual_table`` of the charmap values, in ``max_cones`` order.

    Row u_i of a cone is dual to its charmap values in sorted ray order,
    <u_i, Lambda(rho_j)> = delta_ij: the pair's linear relations
    restricted to the cone.  Building it is the pair's validation, and
    the first cone whose determinant is not +-1 raises a ValueError
    naming it and that determinant.  Only the last pair's table is kept
    (pairs stay out of the fans' unbounded cache), so parsing, the face
    ring, the Masuda check and the restrictions of one request take one
    Bareiss pass per cone.
    """
    table = dual_table(p.charmap, p.complex.max_cones)
    for cone, d in zip(p.complex.max_cones, table.determinants):
        if d not in (1, -1):
            raise ValueError(
                f"charmap values on maximal face {sorted(cone)} have "
                f"determinant {d}, not a lattice basis"
            )
    return table


def validate_pair(p: CharacteristicPair) -> None:
    """Raise ValueError naming the first maximal face violating nonsingularity.

    The check is building the pair's ``weight_table``.
    """
    weight_table(p)


def tautological_pair(f: Fan) -> CharacteristicPair:
    """The pair of a smooth fan: the characteristic map is the ray map itself."""
    p = CharacteristicPair(complex=f, charmap=f.rays)
    validate_pair(p)
    return p


def twisted_pair(
    base_pair: CharacteristicPair,
    fiber_pair: CharacteristicPair,
    phi: PiecewiseLinearMap,
) -> CharacteristicPair:
    """Characteristic pair of the twisted data.

    The complex is the twisted fan of the two underlying complexes; the
    characteristic map sends a fiber ray rho to (0, Lambda(rho)) and a base
    ray rho with geometric ray v to (Omega(rho), phi(v)), so the
    tautological case reproduces the twisted fan's rays exactly.
    """
    validate_pair(base_pair)
    validate_pair(fiber_pair)
    twisted = twisted_fan(base_pair.complex, fiber_pair.complex, phi)
    m = base_pair.complex.dim
    n = fiber_pair.complex.dim
    charmap = [
        base_pair.charmap[i] + phi.values[i]
        for i in range(base_pair.complex.ray_count)
    ]
    charmap += [(0,) * m + lam for lam in fiber_pair.charmap]
    pair = CharacteristicPair(complex=twisted, charmap=tuple(charmap))
    validate_pair(pair)
    return pair
