"""Exact integral cohomology and Chern classes of toric variety bundles.

Everything is integer arithmetic: fans and twisted fans, Stanley-Reisner
quotient rings with deterministic monomial bases, total Chern classes via
the intrinsic ray product and via the bundle formula, equivariant Chern
classes with fixed-point restrictions, and the same formula over an
arbitrary presented base.
"""

from .bundlering import (
    BasePresentation,
    BundleRing,
    TwistingClasses,
    build_bundle_ring,
    chern_numbers_bundle,
    presentation_from_fan,
    total_chern_general,
    twisting_from_principal,
)
from .chern import (
    ComparisonReport,
    chern_numbers,
    chern_numbers_localized,
    compare,
    euler_characteristic,
    pullback,
    total_chern_bundle_formula,
    total_chern_intrinsic,
    verify_gauss_bonnet,
)
from .cohomology import (
    CohomologyClass,
    GradedQuotientRing,
    RingConsistencyError,
    build_ring,
    linear_relations,
    minimal_nonfaces,
)
from .equivariant import (
    MasudaReport,
    WeightPolynomial,
    equivariant_total_chern,
    face_ring,
    forget,
    masuda_check,
    restrict_to_fixed_point,
)
from .fan import Fan, ValidationReport, make_fan, product_fan, validate, walls
from .lattice import (
    IntMatrix,
    IntVector,
    is_primitive,
)
from .twist import (
    CharacteristicPair,
    PiecewiseLinearMap,
    make_plmap,
    principal_classes,
    tautological_pair,
    twisted_fan,
    twisted_pair,
)

__version__ = "0.1.0"
