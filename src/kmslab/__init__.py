"""Finite-dimensional workbench for equilibrium states of matrix-algebra flows.

Everything here lives on finite direct sums of matrix blocks, where the
objects of modular theory — inner flows, Gibbs densities, equilibrium
simplices, modular operators, spectral decompositions of periodic flows,
scaling measures, equilibrium bundles, and phase-cocycle trivialization —
are honest linear algebra that can be computed and cross-checked to
working precision.
"""

from .algebra import (
    AlgElement,
    BlockAlgebra,
    Functional,
    InternalFault,
    Projection,
    center_projections,
    commutant_basis,
    is_positive,
    is_trace,
    random_element,
    random_hermitian,
    random_state,
)
from .flow import (
    AnalyticRangeError,
    InnerFlow,
    QuadratureError,
)
from .kms import (
    CornerRestriction,
    KmsSimplex,
    KmsState,
    KmsVerdict,
    KmsWeight,
    coefficients_of,
    dominated_decomposition,
    extend_from_corner,
    from_trace,
    gibbs,
    kms_simplex,
    lattice_join,
    lattice_meet,
    restrict_to_corner,
    simplex_sweep,
    support_compression,
    trace_of,
    verify_kms,
)
from .modular import (
    GnsTriple,
    ModularData,
    ModularFlowReport,
    center_dimension,
    commutant_gap,
    gns,
    intertwining_unitary,
    modular_data,
    verify_commutant_theorem,
    verify_modular_flow,
)
from .periodic import (
    PeriodicFlow,
    cuntz_trace,
    fejer_kernel,
    gauge_kms_beta,
    minimal_period,
    relation_fit,
    trace_scaling_beta,
)
from .products import (
    DifferenceGroupReport,
    FactorTypeReport,
    GammaReport,
    ItpfiSpec,
    MatroidSpec,
    MatroidVerdict,
    SpectrumFamily,
    WindowInterval,
    difference_group,
    factor_type_itpfi,
    gamma_invariant,
    matroid_bounded,
    product_kms_state,
    trace_class_window,
)
from .bundle import (
    BundleCertificate,
    DimensionGroupSpec,
    PointBundleSpec,
    ScalingCheckReport,
    ScalingMeasure,
    SimplexFiber,
    beta_spectrum,
    bundle_from_points,
    diagonal_fiber,
    fiber_simplex,
    kms_bundle_fd,
    scaling_measure,
    verify_scaling,
)
from .cocycle import (
    Cochain,
    CocycleGrid,
    CocycleReport,
    TrivializationResult,
    bilinear_cocycle,
    bilinear_trivializer,
    character_quotient_gap,
    check_cocycle,
    coboundary_of,
    trivialize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
