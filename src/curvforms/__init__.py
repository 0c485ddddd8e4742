"""curvforms: curvature operators on 2-forms, Hodge-star commuting tests,
normal forms, and Euler/signature integrands in dimensions 3, 4 and n.

The public API is re-exported flat; ``import curvforms as cf`` is the
intended style.  Submodules group the machinery:

``bivectors``
    canonical bases of the second exterior power, wedges, induced scalar
    products, decomposability.
``hodge``
    Hodge stars on 2-forms for Riemannian and Lorentzian 4-metrics,
    self-dual/anti-self-dual splitting, the Lorentz companion metric.
``curvature``
    the curvature tensor container, validation of the pair symmetries and the
    first Bianchi identity, operators against g / h / the Lorentz companion,
    sectional quadratic forms, space forms.
``normal_forms``
    the batched Lambda^2 kernel, the star-commuting (Einstein) test,
    curvature normal forms in dimensions 4, 3 and n, scaled normal forms,
    critical-plane diagnostics.
``complex_forms``
    the complex 3x3 normal-form classification of Lorentz-commuting tensors
    and the spacelike critical-plane counter.
``topology``
    Euler/signature integrand densities, weighted-sample integration,
    self-dual Weyl splitting, connected-sum bookkeeping.
``zoo``
    point-sample containers, the JSONL interchange format, and generators for
    closed-form and synthetic curvature families.
``cli``
    the ``curvforms`` batch command line.
"""

from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    FrameReconstructionError,
    GeometryError,
    LightlikePlaneError,
    NonUnitVectorError,
    NotCommutingError,
    SampleFormatError,
    TensorValidationError,
)
from .bivectors import (
    BivectorBasis,
    bivector_basis,
    induced_gram,
    is_decomposable,
    plane_matrix,
    plane_span,
    wedge_matrix,
    wedge_to_volume,
    wedge_vectors,
)
from .hodge import (
    HodgeStar,
    SdAsdBasis,
    complexify,
    hodge_star,
    lorentz_metric_from_unit,
    sd_asd_basis,
)
from .curvature import (
    CurvatureTensor,
    Lambda2Operator,
    component_matrix,
    curvature_from_frame_components,
    operator_from,
    quadratic_form,
    ricci_contraction,
    scalar_curvature,
    space_form,
    transform_frame,
    validate_curvature,
    weyl_operator,
)
from .normal_forms import (
    CriticalFit,
    Lambda2Blocks,
    NormalForm3,
    NormalForm4,
    RicciReport,
    ScaledNormalForm,
    StarEinsteinReport,
    canonical_pairs,
    critical_frame_check_n,
    critical_point_residual,
    h_orthonormal_frame,
    is_star_h_einstein,
    lambda2_blocks,
    normal_form_3,
    normal_form_4,
    orthogonal_normal_form_4,
    preferred_normal_form_4,
    rebuild_normal_form,
    recover_mu1,
    ricci_from_critical_frame,
    scaled_normal_form,
    signed_curvature_3,
)
from .complex_forms import (
    CASE_CRITICAL_COUNTS,
    CASE_DESCRIPTIONS,
    ComplexNormalForm,
    adapted_frame,
    classify_complex,
    complex_case_matrix,
    count_spacelike_critical,
    tensor_from_complex_form,
)
from .topology import (
    BUILDING_BLOCKS,
    BuildingBlock,
    ConnectedSumResult,
    IntegrandValue,
    IntegrationResult,
    WeylSplitReport,
    chi_tau_densities,
    connected_sum,
    hypersurface_block,
    integrate_samples,
    parse_block_expression,
    weyl_split_check,
)
from .zoo import (
    PointSample,
    deformed_metric,
    gen_product_spheres,
    gen_space_form,
    gen_synthetic_star_L,
    gen_synthetic_star_h,
    read_samples,
    sample_from_json,
    sample_to_json,
    validate_sample,
    write_samples,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "GeometryError",
    "DimensionError",
    "DegenerateMetricError",
    "NonUnitVectorError",
    "LightlikePlaneError",
    "NotCommutingError",
    "TensorValidationError",
    "FrameReconstructionError",
    "SampleFormatError",
    # bivectors
    "BivectorBasis",
    "bivector_basis",
    "induced_gram",
    "wedge_to_volume",
    "wedge_matrix",
    "wedge_vectors",
    "is_decomposable",
    "plane_matrix",
    "plane_span",
    # hodge
    "HodgeStar",
    "SdAsdBasis",
    "hodge_star",
    "lorentz_metric_from_unit",
    "sd_asd_basis",
    "complexify",
    # curvature
    "CurvatureTensor",
    "Lambda2Operator",
    "validate_curvature",
    "space_form",
    "operator_from",
    "component_matrix",
    "quadratic_form",
    "weyl_operator",
    "scalar_curvature",
    "ricci_contraction",
    "transform_frame",
    "curvature_from_frame_components",
    # normal_forms
    "StarEinsteinReport",
    "Lambda2Blocks",
    "NormalForm4",
    "ScaledNormalForm",
    "NormalForm3",
    "CriticalFit",
    "RicciReport",
    "lambda2_blocks",
    "is_star_h_einstein",
    "normal_form_4",
    "orthogonal_normal_form_4",
    "preferred_normal_form_4",
    "rebuild_normal_form",
    "canonical_pairs",
    "scaled_normal_form",
    "recover_mu1",
    "critical_point_residual",
    "normal_form_3",
    "signed_curvature_3",
    "critical_frame_check_n",
    "ricci_from_critical_frame",
    "h_orthonormal_frame",
    # complex_forms
    "ComplexNormalForm",
    "CASE_DESCRIPTIONS",
    "CASE_CRITICAL_COUNTS",
    "adapted_frame",
    "classify_complex",
    "complex_case_matrix",
    "tensor_from_complex_form",
    "count_spacelike_critical",
    # topology
    "IntegrandValue",
    "chi_tau_densities",
    "IntegrationResult",
    "integrate_samples",
    "WeylSplitReport",
    "weyl_split_check",
    "BuildingBlock",
    "BUILDING_BLOCKS",
    "hypersurface_block",
    "parse_block_expression",
    "ConnectedSumResult",
    "connected_sum",
    # zoo
    "PointSample",
    "validate_sample",
    "sample_to_json",
    "sample_from_json",
    "read_samples",
    "write_samples",
    "gen_space_form",
    "gen_product_spheres",
    "gen_synthetic_star_h",
    "gen_synthetic_star_L",
    "deformed_metric",
]
