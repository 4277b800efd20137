"""Canonical products, zero-counting integrals, and real-axis growth criteria
for entire functions of exponential type."""

from .catalog import (
    AlphaSpec,
    IntDecomposition,
    alpha_sequence,
    build_generator,
    footnote_sequence,
    int_decomposition,
    integer_lattice,
    scaled_lattice,
)
from .counting import (
    AngularDensity,
    CountingProfile,
    DivergentIntegralError,
    GrowthEstimate,
    LindelofTrace,
    angular_density,
    count_disc,
    count_square,
    growth_check,
    imaginary_inverse_sum,
    lindelof_sums,
    log_potential,
    profile,
    step_integral,
)
from .criteria import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    ClassifyReport,
    CriterionReport,
    PhiProfile,
    cartwright_integral,
    check_B,
    check_C,
    check_D,
    classify,
    phi,
    phi_profile,
    type_bound,
)
from .product import (
    LogComplex,
    ProductEvaluation,
    TailCorrection,
    circle_average,
    derivative_at_multiple_zero,
    evaluate_product,
    finite_difference_log_derivative,
    jensen_counting_side,
    jensen_identity_check,
    log_modulus_via_counting,
    tail_correction,
)
from .zero_model import (
    RealAxisView,
    SequenceFormatError,
    ValidationReport,
    Zero,
    ZeroSequence,
    dump_sequence,
    dump_sequence_json,
    load_sequence,
    shift_origin,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSpec", "AngularDensity", "ClassifyReport", "CountingProfile",
    "CriterionReport", "DivergentIntegralError", "GrowthEstimate",
    "INCONCLUSIVE", "IntDecomposition", "LindelofTrace", "LogComplex",
    "PhiProfile", "ProductEvaluation", "RealAxisView", "SATISFIED", "SequenceFormatError",
    "TailCorrection", "VIOLATED", "ValidationReport", "Zero", "ZeroSequence",
    "alpha_sequence", "angular_density", "build_generator",
    "cartwright_integral", "check_B", "check_C", "check_D", "circle_average",
    "classify", "count_disc", "count_square", "derivative_at_multiple_zero",
    "dump_sequence", "dump_sequence_json", "evaluate_product",
    "finite_difference_log_derivative", "footnote_sequence", "growth_check",
    "imaginary_inverse_sum", "int_decomposition", "integer_lattice",
    "jensen_counting_side", "jensen_identity_check", "lindelof_sums", "load_sequence",
    "log_modulus_via_counting", "log_potential", "phi", "phi_profile", "profile",
    "scaled_lattice", "shift_origin", "step_integral", "tail_correction",
    "type_bound", "validate",
]
