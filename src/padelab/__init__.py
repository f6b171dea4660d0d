"""Classical and SVD-robust Pade approximation, with a counterexample.

The library builds a power-series family whose diagonal Pade
approximants keep a spurious pole inside the region of analyticity
while the underlying Toeplitz systems stay well conditioned
(sigma_1/sigma_n < 5), so threshold-based robust variants leave the
pole in place.  Exact rational and floating-point pipelines run side
by side: the float route answers fast, the exact route certifies.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    InvalidParameterError,
    NumericalError,
    OutOfRangeError,
    PadeLabError,
    RankDeficiencyError,
    SeriesFormatError,
    UnsupportedInputError,
    UnsupportedSizeError,
    UsageError,
)
from .rational import QC, as_fraction, qc
from .series import (
    GammelParams,
    PoleSequence,
    PowerSeries,
    SeriesMeta,
    block_order,
    build_counterexample_series,
    build_gammel_series,
    counterexample_coeff,
    default_gammel_alpha,
    eval_series,
    load_series,
    save_series,
    spike_index,
    truncation_length,
)
from .toeplitz import (
    StructuredDecomposition,
    SumBoundsReport,
    ToeplitzPair,
    build_pair,
    build_structured,
    check_sum_bounds,
)
from .linalg import (
    RationalMatrix,
    SigmaRatioOracle,
    SingularSpectrum,
    exact_nullspace,
    exact_sigma_ratio_bounds,
    singular_value_perturbation_check,
    svd,
)
from .pade import (
    Diagnostics,
    PadeApproximant,
    ReductionStep,
    classical_pade,
    order_residual,
    robust_pade,
)
from .analysis import (
    CounterexampleReport,
    PoleReport,
    ScanTable,
    divergence_scan,
    find_poles,
    verify_counterexample,
)

__version__ = "0.1.0"


def __getattr__(name):
    # `main` is imported on first use, so `python -m padelab.cli` does not
    # find padelab.cli already imported when it runs the module as __main__
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "QC",
    "as_fraction",
    "qc",
    "PoleSequence",
    "PowerSeries",
    "SeriesMeta",
    "GammelParams",
    "block_order",
    "spike_index",
    "truncation_length",
    "counterexample_coeff",
    "build_counterexample_series",
    "build_gammel_series",
    "default_gammel_alpha",
    "eval_series",
    "save_series",
    "load_series",
    "ToeplitzPair",
    "StructuredDecomposition",
    "SumBoundsReport",
    "build_pair",
    "build_structured",
    "check_sum_bounds",
    "RationalMatrix",
    "SingularSpectrum",
    "SigmaRatioOracle",
    "svd",
    "exact_nullspace",
    "exact_sigma_ratio_bounds",
    "singular_value_perturbation_check",
    "PadeApproximant",
    "Diagnostics",
    "ReductionStep",
    "classical_pade",
    "robust_pade",
    "order_residual",
    "PoleReport",
    "CounterexampleReport",
    "ScanTable",
    "find_poles",
    "verify_counterexample",
    "divergence_scan",
    "main",
    "PadeLabError",
    "UsageError",
    "NumericalError",
    "InvalidParameterError",
    "OutOfRangeError",
    "DomainError",
    "SeriesFormatError",
    "InvalidInputError",
    "UnsupportedInputError",
    "UnsupportedSizeError",
    "ConvergenceError",
    "RankDeficiencyError",
    "__version__",
]
