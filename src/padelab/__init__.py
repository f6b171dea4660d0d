"""Classical and SVD-robust Pade approximation, with a counterexample.

The library builds a power-series family whose diagonal Pade
approximants keep a spurious pole inside the region of analyticity
while the underlying Toeplitz systems stay well conditioned
(sigma_1/sigma_n < 5), so threshold-based robust variants leave the
pole in place.  Exact rational and floating-point pipelines run side
by side: the float route answers fast, the exact route certifies.

Importing the package loads none of its modules: each public name is
imported from its home module on first use.  The series layer
(`padelab.series`, `padelab.rational`) does not import numpy, so
writing and reading series files, and `pade-lab generate`, run
without it; numpy and the solvers load when a solve runs.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOME = {name: module for module, names in {
    "errors": ("PadeLabError", "UsageError", "NumericalError", "InvalidParameterError",
               "OutOfRangeError", "DomainError", "SeriesFormatError", "InvalidInputError",
               "UnsupportedInputError", "UnsupportedSizeError", "ConvergenceError",
               "RankDeficiencyError"),
    "rational": ("QC", "as_fraction", "qc"),
    "series": ("PoleSequence", "PowerSeries", "SeriesMeta", "GammelParams", "block_order",
               "truncation_length", "build_counterexample_series", "build_gammel_series",
               "eval_series", "save_series", "load_series"),
    "toeplitz": ("ToeplitzPair", "SumBoundsReport", "build_pair", "check_sum_bounds"),
    "linalg": ("SingularSpectrum", "SigmaRatioOracle", "svd", "exact_nullspace",
               "exact_sigma_ratio_bounds"),
    "pade": ("PadeApproximant", "Diagnostics", "ReductionStep", "classical_pade",
             "robust_pade", "order_residual"),
    "analysis": ("PoleReport", "CounterexampleReport", "ScanTable", "find_poles",
                 "verify_counterexample", "divergence_scan"),
    "cli": ("main",),
}.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # imported on first use and cached; nothing is imported eagerly, so
    # `python -m padelab.cli` does not find padelab.cli already imported
    # when it runs the module as __main__
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
