"""Toeplitz system assembly for Pade approximation.

For a series with coefficients c_0, c_1, ... and order n, the pair is

* A -- (n+1) x (n+1) lower triangular, entry (i, j) = c_{i-j};
* B -- n x (n+1), entry (i, j) = c_{n+i-j+1} in 1-based indexing, so it
  holds c_1..c_{2n} on its anti-band structure.

A nullspace vector b of B is a Pade denominator and a = A b the matching
numerator.  For the counterexample family, B at order n_k = 2^k - 2
splits as 16^k * U + V where U has orthonormal rows and ||V||_2 is
bounded by the coefficient sum S computed in :func:`check_sum_bounds`;
this is what pins the singular-value ratio below (1 + 2/3)/(1 - 2/3) = 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, UnsupportedInputError
from .rational import abs_upper, qc
from .series import PowerSeries, block_order


@dataclass(frozen=True)
class ToeplitzPair:
    """Numerator matrix A and denominator matrix B for one order n."""

    n: int
    A: object          # tuple of QC rows (exact) or complex ndarray
    B: object
    exact: bool

    def __post_init__(self):
        for name in ("A", "B"):
            m = getattr(self, name)
            if isinstance(m, np.ndarray):
                m.setflags(write=False)


def build_pair(s: PowerSeries, n: int, exact: bool) -> ToeplitzPair:
    """Assemble (A, B) at order n from c_0..c_{2n}."""
    if n < 1:
        raise InvalidParameterError("build_pair needs n >= 1")
    s.require_terms(2 * n + 1)
    if exact and not s.exact:
        raise InvalidParameterError("exact pair requested for an inexact series")
    if exact:
        c = [qc(s.coeff(j)) for j in range(2 * n + 1)]
        zero = qc(0)
        a_rows = tuple(tuple(c[i - j] if i >= j else zero for j in range(n + 1))
                       for i in range(n + 1))
        b_rows = tuple(tuple(c[n + i - j + 1] for j in range(n + 1))
                       for i in range(n))
        return ToeplitzPair(n, a_rows, b_rows, True)
    c = s.as_complex_array(2 * n + 1)
    idx = np.arange(n + 1)[:, None] - np.arange(n + 1)[None, :]
    A = np.where(idx >= 0, c[np.clip(idx, 0, None)], 0.0 + 0.0j)
    B = c[n + 1 + np.arange(n)[:, None] - np.arange(n + 1)[None, :]]
    return ToeplitzPair(n, A, B, False)


# ---------------------------------------------------------------------------
# coefficient-sum bounds


def _require_counterexample(s: PowerSeries, k: int) -> None:
    if s.meta.family != "counterexample" or s.meta.poles is None or s.meta.k_max is None:
        raise UnsupportedInputError(
            "coefficient-sum bounds need a counterexample-family series with pole metadata")
    if not (2 <= k <= s.meta.k_max):
        raise InvalidParameterError(
            f"block k={k} outside the materialized range 2..{s.meta.k_max}")


@dataclass(frozen=True)
class SumBoundsReport:
    """Coefficient sums controlling ||V||_2, with their strict limits.

    tail_sum = sum_{j=n}^{2n-1} |c_j|  (limit 16^k / 2)
    head_sum = sum_{j=1}^{n-2} |c_j|   (limit 16^k / 6)
    s_value  = head_sum + tail_sum     (limit 2 * 16^k / 3)

    Each |c_j| is exact for a real c_j and rounded up otherwise, so the
    sums are exact for real coefficients and upper bounds else; the
    comparisons are exact, and the float fields are rounded to nearest.
    When the series is exact with real coefficients `s_exact` carries
    the rational value of s_value.
    """

    k: int
    n: int
    spike: int
    tail_sum: float
    tail_limit: float
    head_sum: float
    head_limit: float
    s_value: float
    s_limit: float
    tail_ok: bool
    head_ok: bool
    s_ok: bool
    exact: bool
    s_exact: Fraction | None


def check_sum_bounds(s: PowerSeries, k: int) -> SumBoundsReport:
    _require_counterexample(s, k)
    n = block_order(k)
    s.require_terms(2 * n)
    spike = 16 ** k
    head = sum(map(abs_upper, s.coeffs[1:n - 1]), Fraction(0))
    tail = sum(map(abs_upper, s.coeffs[n:2 * n]), Fraction(0))
    total = head + tail
    exact = s.exact and all(c.is_real for c in s.coeffs[1:2 * n])
    return SumBoundsReport(k=k, n=n, spike=spike,
                           tail_sum=float(tail), tail_limit=spike / 2,
                           head_sum=float(head), head_limit=spike / 6,
                           s_value=float(total), s_limit=2 * spike / 3,
                           tail_ok=tail < Fraction(spike, 2), head_ok=head < Fraction(spike, 6),
                           s_ok=total < Fraction(2 * spike, 3),
                           exact=exact, s_exact=total if exact else None)
