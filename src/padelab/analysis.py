"""Pole diagnostics, counterexample verification, divergence scans.

Three consumers of the approximation machinery:

* `find_poles` locates poles/zeros of an approximant, pairs nearly
  cancelling pole-zero doublets, and flags spurious poles: poles inside
  the expected analyticity disc whose numerator does not vanish.
* `verify_counterexample` re-derives every claimed property of one
  block of the counterexample family (denominator shape, nonzero
  numerator at the pole, singular value ratio below 5, sum bounds,
  Weyl sandwich) and reports each check separately.
* `divergence_scan` tabulates |f - r_n| at the block poles and at
  caller-chosen probe points across a range of blocks, the experiment
  showing that well-conditioned approximants still fail to converge
  pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._jsonfmt import format_float, num, num_pair
from .errors import InvalidParameterError
from .linalg import ORACLE_MAX_ROWS, exact_sigma_ratio_bounds, svd
from .pade import PadeApproximant, classical_pade
from .rational import QC, horner, poly_derivative, qc, to_complex
from .series import (
    PoleSequence,
    PowerSeries,
    GROWTH_EXPONENT,
    block_order,
    build_counterexample_series,
    eval_series,
)
from .toeplitz import build_pair, check_sum_bounds

__all__ = [
    "PoleInfo",
    "DoubletInfo",
    "SpuriousPole",
    "PoleReport",
    "find_poles",
    "CounterexampleReport",
    "verify_counterexample",
    "PointError",
    "ScanRow",
    "ScanTable",
    "divergence_scan",
]


def _csv_num(x) -> str:
    v = num(x)
    return v if isinstance(v, str) else format_float(v)


# ---------------------------------------------------------------------------
# pole / zero / doublet / spurious classification


@dataclass(frozen=True)
class PoleInfo:
    location: complex
    residue_magnitude: float     # |p(rho) / q'(rho)|, inf when q'(rho) = 0
    denom_residual: float        # |q(rho)|, root-finder backward error


@dataclass(frozen=True)
class DoubletInfo:
    pole: complex
    zero: complex
    separation: float


@dataclass(frozen=True)
class SpuriousPole:
    location: complex
    numerator_magnitude: float


@dataclass(frozen=True)
class PoleReport:
    """Denominator roots split into resolved poles and discarded junk.

    Every entry of `poles` satisfies |q(location)| <= 1e-8 * ||b||_2;
    companion roots failing that are evaluation-noise artifacts (roots
    of trailing coefficients near the rounding floor) and land in
    `discarded` instead, so downstream consumers can trust the listed
    poles without re-checking them.
    """

    poles: tuple
    zeros: tuple
    doublets: tuple
    spurious: tuple
    discarded: tuple
    radius_hint: float
    delta_doublet: float
    tol_spurious: float

    def to_dict(self) -> dict:
        return {
            "poles": [
                {
                    "location": num_pair(p.location),
                    "residue_magnitude": num(p.residue_magnitude),
                    "denom_residual": num(p.denom_residual),
                }
                for p in self.poles
            ],
            "zeros": [num_pair(z) for z in self.zeros],
            "doublets": [
                {
                    "pole": num_pair(d.pole),
                    "zero": num_pair(d.zero),
                    "separation": num(d.separation),
                }
                for d in self.doublets
            ],
            "spurious": [
                {
                    "location": num_pair(p.location),
                    "numerator_magnitude": num(p.numerator_magnitude),
                }
                for p in self.spurious
            ],
            "discarded": [num_pair(z) for z in self.discarded],
            "radius_hint": num(self.radius_hint),
            "delta_doublet": num(self.delta_doublet),
            "tol_spurious": num(self.tol_spurious),
        }


def _sorted_roots(coeffs) -> tuple:
    """Roots of sum coeffs[j] z^j, ordered by (re, im)."""
    if len(coeffs) < 2:
        return ()
    roots = np.roots(list(reversed(coeffs)))
    return tuple(sorted((complex(r) for r in roots), key=lambda w: (w.real, w.imag)))


def find_poles(r: PadeApproximant, radius_hint: float = 1.0,
               delta_doublet: float = 1e-3,
               tol_spurious: float = 1e-6) -> PoleReport:
    """Classify the poles of an approximant.

    A pole within `delta_doublet` of a zero is reported as a doublet (a
    numerically cancelling pair).  A pole with |rho| < radius_hint and
    |p(rho)| > tol_spurious * max|a_j| is reported as spurious: it sits
    where the approximated function is analytic yet its numerator does
    not cancel it.  `tol_spurious` is the knob to tighten when the
    numerator values at the poles are far below the coefficient scale.
    """
    if not (radius_hint > 0):
        raise InvalidParameterError("radius_hint must be positive")
    if not (delta_doublet > 0):
        raise InvalidParameterError("delta_doublet must be positive")
    if not (tol_spurious > 0):
        raise InvalidParameterError("tol_spurious must be positive")

    a_eff = [to_complex(x) for x in r.a_effective]
    b_eff = [to_complex(x) for x in r.b_effective]
    pole_locs = _sorted_roots(b_eff)
    zero_locs = _sorted_roots(a_eff)
    a_scale = max((abs(x) for x in a_eff), default=0.0)
    b_norm = math.hypot(*[abs(x) for x in b_eff]) if b_eff else 0.0
    b_prime = poly_derivative(b_eff)

    poles = []
    doublets = []
    spurious = []
    discarded = []
    for rho in pole_locs:
        residual = abs(horner(b_eff, rho))
        if residual > 1e-8 * b_norm:
            discarded.append(rho)
            continue
        p_val = horner(a_eff, rho)
        qp_val = horner(b_prime, rho) if b_prime else 0.0j
        residue = abs(p_val) / abs(qp_val) if qp_val else math.inf
        poles.append(PoleInfo(location=rho, residue_magnitude=residue,
                              denom_residual=residual))
        if zero_locs:
            nearest = min(zero_locs, key=lambda zeta: abs(rho - zeta))
            sep = abs(rho - nearest)
            if sep < delta_doublet:
                doublets.append(DoubletInfo(pole=rho, zero=nearest, separation=sep))
        if abs(rho) < radius_hint and a_scale > 0 and abs(p_val) > tol_spurious * a_scale:
            spurious.append(SpuriousPole(location=rho, numerator_magnitude=abs(p_val)))

    return PoleReport(poles=tuple(poles), zeros=zero_locs,
                      doublets=tuple(doublets), spurious=tuple(spurious),
                      discarded=tuple(discarded),
                      radius_hint=radius_hint, delta_doublet=delta_doublet,
                      tol_spurious=tol_spurious)


# ---------------------------------------------------------------------------
# per-block counterexample verification


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of every per-block check, one field per claim.

    Float-mode match tolerances are relative to the natural scale of
    each comparison (max(1, 1/|z_k|) for the denominator, the largest
    numerator coefficient for p(z_k)); exact mode demands equality.
    `max_no_reduction_tol` = sigma_n/sigma_1 of B_n is the largest
    relative threshold at which the robust reduction leaves this block
    untouched.
    """

    k: int
    n: int
    exact: bool
    coeff_bound_ok: bool
    c1_equality: bool
    q_match: float
    q_ok: bool
    p_at_zk: complex
    p_expected: complex
    p_match: float
    p_ok: bool
    sigma1: float
    sigman: float
    sigma_ratio: float
    sigma_ratio_pass: bool
    sigma_ratio_oracle: float | None
    sigma_ratio_bracket: tuple | None
    oracle_agrees: bool | None
    tail_sum: float
    tail_limit: float
    head_sum: float
    head_limit: float
    s_value: float
    s_limit: float
    bounds_ok: bool
    sandwich_lo: float
    sandwich_hi: float
    sandwich_ok: bool
    max_no_reduction_tol: float
    passed: bool

    CSV_HEADER = "k,n,sigma1,sigman,ratio,S,S_limit,q_match,p_at_zk_re,p_at_zk_im,pass"

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "exact": self.exact,
            "coeff_bound_ok": self.coeff_bound_ok,
            "c1_equality": self.c1_equality,
            "q_match": num(self.q_match),
            "q_ok": self.q_ok,
            "p_at_zk": num_pair(self.p_at_zk),
            "p_expected": num_pair(self.p_expected),
            "p_match": num(self.p_match),
            "p_ok": self.p_ok,
            "sigma1": num(self.sigma1),
            "sigman": num(self.sigman),
            "sigma_ratio": num(self.sigma_ratio),
            "sigma_ratio_pass": self.sigma_ratio_pass,
            "sigma_ratio_oracle": num(self.sigma_ratio_oracle),
            "sigma_ratio_bracket": (None if self.sigma_ratio_bracket is None
                                    else [num(x) for x in self.sigma_ratio_bracket]),
            "oracle_agrees": self.oracle_agrees,
            "tail_sum": num(self.tail_sum),
            "tail_limit": num(self.tail_limit),
            "head_sum": num(self.head_sum),
            "head_limit": num(self.head_limit),
            "s_value": num(self.s_value),
            "s_limit": num(self.s_limit),
            "bounds_ok": self.bounds_ok,
            "sandwich_lo": num(self.sandwich_lo),
            "sandwich_hi": num(self.sandwich_hi),
            "sandwich_ok": self.sandwich_ok,
            "max_no_reduction_tol": num(self.max_no_reduction_tol),
            "passed": self.passed,
        }

    def csv_row(self) -> str:
        cells = [
            str(self.k),
            str(self.n),
            _csv_num(self.sigma1),
            _csv_num(self.sigman),
            _csv_num(self.sigma_ratio),
            _csv_num(self.s_value),
            _csv_num(self.s_limit),
            _csv_num(self.q_match),
            _csv_num(self.p_at_zk.real),
            _csv_num(self.p_at_zk.imag),
            "1" if self.passed else "0",
        ]
        return ",".join(cells)


def _coeff_bound_check(s: PowerSeries, last_index: int) -> tuple:
    """(all 0 < |c_j| <= (j+3)^4 for 1 <= j <= last_index, |c_1| == 256)."""
    bound_ok = True
    for j in range(1, last_index + 1):
        c = s.coeff(j)
        limit = (j + 3) ** GROWTH_EXPONENT
        if isinstance(c, QC):
            a2 = c.abs2()
            ok = 0 < a2 <= Fraction(limit) ** 2
        else:
            mag = abs(to_complex(c))
            ok = 0.0 < mag <= float(limit)
        if not ok:
            bound_ok = False
            break
    c1 = s.coeff(1)
    if isinstance(c1, QC):
        c1_eq = c1.abs2() == Fraction(4 ** GROWTH_EXPONENT) ** 2
    else:
        c1_eq = abs(to_complex(c1)) == float(4 ** GROWTH_EXPONENT)
    return bound_ok, c1_eq


def verify_counterexample(k: int, poles: PoleSequence, exact: bool = False,
                          with_oracle: bool | None = None,
                          q_tol: float = 1e-8, p_tol: float = 1e-8,
                          sandwich_slack: float = 1e-10) -> CounterexampleReport:
    """Check every claimed property of counterexample block k.

    Verified claims: the type-(n_k, n_k) denominator is exactly
    1 - z/z_k, the numerator at z_k equals 16^k z_k^(2 n_k) and is
    nonzero (the pole is genuinely spurious), sigma_1/sigma_n of B_n
    stays below 5, the head/tail coefficient sums respect their limits,
    and 16^k -/+ S sandwiches the extreme singular values.

    `exact=True` routes the approximant through rational elimination so
    the q and p comparisons are equalities.  `with_oracle` adds a
    certified bracket of the singular value ratio from the exact Gram
    matrix; the oracle agrees when the float ratio lies in that bracket,
    widened by 1e-8 relative.  The default enables it when the series
    is exact and the system is small enough for that route.
    """
    if k < 2:
        raise InvalidParameterError("counterexample blocks start at k = 2")
    poles.require_counterexample_poles(k)
    s = build_counterexample_series(k, poles)
    if exact and not s.exact:
        raise InvalidParameterError("exact verification requires exact pole locations")
    n = block_order(k)
    spike = 16 ** k
    z = poles.z(k)
    zc = to_complex(z)

    approx = classical_pade(s, n, exact=exact)

    # denominator: expect (1, -1/z_k, 0, ..., 0)
    if exact:
        inv = qc(1) / qc(z)
        expected_b = (qc(1), -inv) + (qc(0),) * (n - 1)
        q_exact_eq = tuple(approx.b) == expected_b
        q_match = 0.0 if q_exact_eq else max(
            abs(to_complex(x) - to_complex(e)) for x, e in zip(approx.b, expected_b))
        q_ok = q_exact_eq
    else:
        expected_bc = (1.0 + 0.0j, -1.0 / zc) + (0.0j,) * (n - 1)
        q_match = max(abs(x - e) for x, e in zip(approx.b, expected_bc))
        q_ok = q_match <= q_tol * max(1.0, 1.0 / abs(zc))

    # numerator at the pole: expect the tiny but nonzero 16^k z_k^(2n)
    if exact:
        p_val = approx.numerator_at(z)
        p_exp = qc(spike) * qc(z) ** (2 * n)
        p_eq = p_val == p_exp
        p_match = 0.0 if p_eq else abs(to_complex(p_val) - to_complex(p_exp))
        p_ok = p_eq and bool(p_val)
        p_at_zk = to_complex(p_val)
        p_expected = to_complex(p_exp)
    else:
        p_at_zk = approx.numerator_at(zc)
        p_expected = complex(spike) * zc ** (2 * n)
        p_match = abs(p_at_zk - p_expected)
        p_scale = max(1.0, max(abs(to_complex(x)) for x in approx.a))
        p_ok = p_match <= p_tol * p_scale

    # float singular spectrum of B_n (the float route already has it),
    # plus the exact oracle when available
    if exact:
        spectrum = svd(build_pair(s, n, exact=False).B)
        sigmas, ratio = spectrum.sigmas, spectrum.ratio
    else:
        sigmas, ratio = approx.diagnostics.sigmas, approx.diagnostics.ratio
    sigma1 = float(sigmas[0])
    sigman = float(sigmas[-1])
    ratio = float(ratio)
    ratio_pass = ratio < 5.0

    if with_oracle is None:
        with_oracle = s.exact and n <= ORACLE_MAX_ROWS
    oracle_ratio = None
    oracle_bracket = None
    oracle_agrees = None
    if with_oracle:
        if not s.exact:
            raise InvalidParameterError("sigma-ratio oracle requires an exact series")
        oracle = exact_sigma_ratio_bounds(build_pair(s, n, exact=True).B,
                                          guess=(sigma1, sigman))
        oracle_ratio = float(oracle.ratio)
        oracle_bracket = oracle.ratio_bracket
        lo, hi = oracle_bracket
        oracle_agrees = (math.isfinite(oracle_ratio)
                         and lo * (1 - 1e-8) <= ratio <= hi * (1 + 1e-8))

    sums = check_sum_bounds(s, k)
    bounds_ok = sums.tail_ok and sums.head_ok and sums.s_ok
    lo = spike - sums.s_value
    hi = spike + sums.s_value
    slack = sandwich_slack * spike
    sandwich_ok = (sigman >= lo - slack) and (sigma1 <= hi + slack)

    coeff_ok, c1_eq = _coeff_bound_check(s, 2 * n)

    passed = (coeff_ok and c1_eq and q_ok and p_ok and ratio_pass
              and bounds_ok and sandwich_ok
              and (oracle_agrees is not False))
    return CounterexampleReport(
        k=k, n=n, exact=exact,
        coeff_bound_ok=coeff_ok, c1_equality=c1_eq,
        q_match=q_match, q_ok=q_ok,
        p_at_zk=p_at_zk, p_expected=p_expected, p_match=p_match, p_ok=p_ok,
        sigma1=sigma1, sigman=sigman, sigma_ratio=ratio,
        sigma_ratio_pass=ratio_pass,
        sigma_ratio_oracle=oracle_ratio, sigma_ratio_bracket=oracle_bracket,
        oracle_agrees=oracle_agrees,
        tail_sum=sums.tail_sum, tail_limit=sums.tail_limit,
        head_sum=sums.head_sum, head_limit=sums.head_limit,
        s_value=sums.s_value, s_limit=sums.s_limit, bounds_ok=bounds_ok,
        sandwich_lo=lo, sandwich_hi=hi, sandwich_ok=sandwich_ok,
        max_no_reduction_tol=sigman / sigma1 if sigma1 > 0 else 0.0,
        passed=passed)


# ---------------------------------------------------------------------------
# divergence scan


@dataclass(frozen=True)
class PointError:
    point: complex
    abs_q: float
    error: float        # inf when the denominator vanishes at the point


@dataclass(frozen=True)
class ScanRow:
    k: int
    n: int
    z_k: complex
    abs_q_at_zk: float
    error_at_zk: float
    extras: tuple


@dataclass(frozen=True)
class ScanTable:
    scheme: str
    k_max: int
    exact: bool
    points: tuple
    rows: tuple

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "k_max": self.k_max,
            "exact": self.exact,
            "points": [num_pair(p) for p in self.points],
            "rows": [
                {
                    "k": row.k,
                    "n": row.n,
                    "z_k": num_pair(row.z_k),
                    "abs_q_at_zk": num(row.abs_q_at_zk),
                    "error_at_zk": num(row.error_at_zk),
                    "extras": [
                        {
                            "point": num_pair(e.point),
                            "abs_q": num(e.abs_q),
                            "error": num(e.error),
                        }
                        for e in row.extras
                    ],
                }
                for row in self.rows
            ],
        }


def _probe(s: PowerSeries, approx, z, exact: bool, tol_hit: float) -> tuple:
    """(|q(z)|, |f(z) - r(z)| or inf at a denominator zero)."""
    if exact:
        q_val = approx.denominator_at(z)
        abs_q = abs(to_complex(q_val))
        if not q_val:
            return abs_q, math.inf
        r_val = approx.numerator_at(z) / q_val
        f_val = eval_series(s, z).value
        return abs_q, abs(to_complex(f_val - r_val))
    zc = to_complex(z)
    q_val = approx.denominator_at(zc)
    abs_q = abs(q_val)
    if abs_q <= tol_hit:
        return abs_q, math.inf
    r_val = approx.numerator_at(zc) / q_val
    f_val = eval_series(s, zc).value
    return abs_q, abs(f_val - r_val)


def divergence_scan(k_max: int, scheme: str = "harmonic_repeated",
                    exact: bool = True, points: tuple = (),
                    poles: PoleSequence | None = None) -> ScanTable:
    """Error of r_(n_k) at each block pole and at fixed probe points.

    With the harmonic-repeated scheme every pole value recurs in
    infinitely many blocks, so the error at such a point is infinite
    along a subsequence: the approximants cannot converge there even
    though every B_(n_k) is well conditioned.  `f` is the k_max
    truncation of the series; probe points must satisfy |z| <
    radius_hint.  Exact mode detects denominator zeros exactly; float
    mode treats |q(z)| below 1e-10 * (1 + |z|/min_k |z_k|) as a hit.
    """
    if k_max < 2:
        raise InvalidParameterError("scan needs k_max >= 2")
    if poles is None:
        if scheme == "harmonic_repeated":
            poles = PoleSequence.harmonic_repeated(k_max)
        elif scheme == "harmonic":
            poles = PoleSequence.harmonic(k_max)
        else:
            raise InvalidParameterError(
                f"unknown pole scheme {scheme!r} (harmonic, harmonic_repeated)")
    else:
        scheme = poles.generator_tag
    if exact and not poles.exact:
        raise InvalidParameterError("exact scan requires exact pole locations")

    s = build_counterexample_series(k_max, poles)
    if exact:
        try:
            probe_points = tuple(qc(p) for p in points)
        except TypeError as err:
            raise InvalidParameterError(
                "exact scan requires exact probe points (int, Fraction, "
                "or rational literals like '1/4')") from err
    else:
        probe_points = tuple(to_complex(p) for p in points)
    min_abs = min(abs(z) for z in poles.as_complex())

    rows = []
    for k in range(2, k_max + 1):
        n = block_order(k)
        approx = classical_pade(s, n, exact=exact)
        z = poles.z(k)
        zc = to_complex(z)
        tol_hit = 1e-10 * (1.0 + abs(zc) / min_abs)
        abs_q, err = _probe(s, approx, z if exact else zc, exact, tol_hit)
        extras = []
        for p in probe_points:
            pc = to_complex(p)
            tol_p = 1e-10 * (1.0 + abs(pc) / min_abs)
            pa, pe = _probe(s, approx, p, exact, tol_p)
            extras.append(PointError(point=pc, abs_q=pa, error=pe))
        rows.append(ScanRow(k=k, n=n, z_k=zc, abs_q_at_zk=abs_q,
                            error_at_zk=err, extras=tuple(extras)))
    return ScanTable(scheme=scheme, k_max=k_max, exact=exact,
                     points=tuple(to_complex(p) for p in probe_points),
                     rows=tuple(rows))
