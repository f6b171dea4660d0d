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
  caller-chosen probe points across a range of blocks, exactly on
  Gaussian integers, the experiment showing that well-conditioned
  approximants still fail to converge pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

import numpy as np

from ._jsonfmt import format_float, num
from .errors import InvalidParameterError, NumericalError
from .linalg import ORACLE_MAX_ROWS, exact_sigma_ratio_bounds, svd
from .pade import PadeApproximant, classical_pade
from .rational import (QC, abs2, abs_upper, gaussian_integers, horner, integer_horner,
                       integer_poly, poly_derivative, to_complex)
from .series import (
    PoleSequence,
    PowerSeries,
    GROWTH_EXPONENT,
    _as_qc,
    _coerce_scalar,
    block_order,
    build_counterexample_series,
    check_radius,
    truncation_length,
)
from .toeplitz import build_pair, check_sum_bounds


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


def _sorted_roots(coeffs) -> tuple:
    """Roots of sum coeffs[j] z^j, ordered by (re, im)."""
    if len(coeffs) < 2:
        return ()
    roots = np.roots(list(reversed(coeffs)))
    return tuple(sorted((complex(r) for r in roots), key=lambda w: (w.real, w.imag)))


def check_positive(**settings) -> None:
    """Raise InvalidParameterError for the first setting that is not finite and > 0 (NaN included)."""
    for name, value in settings.items():
        if not 0 < value < math.inf:
            raise InvalidParameterError(f"{name} must be positive and finite")


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
    check_positive(radius_hint=radius_hint, delta_doublet=delta_doublet, tol_spurious=tol_spurious)
    try:
        a_eff = [to_complex(x) for x in r.a_effective]
        b_eff = [to_complex(x) for x in r.b_effective]
    except OverflowError:
        raise NumericalError("an approximant coefficient lies beyond the double range") from None
    pole_locs = _sorted_roots(b_eff)
    zero_locs = _sorted_roots(a_eff)
    a_scale = max((abs(x) for x in a_eff), default=0.0)
    b_norm = math.hypot(*[abs(x) for x in b_eff]) if b_eff else 0.0
    b_prime = poly_derivative(b_eff)
    radius2 = Fraction(radius_hint) ** 2

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
        if abs2(rho) < radius2 and a_scale > 0 and abs(p_val) > tol_spurious * a_scale:
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
    each comparison (max(1, 1/|z_k|) for q, max(1, max|a_j|) for p(z_k),
    and p_ok is None where p_expected is within it); exact mode demands equality.
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
    p_ok: bool | None
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


def _round_to_zero(s: PowerSeries, indices) -> bool:
    """Whether both parts of the family's exact c_j = 16^k z_k^e lie at or
    below 2^-1075, so round to 0, at every j in `indices`.

    Block k holds e = 2^(k+1) - 4 - j at 2^k - 2 <= j <= 2^(k+1) - 4; each
    block walks 2^1075 16^k z_k^e up from e = 0 once, on Gaussian integers
    over one growing denominator, and compares its parts with 1 exactly.
    """
    by_block = {}
    for j in indices:
        k = (j + 3).bit_length() - 1
        by_block.setdefault(k, set()).add(2 ** (k + 1) - 4 - j)
    for k, exponents in by_block.items():
        [(zr, zi)], d = gaussian_integers((_as_qc(s.meta.poles.z(k)),))
        pr, pi, den = 16 ** k << 1075, 0, 1
        for e in range(max(exponents) + 1):
            if e in exponents and max(abs(pr), abs(pi)) > den:
                return False
            pr, pi, den = pr * zr - pi * zi, pr * zi + pi * zr, den * d
    return True


def _coeff_bound_check(s: PowerSeries, last_index: int) -> tuple:
    """(all 0 < |c_j| <= (j+3)^4 for 1 <= j <= last_index, |c_1| == 256).

    On a float series a stored 0 passes the lower bound where the exact
    value rounds to 0 too (`_round_to_zero`), and only there.
    """
    coeffs = s.coeffs[1:last_index + 1]
    zeros = [j for j, c in enumerate(coeffs, 1) if not c]
    bound_ok = (all(abs2(c) <= (j + 3) ** (2 * GROWTH_EXPONENT) for j, c in enumerate(coeffs, 1))
                and (not zeros or not s.exact and _round_to_zero(s, zeros)))
    return bound_ok, abs2(s.coeff(1)) == 4 ** (2 * GROWTH_EXPONENT)


def verify_counterexample(k: int, poles: PoleSequence,
                          exact: bool = False) -> CounterexampleReport:
    """Check every claimed property of counterexample block k.

    Verified claims: the type-(n_k, n_k) denominator is exactly
    1 - z/z_k, the numerator at z_k equals 16^k z_k^(2 n_k) and is
    nonzero (the pole is genuinely spurious), sigma_1/sigma_n of B_n
    stays below 5, the head/tail coefficient sums respect their limits,
    and 16^k -/+ S sandwiches the extreme singular values.

    Expected q and p(z_k) are computed once, exactly, on both routes (a
    float z_k as the dyadic rational it stores); `exact=True` also runs the
    exact `classical_pade` (the extended Euclidean algorithm, proved by
    substitution).  Exact q_ok and p_ok are equalities; float ones hold to
    1e-8 relative, and p_ok is None where that tolerance, 1e-8 max(1, max|a_j|),
    cannot tell 16^k z_k^(2 n_k) from 0: only the exact route certifies it.
    On every block with n <= ORACLE_MAX_ROWS, on either route and whatever
    its poles (a float coefficient as the dyadic rational it stores), the
    exact Gram matrix gives a certified bracket of sigma_1/sigma_n; the
    oracle agrees when the float ratio lies in it, widened by 1e-8
    relative, and is None elsewhere.
    """
    if k < 2:
        raise InvalidParameterError("counterexample blocks start at k = 2")
    poles.require_counterexample_poles(k)
    s = build_counterexample_series(k, poles)
    if exact and not s.exact:
        raise InvalidParameterError("exact verification requires exact pole locations")
    n = block_order(k)
    spike = 16 ** k
    z = _as_qc(poles.z(k))

    approx = classical_pade(s, n, exact=exact)

    # denominator: expect (1, -1/z_k, 0, ..., 0)
    expected_b = (1, -1 / z) + (0,) * (n - 1)
    q_match = max(abs(to_complex(x) - to_complex(e)) for x, e in zip(approx.b, expected_b))

    # numerator at the pole: expect the tiny but nonzero 16^k z_k^(2n)
    p_val = approx.numerator_at(z)
    p_exp = spike * z ** (2 * n)
    p_at_zk, p_expected = to_complex(p_val), to_complex(p_exp)
    p_match = abs(p_at_zk - p_expected)
    if exact:
        q_ok = tuple(approx.b) == expected_b
        p_ok = p_val == p_exp and bool(p_val)
    else:
        q_ok = q_match <= 1e-8 * max(1.0, 1.0 / abs(z))
        p_tol = 1e-8 * max(1.0, max(abs(to_complex(x)) for x in approx.a))
        p_ok = None if abs(p_expected) <= p_tol else p_match <= p_tol

    # float singular spectrum of B_n (the float route already has it),
    # plus the exact oracle when available
    spectrum = svd(build_pair(s, n, exact=False).B) if exact else approx.diagnostics
    sigma1 = float(spectrum.sigmas[0])
    sigman = float(spectrum.sigmas[-1])
    ratio = float(spectrum.ratio)
    ratio_pass = ratio < 5.0

    oracle_ratio = oracle_bracket = oracle_agrees = None
    if n <= ORACLE_MAX_ROWS:
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
    slack = 1e-10 * spike
    sandwich_ok = (sigman >= lo - slack) and (sigma1 <= hi + slack)

    coeff_ok, c1_eq = _coeff_bound_check(s, 2 * n)

    passed = (coeff_ok and c1_eq and q_ok and (p_ok is not False) and ratio_pass
              and bounds_ok and sandwich_ok and (oracle_agrees is not False))
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
    tail_bound: float | None    # bound on what the truncated f omits here, None if unbounded
    error_undetermined: bool    # error <= tail_bound: |f - r_n| may be 0 for all we know


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
    exact: bool         # always true: every scan is exact
    points: tuple
    rows: tuple


def _exact_probe(f, p, q, z: QC) -> tuple:
    """(|q(z)|, |f(z) - p(z)/q(z)| or inf where q(z) = 0), from `integer_horner`
    triples of f, p and q.

    With p = P/dp, q = Q/dq and f = F/df, the error is
    (F Q dp - df P dq) conj(Q) / (df dp |Q|^2), kept exact on Gaussian
    integers; int true division rounds each part once, correctly, so the
    floats equal those of the reduced Fractions.
    """
    qr, qi, dq = integer_horner(q, z)
    abs_q = abs(complex(qr / dq, qi / dq))
    if not (qr or qi):
        return abs_q, math.inf
    fr, fi, df = f(z)
    pr, pi, dp = integer_horner(p, z)
    nr = (fr * qr - fi * qi) * dp - pr * dq * df
    ni = (fr * qi + fi * qr) * dp - pi * dq * df
    scale = df * dp * (qr * qr + qi * qi)
    return abs_q, abs(complex((nr * qr + ni * qi) / scale, (ni * qr - nr * qi) / scale))


def _tail_bound(point, j0: int) -> float | None:
    """T(r) = sum_(j >= j0) (j+3)^4 r^j at r = |point|, rounded up.

    Every coefficient of the family obeys |c_j| <= (j+3)^4: block k's
    spike 16^k sits at j = 2^k - 3, and its geometric part is smaller as
    |z_k| < 1.  So T bounds f minus its truncation before index j0.  The
    ratio of consecutive terms falls with j, so T is at most the first
    term over 1 - (the ratio at j0) when that ratio is below 1.  Else T
    is summed exactly: with P(i) = (j0+3+i)^4, sum_i P(i) r^i equals
    sum_q (Delta^q P)(0) r^q / (1-r)^(q+1).  None when r rounds up to 1.
    """
    r = abs_upper(point)
    if r >= 1:
        return None
    m = j0 + 3
    ratio = Fraction(m + 1, m) ** GROWTH_EXPONENT * r
    if ratio < 1:
        bound = m ** GROWTH_EXPONENT * r ** j0 / (1 - ratio)
    else:
        diffs = [(m + i) ** GROWTH_EXPONENT for i in range(GROWTH_EXPONENT + 1)]
        bound = 0
        for q in range(GROWTH_EXPONENT + 1):
            bound += diffs[0] * r ** (j0 + q) / (1 - r) ** (q + 1)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    try:
        t = float(bound)
    except OverflowError:
        return math.inf
    return t if t >= bound else math.nextafter(t, math.inf)


def divergence_scan(k_max: int, points: tuple = (),
                    poles: PoleSequence | None = None) -> ScanTable:
    """Error of r_(n_k) at each block pole and at fixed probe points.

    `poles` defaults to the harmonic-repeated scheme, where every pole
    value recurs in infinitely many blocks, so the error at such a point
    is infinite along a subsequence: the approximants cannot converge
    there even though every B_(n_k) is well conditioned.  The poles must
    be exact.  `f` is the k_max truncation of the series; every probe
    point must satisfy |z| < radius_hint, which is checked before any
    row, and a float or complex point is then taken as the dyadic
    rational it stores.  Each probe error comes with `tail_bound`, a
    bound on the terms that truncation omits, and `error_undetermined`,
    true when a finite error does not exceed that bound (or no bound
    exists): such an error says nothing about |f - r_n| for the whole f.
    f - r_n = (f q - p)/q is computed exactly on Gaussian integers (f
    once per point, p and q prepared once per row), each part rounded
    once; a pole hit is an exact zero of q.
    """
    if k_max < 2:
        raise InvalidParameterError("scan needs k_max >= 2")
    if poles is None:
        poles = PoleSequence.harmonic_repeated(k_max)
    if not poles.exact:
        raise InvalidParameterError("scan requires exact pole locations")

    s = build_counterexample_series(k_max, poles)
    points = tuple(map(_coerce_scalar, points))     # a literal like '1/4' as a QC
    for p in points:
        check_radius(s, p)
    probe_points = tuple(map(_as_qc, points))
    tails = [_tail_bound(p, truncation_length(k_max)) for p in probe_points]
    # f at each distinct point once: block poles and probe points recur
    f = cache(partial(integer_horner, integer_poly(s.coeffs)))
    rows = []
    for k in range(2, k_max + 1):
        n = block_order(k)
        approx = classical_pade(s, n, exact=True)
        probe = partial(_exact_probe, f, integer_poly(approx.a_effective),
                        integer_poly(approx.b_effective))
        z = poles.z(k)
        abs_q, err = probe(z)
        extras = []
        for p, tail in zip(probe_points, tails):
            pa, pe = probe(p)
            undetermined = pe != math.inf and (tail is None or pe <= tail)
            extras.append(PointError(point=to_complex(p), abs_q=pa, error=pe, tail_bound=tail,
                                     error_undetermined=undetermined))
        rows.append(ScanRow(k=k, n=n, z_k=to_complex(z), abs_q_at_zk=abs_q,
                            error_at_zk=err, extras=tuple(extras)))
    return ScanTable(scheme=poles.generator_tag, k_max=k_max, exact=True,
                     points=tuple(to_complex(p) for p in probe_points),
                     rows=tuple(rows))
