"""Dense linear algebra for wide (n x m, m >= n) matrices.

Three independent routes live here on purpose:

* :func:`svd` -- the LAPACK SVD in doubles (``np.linalg.svd``), with
  negligible singular values set to exactly 0 and a designated
  nullspace direction;
* :func:`exact_nullspace` -- the exact nullspace vector by
  fraction-free (Bareiss) elimination and fraction-free back
  substitution on Gaussian integers as (re, im) int pairs, a real row
  entering as (v, 0), so Fractions appear only in the returned entries.
  It is the elimination reference for the exact Pade route of
  ``pade``, which never calls it;
* :func:`exact_sigma_ratio_bounds` -- certified brackets of the
  extreme singular values: Sylvester's law of inertia applied to an
  exact LDL^T factorization of the integer Gram matrix, shifted by mu,
  counts the eigenvalues below mu.  The Gram matrix and its
  characteristic polynomial (:func:`gram_char_poly`) are on ints only:
  a complex M is taken through its real form [[P, -Q], [Q, P]], whose
  Gram matrix holds each eigenvalue of M M^H twice.  Float guesses
  only place the shifts mu; every bracket endpoint is proved by an
  exact count, so a wrong guess cannot yield a wrong bracket.

Keeping the float and exact routes independent is what lets the test
suite cross-check one against the other.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    UnsupportedSizeError,
)
from .rational import QC_ZERO, from_gaussian, gaussian_integers, qc

ORACLE_MAX_ROWS = 16     # exact sigma oracle cap


# ---------------------------------------------------------------------------
# exact rational matrices


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rational-complex entries."""

    entries: tuple

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise InvalidInputError("rational matrix must be nonempty")
        width = len(self.entries[0])
        rows = []
        for row in self.entries:
            if len(row) != width:
                raise InvalidInputError("ragged rows in rational matrix")
            rows.append(tuple(qc(e) for e in row))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_real(self) -> bool:
        return all(e.im == 0 for row in self.entries for e in row)

    def matvec(self, vec: Sequence) -> tuple:
        """M v on Gaussian integers: one common denominator for v and one
        for the columns of M that meet a nonzero entry of v."""
        v = [qc(x) for x in vec]
        if len(v) != self.cols:
            raise InvalidInputError("matvec dimension mismatch")
        xs, dv = gaussian_integers(v)
        live = [j for j, (xr, xi) in enumerate(xs) if xr or xi]
        if not live:
            return (qc(0),) * self.rows
        flat, dm = gaussian_integers(row[j] for row in self.entries for j in live)
        out = []
        for base in range(0, len(flat), len(live)):
            re = im = 0
            for (er, ei), j in zip(flat[base:base + len(live)], live):
                xr, xi = xs[j]
                re += er * xr - ei * xi
                im += er * xi + ei * xr
            out.append(from_gaussian(re, im, dm * dv))
        return tuple(out)

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(e) for e in row] for row in self.entries],
                        dtype=complex)


# ---------------------------------------------------------------------------
# float SVD (LAPACK)


@dataclass(frozen=True)
class SingularSpectrum:
    """SVD result for a wide matrix M = sum_i sigmas[i] * left[:,i] right[:,i]^H.

    `sigmas` is descending.  `null_vector` is a designated unit vector
    with M v ~ 0 (None for square inputs); its first significant
    component is rotated to the positive real axis.  `ratio` is
    sigma_1/sigma_n, infinite when sigma_n = 0.  `null_residual` is
    ||(M / sigma_1) v||_2, computed on the scaled matrix so that it
    cannot overflow.
    """

    sigmas: np.ndarray
    ratio: float
    null_vector: np.ndarray | None
    null_residual: float
    left: np.ndarray
    right: np.ndarray
    sweeps: int     # always 0 on LAPACK; perfbench/spans.py still reads it

    def __post_init__(self):
        for name in ("sigmas", "left", "right", "null_vector"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


def _as_complex_matrix(mat) -> np.ndarray:
    if isinstance(mat, RationalMatrix):
        mat = mat.to_numpy()
    M = np.asarray(mat, dtype=complex)
    if M.ndim != 2:
        raise InvalidInputError("expected a 2-d matrix")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("matrix contains non-finite entries")
    return M


def svd(mat) -> SingularSpectrum:
    """LAPACK SVD of a wide matrix (rows <= cols), via ``np.linalg.svd``.

    Singular values at or below max(rows, cols) * eps * sigma_1 (the
    tolerance of ``np.linalg.matrix_rank``) are set to exactly 0, so a
    numerically singular matrix reports an infinite ratio.  A LAPACK
    failure to converge (``np.linalg.LinAlgError``) is re-raised as
    :class:`ConvergenceError`, and a sigma_1 that overflows the float
    range (finite entries near 1e308) as :class:`NumericalError`.  Pair
    phases and the designated null vector follow fixed conventions, so
    on one numpy build identical input gives identical output.
    """
    M = _as_complex_matrix(mat)
    n, m = M.shape
    if n == 0 or m == 0:
        raise InvalidInputError("matrix must be nonempty")
    if m < n:
        raise InvalidInputError(f"expected rows <= cols, got {n}x{m}")
    try:
        left, sigmas, right_h = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc
    if not math.isfinite(sigmas[0]):
        raise NumericalError(f"sigma_1 = {sigmas[0]} overflows the float range")
    sigmas[sigmas <= max(n, m) * np.finfo(float).eps * sigmas[0]] = 0.0
    right = right_h.conj().T
    # not cosmetic: the phased `right` feeds the null-vector projection of
    # _complement_direction, whose rounding, and so the output bits, follow it
    _fix_pair_phases(left, right)

    sigma1 = float(sigmas[0])
    sigman = float(sigmas[-1])
    ratio = math.inf if sigman == 0.0 else sigma1 / sigman

    null_vector = None
    null_residual = 0.0
    if m > n:
        null_vector = _complement_direction(right, sigmas)
        if sigma1 > 0.0:
            null_residual = float(np.linalg.norm((M / sigma1) @ null_vector))
    return SingularSpectrum(sigmas=sigmas, ratio=ratio, null_vector=null_vector,
                            null_residual=null_residual, left=left, right=right,
                            sweeps=0)


def _fix_pair_phases(left: np.ndarray, right: np.ndarray) -> None:
    # common phase per singular pair: largest component of the left vector
    # becomes positive real (rank-1 terms are unchanged by a common phase)
    for i in range(left.shape[1]):
        col = left[:, i]
        j = int(np.argmax(np.abs(col)))
        a = col[j]
        if a != 0:
            w = np.conj(a) / abs(a)
            left[:, i] *= w
            right[:, i] *= w


def _complement_direction(right: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the numerical row space."""
    m = right.shape[0]
    sigma1 = float(sigmas[0]) if len(sigmas) else 0.0
    keep = sigmas > 1e-13 * sigma1 if sigma1 > 0 else np.zeros(len(sigmas), bool)
    R = right[:, keep]
    if R.shape[1] == 0:
        v = np.zeros(m, dtype=complex)
        v[0] = 1.0
        return v
    row_mass = np.sum(np.abs(R) ** 2, axis=1)
    seed = int(np.argmin(row_mass))
    v = np.zeros(m, dtype=complex)
    v[seed] = 1.0
    for _ in range(2):                       # twice is enough for orthogonality
        v = v - R @ (R.conj().T @ v)
    v = v / np.linalg.norm(v)
    return _fix_leading_phase(v)


def _fix_leading_phase(v: np.ndarray) -> np.ndarray:
    mx = float(np.max(np.abs(v)))
    for comp in v:
        if abs(comp) > 1e-12 * mx:
            w = np.conj(comp) / abs(comp)
            return v * w
    return v


# ---------------------------------------------------------------------------
# Weyl perturbation check


@dataclass(frozen=True)
class PerturbationCheck:
    max_shift: float
    norm_delta: float
    passed: bool


def singular_value_perturbation_check(mat, delta, slack: float = 1e-10) -> PerturbationCheck:
    """Check Weyl's inequality max_i |sigma_i(M+D) - sigma_i(M)| <= ||D||_2."""
    M = _as_complex_matrix(mat)
    D = _as_complex_matrix(delta)
    if M.shape != D.shape:
        raise InvalidInputError("matrix and perturbation shapes differ")
    s_m = svd(M).sigmas
    s_md = svd(M + D).sigmas
    norm_delta = float(svd(D).sigmas[0])
    max_shift = float(np.max(np.abs(s_md - s_m)))
    passed = max_shift <= norm_delta + slack * float(s_m[0])
    return PerturbationCheck(max_shift=max_shift, norm_delta=norm_delta, passed=passed)


# ---------------------------------------------------------------------------
# exact nullspace (Bareiss elimination)


def _echelon_bareiss(rows: list) -> tuple[list, list[int]]:
    """In-place fraction-free row echelon; returns (rows, pivot columns).

    Rows hold Gaussian integers as (re, im) int pairs.  Each entry is a
    minor of the input, so every division by the previous pivot q is
    exact: v conj(q) // |q|^2 per component, or v // q when the step is real.
    """
    nrows = len(rows)
    ncols = len(rows[0])
    piv_cols: list[int] = []
    r = 0
    prev = (1, 0)
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if any(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        tail = rows[r][c + 1:]
        for ri in rows[r + 1:]:
            ri[c + 1:] = _gaussian_step(p, ri[c], ri[c + 1:], tail, prev)
            ri[c] = (0, 0)
        piv_cols.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return rows[:r], piv_cols


def _gaussian_step(p: tuple, h: tuple, row: list, tail: list, q: tuple) -> list:
    """[(p v - h t) / q for v, t in zip(row, tail)] in Z[i], q dividing each."""
    pr, pi = p
    hr, hi = h
    qr, qi = q
    if not (pi or hi or qi or any(vi or ti for (_, vi), (_, ti) in zip(row, tail))):
        return [((pr * vr - hr * tr) // qr, 0) for (vr, _), (tr, _) in zip(row, tail)]
    norm = qr * qr + qi * qi
    out = []
    for (vr, vi), (tr, ti) in zip(row, tail):
        wr = pr * vr - pi * vi - hr * tr + hi * ti
        wi = pr * vi + pi * vr - hr * ti - hi * tr
        out.append(((wr * qr + wi * qi) // norm, (wi * qr - wr * qi) // norm))
    return out


def _basic_solution(ech: list, piv_cols: list[int], ncols: int, free_col: int) -> tuple:
    """Basic solution of `free_col` as QC values, first nonzero entry 1.

    Fraction-free: only the t rows whose pivot column precedes free_col
    constrain the solution, and with y_f set to D, the last of their
    pivots (a t x t minor of the input), Cramer's rule makes every
    y_pc an integral minor, so each back-substitution division is
    exact.  The one normalization divides by the first nonzero y_j.
    """
    t = bisect_left(piv_cols, free_col)
    y = [(0, 0)] * ncols
    y[free_col] = ech[t - 1][piv_cols[t - 1]] if t else (1, 0)
    for i in reversed(range(t)):
        pc = piv_cols[i]
        row = ech[i]
        sr = si = 0
        for j in range(pc + 1, free_col + 1):
            (ar, ai), (br, bi) = row[j], y[j]
            sr += ar * br - ai * bi
            si += ar * bi + ai * br
        qr, qi = row[pc]
        norm = qr * qr + qi * qi
        y[pc] = (-(sr * qr + si * qi) // norm, -(si * qr - sr * qi) // norm)
    fr, fi = next(v for v in y if any(v))
    norm = fr * fr + fi * fi
    return tuple(from_gaussian(vr * fr + vi * fi, vi * fr - vr * fi, norm)
                 if vr or vi else QC_ZERO for vr, vi in y)


def exact_nullspace(mat: RationalMatrix) -> tuple:
    """Designated exact nullspace vector of a rank-n matrix with n+1 columns.

    Returns the minimal-degree nullspace vector (the basic solution of
    the first free column), normalized so its first nonzero entry is 1.
    If the rank falls below the row count, raises
    :class:`RankDeficiencyError` carrying the exact rank and a full
    basis of basic solutions, minimal degree first.

    Fraction-free (Bareiss) elimination, for real and Gaussian-rational
    entries alike.  Each row is first scaled by the lcm of its real and
    imaginary denominators into Gaussian integers as (re, im) int pairs,
    so a real row becomes (v, 0) pairs: row scaling by a positive integer
    changes neither rank nor nullspace, and integer entries keep the
    fraction-free minors small.  (`classical_pade` proves its Toeplitz
    systems without B by the Euclidean stages of ``pade``; this function
    is their elimination reference.)
    """
    if not isinstance(mat, RationalMatrix):
        mat = RationalMatrix.from_rows(mat)
    ncols = mat.cols
    nrows = mat.rows
    ech, piv_cols = _echelon_bareiss([gaussian_integers(row)[0] for row in mat.entries])
    rank = len(piv_cols)
    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]
    if not free_cols:
        raise InvalidInputError("matrix has a trivial nullspace")
    basis = tuple(_basic_solution(ech, piv_cols, ncols, f) for f in free_cols)
    if rank < nrows:
        raise RankDeficiencyError(rank, basis)
    return basis[0]


# ---------------------------------------------------------------------------
# exact sigma-ratio oracle (Sylvester inertia of the Gram matrix)

_PROBE_REL = 1e-9        # first certificate probes at guess * (1 -/+ _PROBE_REL)
_BRACKET_REL = 3e-9      # bisection stops at this relative bracket width
_NUDGES = (0, 2 ** -40, -(2 ** -40), 2 ** -34, -(2 ** -34), 2 ** -28, -(2 ** -28))


@dataclass(frozen=True)
class SigmaRatioOracle:
    """Certified extreme singular values of M and their ratio.

    `lambda_max_bracket` and `lambda_min_bracket` are exact closed
    intervals (Fractions) holding the extreme eigenvalues of the Gram
    matrix M M^H; `ratio_bracket` holds sigma_1/sigma_n, rounded
    outward to floats.  `sigma_max`, `sigma_min` and `ratio` are point
    values, checked to lie in those brackets.  A singular Gram matrix
    is proved exactly: `lambda_min_bracket` is (0, 0), `sigma_min` is 0
    and the ratio is infinite.

    `char_poly`, the monic coefficients of det(lambda I - M M^H) with
    the highest power first, is computed on first access only.
    """

    sigma_max: float
    sigma_min: float
    ratio: float
    ratio_bracket: tuple
    lambda_max_bracket: tuple
    lambda_min_bracket: tuple
    matrix: RationalMatrix = field(repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.ratio_bracket
        inside = lo <= self.ratio <= hi
        for sigma, (lam_lo, lam_hi) in ((self.sigma_max, self.lambda_max_bracket),
                                        (self.sigma_min, self.lambda_min_bracket)):
            inside = inside and lam_lo <= Fraction(sigma) ** 2 <= lam_hi
        if not inside:
            raise NumericalError("sigma oracle point value outside its certified bracket")

    @cached_property
    def char_poly(self) -> tuple:
        return gram_char_poly(self.matrix)


def gram_char_poly(mat: RationalMatrix) -> tuple:
    """Exact monic characteristic polynomial of M M^H, highest power first.

    Newton's identities on the integer Gram S of :func:`_integer_gram`:
    k e_k = -sum_{i=1..k} e_(k-i) t_i with t_i = tr(S^i) / copies.  The
    e_k are the (integer) coefficients for s^2 M M^H, so each division
    by k is exact, and the coefficients of M M^H are e_k / s^(2k).
    """
    gram, scale2, copies = _integer_gram(mat)
    traces = []
    power = gram
    for i in range(mat.rows):
        if i:   # S is symmetric: its rows are its columns
            power = [[sum(a * b for a, b in zip(row, col)) for col in gram] for row in power]
        traces.append(sum(power[j][j] for j in range(len(gram))) // copies)
    coeffs = [1]
    for k in range(1, mat.rows + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
    return tuple(Fraction(c, scale2 ** k) for k, c in enumerate(coeffs))


def exact_sigma_ratio_bounds(mat: RationalMatrix, *,
                             guess: tuple | None = None) -> SigmaRatioOracle:
    """Certified sigma_1/sigma_n from the inertia of the exact Gram matrix.

    By Sylvester's law of inertia, the negative pivots of an exact
    LDL^T factorization of the int Gram matrix of :func:`_integer_gram`,
    shifted by mu, count the eigenvalues of G = M M^H below mu (twice
    each for complex M, so the count is halved).  The float guesses
    (sigma_max, sigma_min) -- from `svd` unless given -- only place the
    probes: two counts per eigenvalue prove an enclosure, and a wrong
    guess can only cost extra probes, never a wrong bracket.  Capped at ORACLE_MAX_ROWS rows.  sigma_n = 0
    reports an infinite ratio rather than an error.
    """
    if not isinstance(mat, RationalMatrix):
        mat = RationalMatrix.from_rows(mat)
    if mat.rows > ORACLE_MAX_ROWS:
        raise UnsupportedSizeError(
            f"exact sigma oracle capped at {ORACLE_MAX_ROWS} rows, got {mat.rows}")
    if mat.cols < mat.rows:
        raise InvalidInputError("expected rows <= cols")
    if guess is None:
        sigmas = svd(mat).sigmas
        guess = (float(sigmas[0]), float(sigmas[-1]))
    gram, scale2, copies = _integer_gram(mat)
    size = len(gram)

    def count_below(x: Fraction) -> int | None:
        # the Gram form of G - x I scaled by x.denominator * scale2 > 0,
        # which keeps its inertia
        shift = x.numerator * scale2
        h = [[x.denominator * e for e in row] for row in gram]
        for i in range(size):
            h[i][i] -= shift
        negative = _negative_pivots(h)
        return None if negative is None else negative // copies

    trace = Fraction(sum(gram[i][i] for i in range(size)) // copies, scale2)
    lam_max = _enclose(count_below, mat.rows - 1, guess[0] ** 2, trace)
    lam_min = _enclose(count_below, 0, guess[1] ** 2, lam_max[1])
    sigma_max = math.sqrt(float(sum(lam_max) / 2))
    sigma_min = math.sqrt(float(sum(lam_min) / 2))
    ratio = math.inf if sigma_min == 0.0 else sigma_max / sigma_min
    ratio_bracket = (_sqrt_quotient(lam_max[0], lam_min[1], up=False),
                     _sqrt_quotient(lam_max[1], lam_min[0], up=True))
    return SigmaRatioOracle(sigma_max=sigma_max, sigma_min=sigma_min, ratio=ratio,
                            ratio_bracket=ratio_bracket, lambda_max_bracket=lam_max,
                            lambda_min_bracket=lam_min, matrix=mat)


def _integer_gram(mat: RationalMatrix) -> tuple:
    """(S, s^2, copies): the int Gram S = (s R)(s R)^T, s the common denominator.

    R is M itself when M is real (copies = 1).  A complex M = P + iQ is
    taken through its real form R = [[P, -Q], [Q, P]]: with
    M M^H = A + iB, R R^T = [[A, -B], [B, A]], which holds each
    eigenvalue of M M^H twice (copies = 2).
    """
    flat, scale = gaussian_integers(e for row in mat.entries for e in row)
    pairs = [flat[i:i + mat.cols] for i in range(0, len(flat), mat.cols)]
    real = [[re for re, _ in row] for row in pairs]
    if mat.is_real:
        form, copies = real, 1
    else:
        imag = [[im for _, im in row] for row in pairs]
        form = ([p + [-v for v in q] for p, q in zip(real, imag)]
                + [q + p for p, q in zip(real, imag)])
        copies = 2
    gram = [[sum(a * b for a, b in zip(r, c)) for c in form] for r in form]
    return gram, scale * scale, copies


def _negative_pivots(h: list) -> int | None:
    """Negative pivots of the LDL^T factorization of the symmetric int matrix h.

    Fraction-free (Bareiss) elimination without pivoting on the upper
    triangle.  Its k-th pivot is the leading principal minor D_k, so the
    LDL^T pivot d_k = D_k / D_(k-1) is negative exactly where the sign
    of D_k flips.  Every division is by the previous pivot and exact.
    Returns None on a zero pivot.
    """
    n = len(h)
    prev = 1
    negative = 0
    for k in range(n):
        rk = h[k]
        p = rk[k]
        if p == 0:
            return None
        if (p < 0) != (prev < 0):
            negative += 1
        for i in range(k + 1, n):
            ri = h[i]
            a = rk[i]
            ri[i:] = [(p * v - a * t) // prev for v, t in zip(ri[i:], rk[i:])]
        prev = p
    return negative


def _enclose(count_below, j: int, guess: float, top: Fraction) -> tuple:
    """Exact closed bracket (lo, hi) of the (j+1)-th smallest eigenvalue.

    `count_below(x)` is the exact number of eigenvalues below x (None on
    a zero pivot); the eigenvalue lies in [0, top] to begin with.
    Probes at guess * (1 -/+ delta) certify a tight bracket directly
    when the guess is good; delta widens 1000-fold while a side is
    missing, and bisection then narrows the bracket.  Every endpoint
    comes from a count, so the guess steers the work, never the result.
    """
    lo, hi = Fraction(0), top

    def narrow() -> bool:
        return hi - lo <= _BRACKET_REL * hi

    def probe(x: Fraction) -> None:
        nonlocal lo, hi
        for nudge in _NUDGES:          # step off a zero pivot
            y = x * (1 + Fraction(nudge))
            below = count_below(y)
            if below is not None:
                break
        else:
            raise ConvergenceError(f"zero pivots at every shift near {float(x):.17g}")
        if below <= j:
            lo = max(lo, y)
        else:
            hi = min(hi, y)

    delta = _PROBE_REL
    while delta < 1.0 and not narrow():
        for x in (guess * (1.0 - delta), guess * (1.0 + delta)):
            x = Fraction(x)
            if lo < x < hi:
                probe(x)
        delta *= 1e3
    if j == 0 and lo == 0 and count_below(Fraction(0)) is None:
        # a zero leading minor of a PSD matrix proves it singular
        return Fraction(0), Fraction(0)
    while not narrow():
        mid = Fraction(float((lo + hi) / 2))
        if not lo < mid < hi:
            break
        probe(mid)
    return lo, hi


def _sqrt_quotient(num: Fraction, den: Fraction, up: bool) -> float:
    """sqrt(num / den) rounded outward to a float; inf when den = 0."""
    if den == 0:
        return math.inf
    q = num / den
    r = math.sqrt(float(q))
    if up:
        while Fraction(r) ** 2 < q:
            r = math.nextafter(r, math.inf)
    else:
        while Fraction(r) ** 2 > q:
            r = math.nextafter(r, 0.0)
    return r
