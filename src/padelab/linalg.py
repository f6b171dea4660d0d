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
  extreme singular values: Descartes' rule of signs, exact on the
  real-rooted Gram characteristic polynomial (:func:`gram_char_poly`)
  shifted to mu, counts the eigenvalues below mu.  The Gram matrix
  and its polynomial are on ints only: a complex M is taken through
  its real form [[P, -Q], [Q, P]], whose Gram matrix holds each
  eigenvalue of M M^H twice.  Float guesses only place the shifts mu;
  every bracket endpoint is proved by an exact count, so a wrong guess
  cannot yield a wrong bracket.

Keeping the float and exact routes independent is what lets the test
suite cross-check one against the other.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
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
# exact matrices: sequences of rows of exact scalars


def _exact_rows(mat: Sequence[Sequence]) -> tuple:
    """The rows of `mat` as tuples of QC, checked nonempty and rectangular."""
    rows = tuple(tuple(qc(e) for e in row) for row in mat)
    if not rows or not rows[0]:
        raise InvalidInputError("exact matrix must be nonempty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InvalidInputError("ragged rows in exact matrix")
    return rows


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


def exact_nullspace(mat: Sequence[Sequence]) -> tuple:
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
    rows = _exact_rows(mat)
    ncols = len(rows[0])
    ech, piv_cols = _echelon_bareiss([gaussian_integers(row)[0] for row in rows])
    rank = len(piv_cols)
    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]
    if not free_cols:
        raise InvalidInputError("matrix has a trivial nullspace")
    basis = tuple(_basic_solution(ech, piv_cols, ncols, f) for f in free_cols)
    if rank < len(rows):
        raise RankDeficiencyError(rank, basis)
    return basis[0]


# ---------------------------------------------------------------------------
# exact sigma-ratio oracle (root counts on the Gram characteristic polynomial)

_PROBE_REL = 1e-9        # first certificate probes at guess * (1 -/+ _PROBE_REL)
_BRACKET_REL = 3e-9      # bisection stops at this relative bracket width


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

    `char_poly`, the polynomial every count was made on, is
    :func:`gram_char_poly` of M.
    """

    sigma_max: float
    sigma_min: float
    ratio: float
    ratio_bracket: tuple
    lambda_max_bracket: tuple
    lambda_min_bracket: tuple
    char_poly: tuple

    def __post_init__(self):
        lo, hi = self.ratio_bracket
        inside = lo <= self.ratio <= hi
        for sigma, (lam_lo, lam_hi) in ((self.sigma_max, self.lambda_max_bracket),
                                        (self.sigma_min, self.lambda_min_bracket)):
            inside = inside and lam_lo <= Fraction(sigma) ** 2 <= lam_hi
        if not inside:
            raise NumericalError("sigma oracle point value outside its certified bracket")


def gram_char_poly(mat: Sequence[Sequence]) -> tuple:
    """Exact monic characteristic polynomial of M M^H, highest power first.

    Newton's identities on the integer Gram S of :func:`_integer_gram`:
    k e_k = -sum_{i=1..k} e_(k-i) t_i with t_i = tr(S^i) / copies.  The
    e_k are the (integer) coefficients for s^2 M M^H, so each division
    by k is exact, and the coefficients of M M^H are e_k / s^(2k).  Only
    S^1..S^h, h = ceil(n/2), are formed: S is symmetric, so tr(S^(h+b))
    is the entrywise sum of S^h * S^b.
    """
    gram, scale2, copies = _integer_gram(mat)
    nrows = len(gram) // copies
    powers = [gram]
    for _ in range((nrows + 1) // 2 - 1):   # S is symmetric: its rows are its columns
        powers.append([[sum(a * b for a, b in zip(row, col)) for col in gram]
                       for row in powers[-1]])
    traces = [sum(row[j] for j, row in enumerate(p)) for p in powers]
    for p in powers[:nrows - len(powers)]:
        traces.append(sum(a * b for ra, rb in zip(powers[-1], p) for a, b in zip(ra, rb)))
    coeffs = [1]
    for k in range(1, nrows + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i - 1] for i in range(1, k + 1)) // (k * copies))
    return tuple(Fraction(c, scale2 ** k) for k, c in enumerate(coeffs))


def exact_sigma_ratio_bounds(mat: Sequence[Sequence], *,
                             guess: tuple | None = None) -> SigmaRatioOracle:
    """Certified sigma_1/sigma_n from root counts on the Gram characteristic polynomial.

    :func:`_count_below` counts the eigenvalues of G = M M^H below each
    probe exactly, on :func:`gram_char_poly` (`char_poly` of the result)
    cleared of denominators.  The float guesses (sigma_max, sigma_min)
    -- from `svd` unless given -- only place the probes: two counts per
    eigenvalue prove an enclosure, and a wrong guess can only cost extra
    probes, never a wrong bracket.  A zero constant coefficient proves G
    singular.  Capped at ORACLE_MAX_ROWS rows.  sigma_n = 0 reports an
    infinite ratio rather than an error.
    """
    rows = _exact_rows(mat)
    if len(rows) > ORACLE_MAX_ROWS:
        raise UnsupportedSizeError(
            f"exact sigma oracle capped at {ORACLE_MAX_ROWS} rows, got {len(rows)}")
    if len(rows[0]) < len(rows):
        raise InvalidInputError("expected rows <= cols")
    if guess is None:
        sigmas = svd(rows).sigmas
        guess = (float(sigmas[0]), float(sigmas[-1]))
    char_poly = gram_char_poly(rows)
    scale = math.lcm(*(c.denominator for c in char_poly))
    coeffs = [c.numerator * (scale // c.denominator) for c in char_poly]
    lam_max = _enclose(coeffs, len(rows) - 1, guess[0] ** 2, -char_poly[1])  # tr(G)
    if coeffs[-1]:
        lam_min = _enclose(coeffs, 0, guess[1] ** 2, lam_max[1])
    else:
        lam_min = Fraction(0), Fraction(0)
    sigma_max = math.sqrt(float(sum(lam_max) / 2))
    sigma_min = math.sqrt(float(sum(lam_min) / 2))
    ratio = math.inf if sigma_min == 0.0 else sigma_max / sigma_min
    ratio_bracket = (_sqrt_quotient(lam_max[0], lam_min[1], up=False),
                     _sqrt_quotient(lam_max[1], lam_min[0], up=True))
    return SigmaRatioOracle(sigma_max=sigma_max, sigma_min=sigma_min, ratio=ratio,
                            ratio_bracket=ratio_bracket, lambda_max_bracket=lam_max,
                            lambda_min_bracket=lam_min, char_poly=char_poly)


def _integer_gram(mat: Sequence[Sequence]) -> tuple:
    """(S, s^2, copies): the int Gram S = (s R)(s R)^T, s the common denominator.

    R is M itself when M is real (copies = 1).  A complex M = P + iQ is
    taken through its real form R = [[P, -Q], [Q, P]]: with
    M M^H = A + iB, R R^T = [[A, -B], [B, A]], which holds each
    eigenvalue of M M^H twice (copies = 2).
    """
    rows = _exact_rows(mat)
    ncols = len(rows[0])
    flat, scale = gaussian_integers(e for row in rows for e in row)
    pairs = [flat[i:i + ncols] for i in range(0, len(flat), ncols)]
    real = [[re for re, _ in row] for row in pairs]
    if not any(im for _, im in flat):
        form, copies = real, 1
    else:
        imag = [[im for _, im in row] for row in pairs]
        form = ([p + [-v for v in q] for p, q in zip(real, imag)]
                + [q + p for p, q in zip(real, imag)])
        copies = 2
    gram = [[sum(a * b for a, b in zip(r, c)) for c in form] for r in form]
    return gram, scale * scale, copies


def _count_below(coeffs: Sequence[int], x: Fraction) -> int:
    """Roots below x of the int polynomial `coeffs` (highest power first), all of them real.

    With x = a/b, the roots of b^n P(v/b) are b times those of P, and
    the integer Taylor shift by a moves each to b * root - a.  For a
    polynomial whose roots are all real, Descartes' rule of signs is
    exact: the sign variations of the nonzero shifted coefficients count
    the roots above x, and its trailing zeros count the roots at x.
    """
    a, b = x.numerator, x.denominator
    c = [e * b ** k for k, e in enumerate(coeffs)]
    n = len(c) - 1
    for i in range(n):
        for j in range(1, n + 1 - i):
            c[j] += a * c[j - 1]
    while not c[-1]:
        c.pop()
    signs = [v > 0 for v in c if v]
    variations = sum(p != q for p, q in zip(signs, signs[1:]))
    return len(c) - 1 - variations


def _enclose(coeffs: list, j: int, guess: float, top: Fraction) -> tuple:
    """Exact closed bracket (lo, hi) of the (j+1)-th smallest root of `coeffs`.

    The root lies in [0, top] to begin with, and :func:`_count_below`
    counts the roots below each probe exactly.
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
        if _count_below(coeffs, x) <= j:
            lo = x
        else:
            hi = x

    delta = _PROBE_REL
    while delta < 1.0 and not narrow():
        for x in (guess * (1.0 - delta), guess * (1.0 + delta)):
            x = Fraction(x)
            if lo < x < hi:
                probe(x)
        delta *= 1e3
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
