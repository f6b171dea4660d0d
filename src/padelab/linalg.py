"""Dense linear algebra for wide (n x m, m >= n) matrices.

Three independent routes live here on purpose:

* :func:`svd` -- the LAPACK SVD in doubles (``np.linalg.svd``), with
  negligible singular values set to exactly 0 and a designated
  nullspace direction;
* :func:`exact_nullspace` -- fraction-free (Bareiss) elimination over
  exact rational-complex scalars;
* :func:`exact_sigma_ratio_bounds` -- certified brackets of the
  extreme singular values: Sylvester's law of inertia applied to an
  exact LDL^H factorization of M M^H - mu I counts the eigenvalues
  below mu.  Float guesses only place the shifts mu; every bracket
  endpoint is proved by an exact count, so a wrong guess cannot yield
  a wrong bracket.

Keeping the float and exact routes independent is what lets the test
suite cross-check one against the other.
"""

from __future__ import annotations

import math
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
from .rational import QC, qc

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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(qc(1 if i == j else 0) for j in range(n))
                         for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_real(self) -> bool:
        return all(e.im == 0 for row in self.entries for e in row)

    def hermitian(self) -> "RationalMatrix":
        return RationalMatrix(tuple(
            tuple(self.entries[i][j].conjugate() for i in range(self.rows))
            for j in range(self.cols)))

    def matvec(self, vec: Sequence) -> tuple:
        v = [qc(x) for x in vec]
        if len(v) != self.cols:
            raise InvalidInputError("matvec dimension mismatch")
        out = []
        for row in self.entries:
            acc = qc(0)
            for e, x in zip(row, v):
                if x:
                    acc = acc + e * x
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InvalidInputError("matmul dimension mismatch")
        ot = list(zip(*other.entries))
        return RationalMatrix(tuple(
            tuple(_dot(row, col) for col in ot) for row in self.entries))

    def gram(self) -> "RationalMatrix":
        """M M^H, Hermitian positive semidefinite."""
        conj_rows = [tuple(e.conjugate() for e in row) for row in self.entries]
        return RationalMatrix(tuple(
            tuple(_dot(row, crow) for crow in conj_rows) for row in self.entries))

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(e) for e in row] for row in self.entries],
                        dtype=complex)


def _dot(row, col):
    acc = qc(0)
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# float SVD (LAPACK)


@dataclass(frozen=True)
class SingularSpectrum:
    """SVD result for a wide matrix M = sum_i sigmas[i] * left[:,i] right[:,i]^H.

    `sigmas` is descending.  `null_vector` is a designated unit vector
    with M v ~ 0 (None for square inputs); its first significant
    component is rotated to the positive real axis.  `ratio` is
    sigma_1/sigma_n, infinite when sigma_n = 0.
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
    :class:`ConvergenceError`.  Pair phases and the designated null
    vector follow fixed conventions, so on one numpy build identical
    input gives identical output.
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
    sigmas[sigmas <= max(n, m) * np.finfo(float).eps * sigmas[0]] = 0.0
    right = right_h.conj().T
    _fix_pair_phases(left, right)

    sigma1 = float(sigmas[0])
    sigman = float(sigmas[-1])
    ratio = math.inf if sigman == 0.0 else sigma1 / sigman

    null_vector = None
    null_residual = 0.0
    if m > n:
        null_vector = _complement_direction(right, sigmas)
        if sigma1 > 0.0:
            null_residual = float(np.linalg.norm(M @ null_vector) / sigma1)
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
# exact elimination (Bareiss)


def _strip_to_field(mat: RationalMatrix):
    """Rows as lists over Fraction (real case) or QC, denominators cleared.

    Row scaling by a positive integer changes neither rank nor nullspace,
    and integer-valued entries keep the fraction-free minors small.
    """
    real = mat.is_real
    rows = []
    for row in mat.entries:
        if real:
            vals = [e.re for e in row]
            dens = [v.denominator for v in vals]
        else:
            vals = list(row)
            dens = []
            for v in vals:
                dens.append(v.re.denominator)
                dens.append(v.im.denominator)
        scale = math.lcm(*dens) if dens else 1
        rows.append([v * scale for v in vals])
    return rows, real


def _echelon_bareiss(rows: list) -> tuple[list, list[int]]:
    """In-place fraction-free row echelon; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0])
    piv_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            if head:
                ri = rows[i]
                rr = rows[r]
                for j in range(c + 1, ncols):
                    ri[j] = (p * ri[j] - head * rr[j]) / prev
                ri[c] = 0 * p
            else:
                ri = rows[i]
                rr = rows[r]
                for j in range(c + 1, ncols):
                    ri[j] = (p * ri[j]) / prev
        piv_cols.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return rows[:r], piv_cols


def _basic_solution(ech: list, piv_cols: list[int], ncols: int, free_col: int, one):
    x = [0 * one] * ncols
    x[free_col] = one
    for i in reversed(range(len(piv_cols))):
        pc = piv_cols[i]
        row = ech[i]
        acc = 0 * one
        for j in range(pc + 1, ncols):
            xv = x[j]
            if xv and row[j]:
                acc = acc + row[j] * xv
        x[pc] = -acc / row[pc]
    first = next(i for i, v in enumerate(x) if v)
    inv = x[first]
    return tuple(v / inv for v in x)


def exact_nullspace(mat: RationalMatrix) -> tuple:
    """Designated exact nullspace vector of a rank-n matrix with n+1 columns.

    Returns the minimal-degree nullspace vector (the basic solution of
    the first free column), normalized so its first nonzero entry is 1.
    If the rank falls below the row count, raises
    :class:`RankDeficiencyError` carrying the exact rank and a full
    basis of basic solutions, minimal degree first.
    """
    if not isinstance(mat, RationalMatrix):
        mat = RationalMatrix.from_rows(mat)
    rows, real = _strip_to_field(mat)
    one = Fraction(1) if real else qc(1)
    ech, piv_cols = _echelon_bareiss(rows)
    rank = len(piv_cols)
    pivset = set(piv_cols)
    free_cols = [c for c in range(mat.cols) if c not in pivset]
    if not free_cols:
        raise InvalidInputError("matrix has a trivial nullspace")
    basis = tuple(_to_qc_vector(_basic_solution(ech, piv_cols, mat.cols, f, one))
                  for f in free_cols)
    if rank < mat.rows:
        raise RankDeficiencyError(rank, basis)
    return basis[0]


def _to_qc_vector(vec: tuple) -> tuple:
    return tuple(qc(v) for v in vec)


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
    """Exact monic characteristic polynomial of M M^H, highest power first."""
    G = mat.gram()
    n = G.rows
    # scale to integer entries: char coefficients unscale by powers of s
    dens = []
    for row in G.entries:
        for e in row:
            dens.append(e.re.denominator)
            dens.append(e.im.denominator)
    s = math.lcm(*dens)
    real = G.is_real
    if real:
        gs = [[e.re * s for e in row] for row in G.entries]
        work = [row[:] for row in gs]
        coeffs = [Fraction(1)]
        for k in range(1, n + 1):
            if k > 1:
                work = _fmatmul(gs, work)
            tr = sum(work[i][i] for i in range(n))
            ck = Fraction(-tr, k)
            coeffs.append(ck / s ** k)
            if k < n:
                for i in range(n):
                    work[i][i] = work[i][i] + ck
        return tuple(coeffs)
    gs = [[e * s for e in row] for row in G.entries]
    work = [row[:] for row in gs]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        if k > 1:
            work = _qmatmul(gs, work)
        tr = work[0][0]
        for i in range(1, n):
            tr = tr + work[i][i]
        ck = -tr / k
        if ck.im != 0:
            raise InvalidInputError("Gram characteristic polynomial must be real")
        coeffs.append(ck.re / s ** k)
        if k < n:
            for i in range(n):
                work[i][i] = work[i][i] + ck
    return tuple(coeffs)


def _fmatmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a]


def _qmatmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = qc(0)
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            orow.append(acc)
        out.append(orow)
    return out


def exact_sigma_ratio_bounds(mat: RationalMatrix, max_rows: int = ORACLE_MAX_ROWS,
                             *, guess: tuple | None = None) -> SigmaRatioOracle:
    """Certified sigma_1/sigma_n from the inertia of the exact Gram matrix.

    By Sylvester's law of inertia, the negative pivots of an exact
    LDL^H factorization of G - mu I count the eigenvalues of G = M M^H
    below mu.  The float guesses (sigma_max, sigma_min) -- from `svd`
    unless given -- only place the probes: two counts per eigenvalue
    prove an enclosure, and a wrong guess can only cost extra probes,
    never a wrong bracket.  Capped at `max_rows` rows.  sigma_n = 0
    reports an infinite ratio rather than an error.
    """
    if not isinstance(mat, RationalMatrix):
        mat = RationalMatrix.from_rows(mat)
    if mat.rows > max_rows:
        raise UnsupportedSizeError(
            f"exact sigma oracle capped at {max_rows} rows, got {mat.rows}")
    if mat.cols < mat.rows:
        raise InvalidInputError("expected rows <= cols")
    if guess is None:
        sigmas = svd(mat).sigmas
        guess = (float(sigmas[0]), float(sigmas[-1]))
    gram, scale2 = _integer_gram(mat)
    real = mat.is_real
    n = mat.rows

    def count_below(x: Fraction) -> int | None:
        # G - x I scaled by x.denominator * scale2 > 0, which keeps its inertia
        shift = x.numerator * scale2
        h = [[x.denominator * e for e in row] for row in gram]
        for i in range(n):
            h[i][i] = h[i][i] - shift
        return _negative_pivots(h, real)

    trace = Fraction(sum(int(_real_part(gram[i][i])) for i in range(n)), scale2)
    lam_max = _enclose(count_below, n - 1, guess[0] ** 2, trace)
    lam_min = _enclose(count_below, 0, guess[1] ** 2, lam_max[1])
    sigma_max = math.sqrt(float(sum(lam_max) / 2))
    sigma_min = math.sqrt(float(sum(lam_min) / 2))
    ratio = math.inf if sigma_min == 0.0 else sigma_max / sigma_min
    ratio_bracket = (_sqrt_quotient(lam_max[0], lam_min[1], up=False),
                     _sqrt_quotient(lam_max[1], lam_min[0], up=True))
    return SigmaRatioOracle(sigma_max=sigma_max, sigma_min=sigma_min, ratio=ratio,
                            ratio_bracket=ratio_bracket, lambda_max_bracket=lam_max,
                            lambda_min_bracket=lam_min, matrix=mat)


def _real_part(x):
    return x.re if isinstance(x, QC) else x


def _integer_gram(mat: RationalMatrix) -> tuple:
    """(S, s^2) with S = (s M)(s M)^H integral, s the common denominator.

    S holds ints when M is real and integral QC values otherwise.
    """
    dens = [d for row in mat.entries for e in row
            for d in (e.re.denominator, e.im.denominator)]
    scale = math.lcm(*dens)
    if mat.is_real:
        rows = [[(e.re * scale).numerator for e in row] for row in mat.entries]
        gram = [[sum(a * b for a, b in zip(r, c)) for c in rows] for r in rows]
    else:
        scaled = RationalMatrix(tuple(tuple(e * scale for e in row)
                                      for row in mat.entries))
        gram = [list(row) for row in scaled.gram().entries]
    return gram, scale * scale


def _negative_pivots(h: list, real: bool) -> int | None:
    """Negative pivots of the LDL^H factorization of the Hermitian matrix h.

    Fraction-free (Bareiss) elimination without pivoting on the upper
    triangle of an integral h (ints, or integral QC values with a real
    diagonal).  Its k-th pivot is the leading principal minor D_k, so
    the LDL^H pivot d_k = D_k / D_(k-1) is real, and it is negative
    exactly where the sign of D_k flips.  Returns None on a zero pivot.
    """
    n = len(h)
    prev = 1
    negative = 0
    for k in range(n):
        rk = h[k]
        p = _real_part(rk[k])
        if p == 0:
            return None
        if (p < 0) != (prev < 0):
            negative += 1
        for i in range(k + 1, n):
            ri = h[i]
            aik = rk[i].conjugate()
            for j in range(i, n):
                v = p * ri[j] - aik * rk[j]
                ri[j] = v // prev if real else v / prev
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
