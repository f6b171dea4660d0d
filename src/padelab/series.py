"""Power-series generators and evaluation.

Two built-in families:

* the *counterexample* family: a lacunary series with geometric blocks
  tied to a prescribed pole sequence z_2, z_3, ...  Block k occupies
  indices {2^k - 3} and [2^k - 2, 2^(k+1) - 4]; the isolated index
  carries the spike 16^k and the rest decays geometrically in z_k.  By
  construction the order-(n_k, n_k) Pade approximant with n_k = 2^k - 2
  has denominator 1 - z/z_k, i.e. a pole pinned at z_k, while the
  underlying coefficient matrix stays well conditioned.
* the *gammel* family: blocks alpha_k * (z/z_k)^n for
  n = 2^k - 1 ... 2^(k+1) - 2, the classic recipe for planting
  near-cancelling pole/zero pairs in a convergent series.

Coefficients are exact (:class:`padelab.rational.QC`) whenever the
defining data is rational, else double-precision complex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _jsonfmt
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
    SeriesFormatError,
    UnsupportedInputError,
)
from .rational import QC, as_fraction, horner, is_exact_scalar, qc, to_complex

_ONE_THIRD_SQ = Fraction(1, 9)


def _coerce_scalar(x):
    """Exact values become QC, everything else complex."""
    if isinstance(x, QC):
        return x
    if is_exact_scalar(x):
        return qc(x)
    if isinstance(x, str):
        return qc(x)
    return complex(x)


# ---------------------------------------------------------------------------
# pole sequences


@dataclass(frozen=True)
class PoleSequence:
    """Ordered pole locations z_k, indexed from `start_index`.

    Every point must satisfy 0 < |z_k| < 1.  The tighter bound
    |z_k| < 1/3 required by the counterexample family is checked by
    the operations that rely on it, not at construction, so that other
    families may reuse the type.
    """

    points: tuple
    generator_tag: str = "explicit_list"
    start_index: int = 2

    def __post_init__(self):
        if self.generator_tag not in ("explicit_list", "harmonic_repeated"):
            raise InvalidParameterError(f"unknown pole generator tag {self.generator_tag!r}")
        if not self.points:
            raise InvalidParameterError("pole sequence must contain at least one point")
        coerced = tuple(_coerce_scalar(p) for p in self.points)
        for idx, z in enumerate(coerced):
            if isinstance(z, QC):
                a2 = z.abs2()
                ok = 0 < a2 < 1
            else:
                ok = 0.0 < abs(z) < 1.0
            if not ok:
                raise InvalidParameterError(
                    f"pole z_{self.start_index + idx} = {z!r} outside the punctured unit disc")
        object.__setattr__(self, "points", coerced)

    # -- constructors --------------------------------------------------

    @classmethod
    def harmonic(cls, k_max: int) -> "PoleSequence":
        """z_k = 1/(k+2) for k = 2..k_max."""
        if k_max < 2:
            raise InvalidParameterError("harmonic pole sequence needs k_max >= 2")
        return cls(tuple(Fraction(1, k + 2) for k in range(2, k_max + 1)))

    @classmethod
    def harmonic_repeated(cls, k_max: int) -> "PoleSequence":
        """Growing harmonic prefixes: 1/4 | 1/4, 1/5 | 1/4, 1/5, 1/6 | ...

        Every value 1/m recurs infinitely often in the infinite scheme;
        the materialized prefix covers k = 2..k_max.
        """
        if k_max < 2:
            raise InvalidParameterError("harmonic-repeated pole sequence needs k_max >= 2")
        pts: list[Fraction] = []
        group = 1
        while len(pts) < k_max - 1:
            pts.extend(Fraction(1, m + 3) for m in range(1, group + 1))
            group += 1
        return cls(tuple(pts[: k_max - 1]), generator_tag="harmonic_repeated")

    @classmethod
    def explicit(cls, values: Sequence, start_index: int = 2) -> "PoleSequence":
        return cls(tuple(values), start_index=start_index)

    # -- accessors -----------------------------------------------------

    @property
    def exact(self) -> bool:
        return all(isinstance(z, QC) for z in self.points)

    @property
    def max_index(self) -> int:
        return self.start_index + len(self.points) - 1

    def z(self, k: int):
        if not (self.start_index <= k <= self.max_index):
            raise OutOfRangeError(f"pole z_{k} not defined (have k = "
                                  f"{self.start_index}..{self.max_index})")
        return self.points[k - self.start_index]

    def as_complex(self) -> tuple:
        return tuple(to_complex(z) for z in self.points)

    def counterexample_admissible(self, k_hi: int | None = None) -> bool:
        """All required poles strictly inside |z| < 1/3."""
        hi = self.max_index if k_hi is None else k_hi
        for k in range(self.start_index, hi + 1):
            z = self.z(k)
            if isinstance(z, QC):
                if not z.abs2() < _ONE_THIRD_SQ:
                    return False
            elif not abs(z) < 1 / 3:
                return False
        return True

    def require_counterexample_poles(self, k_hi: int) -> None:
        if self.start_index != 2:
            raise InvalidParameterError("counterexample poles must be indexed from k = 2")
        if self.max_index < k_hi:
            raise OutOfRangeError(
                f"pole sequence ends at k = {self.max_index}, need k = {k_hi}")
        if not self.counterexample_admissible(k_hi):
            raise InvalidParameterError("counterexample poles must satisfy 0 < |z_k| < 1/3")


# ---------------------------------------------------------------------------
# series container


@dataclass(frozen=True)
class SeriesMeta:
    family: str = "custom"
    k_max: int | None = None
    poles: PoleSequence | None = None
    alphas: tuple | None = None


class EvalResult(NamedTuple):
    value: object        # complex, or QC on the exact path
    terms: int           # number of coefficients consumed


@dataclass(frozen=True)
class PowerSeries:
    """Coefficient stream c_0, c_1, ... with metadata.

    Either `coeffs` (a materialized tuple, `known_len = len(coeffs)`) or
    `coeff_fn` (an unbounded stream, `known_len is None`) is set.
    """

    coeffs: tuple | None
    exact: bool
    radius_hint: float = 1.0
    meta: SeriesMeta = field(default_factory=SeriesMeta)
    coeff_fn: Callable[[int], complex] | None = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.coeff_fn is None):
            raise InvalidParameterError("exactly one of coeffs / coeff_fn must be given")
        if not (self.radius_hint > 0):
            raise InvalidParameterError("radius_hint must be positive")
        if self.coeffs is not None:
            coerced = tuple(_coerce_scalar(c) for c in self.coeffs)
            if self.exact and not all(isinstance(c, QC) for c in coerced):
                raise InvalidParameterError("exact series requires rational coefficients")
            object.__setattr__(self, "coeffs", coerced)
        elif self.exact:
            raise InvalidParameterError("stream-backed series cannot claim exactness")

    @classmethod
    def from_coefficients(cls, values: Sequence, radius_hint: float = 1.0,
                          meta: SeriesMeta | None = None) -> "PowerSeries":
        coerced = tuple(_coerce_scalar(v) for v in values)
        exact = all(isinstance(c, QC) for c in coerced)
        return cls(coerced, exact, radius_hint, meta or SeriesMeta())

    @classmethod
    def from_fn(cls, fn: Callable[[int], complex], radius_hint: float = 1.0,
                meta: SeriesMeta | None = None) -> "PowerSeries":
        return cls(None, False, radius_hint, meta or SeriesMeta(), coeff_fn=fn)

    @property
    def known_len(self) -> int | None:
        return None if self.coeffs is None else len(self.coeffs)

    @property
    def is_finite(self) -> bool:
        return self.coeffs is not None

    def coeff(self, j: int):
        if j < 0:
            raise OutOfRangeError("coefficient index must be nonnegative")
        if self.coeffs is not None:
            if j >= len(self.coeffs):
                have = (f"c_0..c_{len(self.coeffs) - 1}" if self.coeffs
                        else "no coefficients")
                raise OutOfRangeError(f"series provides {have}, asked for c_{j}")
            return self.coeffs[j]
        return self.coeff_fn(j)

    def require_terms(self, count: int) -> None:
        if self.coeffs is not None and len(self.coeffs) < count:
            raise OutOfRangeError(
                f"need {count} coefficients, series provides {len(self.coeffs)}")

    def as_complex_array(self, count: int | None = None) -> np.ndarray:
        if count is None:
            if self.coeffs is None:
                raise UnsupportedInputError("unbounded series needs an explicit count")
            count = len(self.coeffs)
        self.require_terms(count)
        return np.array([to_complex(self.coeff(j)) for j in range(count)], dtype=complex)


# ---------------------------------------------------------------------------
# counterexample family

GROWTH_EXPONENT = 4     # coefficient bound: 0 < |c_j| <= (j + 3)^4 for j >= 1


def block_order(k: int) -> int:
    """Approximation order n_k = 2^k - 2 attached to block k."""
    return 2 ** k - 2


def spike_index(k: int) -> int:
    return 2 ** k - 3


def block_end(k: int) -> int:
    return 2 ** (k + 1) - 4


def block_of_index(j: int) -> int:
    """Block number k with spike_index(k) <= j <= block_end(k), for j >= 1."""
    if j < 1:
        raise OutOfRangeError("blocks start at index 1")
    return (j + 3).bit_length() - 1


def truncation_length(k_max: int) -> int:
    """Coefficient count of the complete-block truncation: 2^(k_max+1) - 3."""
    return 2 ** (k_max + 1) - 3


def counterexample_coeff(k_max: int, poles: PoleSequence, j: int):
    """Single coefficient c_j of the counterexample truncation.

    c_0 = 1; c_{2^k-3} = 16^k; c_j = 16^k * z_k^(2^(k+1)-4-j) on the
    geometric part of block k.
    """
    if k_max < 2:
        raise InvalidParameterError("counterexample family needs k_max >= 2")
    poles.require_counterexample_poles(k_max)
    if not (0 <= j <= block_end(k_max)):
        raise OutOfRangeError(
            f"index {j} outside the k_max={k_max} truncation 0..{block_end(k_max)}")
    exact = poles.exact
    if j == 0:
        return qc(1) if exact else complex(1.0)
    k = block_of_index(j)
    spike = 16 ** k
    if j == spike_index(k):
        return qc(spike) if exact else complex(spike)
    z = poles.z(k)
    return spike * z ** (block_end(k) - j)


def build_counterexample_series(k_max: int, poles: PoleSequence) -> PowerSeries:
    """Materialize the counterexample series through block k_max.

    The truncation always ends on a complete block boundary, giving
    2^(k_max+1) - 3 coefficients c_0..c_{2^(k_max+1)-4}.
    """
    if k_max < 2:
        raise InvalidParameterError("counterexample family needs k_max >= 2")
    poles.require_counterexample_poles(k_max)
    exact = poles.exact
    one = qc(1) if exact else complex(1.0)
    coeffs: list = [one]
    for k in range(2, k_max + 1):
        spike = 16 ** k
        spike_val = qc(spike) if exact else complex(spike)
        coeffs.append(spike_val)
        z = poles.z(k)
        zinv = 1 / z
        # walk the geometric part upward, one exponent drop per index
        val = spike * z ** (block_order(k))
        coeffs.append(val)
        for _ in range(block_order(k) + 1, block_end(k) + 1):
            val = val * zinv
            coeffs.append(val)
    meta = SeriesMeta(family="counterexample", k_max=k_max, poles=poles)
    return PowerSeries(tuple(coeffs), exact, 1.0, meta)


# ---------------------------------------------------------------------------
# gammel family


@dataclass(frozen=True)
class GammelParams:
    """Block weights and poles for the gammel family.

    `alphas[k-1]` weights block k (k >= 1), which spans exponents
    n = 2^k - 1 .. 2^(k+1) - 2 with terms alpha_k * (z/z_k)^n.
    Weights must be supplied explicitly; :func:`default_gammel_alpha`
    offers one convergent choice.
    """

    alphas: tuple
    poles: PoleSequence
    radius_hint: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(_coerce_scalar(a) for a in self.alphas))
        if self.poles.start_index != 1:
            raise InvalidParameterError("gammel poles are indexed from k = 1")
        if not (self.radius_hint > 0):
            raise InvalidParameterError("radius_hint must be positive")

    @property
    def exact(self) -> bool:
        return self.poles.exact and all(isinstance(a, QC) for a in self.alphas)


def default_gammel_alpha(k: int) -> Fraction:
    """alpha_k = 4^(-k^2), one choice that keeps partial sums tame."""
    if k < 1:
        raise InvalidParameterError("gammel blocks are indexed from k = 1")
    return Fraction(1, 4 ** (k * k))


def gammel_block_of(n: int) -> int:
    """Block k with 2^k - 1 <= n <= 2^(k+1) - 2, for n >= 1."""
    if n < 1:
        raise OutOfRangeError("gammel blocks start at exponent 1")
    return (n + 1).bit_length() - 1


def build_gammel_series(params: GammelParams, j_max: int) -> PowerSeries:
    """Materialize c_0..c_{j_max} of the gammel family."""
    if j_max < 0:
        raise InvalidParameterError("j_max must be nonnegative")
    exact = params.exact
    one = qc(1) if exact else complex(1.0)
    zero = qc(0) if exact else complex(0.0)
    coeffs: list = [one]
    if j_max >= 1:
        top_block = gammel_block_of(j_max)
        if len(params.alphas) < top_block:
            raise InvalidParameterError(
                f"insufficient alphas: block k={top_block} reaches j_max={j_max}, "
                f"got {len(params.alphas)} weights")
    for n in range(1, j_max + 1):
        k = gammel_block_of(n)
        alpha = params.alphas[k - 1]
        if not alpha:
            coeffs.append(zero)
            continue
        try:
            z = params.poles.z(k)
        except OutOfRangeError as exc:
            raise InvalidParameterError(
                f"pole z_{k} required for a nonzero alpha_{k}") from exc
        coeffs.append(alpha * (1 / z) ** n)
    meta = SeriesMeta(family="gammel", k_max=gammel_block_of(j_max) if j_max >= 1 else 0,
                      poles=params.poles, alphas=params.alphas)
    return PowerSeries(tuple(coeffs), exact, params.radius_hint, meta)


# ---------------------------------------------------------------------------
# evaluation


def growth_tail_bound(n_last: int, x: float) -> float:
    """Upper bound for sum_{j > n_last} (j+3)^4 * x^j with 0 <= x < 1."""
    if not (0 <= x < 1):
        raise DomainError("growth tail bound needs 0 <= x < 1")
    if x == 0:
        return 0.0
    target = (1.0 + x) / 2.0
    j = n_last + 1
    term = (j + 3) ** 4 * x ** j
    total = 0.0
    while True:
        ratio = x * ((j + 4) / (j + 3)) ** 4
        if ratio <= target:
            return total + term / (1.0 - ratio)
        total += term
        j += 1
        term *= x * ((j + 3) / (j + 2)) ** 4


def eval_series(s: PowerSeries, z, rel_tol: float = 1e-12,
                max_terms: int = 200_000) -> EvalResult:
    """Evaluate the series at z.

    Finite series are evaluated as polynomials (exactly, when both the
    series and z are rational).  Stream-backed series are summed until
    the growth-bound tail estimate drops below rel_tol times the
    partial sum.
    """
    zc = to_complex(z)
    if not abs(zc) < s.radius_hint:
        raise DomainError(f"|z| = {abs(zc)} outside radius_hint = {s.radius_hint}")
    if s.is_finite:
        if s.exact and is_exact_scalar(z):
            return EvalResult(horner(s.coeffs, qc(z)), len(s.coeffs))
        return EvalResult(complex(horner(s.as_complex_array(), zc)), len(s.coeffs))
    if not (0 < rel_tol < 1):
        raise InvalidParameterError("rel_tol must lie in (0, 1)")
    ax = abs(zc)
    partial = 0.0 + 0.0j
    zpow = 1.0 + 0.0j
    for j in range(max_terms):
        partial += to_complex(s.coeff(j)) * zpow
        zpow *= zc
        if j >= 4 and j % 8 == 0 and partial != 0:
            if growth_tail_bound(j, ax) <= rel_tol * abs(partial):
                return EvalResult(partial, j + 1)
    raise ConvergenceError(
        f"series tail not below rel_tol={rel_tol} within {max_terms} terms",
        residual=growth_tail_bound(max_terms - 1, ax))


# ---------------------------------------------------------------------------
# file round trip


def _scalar_from_json(entry, where: str, exact: bool):
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise SeriesFormatError(f"{where}: expected an [re, im] pair, got {entry!r}")
    parts = []
    for component in entry:
        if isinstance(component, str):
            try:
                parts.append(as_fraction(component))
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise SeriesFormatError(f"{where}: bad rational literal {component!r}") from exc
        elif isinstance(component, bool):
            raise SeriesFormatError(f"{where}: booleans are not numbers")
        elif isinstance(component, (int, float)):
            if not math.isfinite(component):
                raise SeriesFormatError(f"{where}: non-finite component {component!r}")
            parts.append(component)
        else:
            raise SeriesFormatError(f"{where}: unsupported component {component!r}")
    if exact:
        if not all(isinstance(p, (Fraction, int)) for p in parts):
            raise SeriesFormatError(f"{where}: exact file requires rational string entries")
        return QC(as_fraction(parts[0]), as_fraction(parts[1]))
    return complex(float(parts[0]), float(parts[1]))


def save_series(s: PowerSeries, path) -> None:
    if not s.is_finite:
        raise UnsupportedInputError("only materialized series can be saved")
    doc: dict = {
        "c": [_jsonfmt.pair(c, s.exact) for c in s.coeffs],
        "exact": s.exact,
        "radius_hint": float(s.radius_hint),
    }
    meta: dict = {"family": s.meta.family, "k_max": s.meta.k_max}
    if s.meta.poles is not None:
        meta["poles"] = [_jsonfmt.pair(z, s.meta.poles.exact) for z in s.meta.poles.points]
        meta["pole_scheme"] = s.meta.poles.generator_tag
        meta["pole_start_index"] = s.meta.poles.start_index
    else:
        meta["poles"] = None
    if s.meta.alphas is not None:
        meta["alphas"] = [_jsonfmt.pair(a, s.exact) for a in s.meta.alphas]
    doc["meta"] = meta
    Path(path).write_text(_jsonfmt.dumps(doc), encoding="utf-8")


def _reject_constant(token: str):
    raise SeriesFormatError(f"non-finite JSON token {token!r} is not allowed")


def load_series(path) -> PowerSeries:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SeriesFormatError(f"cannot read series file {p}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SeriesFormatError(f"{p}: top level must be an object")
    for key in ("c", "exact", "radius_hint"):
        if key not in doc:
            raise SeriesFormatError(f"{p}: missing required field {key!r}")
    exact = doc["exact"]
    if not isinstance(exact, bool):
        raise SeriesFormatError(f"{p}: field 'exact' must be a boolean")
    raw = doc["c"]
    if not isinstance(raw, list):
        raise SeriesFormatError(f"{p}: field 'c' must be a list")
    coeffs = tuple(_scalar_from_json(entry, f"{p}: c[{i}]", exact)
                   for i, entry in enumerate(raw))
    radius = doc["radius_hint"]
    if isinstance(radius, bool) or not isinstance(radius, (int, float)) or not radius > 0:
        raise SeriesFormatError(f"{p}: field 'radius_hint' must be a positive number")
    meta_doc = doc.get("meta") or {}
    if not isinstance(meta_doc, dict):
        raise SeriesFormatError(f"{p}: field 'meta' must be an object")
    family = meta_doc.get("family", "custom")
    if not isinstance(family, str):
        raise SeriesFormatError(f"{p}: meta.family must be a string")
    k_max = meta_doc.get("k_max")
    if k_max is not None and not isinstance(k_max, int):
        raise SeriesFormatError(f"{p}: meta.k_max must be an integer or null")
    poles = None
    raw_poles = meta_doc.get("poles")
    if raw_poles is not None:
        if not isinstance(raw_poles, list) or not raw_poles:
            raise SeriesFormatError(f"{p}: meta.poles must be a nonempty list or null")
        pole_exact = all(isinstance(pair, (list, tuple)) and len(pair) == 2
                         and all(isinstance(c, str) for c in pair) for pair in raw_poles)
        pts = tuple(_scalar_from_json(pair, f"{p}: meta.poles[{i}]", pole_exact)
                    for i, pair in enumerate(raw_poles))
        tag = meta_doc.get("pole_scheme", "explicit_list")
        start = meta_doc.get("pole_start_index", 2)
        if not isinstance(start, int):
            raise SeriesFormatError(f"{p}: meta.pole_start_index must be an integer")
        try:
            poles = PoleSequence(pts, generator_tag=tag, start_index=start)
        except InvalidParameterError as exc:
            raise SeriesFormatError(f"{p}: meta.poles invalid: {exc}") from exc
    alphas = None
    raw_alphas = meta_doc.get("alphas")
    if raw_alphas is not None:
        if not isinstance(raw_alphas, list):
            raise SeriesFormatError(f"{p}: meta.alphas must be a list")
        alphas = tuple(_scalar_from_json(pair, f"{p}: meta.alphas[{i}]", exact)
                       for i, pair in enumerate(raw_alphas))
    meta = SeriesMeta(family=family, k_max=k_max, poles=poles, alphas=alphas)
    try:
        return PowerSeries(coeffs, exact, float(radius), meta)
    except InvalidParameterError as exc:
        raise SeriesFormatError(f"{p}: {exc}") from exc
