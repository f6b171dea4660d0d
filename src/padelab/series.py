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

Coefficients are exact (:class:`padelab.rational.QC`) when the defining
data is rational, else complex doubles, each its exact value rounded once.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import _jsonfmt
from ._jsonfmt import read_int
from .errors import (
    DomainError,
    InvalidParameterError,
    NumericalError,
    OutOfRangeError,
    SeriesFormatError,
)
from .rational import (QC, abs2, abs_upper, from_gaussian, gaussian_integers, horner,
                       is_exact_scalar, qc, to_complex)


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
        if self.generator_tag not in ("explicit_list", "harmonic", "harmonic_repeated"):
            raise InvalidParameterError(f"unknown pole generator tag {self.generator_tag!r}")
        if not self.points:
            raise InvalidParameterError("pole sequence must contain at least one point")
        coerced = tuple(_coerce_scalar(p) for p in self.points)
        for idx, z in enumerate(coerced):
            if not 0 < abs2(z) < 1:
                raise InvalidParameterError(
                    f"pole z_{self.start_index + idx} = {z!r} outside the punctured unit disc")
        object.__setattr__(self, "points", coerced)

    # -- constructors --------------------------------------------------

    @classmethod
    def harmonic(cls, k_max: int) -> "PoleSequence":
        """z_k = 1/(k+2) for k = 2..k_max."""
        if k_max < 2:
            raise InvalidParameterError("harmonic pole sequence needs k_max >= 2")
        return cls(tuple(Fraction(1, k + 2) for k in range(2, k_max + 1)), generator_tag="harmonic")

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

    def require_counterexample_poles(self, k_hi: int) -> None:
        """Raise unless z_2..z_(k_hi) exist and lie strictly inside |z| < 1/3."""
        if self.start_index != 2:
            raise InvalidParameterError("counterexample poles must be indexed from k = 2")
        if self.max_index < k_hi:
            raise OutOfRangeError(
                f"pole sequence ends at k = {self.max_index}, need k = {k_hi}")
        for z in self.points[: k_hi - 1]:
            if not abs2(z) < Fraction(1, 9):
                raise InvalidParameterError("counterexample poles must satisfy 0 < |z_k| < 1/3")


# ---------------------------------------------------------------------------
# series container


@dataclass(frozen=True)
class SeriesMeta:
    family: str = "custom"
    k_max: int | None = None
    poles: PoleSequence | None = None
    alphas: tuple | None = None


@dataclass(frozen=True)
class PowerSeries:
    """Materialized coefficients c_0, ..., c_(N-1) with metadata."""

    coeffs: tuple
    exact: bool
    radius_hint: float = 1.0
    meta: SeriesMeta = field(default_factory=SeriesMeta)

    def __post_init__(self):
        if self.coeffs is None:
            raise InvalidParameterError("a series needs its coefficients")
        if not 0 < self.radius_hint < math.inf:      # false for NaN too
            raise InvalidParameterError("radius_hint must be finite and positive")
        coerced = tuple(_coerce_scalar(c) for c in self.coeffs)
        if not self.exact:                  # a float series holds only complex values
            try:
                coerced = tuple(map(to_complex, coerced))
            except OverflowError:
                raise InvalidParameterError("a coefficient lies beyond the double range") from None
            if not all(map(cmath.isfinite, coerced)):
                raise InvalidParameterError("a float coefficient is infinite or NaN")
        elif not all(isinstance(c, QC) for c in coerced):
            raise InvalidParameterError("exact series requires rational coefficients")
        object.__setattr__(self, "coeffs", coerced)

    @classmethod
    def from_coefficients(cls, values: Sequence, radius_hint: float = 1.0) -> "PowerSeries":
        coerced = tuple(_coerce_scalar(v) for v in values)
        exact = all(isinstance(c, QC) for c in coerced)
        return cls(coerced, exact, radius_hint)

    def coeff(self, j: int):
        if j < 0:
            raise OutOfRangeError("coefficient index must be nonnegative")
        if j >= len(self.coeffs):
            have = (f"c_0..c_{len(self.coeffs) - 1}" if self.coeffs
                    else "no coefficients")
            raise OutOfRangeError(f"series provides {have}, asked for c_{j}")
        return self.coeffs[j]

    def require_terms(self, count: int) -> None:
        if len(self.coeffs) < count:
            raise OutOfRangeError(
                f"need {count} coefficients, series provides {len(self.coeffs)}")

    def as_complex_array(self, count: int | None = None):
        """c_0..c_(count-1) as a numpy complex array (numpy loads here, so
        the rest of the series layer runs without it)."""
        import numpy as np

        if count is None:
            count = len(self.coeffs)
        self.require_terms(count)
        try:
            return np.array([to_complex(self.coeff(j)) for j in range(count)], dtype=complex)
        except OverflowError:
            raise NumericalError("a coefficient lies beyond the double range") from None


# ---------------------------------------------------------------------------
# counterexample family

GROWTH_EXPONENT = 4     # coefficient bound: 0 < |c_j| <= (j + 3)^4 for j >= 1


def block_order(k: int) -> int:
    """Approximation order n_k = 2^k - 2 attached to block k."""
    return 2 ** k - 2


def truncation_length(k_max: int) -> int:
    """Coefficient count of the complete-block truncation: 2^(k_max+1) - 3."""
    return 2 ** (k_max + 1) - 3


def _as_qc(x) -> QC:
    """x as a QC: a finite complex is the dyadic rational its parts store."""
    if isinstance(x, QC):
        return x
    try:
        return QC._mk(Fraction(x.real), Fraction(x.imag))
    except (ValueError, OverflowError):
        raise InvalidParameterError("a float coefficient is infinite or NaN") from None


def _geometric_run(start: QC, ratio: QC, count: int, exact: bool) -> list:
    """start * ratio^m for m = 0..count-1, walked on Gaussian integers over
    one growing denominator: normalized once per value for an exact series,
    else each part rounded once by a (correctly rounded) int true division."""
    [(pr, pi)], den = gaussian_integers((start,))
    [(rr, ri)], dr = gaussian_integers((ratio,))
    run = []
    try:
        for _ in range(count):
            run.append(from_gaussian(pr, pi, den) if exact else complex(pr / den, pi / den))
            pr, pi, den = pr * rr - pi * ri, pr * ri + pi * rr, den * dr
    except OverflowError:
        raise InvalidParameterError("a coefficient lies beyond the double range") from None
    return run


def build_counterexample_series(k_max: int, poles: PoleSequence) -> PowerSeries:
    """Materialize the counterexample series through block k_max.

    The truncation always ends on a complete block boundary, giving
    2^(k_max+1) - 3 coefficients c_0..c_{2^(k_max+1)-4}.  Block k walks
    16^k z_k^e up from e = 0 on Gaussian integers (a float z_k as the
    dyadic rational it stores) and writes e = n_k..0.  When any pole is a
    float, the series is a float one: each value is rounded once.
    """
    if k_max < 2:
        raise InvalidParameterError("counterexample family needs k_max >= 2")
    poles.require_counterexample_poles(k_max)
    coeffs: list = [qc(1)]
    for k in range(2, k_max + 1):
        spike = qc(16 ** k)
        coeffs.append(spike)
        run = _geometric_run(spike, _as_qc(poles.z(k)), block_order(k) + 1, poles.exact)
        coeffs.extend(reversed(run))
    meta = SeriesMeta(family="counterexample", k_max=k_max, poles=poles)
    return PowerSeries(tuple(coeffs), poles.exact, 1.0, meta)


# ---------------------------------------------------------------------------
# gammel family


@dataclass(frozen=True)
class GammelParams:
    """Block weights and poles for the gammel family.

    `alphas[k-1]` weights block k (k >= 1), which spans exponents
    n = 2^k - 1 .. 2^(k+1) - 2 with terms alpha_k * (z/z_k)^n.
    Weights must be supplied explicitly.  The series has radius_hint 1.
    """

    alphas: tuple
    poles: PoleSequence

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(_coerce_scalar(a) for a in self.alphas))
        if self.poles.start_index != 1:
            raise InvalidParameterError("gammel poles are indexed from k = 1")

    @property
    def exact(self) -> bool:
        return self.poles.exact and all(isinstance(a, QC) for a in self.alphas)


def gammel_block_of(n: int) -> int:
    """Block k with 2^k - 1 <= n <= 2^(k+1) - 2, for n >= 1."""
    if n < 1:
        raise OutOfRangeError("gammel blocks start at exponent 1")
    return (n + 1).bit_length() - 1


def build_gammel_series(params: GammelParams, j_max: int) -> PowerSeries:
    """Materialize c_0..c_{j_max} of the gammel family.  A block walks alpha_k W^n,
    W = 1/z_k, on Gaussian integers (a float alpha_k or z_k as the dyadic
    rational it stores); a zero alpha_k writes zeros.  A float series (any
    float alpha or pole) rounds each value once."""
    if j_max < 0:
        raise InvalidParameterError("j_max must be nonnegative")
    coeffs: list = [qc(1)]
    top_block = gammel_block_of(j_max) if j_max >= 1 else 0
    if len(params.alphas) < top_block:
        raise InvalidParameterError(
            f"insufficient alphas: block k={top_block} reaches j_max={j_max}, "
            f"got {len(params.alphas)} weights")
    for k in range(1, top_block + 1):
        lo, hi = 2 ** k - 1, min(j_max, 2 ** (k + 1) - 2)
        alpha = params.alphas[k - 1]
        if not alpha:
            coeffs.extend([qc(0)] * (hi - lo + 1))
            continue
        try:
            z = params.poles.z(k)
        except OutOfRangeError as exc:
            raise InvalidParameterError(
                f"pole z_{k} required for a nonzero alpha_{k}") from exc
        w = 1 / _as_qc(z)
        coeffs.extend(_geometric_run(_as_qc(alpha) * w ** lo, w, hi - lo + 1, params.exact))
    meta = SeriesMeta(family="gammel", k_max=top_block,
                      poles=params.poles, alphas=params.alphas)
    return PowerSeries(tuple(coeffs), params.exact, 1.0, meta)


# ---------------------------------------------------------------------------
# evaluation


def check_radius(s: PowerSeries, z) -> complex:
    """z as a complex; DomainError unless |z| < s.radius_hint, compared exactly."""
    if not abs2(z) < Fraction(s.radius_hint) ** 2:
        r = abs_upper(z)            # shown as inf beyond the largest double
        r = math.inf if r > math.nextafter(math.inf, 0) else float(r)
        raise DomainError(f"|z| = {r} outside radius_hint = {s.radius_hint}")
    return to_complex(z)


def eval_series(s: PowerSeries, z):
    """Evaluate the truncated series at z as a polynomial: a `QC` when
    both the series and z are rational, else a complex."""
    zc = check_radius(s, z)
    if s.exact and is_exact_scalar(z):
        return horner(s.coeffs, qc(z))
    return complex(horner(s.as_complex_array(), zc))


# ---------------------------------------------------------------------------
# file round trip


def _literal(text: str, memo: dict) -> Fraction:
    """The Fraction of the rational literal `text`, parsed once per file.

    A plain ASCII [-]digits[/digits] literal is read by `read_int`, at
    any length, and normalized by Fraction; every other form (a sign '+',
    decimals, exponents, underscores, whitespace, other digits) goes to
    Fraction(text).  So the accepted literals, their values and the errors
    raised are those of Fraction(text), but plain ones are read past the
    int <-> str digit limit.  `memo` maps each string already read to its value.
    """
    value = memo.get(text)
    if value is None:
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            value = Fraction(read_int(num), read_int(den)) if slash else Fraction(read_int(num))
        else:
            value = Fraction(text)
        memo[text] = value
    return value


def _component(x, where: str, i: int, memo: dict):
    """One part of an [re, im] pair: a Fraction from a string or an int, else a float."""
    if isinstance(x, str):
        try:
            return _literal(x, memo)
        except (ValueError, ZeroDivisionError) as exc:
            raise SeriesFormatError(f"{where}[{i}]: bad rational literal {x!r}") from exc
    if isinstance(x, bool):
        raise SeriesFormatError(f"{where}[{i}]: booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SeriesFormatError(f"{where}[{i}]: non-finite component {x!r}")
        return x
    raise SeriesFormatError(f"{where}[{i}]: unsupported component {x!r}")


def _scalars_from_json(entries: list, where: str, exact: bool, memo: dict) -> tuple:
    """The values of the [re, im] pairs `entries`, the list `where` names in errors."""
    values = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise SeriesFormatError(f"{where}[{i}]: expected an [re, im] pair, got {entry!r}")
        re = _component(entry[0], where, i, memo)
        im = _component(entry[1], where, i, memo)
        if exact:
            if not (isinstance(re, Fraction) and isinstance(im, Fraction)):
                raise SeriesFormatError(
                    f"{where}[{i}]: exact file requires rational string entries")
            values.append(QC._mk(re, im))
            continue
        try:
            values.append(complex(float(re), float(im)))
        except OverflowError:
            raise SeriesFormatError(
                f"{where}[{i}]: component beyond the double range") from None
    return tuple(values)


def save_series(s: PowerSeries, path) -> None:
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
    try:
        Path(path).write_text(_jsonfmt.dumps(doc), encoding="utf-8")
    except OSError as exc:
        raise SeriesFormatError(f"cannot write series file {path}: {exc}") from exc


def _reject_constant(token: str):
    raise SeriesFormatError(f"non-finite JSON token {token!r} is not allowed")


def load_series(path) -> PowerSeries:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SeriesFormatError(f"cannot read series file {p}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=read_int)
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
    memo: dict = {}
    coeffs = _scalars_from_json(raw, f"{p}: c", exact, memo)
    radius = doc["radius_hint"]
    try:
        radius = float(radius) if type(radius) in (int, float) else math.nan  # a bool is NaN
    except OverflowError:                   # an int beyond the double range
        radius = math.inf
    if not 0 < radius < math.inf:
        raise SeriesFormatError(f"{p}: field 'radius_hint' must be a finite positive number")
    meta_doc = doc.get("meta") or {}
    if not isinstance(meta_doc, dict):
        raise SeriesFormatError(f"{p}: field 'meta' must be an object")
    family = meta_doc.get("family", "custom")
    if not isinstance(family, str):
        raise SeriesFormatError(f"{p}: meta.family must be a string")
    k_max = meta_doc.get("k_max")
    if k_max is not None and (isinstance(k_max, bool) or not isinstance(k_max, int)):
        raise SeriesFormatError(f"{p}: meta.k_max must be an integer or null")
    poles = None
    raw_poles = meta_doc.get("poles")
    if raw_poles is not None:
        if not isinstance(raw_poles, list) or not raw_poles:
            raise SeriesFormatError(f"{p}: meta.poles must be a nonempty list or null")
        pole_exact = all(isinstance(pair, (list, tuple)) and len(pair) == 2
                         and all(isinstance(c, str) for c in pair) for pair in raw_poles)
        pts = _scalars_from_json(raw_poles, f"{p}: meta.poles", pole_exact, memo)
        tag = meta_doc.get("pole_scheme", "explicit_list")
        start = meta_doc.get("pole_start_index", 2)
        if isinstance(start, bool) or not isinstance(start, int):
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
        alphas = _scalars_from_json(raw_alphas, f"{p}: meta.alphas", exact, memo)
    meta = SeriesMeta(family=family, k_max=k_max, poles=poles, alphas=alphas)
    try:
        return PowerSeries(coeffs, exact, radius, meta)
    except InvalidParameterError as exc:
        raise SeriesFormatError(f"{p}: {exc}") from exc
