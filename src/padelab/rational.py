"""Exact rational-complex scalars for the exact pipelines.

A :class:`QC` is a complex number whose real and imaginary parts are
`fractions.Fraction` values, so ring and field operations are exact.
`complex(q)` gives the correctly rounded double view of each component.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union

_F0 = Fraction(0)

ExactScalar = Union[int, Fraction, "QC"]


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or literal like '1/4', '0.25', '3'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"not an exact rational value: {x!r}")


class QC:
    """Complex number with exact rational real/imaginary parts.

    Instances are treated as immutable values; arithmetic returns new
    objects and never mutates the operands.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    # internal fast constructor: arguments must already be Fractions
    @staticmethod
    def _mk(re: Fraction, im: Fraction) -> "QC":
        q = QC.__new__(QC)
        q.re = re
        q.im = im
        return q

    # -- basic queries -------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    # -- conversions ---------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise TypeError("cannot convert complex QC to float")
        return float(self.re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QC._mk(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QC._mk(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QC._mk(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return QC._mk(-self.re, -self.im)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QC._mk(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC._mk((self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, e: int):
        """self**e for an int e, by square-and-multiply on the Gaussian
        integer (re, im) = d * self, normalized once: (re + i im)^e / d^e.
        A negative e inverts self first (ZeroDivisionError at zero)."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        [(br, bi)], d = gaussian_integers((self,))
        pr, pi, den = 1, 0, d ** e
        while e:
            if e & 1:
                pr, pi = pr * br - pi * bi, pr * bi + pi * br
            e >>= 1
            if e:
                br, bi = br * br - bi * bi, 2 * br * bi
        return from_gaussian(pr, pi, den)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _coerce(x) -> QC | None:
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC._mk(as_fraction(x), _F0)
    return None


def qc(x, im=None) -> QC:
    """Coerce a value (or a re/im pair) to :class:`QC`."""
    if im is not None:
        return QC(x, im)
    if isinstance(x, QC):
        return x
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return QC(x[0], x[1])
    return QC(x)


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QC)) or isinstance(x, Rational)


def to_complex(x) -> complex:
    """Double-precision view of any supported scalar."""
    if isinstance(x, QC):
        return complex(x)
    if isinstance(x, Fraction):
        return complex(float(x), 0.0)
    return complex(x)


def abs2(x):
    """|x|^2 of a QC, rational, float or complex x as an exact Fraction (a finite
    double is a dyadic rational); inf or nan, which compare as such, if not finite."""
    if isinstance(x, QC):
        return x.abs2()
    if isinstance(x, Rational):
        return Fraction(x) ** 2
    z = complex(x)
    try:
        return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    except (ValueError, OverflowError):
        return abs(z)


def abs_upper(x):
    """|x| as a Fraction, rounded up from the integer square root of |x|^2 with
    64 extra bits; exact where |x|^2 is a square, and |re| at once for a real QC."""
    if isinstance(x, QC) and not x.im:
        return abs(x.re)
    r2 = abs2(x)
    if not isinstance(r2, Fraction):        # inf or nan
        return r2
    scaled = r2.numerator * r2.denominator << 128
    root = math.isqrt(scaled)
    return Fraction(root + (root * root < scaled), r2.denominator << 64)


def gaussian_integers(values: Iterable) -> tuple[list, int]:
    """(pairs, d): the QC `values` times d as (re, im) int pairs.

    d is the lcm of every real and imaginary denominator, the smallest
    positive integer that makes all the values Gaussian integers.
    """
    values = list(values)
    d = math.lcm(*{p.denominator for v in values for p in (v.re, v.im)})
    return [(v.re.numerator * (d // v.re.denominator),
             v.im.numerator * (d // v.im.denominator)) for v in values], d


def from_gaussian(re: int, im: int, d: int) -> QC:
    """The QC value (re + i im) / d, for a nonzero int d."""
    return QC._mk(Fraction(re, d), Fraction(im, d))


QC_ZERO = QC._mk(_F0, _F0)     # one shared zero for exact vectors (QC values are immutable)


def horner(coeffs: Iterable, z):
    """Evaluate sum(coeffs[j] * z**j) by Horner's rule.

    Works over any common scalar domain (QC with QC/rational z, or
    complex with complex z); the caller keeps the domain homogeneous.
    QC coefficients at a QC point run `integer_horner` on
    `integer_poly(coeffs)`, with one normalization at the end.  The
    exact divergence scan calls those two steps itself, so it keeps
    f(z), p(z) and q(z) as Gaussian integers over their scales and
    rounds each part of (f q - p)/q once.
    """
    coeffs = list(coeffs)
    if not coeffs:
        return 0 * z
    if isinstance(z, QC) and all(isinstance(c, QC) for c in coeffs):
        return from_gaussian(*integer_horner(integer_poly(coeffs), z))
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def integer_poly(coeffs: Iterable) -> tuple[list, int]:
    """(C, D): the QC coefficients c_0..c_N as the Gaussian integers
    C_j = D c_j, highest degree first, prepared once for `integer_horner`."""
    pairs, den = gaussian_integers(coeffs)
    pairs.reverse()
    return pairs, den


def integer_horner(poly: tuple[list, int], z: QC) -> tuple[int, int, int]:
    """(re, im, scale), not reduced, with p(z) = (re + i im) / scale, scale > 0.

    `poly` comes from `integer_poly`.  With Z = d z a Gaussian integer,
    the value is sum(C_j Z^j d^(N-j)) / (D d^N), summed by Horner's rule.
    """
    pairs, den = poly
    [(zr, zi)], dz = gaussian_integers((z,))
    ar, ai = pairs[0]
    dpow = 1
    for cr, ci in pairs[1:]:
        dpow *= dz
        ar, ai = ar * zr - ai * zi + cr * dpow, ar * zi + ai * zr + ci * dpow
    return ar, ai, den * dpow


def poly_derivative(coeffs: Iterable) -> list:
    """Coefficients of the derivative of an ascending-order polynomial."""
    return [j * c for j, c in enumerate(coeffs)][1:]
