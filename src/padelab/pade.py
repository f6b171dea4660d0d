"""Classical and SVD-robust Pade approximants.

Both construct r = p/q of type (n, n) from c_0..c_{2n}: a denominator b
in the nullspace of the Toeplitz matrix B_n, then a = A_n b.  The exact
route finds both for any exact series by the extended Euclidean
algorithm, modulo one prime or many, without building B_n.  The robust
variant additionally treats singular values at or below
tol_rel * sigma_1 as a rank deficiency, shrinks the order by that
count, and repeats until the system is numerically full rank; trailing
coefficients at or below tol_rel * max|coeff| are then trimmed.  When no reduction fires, its
a, b and singular values are those of the classical float route by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .linalg import svd
from .rational import (QC_ZERO, from_gaussian, gaussian_integers, horner, is_exact_scalar,
                       qc, to_complex)
from .series import PowerSeries
from .toeplitz import build_pair


@dataclass(frozen=True)
class ReductionStep:
    nu_from: int
    deficiency: int
    nu_to: int


@dataclass(frozen=True)
class Diagnostics:
    """Numerical context of one approximant run.

    `sigmas`/`ratio` describe the final denominator system (float route
    only).  `reductions` records every robust degree drop.
    `nullspace_dim` is the exact nullspace dimension of B_n (exact
    route only): 1 at full rank, above 1 when the denominator is not
    unique.
    """

    sigmas: tuple | None = None
    ratio: float | None = None
    threshold_used: float | None = None
    reductions: tuple = ()
    b0_degenerate: bool = False
    fully_reduced: bool = False
    nullspace_dim: int | None = None


@dataclass(frozen=True)
class PadeApproximant:
    """Numerator/denominator coefficient vectors plus diagnostics.

    `a` and `b` are the untrimmed solution vectors (length
    requested-order + 1 on the classical route, final-order + 1 on the
    robust route); `effective_degrees` = (m, nu) locates the last
    coefficients that survive trimming, and the `*_effective`
    properties expose the trimmed polynomials.
    """

    a: tuple
    b: tuple
    mode: str
    requested_n: int
    effective_degrees: tuple
    exact: bool
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def a_effective(self) -> tuple:
        return self.a[: self.effective_degrees[0] + 1]

    @property
    def b_effective(self) -> tuple:
        return self.b[: self.effective_degrees[1] + 1]

    def numerator_at(self, z):
        return self._at(self.a_effective, z)

    def denominator_at(self, z):
        return self._at(self.b_effective, z)

    def _at(self, coeffs: tuple, z):
        if self.exact and is_exact_scalar(z):
            return horner(coeffs, qc(z))
        return horner([to_complex(x) for x in coeffs], to_complex(z))


def _trim_degree(vec: Sequence, tol: float) -> int:
    """Largest index kept after trailing-coefficient trimming (>= 0): the
    last nonzero entry when tol is 0, else the last above tol * max|entry|."""
    if tol:
        mags = [abs(to_complex(x)) for x in vec]
        cutoff = tol * max(mags)
        vec = [m > cutoff for m in mags]
    return next((j for j in range(len(vec) - 1, -1, -1) if vec[j]), 0)


def _degree_zero(s: PowerSeries, requested_n: int, mode: str, exact: bool,
                 diagnostics: Diagnostics) -> PadeApproximant:
    c0 = s.coeff(0) if exact else to_complex(s.coeff(0))
    one = qc(1) if exact else complex(1.0)
    return PadeApproximant(a=(c0,), b=(one,), requested_n=requested_n,
                           effective_degrees=(0, 0), mode=mode, exact=exact,
                           diagnostics=diagnostics)


def classical_pade(s: PowerSeries, n: int, exact: bool = False) -> PadeApproximant:
    """Type-(n, n) Pade approximant from the full-order system.

    With `exact=True` (rational series required) every quantity is
    exact.  The denominator comes from the extended Euclidean algorithm
    modulo 2^61 - 31 (:func:`_eea_pade`), or, for outputs beyond that
    prime, modulo many word-size primes (:func:`_multiprime_pade`), and
    is proved by exact substitution; a series both stages decline
    raises :class:`NumericalError`.  A rank deficient system yields the
    minimal-degree denominator, with the nullspace dimension recorded
    in the diagnostics rather than an error, since all choices
    represent the same rational function.  The float route takes the
    designated SVD nullspace direction.  Both routes trim trailing
    exact zeros only.
    """
    if n < 0:
        raise InvalidParameterError("order n must be nonnegative")
    if exact and not s.exact:
        raise InvalidParameterError("exact approximant requires an exact series")
    s.require_terms(2 * n + 1)
    if n == 0:
        return _degree_zero(s, 0, "classical", exact, Diagnostics())

    if not exact:
        return _float_pade(s, n, 0.0)
    c = [s.coeff(j) for j in range(2 * n + 1)]
    solved = _eea_pade(c, n) or _multiprime_pade(c, n)
    if solved is None:
        raise NumericalError(
            f"no exact order-{n} Pade denominator: the one-prime stage (mod 2^61 - 31) declined "
            "(an output beyond that prime, a denominator it divides, or a failed proof), and so "
            "did the multi-prime stage (more primes dropped than kept, or a failed proof)")
    a, b, nullspace_dim = solved
    diag = Diagnostics(b0_degenerate=not b[0], nullspace_dim=nullspace_dim)
    effective = (_trim_degree(a, 0.0), _trim_degree(b, 0.0))
    return PadeApproximant(a=tuple(a), b=tuple(b), requested_n=n,
                           effective_degrees=effective, mode="classical",
                           exact=True, diagnostics=diag)


_MODULUS = 2305843009213693921          # 2^61 - 31, the largest prime below 2^61 that is 1 mod 4
_IOTA = 583529827753931384              # a square root of -1 mod _MODULUS
_RECON_BOUND = math.isqrt(_MODULUS // 2)


def _eea_pade(c: list, n: int) -> tuple | None:
    """Proved (a, b, d) of type (n, n) from c_0..c_2n (Fractions or QC values), or None.

    b spans the nullspace of B_n exactly when q g = r mod z^(2n+1) with
    deg r <= n, where g = f - c_0 (c_0 does not enter B).  Modulo
    p = 2^61 - 31, :func:`_euclid` gives the minimal-degree null vector
    t_j of B mod p and its dimension d (Brent, Gustavson & Yun 1980),
    once per image of i (i -> +-iota, iota^2 = -1 mod p) for a complex
    series: half the sum of the two t_j is Re b mod p, their difference
    over 2 iota is Im b.  Each part is lifted by Wang's rational
    reconstruction, and :func:`_proved` proves b and d.  None when p
    divides a denominator of c_1..c_2n, the images differ in d or in
    their first nonzero index, an entry does not reconstruct or the
    proof fails.
    """
    p = _MODULUS
    c = [qc(x) for x in c]
    try:
        re = [x.re.numerator * pow(x.re.denominator, -1, p) % p for x in c[1:]]
        im = [x.im.numerator * pow(x.im.denominator, -1, p) % p if x.im else 0 for x in c[1:]]
    except ValueError:                      # p divides a denominator
        return None
    plus = minus = _euclid([0] + [(u + _IOTA * v) % p for u, v in zip(re, im)], n)
    if any(im):                             # a complex series: the image i -> -iota too
        minus = _euclid([0] + [(u - _IOTA * v) % p for u, v in zip(re, im)], n)
    if minus[1] != plus[1] or minus[0].index(1) != plus[0].index(1):
        return None
    images, half = list(zip(plus[0], minus[0])), (p + 1) // 2    # Re b, then Im b, mod p
    parts = plus[0] if minus is plus else ([(u + w) * half % p for u, w in images]
                                           + [(w - u) * _IOTA * half % p for u, w in images])
    fracs = [_rational_reconstruction(v) if v else (0, 1) for v in parts]
    if None in fracs:
        return None
    den = math.lcm(*(d for _, d in fracs))
    nums = [num * (den // d) for num, d in fracs]
    return _proved(c, list(zip(nums[:n + 1], nums[n + 1:] or [0] * (n + 1))), den, n + 1 - plus[1])


def _euclid(g: list, n: int) -> tuple[list, int]:
    """(t_j, max(deg r_j, deg t_j)) at the first remainder r_j = s_j z^(2n+1) + t_j g, deg <= n.

    g: residues of g_0 = 0, g_1..g_2n.  t_j, padded to n + 1 entries with its first nonzero entry
    1, divides every null vector of B mod p as a polynomial."""
    p = _MODULUS
    # ascending coefficients, no trailing zeros: [] is the zero polynomial
    r0, r1 = [0] * (2 * n + 1) + [1], _trimmed(g)
    t0, t1 = [], [1]
    while len(r1) > n + 1:
        top = len(r1) - 1
        inv = pow(r1[-1], -1, p)
        t = t0 + [0] * (len(r0) - len(r1) + len(t1) - len(t0))
        for i in reversed(range(len(r0) - top)):
            f = r0[i + top] * inv % p
            if f:
                r0[i:i + top] = [(u - f * v) % p for u, v in zip(r0[i:i + top], r1)]
                t[i:i + len(t1)] = [(u - f * v) % p for u, v in zip(t[i:i + len(t1)], t1)]
        r0, r1, t0, t1 = r1, _trimmed(r0[:top]), t1, t
    scale = pow(next(v for v in t1 if v), -1, p)
    return [v * scale % p for v in t1] + [0] * (n + 1 - len(t1)), max(len(r1), len(t1)) - 1


def _multiprime_pade(c: list, n: int) -> tuple | None:
    """:func:`_eea_pade` for outputs beyond one prime, by Euclid mod many primes on dc c_j."""
    from .multimodular import pade_minors   # imported on first use: most runs never need it
    c = [qc(x) for x in c]
    solved = pade_minors(gaussian_integers(c)[0], n)
    if solved is None:
        return None
    y, d = solved
    fr, fi = next(v for v in y if any(v))
    if fi:                                  # b = y conj(f) / |f|^2, f the first nonzero y_j
        y, fr = [(vr * fr + vi * fi, vi * fr - vr * fi) for vr, vi in y], fr * fr + fi * fi
    return _proved(c, y + [(0, 0)] * (n + 1 - len(y)), fr, d)


def _proved(c: list, y: list, den: int, d: int) -> tuple | None:
    """(A b, b, d) for b = y / den, y in (re, im) int pairs, if B_n has nullity d, else None.

    With C_j = dc c_j: when deg y <= n + 1 - d and coefficients
    n + 2 - d..2n of C y vanish, the shifts z^k y, k < d, are d
    independent null vectors, so a nullity d read modulo a prime (which
    can only raise it) holds over Q(i), and y is the minimal-degree one.
    """
    n, top = len(y) - 1, len(y) - d        # top = n + 1 - d
    pairs, dc = gaussian_integers(c)
    cr, ci = zip(*pairs)
    yr, yi = zip(*y)
    re, im = _convolve(cr, yr), _convolve(cr, yi)
    if any(ci):                             # (C_r + i C_i)(y_r + i y_i)
        re = [u - v for u, v in zip(re, _convolve(ci, yi))]
        im = [u + v for u, v in zip(im, _convolve(ci, yr))]
    if any(any(v) for v in y[top + 1:]) or any(re[top + 1:]) or any(im[top + 1:]):
        return None                         # deg y, or dc B y and its shifts
    return (tuple(from_gaussian(u, v, dc * den) for u, v in zip(re, im[:n + 1])),
            tuple(from_gaussian(u, v, den) if u or v else QC_ZERO for u, v in y), d)


def _convolve(u: tuple, v: tuple) -> list:
    """Coefficients 0..len(u)-1 of the product of the int polynomials u and v."""
    live = [(j, x) for j, x in enumerate(v) if x]
    return [sum(u[i - j] * x for j, x in live if j <= i) for i in range(len(u))] if live else [0] * len(u)


def _trimmed(poly: list) -> list:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _rational_reconstruction(u: int) -> tuple[int, int] | None:
    """(num, den) with num = den * u mod p, |num|, |den| <= sqrt(p/2), or None.

    Wang's rule: run the extended Euclidean algorithm on (p, u) and stop
    at the first remainder within the bound; the fraction exists and is
    unique exactly when its cofactor is within the bound and coprime to
    the remainder.
    """
    r0, r1 = _MODULUS, u
    s0, s1 = 0, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _RECON_BOUND or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _float_pade(s: PowerSeries, nu: int, trim_tol: float) -> PadeApproximant:
    """Classical float solve at order nu >= 1, shared by both routes.

    b is the designated SVD null vector of B_nu scaled to b_0 = 1, or
    left unscaled and flagged degenerate when |b_0| <= 1e-8 |b|; then
    a = A_nu b.
    """
    pair = build_pair(s, nu, exact=False)
    spectrum = svd(pair.B)
    v = spectrum.null_vector
    degenerate = bool(abs(v[0]) <= 1e-8 * float(np.linalg.norm(v)))
    if not degenerate:
        v = v / v[0]
    b = tuple(complex(x) for x in v)
    a = tuple(complex(x) for x in pair.A @ v)
    diag = Diagnostics(sigmas=tuple(float(x) for x in spectrum.sigmas),
                       ratio=spectrum.ratio, b0_degenerate=degenerate)
    effective = (_trim_degree(a, trim_tol), _trim_degree(b, trim_tol))
    return PadeApproximant(a=a, b=b, requested_n=nu, effective_degrees=effective,
                           mode="classical", exact=False, diagnostics=diag)


def robust_pade(s: PowerSeries, n: int, tol_rel: float = 1e-12) -> PadeApproximant:
    """SVD-robust type-(n, n) Pade approximant (float route).

    Singular values of B_nu at or below tol_rel * sigma_1 count as rank
    deficiency d; the order drops to nu - d and the system is rebuilt
    until d = 0 (or nu = 0, which returns the constant approximant with
    a fully-reduced diagnostic).
    """
    if n < 0:
        raise InvalidParameterError("order n must be nonnegative")
    if not (0.0 < tol_rel < 1.0):
        raise InvalidParameterError("tol_rel must lie in (0, 1)")
    s.require_terms(2 * n + 1)

    nu = n
    reductions: list[ReductionStep] = []
    while nu > 0:
        r = _float_pade(s, nu, tol_rel)
        sigmas = r.diagnostics.sigmas
        deficiency = sum(1 for x in sigmas if x <= tol_rel * sigmas[0])
        if deficiency == 0:
            diag = replace(r.diagnostics, threshold_used=tol_rel,
                           reductions=tuple(reductions))
            return replace(r, requested_n=n, mode="robust", diagnostics=diag)
        reductions.append(ReductionStep(nu, deficiency, nu - deficiency))
        nu -= deficiency
    diag = Diagnostics(threshold_used=tol_rel, reductions=tuple(reductions),
                       fully_reduced=n > 0)
    return _degree_zero(s, n, "robust", False, diag)


def order_residual(s: PowerSeries, r: PadeApproximant) -> tuple:
    """Coefficients of z^0..z^(m+nu) of a(z) - f(z) b(z).

    Exact (all zeros) on the exact route with an exact series; small on
    the float route.  Needs c_0..c_{m+nu}.
    """
    m, nu = r.effective_degrees
    top = m + nu
    s.require_terms(top + 1)
    exact = r.exact and s.exact
    if exact:
        a = list(r.a_effective) + [qc(0)] * max(0, top + 1 - (m + 1))
        b = list(r.b_effective)
        c = [qc(s.coeff(j)) for j in range(top + 1)]
    else:
        a = [to_complex(x) for x in r.a_effective] + [0.0j] * max(0, top + 1 - (m + 1))
        b = [to_complex(x) for x in r.b_effective]
        c = [to_complex(s.coeff(j)) for j in range(top + 1)]
    out = []
    for i in range(top + 1):
        acc = a[i]
        for j in range(0, min(i, nu) + 1):
            if b[j]:
                acc = acc - c[i - j] * b[j]
        out.append(acc)
    return tuple(out)
