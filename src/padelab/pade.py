"""Classical and SVD-robust Pade approximants.

Both construct r = p/q of type (n, n) from c_0..c_{2n}: a denominator b
in the nullspace of the Toeplitz matrix B_n, then a = A_n b.  The exact
route reads c_0..c_2n once as Gaussian integers over one denominator (a
float as the dyadic rational it stores) and finds both by the extended
Euclidean algorithm, modulo one prime or many, without building B_n.  The robust
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
from .series import PowerSeries, _as_qc
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
    scalar = _as_qc if exact else to_complex
    return PadeApproximant(a=(scalar(s.coeff(0)),), b=(scalar(1),), requested_n=requested_n,
                           effective_degrees=(0, 0), mode=mode, exact=exact,
                           diagnostics=diagnostics)


def classical_pade(s: PowerSeries, n: int, exact: bool = False) -> PadeApproximant:
    """Type-(n, n) Pade approximant from the full-order system.

    With `exact=True` every quantity is exact, a float coefficient
    taken as the dyadic rational it stores.  The denominator comes from
    the extended Euclidean algorithm modulo 2^61 - 31 (:func:`_eea_pade`),
    or, for outputs beyond that prime, modulo many word-size primes
    (:func:`_multiprime_pade`), and is proved by exact substitution; a
    series both stages decline raises :class:`NumericalError`.  A rank
    deficient system yields the minimal-degree denominator, with the
    nullspace dimension recorded in the diagnostics rather than an
    error, since all choices represent the same rational function.  The
    float route takes the designated SVD nullspace direction.  Both
    routes trim trailing exact zeros only.
    """
    if n < 0:
        raise InvalidParameterError("order n must be nonnegative")
    s.require_terms(2 * n + 1)
    if n == 0:
        return _degree_zero(s, 0, "classical", exact, Diagnostics())

    if not exact:
        return _float_pade(s, n, 0.0)
    C, dc = gaussian_integers(map(_as_qc, s.coeffs[:2 * n + 1]))
    solved = _eea_pade(C, dc, n) or _multiprime_pade(C, dc, n)
    if solved is None:
        raise NumericalError(
            f"no exact order-{n} Pade denominator: the one-prime stage (dc c mod 2^61 - 31) "
            "declined (an output beyond that prime, or a proof that rejects the image), and so "
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


def _eea_pade(C: list, dc: int, n: int) -> tuple | None:
    """Proved (a, b, d) of type (n, n) from C_j = dc c_j, j = 0..2n, as (re, im) int pairs, or None.

    b spans the nullspace of B_n exactly when q g = r mod z^(2n+1) with
    deg r <= n, where g = C - C_0 (c_0 does not enter B, and the factor
    dc leaves the normalized null vectors unchanged).  Modulo
    p = 2^61 - 31, :func:`_euclid` gives the minimal-degree null vector
    t_j of B mod p and its dimension d (Brent, Gustavson & Yun 1980),
    once per image of i (i -> +-iota, iota^2 = -1 mod p) for a complex
    series: half the sum of the two t_j is Re b mod p, their difference
    over 2 iota is Im b.  Each part is lifted by Wang's rational
    reconstruction, and :func:`_proved` proves b and d, so an image
    that p distorts (p divides dc, or a minor) is rejected and left to
    :func:`_multiprime_pade`.  None when the images differ in d or in
    their first nonzero index, an entry does not reconstruct or the
    proof fails.
    """
    p = _MODULUS
    plus = minus = _euclid([0] + [(u + _IOTA * v) % p for u, v in C[1:]], n)
    if any(v for _, v in C[1:]):            # a complex series: the image i -> -iota too
        minus = _euclid([0] + [(u - _IOTA * v) % p for u, v in C[1:]], n)
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
    return _proved(C, dc, list(zip(nums[:n + 1], nums[n + 1:] or [0] * (n + 1))), den,
                   n + 1 - plus[1])


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


def _multiprime_pade(C: list, dc: int, n: int) -> tuple | None:
    """:func:`_eea_pade` for outputs beyond one prime, by Euclid mod many primes on the same C."""
    from .multimodular import pade_minors   # imported on first use: most runs never need it
    solved = pade_minors(C, n)
    if solved is None:
        return None
    y, d = solved
    fr, fi = next(v for v in y if any(v))
    if fi:                                  # b = y conj(f) / |f|^2, f the first nonzero y_j
        y, fr = [(vr * fr + vi * fi, vi * fr - vr * fi) for vr, vi in y], fr * fr + fi * fi
    return _proved(C, dc, y + [(0, 0)] * (n + 1 - len(y)), fr, d)


def _proved(C: list, dc: int, y: list, den: int, d: int) -> tuple | None:
    """(A b, b, d) for b = y / den, y in (re, im) int pairs, if B_n has nullity d, else None.

    C holds C_j = dc c_j, j = 0..2n, as (re, im) int pairs.  When
    deg y <= n + 1 - d and coefficients n + 2 - d..2n of C y vanish,
    the shifts z^k y, k < d, are d independent null vectors, so a
    nullity d read modulo a prime (which can only raise it) holds over
    Q(i), and y is the minimal-degree one.
    """
    n, top = len(y) - 1, len(y) - d        # top = n + 1 - d
    a = _product(C, y)
    if any(any(v) for v in y[top + 1:] + a[top + 1:]):
        return None                         # deg y, or dc B y and its shifts
    return (tuple(from_gaussian(u, v, dc * den) for u, v in a[:n + 1]),
            tuple(from_gaussian(u, v, den) if u or v else QC_ZERO for u, v in y), d)


def _product(C: list, y: list) -> list:
    """Coefficients 0..len(C)-1 of C y, for polynomials of (re, im) int pairs."""
    def convolve(u: tuple, v: tuple) -> list:
        live = [(j, x) for j, x in enumerate(v) if x]
        return [sum(u[i - j] * x for j, x in live if j <= i) for i in range(len(u))]

    (cr, ci), (yr, yi) = zip(*C), zip(*y)
    re, im = convolve(cr, yr), convolve(cr, yi)
    if any(ci):                             # (C_r + i C_i)(y_r + i y_i)
        re = [u - v for u, v in zip(re, convolve(ci, yi))]
        im = [u + v for u, v in zip(im, convolve(ci, yr))]
    return list(zip(re, im))


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

    Computed exactly on both routes from the stored values (a float one
    as the dyadic rational it stores), as Gaussian integers by
    :func:`_product`: all zeros for an exact approximant; for a float
    approximant each part is rounded once to a double.  Needs
    c_0..c_{m+nu}.
    """
    m, nu = r.effective_degrees
    top = m + nu
    s.require_terms(top + 1)
    (A, da), (B, db), (C, dc) = (gaussian_integers(map(_as_qc, v)) for v in
                                 (r.a_effective, r.b_effective, s.coeffs[:top + 1]))
    scale = db * dc                         # a - f b = (A db dc - da C B) / (da db dc)
    out = tuple(from_gaussian(ar * scale - da * fr, ai * scale - da * fi, da * scale)
                for (ar, ai), (fr, fi) in zip(A + [(0, 0)] * nu, _product(C, B)))
    return out if r.exact else tuple(map(to_complex, out))
