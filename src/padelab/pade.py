"""Classical and SVD-robust Pade approximants.

Both construct r = p/q of type (n, n) from c_0..c_{2n}: a denominator b
in the nullspace of the Toeplitz matrix B_n, then a = A_n b.  The
robust variant additionally treats singular values at or below
tol_rel * sigma_1 as a rank deficiency, shrinks the order by that
count, and repeats until the system is numerically full rank; trailing
coefficients at or below tol_rel * max|coeff| are then trimmed.  When
no reduction fires, its output is identical to the classical float
route by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _jsonfmt
from .errors import InvalidParameterError, RankDeficiencyError
from .linalg import exact_nullspace, svd
from .rational import QC, horner, is_exact_scalar, qc, to_complex
from .series import PowerSeries
from .toeplitz import build_pair

__all__ = [
    "ReductionStep",
    "Diagnostics",
    "PadeApproximant",
    "classical_pade",
    "robust_pade",
    "order_residual",
]


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
    `nullspace_dim` is the exact nullspace dimension when the exact
    route found the system rank deficient (denominator not unique).
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
    requested_n: int
    effective_degrees: tuple
    mode: str
    exact: bool
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def a_effective(self) -> tuple:
        return self.a[: self.effective_degrees[0] + 1]

    @property
    def b_effective(self) -> tuple:
        return self.b[: self.effective_degrees[1] + 1]

    def numerator_at(self, z):
        if self.exact and is_exact_scalar(z):
            return horner(self.a_effective, qc(z))
        return horner([to_complex(x) for x in self.a_effective], to_complex(z))

    def denominator_at(self, z):
        if self.exact and is_exact_scalar(z):
            return horner(self.b_effective, qc(z))
        return horner([to_complex(x) for x in self.b_effective], to_complex(z))

    def value(self, z):
        """p(z)/q(z); raises ZeroDivisionError exactly at a pole."""
        return self.numerator_at(z) / self.denominator_at(z)

    def to_json_dict(self) -> dict:
        diag = self.diagnostics
        return {
            "a": [_jsonfmt.pair(x, self.exact) for x in self.a],
            "b": [_jsonfmt.pair(x, self.exact) for x in self.b],
            "mode": self.mode,
            "requested_n": self.requested_n,
            "effective_degrees": [self.effective_degrees[0], self.effective_degrees[1]],
            "exact": self.exact,
            "diagnostics": {
                "sigmas": None if diag.sigmas is None else [float(s) for s in diag.sigmas],
                "ratio": _jsonfmt.num(diag.ratio),
                "threshold_used": _jsonfmt.num(diag.threshold_used),
                "reductions": [
                    {"nu_from": r.nu_from, "deficiency": r.deficiency, "nu_to": r.nu_to}
                    for r in diag.reductions
                ],
                "b0_degenerate": diag.b0_degenerate,
                "fully_reduced": diag.fully_reduced,
                "nullspace_dim": diag.nullspace_dim,
            },
        }


def _trim_degree(vec: Sequence, exact: bool, tol: float) -> int:
    """Largest index kept after trailing-coefficient trimming (>= 0)."""
    if exact:
        for j in range(len(vec) - 1, -1, -1):
            if vec[j]:
                return j
        return 0
    mags = [abs(to_complex(x)) for x in vec]
    cutoff = tol * max(mags, default=0.0)
    for j in range(len(vec) - 1, -1, -1):
        if mags[j] > cutoff:
            return j
    return 0


def _degree_zero(s: PowerSeries, requested_n: int, mode: str, exact: bool,
                 diagnostics: Diagnostics) -> PadeApproximant:
    c0 = s.coeff(0) if exact else to_complex(s.coeff(0))
    one = qc(1) if exact else complex(1.0)
    return PadeApproximant(a=(c0,), b=(one,), requested_n=requested_n,
                           effective_degrees=(0, 0), mode=mode, exact=exact,
                           diagnostics=diagnostics)


def classical_pade(s: PowerSeries, n: int, exact: bool = False,
                   trim_tol: float = 0.0) -> PadeApproximant:
    """Type-(n, n) Pade approximant from the full-order system.

    With `exact=True` (rational series required) the denominator comes
    from fraction-free elimination and every quantity is exact; a rank
    deficient system then yields the minimal-degree denominator, with
    the nullspace dimension recorded in the diagnostics rather than an
    error, since all choices represent the same rational function.
    The float route takes the designated SVD nullspace direction.

    `trim_tol` controls trailing-coefficient trimming on the float
    route (relative to the largest magnitude); the default 0.0 trims
    exact zeros only.  On the exact route zeros are trimmed exactly.
    """
    if n < 0:
        raise InvalidParameterError("order n must be nonnegative")
    if exact and not s.exact:
        raise InvalidParameterError("exact approximant requires an exact series")
    if not (0.0 <= trim_tol < 1.0):
        raise InvalidParameterError("trim_tol must lie in [0, 1)")
    s.require_terms(2 * n + 1)
    if n == 0:
        return _degree_zero(s, 0, "classical", exact, Diagnostics())

    if not exact:
        return _float_pade(s, n, trim_tol)
    pair = build_pair(s, n, exact=True)
    nullspace_dim = 1
    try:
        b = exact_nullspace(pair.B)
    except RankDeficiencyError as deficiency:
        b = deficiency.basis[0]
        nullspace_dim = len(deficiency.basis)
    a = pair.A.matvec(b)
    diag = Diagnostics(b0_degenerate=not b[0], nullspace_dim=nullspace_dim)
    effective = (_trim_degree(a, True, 0.0), _trim_degree(b, True, 0.0))
    return PadeApproximant(a=tuple(a), b=tuple(b), requested_n=n,
                           effective_degrees=effective, mode="classical",
                           exact=True, diagnostics=diag)


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
    effective = (_trim_degree(a, False, trim_tol), _trim_degree(b, False, trim_tol))
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
