from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from padelab import PoleSequence, build_counterexample_series
from padelab.errors import RankDeficiencyError
from padelab.linalg import exact_nullspace, svd
from padelab.pade import Diagnostics, PadeApproximant
from padelab.rational import from_gaussian, gaussian_integers, qc
from padelab.series import _as_qc
from padelab.toeplitz import build_pair

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def harmonic_poles():
    return PoleSequence.harmonic(6)


@pytest.fixture(scope="session")
def k2_series():
    # c = (1, 256, 16, 64, 256), poles z_2 = 1/4
    return build_counterexample_series(2, PoleSequence.harmonic(2))


@pytest.fixture(scope="session")
def k3_series():
    return build_counterexample_series(3, PoleSequence.harmonic(3))


def _spike_frame(n):
    """U of the counterexample split B_(n_k) = 16^k U + V at n = n_k: ones
    at (i, i+2) for i < n - 1 and at (n - 1, 0), where B holds c_(n-1) and
    c_(2n), the two coefficients equal to 16^k."""
    U = np.zeros((n, n + 1))
    U[n - 1, 0] = 1.0
    for i in range(n - 1):
        U[i, i + 2] = 1.0
    return U


@pytest.fixture(scope="session")
def spike_frame():
    return _spike_frame


def _matvec(mat, vec):
    """M v for an exact M given as rows, on Gaussian integers: one common
    denominator for v and one for the columns of M that meet a nonzero
    entry of v."""
    v = [qc(x) for x in vec]
    assert all(len(row) == len(v) for row in mat)
    xs, dv = gaussian_integers(v)
    live = [j for j, (xr, xi) in enumerate(xs) if xr or xi]
    if not live:
        return (qc(0),) * len(mat)
    flat, dm = gaussian_integers(qc(row[j]) for row in mat for j in live)
    out = []
    for base in range(0, len(flat), len(live)):
        re = im = 0
        for (er, ei), j in zip(flat[base:base + len(live)], live):
            xr, xi = xs[j]
            re += er * xr - ei * xi
            im += er * xi + ei * xr
        out.append(from_gaussian(re, im, dm * dv))
    return tuple(out)


@pytest.fixture(scope="session")
def matvec():
    return _matvec


def _operand(c):
    """c_0..c_2n as the operand (C, dc) of the exact route's stages and proof:
    C_j = dc c_j as (re, im) int pairs, dc the least common denominator, a
    float read as the dyadic rational it stores (as `classical_pade` does)."""
    return gaussian_integers(map(_as_qc, c))


@pytest.fixture(scope="session")
def operand():
    return _operand


def _weyl_check(M, D, slack=1e-10):
    """(max shift, ||D||_2, passed) of Weyl's inequality
    max_i |sigma_i(M + D) - sigma_i(M)| <= ||D||_2 for padelab's `svd`,
    with `slack` sigma_1(M) of rounding room."""
    s_m = svd(M).sigmas
    norm_delta = float(svd(D).sigmas[0])
    max_shift = float(np.max(np.abs(svd(M + D).sigmas - s_m)))
    return max_shift, norm_delta, max_shift <= norm_delta + slack * float(s_m[0])


@pytest.fixture(scope="session")
def weyl_check():
    return _weyl_check


def _last_nonzero(v):
    return max((j for j, x in enumerate(v) if x), default=0)


def _exact_reference(series, n):
    """The exact type-(n, n) approximant by elimination: B_n b = 0 by
    Bareiss (`exact_nullspace`, its minimal-degree vector when rank
    deficient), then a = A_n b, as the PadeApproximant of the exact
    route, so `route == reference` compares every field."""
    pair = build_pair(series, n, exact=True)
    try:
        b, d = exact_nullspace(pair.B), 1
    except RankDeficiencyError as deficiency:
        b, d = deficiency.basis[0], len(deficiency.basis)
    a = _matvec(pair.A, b)
    return PadeApproximant(a=tuple(a), b=tuple(b), mode="classical", requested_n=n,
                           effective_degrees=(_last_nonzero(a), _last_nonzero(b)), exact=True,
                           diagnostics=Diagnostics(b0_degenerate=not b[0], nullspace_dim=d))


@pytest.fixture(scope="session")
def exact_reference():
    return _exact_reference


def _tail_partial_sum(r, j0: int, stop: int) -> Fraction:
    """sum_(j0 <= j < stop) (j+3)^4 r^j for a Fraction r, on integers over
    the one denominator b^(stop-1) (a sum of Fractions is quadratic here)."""
    a, b = r.numerator, r.denominator
    acc, apow = 0, a ** j0
    for j in range(j0, stop):
        acc = acc * b + (j + 3) ** 4 * apow
        apow *= a
    return Fraction(acc, b ** (stop - 1))


@pytest.fixture(scope="session")
def tail_partial_sum():
    return _tail_partial_sum
