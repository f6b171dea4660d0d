"""Classical and robust Pade construction, trimming, and order residuals."""

from dataclasses import replace
from fractions import Fraction

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padelab import linalg, pade
from padelab._jsonfmt import record
from padelab.errors import InvalidParameterError, NumericalError, OutOfRangeError
from padelab.linalg import exact_nullspace
from padelab.pade import (
    Diagnostics,
    PadeApproximant,
    ReductionStep,
    classical_pade,
    order_residual,
    robust_pade,
)
from padelab.rational import QC, horner, qc, to_complex
from padelab.series import (
    GammelParams,
    PoleSequence,
    PowerSeries,
    _as_qc,
    build_counterexample_series,
    build_gammel_series,
)
from padelab.toeplitz import build_pair


@pytest.fixture(scope="module")
def k2_exact():
    return build_counterexample_series(2, PoleSequence.harmonic(2))


@pytest.fixture(scope="module")
def k2_float(k2_exact):
    return PowerSeries.from_coefficients(
        [complex(x) for x in k2_exact.as_complex_array()])


def geometric_series(length, value=1):
    return PowerSeries.from_coefficients([value] * length)


# ---------------------------------------------------------------------------
# classical route, exact arithmetic


def test_classical_exact_block2(k2_exact):
    r = classical_pade(k2_exact, 2, exact=True)
    assert r.b == (qc(1), qc(-4), qc(0))
    assert r.a == (qc(1), qc(252), qc(-1008))
    assert r.effective_degrees == (2, 1)
    assert r.mode == "classical" and r.exact
    assert r.diagnostics.nullspace_dim == 1
    assert not r.diagnostics.b0_degenerate
    # denominator vanishes exactly at the designated pole 1/4 while the
    # numerator stays away from zero there: p(1/4) = 16^2 (1/4)^4 = 1
    z = Fraction(1, 4)
    assert r.denominator_at(z) == qc(0)
    assert r.numerator_at(z) == qc(1)
    with pytest.raises(ZeroDivisionError):
        r.numerator_at(z) / r.denominator_at(z)


def test_classical_exact_value_elsewhere(k2_exact):
    r = classical_pade(k2_exact, 2, exact=True)
    z = Fraction(1, 8)
    assert (r.numerator_at(z), r.denominator_at(z)) == (qc(Fraction(67, 4)), qc(Fraction(1, 2)))
    # float evaluation point falls back to complex arithmetic
    approx = r.numerator_at(0.25)
    assert isinstance(approx, complex)
    assert abs(approx - 1.0) < 1e-12


def test_classical_exact_geometric_order_one():
    r = classical_pade(geometric_series(3), 1, exact=True)
    assert r.b == (qc(1), qc(-1))
    assert r.a == (qc(1), qc(0))
    assert r.effective_degrees == (0, 1)
    assert r.numerator_at(Fraction(1, 2)) / r.denominator_at(Fraction(1, 2)) == qc(2)
    with pytest.raises(ZeroDivisionError):
        r.numerator_at(1) / r.denominator_at(1)


def test_classical_exact_rank_deficient_geometric():
    # over-asking the order of 1/(1-z) leaves a two-dimensional nullspace;
    # the minimal-degree representative is reported, not an error
    r = classical_pade(geometric_series(5), 2, exact=True)
    assert r.diagnostics.nullspace_dim == 2
    assert r.b == (qc(1), qc(-1), qc(0))
    assert r.a == (qc(1), qc(0), qc(0))
    assert r.effective_degrees == (0, 1)


def test_classical_order_zero(k2_exact):
    r = classical_pade(k2_exact, 0, exact=True)
    assert r.a == (qc(1),) and r.b == (qc(1),)
    assert r.effective_degrees == (0, 0)
    assert r.requested_n == 0


def _qc_sum(terms):
    acc = qc(0)
    for t in terms:
        acc = acc + t
    return acc


def test_integer_matvec_matches_qc_sum_on_gammel_series(matvec):
    alphas = tuple(Fraction(1, 4 ** (k * k)) for k in range(1, 5))
    poles = PoleSequence.explicit([qc(Fraction((-1) ** k, k + 1)) for k in range(1, 5)],
                                  start_index=1)
    s = build_gammel_series(GammelParams(alphas=alphas, poles=poles), 30)
    pair = build_pair(s, 14, exact=True)
    b = exact_nullspace(pair.B)
    expected = tuple(_qc_sum(e * x for e, x in zip(row, b)) for row in pair.A)
    assert matvec(pair.A, b) == expected
    assert classical_pade(s, 14, exact=True).a == expected
    # Gaussian-rational vector, with zero entries skipped
    v = [QC(Fraction(1, 3), Fraction(-2, 7)) if j % 3 else qc(0) for j in range(15)]
    assert matvec(pair.A, v) == tuple(_qc_sum(e * x for e, x in zip(row, v))
                                      for row in pair.A)


def test_integer_horner_matches_qc_horner():
    rng = np.random.default_rng(20261018)

    def rational():
        return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 30)))

    for trial in range(200):
        complex_coeffs = trial % 2 == 0
        coeffs = [QC(rational(), rational() if complex_coeffs else 0)
                  for _ in range(int(rng.integers(1, 25)))]
        z = QC(rational(), rational() if trial % 4 < 2 else 0)
        expected = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            expected = expected * z + c
        assert horner(coeffs, z) == expected
    r = classical_pade(build_counterexample_series(3, PoleSequence.harmonic(3)), 6,
                       exact=True)
    z = QC(Fraction(1, 7), Fraction(2, 9))
    ref = QC(0)
    for c in reversed(r.a_effective):
        ref = ref * z + c
    assert r.numerator_at(z) == ref


def test_classical_exact_degenerate_leading_denominator():
    # c = (1, 0, 1): the order-1 system [[c_2, c_1]] = [[1, 0]] forces
    # b_0 = 0, flagged rather than normalized away
    r = classical_pade(PowerSeries.from_coefficients([1, 0, 1]), 1, exact=True)
    assert r.b == (qc(0), qc(1))
    assert r.diagnostics.b0_degenerate


# ---------------------------------------------------------------------------
# classical route, float arithmetic


def _random_real_coefficients(rnd, n, kind):
    if kind == "small":
        return [Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(2 * n + 1)]
    if kind == "signs":                     # often rank deficient or b_0 = 0
        return [Fraction(rnd.choice((-1, 0, 0, 1))) for _ in range(2 * n + 1)]
    if kind == "b0":                        # c_1..c_(2n-1) on a recurrence of order n - 1: b_0 = 0
        c = [_gaussian(rnd) for _ in range(n)] + [QC(0)] * n + [_gaussian(rnd)]
        weights = [_gaussian(rnd, bits=1, dbits=1) for _ in range(n - 1)]
        for j in range(n, 2 * n):
            c[j] = sum((w * c[j - 1 - k] for k, w in enumerate(weights)), QC(0))
        return c
    if kind == "wide":                      # outputs beyond one prime
        return [Fraction(rnd.getrandbits(100) - 2 ** 99, rnd.getrandbits(20) + 1)
                for _ in range(2 * n + 1)]
    m = rnd.randint(0, n - 1)               # "padded": type (m, m), so B_n is rank deficient
    head = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(2 * m + 1)]
    return head + [Fraction(0)] * (2 * (n - m))


def test_euclidean_route_matches_elimination_on_random_real_series(exact_reference, operand):
    rnd = random.Random(20261018)
    seen = {"proved": 0, "declined": 0, "rank deficient": 0, "proved with b0 = 0": 0}
    for trial in range(320):
        n = rnd.randint(1, 12)
        kind = ("small", "signs", "wide", "padded")[trial % 4]
        series = PowerSeries.from_coefficients(_random_real_coefficients(rnd, n, kind))
        route = classical_pade(series, n, exact=True)
        reference = exact_reference(series, n)
        assert route.b == reference.b and route.a == reference.a
        assert route.diagnostics.nullspace_dim == reference.diagnostics.nullspace_dim
        assert route.diagnostics.b0_degenerate == reference.diagnostics.b0_degenerate
        assert route == reference
        c = [series.coeff(j).re for j in range(2 * n + 1)]
        proved = pade._eea_pade(*operand(c), n) is not None
        seen["proved" if proved else "declined"] += 1
        seen["rank deficient"] += route.diagnostics.nullspace_dim > 1
        seen["proved with b0 = 0"] += proved and route.diagnostics.b0_degenerate
    assert seen["proved"] >= 120 and seen["declined"] >= 120
    assert seen["rank deficient"] >= 40 and seen["proved with b0 = 0"] >= 5


def test_harmonic_block8_is_proved_by_the_euclidean_stage(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("exact_nullspace reached")

    monkeypatch.setattr(linalg, "exact_nullspace", no_elimination)
    s = build_counterexample_series(8, PoleSequence.harmonic(8))
    r = classical_pade(s, 254, exact=True)
    assert r.b == (qc(1), qc(-10)) + (qc(0),) * 253
    assert r.diagnostics.nullspace_dim == 1 and not r.diagnostics.b0_degenerate
    assert r.a[0] == 1 and r.a[254] == s.coeff(254) - 10 * s.coeff(253)


def _gaussian(rnd, bits=3, dbits=2, real=False):
    def frac():
        return Fraction(rnd.randint(-2 ** bits, 2 ** bits), rnd.randint(1, 2 ** dbits))
    return QC(frac(), 0 if real else frac())


def _rational_function_coefficients(rnd, m, n, scale):
    """c_0..c_2n of P(sz)/Q(sz), deg P, deg Q <= m, Q(0) = 1: B_n has nullity >= n - m + 1."""
    q = [QC(1)] + [_gaussian(rnd) for _ in range(m)]
    p = [_gaussian(rnd) for _ in range(m + 1)]
    c = []
    for j in range(2 * n + 1):
        acc = p[j] if j <= m else QC(0)
        for k in range(1, min(j, m) + 1):
            acc = acc - q[k] * c[j - k]
        c.append(acc)
    return [x * scale ** j for j, x in enumerate(c)]


def _random_complex_coefficients(rnd, n, kind):
    if kind == "small":
        return [_gaussian(rnd) for _ in range(2 * n + 1)]
    if kind == "mixed":                     # zero imaginary parts mixed in, or real throughout
        share = rnd.choice((0.5, 1.0))
        return [_gaussian(rnd, real=rnd.random() < share) for _ in range(2 * n + 1)]
    if kind == "padded":                    # type (m, m), so B_n is rank deficient
        m = rnd.randint(0, n - 1)
        return [_gaussian(rnd) for _ in range(2 * m + 1)] + [QC(0)] * (2 * (n - m))
    if kind == "signs":                     # often b_0 = 0 or rank deficient
        return [QC(rnd.choice((-1, 0, 0, 1)), rnd.choice((-1, 0, 0, 1))) for _ in range(2 * n + 1)]
    if kind == "b0":                        # c_1..c_(2n-1) on a recurrence of order n - 1: b_0 = 0
        c = [_gaussian(rnd) for _ in range(n)] + [QC(0)] * n + [_gaussian(rnd)]
        weights = [_gaussian(rnd, bits=1, dbits=1) for _ in range(n - 1)]
        for j in range(n, 2 * n):
            c[j] = sum((w * c[j - 1 - k] for k, w in enumerate(weights)), QC(0))
        return c
    if kind == "wide":                      # outputs beyond one prime
        return [QC(Fraction(rnd.getrandbits(80) - 2 ** 79, rnd.getrandbits(16) + 1),
                   Fraction(rnd.getrandbits(80) - 2 ** 79, rnd.getrandbits(16) + 1))
                for _ in range(2 * n + 1)]
    # a rational function with the variable scaled by a 40-bit Gaussian
    # rational: rank deficient, and its outputs beyond one prime
    scale = QC(Fraction(rnd.getrandbits(40) + 1, rnd.getrandbits(30) + 1),
               Fraction(rnd.getrandbits(40), rnd.getrandbits(30) + 1))
    return _rational_function_coefficients(rnd, rnd.randint(0, n - 1), n, scale)


def test_euclidean_route_matches_elimination_on_random_complex_series(monkeypatch, exact_reference):
    rnd = random.Random(20261021)
    stages = []
    for name in ("_eea_pade", "_multiprime_pade"):
        real = getattr(pade, name)
        monkeypatch.setattr(pade, name, lambda *args, real=real, name=name:
                            stages.append((name, real(*args))) or stages[-1][1])
    seen = {"one prime": 0, "many primes": 0, "declined": 0, "rank deficient": 0,
            "rank deficient beyond one prime": 0, "b0 = 0": 0, "real parts only": 0}
    for trial in range(336):
        n = rnd.randint(1, 12)
        kind = ("small", "mixed", "padded", "signs", "b0", "wide", "scaled")[trial % 7]
        series = PowerSeries.from_coefficients(_random_complex_coefficients(rnd, n, kind))
        stages.clear()
        route = classical_pade(series, n, exact=True)
        reference = exact_reference(series, n)
        assert route.b == reference.b and route.a == reference.a
        assert route.diagnostics.nullspace_dim == reference.diagnostics.nullspace_dim
        assert route.diagnostics.b0_degenerate == reference.diagnostics.b0_degenerate
        assert route == reference
        proved = [name for name, result in stages if result is not None]
        stage = {"_eea_pade": "one prime", "_multiprime_pade": "many primes"}.get(
            proved[0] if proved else None, "declined")
        seen[stage] += 1
        deficient = route.diagnostics.nullspace_dim > 1
        seen["rank deficient"] += deficient
        seen["rank deficient beyond one prime"] += deficient and stage == "many primes"
        seen["b0 = 0"] += route.diagnostics.b0_degenerate and stage != "declined"
        seen["real parts only"] += all(series.coeff(j).is_real for j in range(2 * n + 1))
    assert seen["one prime"] >= 100 and seen["many primes"] >= 100
    assert seen["rank deficient"] >= 60 and seen["rank deficient beyond one prime"] >= 20
    assert seen["b0 = 0"] >= 20 and seen["real parts only"] >= 10


def _raise_if_called(*args):
    raise AssertionError("B was built or eliminated")


def test_complex_and_rank_deficient_benchmark_series_build_no_b(monkeypatch):
    # the benchmark's cx (complex poles, n = 14) and rf (1/(1 - z/w), n = 62)
    # and the real series c_j = (10/9)^j (1 + [3 | j]) at n = 62
    poles = PoleSequence.explicit([QC(Fraction(1, 8), Fraction(-1, 8)),
                                   QC(Fraction(-1, 9), Fraction(1, 9)),
                                   QC(Fraction(1, 10), Fraction(1, 10))])
    cx = build_counterexample_series(4, poles)
    w = QC(Fraction(27, 50), Fraction(36, 50))
    rf = PowerSeries.from_coefficients([(1 / w) ** j for j in range(127)], radius_hint=0.9)
    x = Fraction(10, 9)
    found = PowerSeries.from_coefficients([x ** j * (1 + (j % 3 == 0)) for j in range(125)])
    cases = [(cx, 14, 1), (rf, 62, 62), (found, 62, 60)]
    references = [classical_pade(s, n, exact=True) for s, n, _ in cases]
    monkeypatch.setattr(pade, "build_pair", _raise_if_called)
    monkeypatch.setattr(linalg, "exact_nullspace", _raise_if_called)
    for (s, n, d), reference in zip(cases, references):
        r = classical_pade(s, n, exact=True)
        assert r == reference and r.diagnostics.nullspace_dim == d
    assert references[0].b == (qc(1), -1 / poles.z(4)) + (qc(0),) * 13
    assert references[1].b == (qc(1), -1 / w) + (qc(0),) * 61
    assert references[2].effective_degrees[1] == 3


def test_rank_deficient_series_solved_at_a_shifted_block_corner(exact_reference, operand):
    # c = z^5 (x + y z): the minimal null vector of B_3 is z^2, of
    # nullity 2, yet B_2 = 0 has nullity 3, so the multi-prime stage
    # solves the (2n - M', M') = (4, 2) system of the last two rows
    # instead, and the one-prime stage, which lifts t_j directly, agrees
    x, y = Fraction(2 ** 70 + 1, 3), Fraction(-(2 ** 65) + 7, 5)
    c = [Fraction(0)] * 5 + [x, y]
    series = PowerSeries.from_coefficients(c)
    reference = exact_reference(series, 3)
    assert reference.b == (qc(0), qc(0), qc(1), qc(0))
    assert reference.diagnostics.nullspace_dim == 2
    assert pade._multiprime_pade(*operand(c), 3) == (reference.a, reference.b, 2)
    assert pade._eea_pade(*operand(c), 3) == (reference.a, reference.b, 2)
    assert classical_pade(series, 3, exact=True) == reference


def test_both_stages_declining_raises_numerical_error(monkeypatch, k2_exact):
    monkeypatch.setattr(pade, "_eea_pade", lambda C, dc, n: None)
    monkeypatch.setattr(pade, "_multiprime_pade", lambda C, dc, n: None)
    with pytest.raises(NumericalError, match="one-prime stage .* multi-prime stage"):
        classical_pade(k2_exact, 2, exact=True)


def test_proof_rejects_a_null_vector_above_the_minimal_degree(operand):
    # f = 0: B_2 = 0 has nullity 3, and z is a null vector, but the
    # minimal-degree one is 1; only deg y <= n + 1 - d tells them apart
    zero = [qc(0)] * 5
    assert pade._proved(*operand(zero), [(0, 0), (1, 0), (0, 0)], 1, 3) is None
    assert pade._proved(*operand(zero), [(1, 0), (0, 0), (0, 0)], 1, 3) == ((qc(0),) * 3,
                                                                         (qc(1), qc(0), qc(0)), 3)
    r = classical_pade(PowerSeries.from_coefficients(zero), 2, exact=True)
    assert r.b == (qc(1), qc(0), qc(0)) and r.diagnostics.nullspace_dim == 3


def test_classical_float_block2(k2_float):
    r = classical_pade(k2_float, 2)
    assert not r.exact
    assert abs(r.b[0] - 1) == 0
    assert abs(r.b[1] + 4) < 1e-10
    assert abs(r.b[2]) < 1e-12
    assert r.effective_degrees[1] == 2      # b_2 is rounding noise, not an exact zero: kept
    for got, want in zip(r.a, (1, 252, -1008)):
        assert abs(got - want) < 1e-8 * 1008
    diag = r.diagnostics
    assert diag.sigmas is not None and len(diag.sigmas) == 2
    assert abs(diag.sigmas[0] - 91392 ** 0.5) < 1e-8 * 91392 ** 0.5
    assert abs(diag.sigmas[1] - 48384 ** 0.5) < 1e-8 * 48384 ** 0.5
    assert abs(diag.ratio - (91392 / 48384) ** 0.5) < 1e-10


def test_classical_float_degenerate_unit_norm():
    r = classical_pade(PowerSeries.from_coefficients([1.0, 0.0, 1.0]), 1)
    assert r.diagnostics.b0_degenerate
    assert abs(np.linalg.norm(r.b) - 1.0) < 1e-12
    assert abs(r.b[1] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# robust route


def _relative_trim(vec, tol):
    """Index of the last coefficient above tol * max|coefficient| (0 if none)."""
    mags = [abs(x) for x in vec]
    return max((j for j, m in enumerate(mags) if m > tol * max(mags)), default=0)


def test_robust_no_reduction_matches_classical_bitwise():
    # looped rather than parametrized so the test keeps its one id
    exact = build_counterexample_series(5, PoleSequence.harmonic(5))
    s = PowerSeries.from_coefficients([complex(x) for x in exact.as_complex_array()])
    for n in (2, 6, 14, 30):
        for tol_rel in (1e-8, 1e-12):
            robust = robust_pade(s, n, tol_rel=tol_rel)
            classical = classical_pade(s, n)
            assert robust.diagnostics.reductions == (), (n, tol_rel)
            assert robust.a == classical.a, (n, tol_rel)
            assert robust.b == classical.b, (n, tol_rel)
            # robust trims at tol_rel * max|coefficient|, classical exact zeros only
            assert robust.effective_degrees == (_relative_trim(classical.a, tol_rel),
                                                _relative_trim(classical.b, tol_rel))
            assert robust.diagnostics.sigmas == classical.diagnostics.sigmas
            assert robust.diagnostics.ratio == classical.diagnostics.ratio
            assert robust.requested_n == n and robust.mode == "robust"
            assert robust.diagnostics.threshold_used == tol_rel


def test_robust_padded_rational_reduces_in_one_step():
    # (1 + z)/(1 - z) = 1 + 2z + 2z^2 + ... requested at order 5: every
    # entry of B_5 equals 2, so one sweep drops the order straight to 1
    c = [1.0] + [2.0] * 10
    r = robust_pade(PowerSeries.from_coefficients(c), 5)
    assert r.diagnostics.reductions == (ReductionStep(5, 4, 1),)
    assert r.requested_n == 5
    assert r.effective_degrees == (1, 1)
    assert abs(r.b[0] - 1) == 0 and abs(r.b[1] + 1) < 1e-12
    assert abs(r.a[0] - 1) < 1e-12 and abs(r.a[1] - 1) < 1e-12
    assert not r.diagnostics.fully_reduced


def test_robust_zero_series_fully_reduces():
    r = robust_pade(PowerSeries.from_coefficients([0.0] * 5), 2)
    assert r.diagnostics.fully_reduced
    assert r.diagnostics.reductions == (ReductionStep(2, 2, 0),)
    assert r.a == (0j,) and r.b == (complex(1.0),)
    assert r.effective_degrees == (0, 0)


def test_robust_order_zero_is_plain_constant(k2_float):
    r = robust_pade(k2_float, 0)
    assert r.a == (complex(1.0),) and r.b == (complex(1.0),)
    assert not r.diagnostics.fully_reduced
    assert r.diagnostics.reductions == ()


@pytest.mark.parametrize("tol_rel", [1e-8, 1e-10, 1e-12])
def test_robust_counterexample_never_reduces(tol_rel, k2_float):
    r = robust_pade(k2_float, 2, tol_rel=tol_rel)
    assert r.diagnostics.reductions == ()
    assert r.diagnostics.ratio < 5


# ---------------------------------------------------------------------------
# order residual a - f b = O(z^(m + nu + 1))


def test_order_residual_exact_zero(k2_exact):
    r = classical_pade(k2_exact, 2, exact=True)
    res = order_residual(k2_exact, r)
    assert len(res) == sum(r.effective_degrees) + 1
    assert all(x == qc(0) for x in res)


def test_order_residual_exact_zero_block3():
    s = build_counterexample_series(3, PoleSequence.harmonic(3))
    r = classical_pade(s, 6, exact=True)
    assert all(x == qc(0) for x in order_residual(s, r))


@pytest.fixture(scope="module")
def k7_float():
    # the harmonic poles stored as doubles: z_6 = 1/8 alone is dyadic
    return build_counterexample_series(7, PoleSequence.explicit([1.0 / (k + 2) for k in range(2, 8)]))


@pytest.mark.parametrize("n, k, nullity, degrees", [
    (0, None, None, (0, 0)),
    (6, 3, 1, (6, 6)),
    (14, 4, 1, (14, 14)),
    (30, 5, 1, (30, 30)),
    (62, 6, 1, (62, 1)),
], ids=["n0", "n6", "n14", "n30", "n62"])
def test_exact_route_solves_the_stored_doubles_of_a_float_series(k7_float, n, k, nullity, degrees):
    # a float coefficient is the dyadic rational it stores: the exact route
    # solves those values and proves the result by substitution
    r = classical_pade(k7_float, n, exact=True)
    assert r.exact and all(isinstance(x, QC) for x in r.a + r.b)
    assert r.diagnostics.nullspace_dim == nullity
    assert r.effective_degrees == degrees
    assert all(x == qc(0) for x in order_residual(k7_float, r))
    if k is not None:
        b = [complex(x) for x in r.b_effective]
        inside = [z for z in np.roots(b[::-1]) if abs(z) < 1]
        assert len(inside) == 1 and abs(inside[0] - 1.0 / (k + 2)) <= 1e-12
    if n == 62:                             # the pole sits at exactly 1/8
        assert r.b_effective == (qc(1), qc(-8))


def test_exact_route_on_a_gammel_series_with_a_float_pole():
    s = build_gammel_series(GammelParams(alphas=(Fraction(1, 4), Fraction(1, 16)),
                                         poles=PoleSequence.explicit([0.5j, Fraction(1, 3)],
                                                                     start_index=1)), 6)
    assert not s.exact
    r = classical_pade(s, 3, exact=True)
    assert r.b == (qc(1), qc(-3), qc(0), qc(0))
    assert r.effective_degrees == (3, 1)


def test_order_residual_float_small(k2_float):
    r = classical_pade(k2_float, 2)
    res = order_residual(k2_float, r)
    scale = max(abs(x) for x in k2_float.as_complex_array())
    assert max(abs(x) for x in res) <= 1e-10 * scale


def test_order_residual_flags_corruption(k2_float):
    r = classical_pade(k2_float, 2)
    bad = PadeApproximant(a=r.a, b=(r.b[0], r.b[1] + 0.1, r.b[2]),
                          requested_n=r.requested_n,
                          effective_degrees=r.effective_degrees,
                          mode=r.mode, exact=False, diagnostics=r.diagnostics)
    res = order_residual(k2_float, bad)
    assert max(abs(x) for x in res) > 1.0


def _residual_reference(s, r):
    """a - f b term by term on the stored values as QC values (a float one
    as the dyadic rational it stores), normalized after every product."""
    m, nu = r.effective_degrees
    a = [_as_qc(x) for x in r.a_effective] + [qc(0)] * nu
    b = [_as_qc(x) for x in r.b_effective]
    c = [_as_qc(s.coeff(j)) for j in range(m + nu + 1)]
    out = []
    for i in range(m + nu + 1):
        acc = a[i]
        for j in range(0, min(i, nu) + 1):
            if b[j]:
                acc = acc - c[i - j] * b[j]
        out.append(acc)
    return tuple(out)


def _rounded(values):
    return tuple(to_complex(x) for x in values)


def test_order_residual_equals_the_term_by_term_sum_on_random_series():
    # exact approximants (residual 0), the same with one denominator entry
    # moved (a nonzero exact residual) and float approximants (the exact
    # residual of their stored doubles, each part rounded once)
    rnd = random.Random(20261022)
    seen = {"real": 0, "gaussian": 0, "nonzero": 0}
    for trial in range(84):
        n = rnd.randint(1, 8)
        if trial % 2:
            c = _random_complex_coefficients(rnd, n, ("small", "mixed", "padded", "signs", "b0",
                                                      "wide", "scaled")[trial % 7])
        else:
            c = _random_real_coefficients(rnd, n, ("small", "signs", "wide", "padded")[trial % 4])
        series = PowerSeries.from_coefficients(c)
        seen["real" if all(x.is_real for x in series.coeffs) else "gaussian"] += 1
        exact = classical_pade(series, n, exact=True)
        assert not any(order_residual(series, exact))
        b = list(exact.b)
        j = rnd.randint(0, exact.effective_degrees[1])
        b[j] += qc(Fraction(rnd.randint(1, 9), rnd.randint(1, 9)), rnd.randint(-1, 1))
        moved = replace(exact, b=tuple(b))
        res = order_residual(series, moved)
        assert res == _residual_reference(series, moved)
        seen["nonzero"] += any(res)
        flt = classical_pade(series, n)
        assert order_residual(series, flt) == _rounded(_residual_reference(series, flt))
    assert seen["real"] >= 30 and seen["gaussian"] >= 30 and seen["nonzero"] >= 80


@pytest.mark.parametrize("n", [6, 14, 30])
def test_order_residual_of_the_exact_route_on_a_float_series(k7_float, n):
    r = classical_pade(k7_float, n, exact=True)
    res = order_residual(k7_float, r)
    assert res == _residual_reference(k7_float, r) and not any(res)


@pytest.mark.parametrize("case", ["k2-classical-n2", "k7-robust-n14"])
def test_order_residual_of_a_float_approximant_is_its_exact_residual_rounded_once(case, k2_float,
                                                                                  k7_float):
    s, r = ((k2_float, classical_pade(k2_float, 2)) if case.startswith("k2")
            else (k7_float, robust_pade(k7_float, 14)))
    assert not r.exact
    assert order_residual(s, r) == _rounded(_residual_reference(s, r))


@settings(max_examples=25, deadline=None)
@given(num=st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
       den=st.integers(min_value=1, max_value=5))
def test_scaling_series_leaves_denominator_fixed(num, den):
    # c -> lambda c multiplies the numerator by lambda and leaves the
    # normalized denominator untouched, exactly
    lam = qc(Fraction(num, den))
    base = build_counterexample_series(2, PoleSequence.harmonic(2))
    scaled = PowerSeries.from_coefficients([lam * c for c in base.coeffs])
    r0 = classical_pade(base, 2, exact=True)
    r1 = classical_pade(scaled, 2, exact=True)
    assert r1.b == r0.b
    assert r1.a == tuple(lam * x for x in r0.a)


# ---------------------------------------------------------------------------
# serialization


def test_json_dict_float_route(k2_float):
    d = record(classical_pade(k2_float, 2))
    assert set(d) == {"a", "b", "mode", "requested_n", "effective_degrees",
                      "exact", "diagnostics"}
    assert d["mode"] == "classical" and d["exact"] is False
    assert d["b"][0] == [1.0, 0.0]
    diag = d["diagnostics"]
    assert set(diag) == {"sigmas", "ratio", "threshold_used", "reductions",
                         "b0_degenerate", "fully_reduced", "nullspace_dim"}
    assert diag["threshold_used"] is None and diag["reductions"] == []


def test_json_dict_exact_route_uses_rational_strings(k2_exact):
    d = record(classical_pade(k2_exact, 2, exact=True))
    assert d["exact"] is True
    assert d["b"] == [["1", "0"], ["-4", "0"], ["0", "0"]]
    assert d["a"][2] == ["-1008", "0"]
    assert d["diagnostics"]["sigmas"] is None
    assert d["diagnostics"]["nullspace_dim"] == 1


def test_json_dict_infinite_ratio_serializes_as_string():
    # a rank-deficient order-2 system has sigma_2 = 0, hence ratio = inf
    r = classical_pade(geometric_series(5, 1.0), 2)
    assert r.diagnostics.ratio == float("inf")
    d = record(r)
    assert d["diagnostics"]["ratio"] == "inf"
    assert d["diagnostics"]["sigmas"][1] == 0.0


# ---------------------------------------------------------------------------
# guards


def test_parameter_guards(k2_exact, k2_float):
    with pytest.raises(InvalidParameterError):
        classical_pade(k2_exact, -1)
    with pytest.raises(InvalidParameterError):
        robust_pade(k2_float, 2, tol_rel=0.0)
    with pytest.raises(InvalidParameterError):
        robust_pade(k2_float, 2, tol_rel=1.0)
    with pytest.raises(InvalidParameterError):
        robust_pade(k2_float, -3)


def test_insufficient_coefficients_raise(k2_exact):
    with pytest.raises(OutOfRangeError):
        classical_pade(k2_exact, 3, exact=True)
    with pytest.raises(OutOfRangeError):
        robust_pade(k2_exact, 3)


def test_diagnostics_defaults():
    d = Diagnostics()
    assert d.sigmas is None and d.ratio is None and d.reductions == ()
    assert not d.b0_degenerate and not d.fully_reduced
    assert d.nullspace_dim is None
