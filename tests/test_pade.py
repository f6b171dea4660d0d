"""Classical and robust Pade construction, trimming, and order residuals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padelab.errors import InvalidParameterError, OutOfRangeError
from padelab.pade import (
    Diagnostics,
    PadeApproximant,
    ReductionStep,
    classical_pade,
    order_residual,
    robust_pade,
)
from padelab.rational import qc
from padelab.series import PoleSequence, PowerSeries, build_counterexample_series


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
        r.value(z)


def test_classical_exact_value_elsewhere(k2_exact):
    r = classical_pade(k2_exact, 2, exact=True)
    z = Fraction(1, 8)
    expected = r.numerator_at(z) / r.denominator_at(z)
    assert r.value(z) == expected
    # float evaluation point falls back to complex arithmetic
    approx = r.numerator_at(0.25)
    assert isinstance(approx, complex)
    assert abs(approx - 1.0) < 1e-12


def test_classical_exact_geometric_order_one():
    r = classical_pade(geometric_series(3), 1, exact=True)
    assert r.b == (qc(1), qc(-1))
    assert r.a == (qc(1), qc(0))
    assert r.effective_degrees == (0, 1)
    assert r.value(Fraction(1, 2)) == qc(2)
    with pytest.raises(ZeroDivisionError):
        r.value(1)


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


def test_classical_exact_degenerate_leading_denominator():
    # c = (1, 0, 1): the order-1 system [[c_2, c_1]] = [[1, 0]] forces
    # b_0 = 0, flagged rather than normalized away
    r = classical_pade(PowerSeries.from_coefficients([1, 0, 1]), 1, exact=True)
    assert r.b == (qc(0), qc(1))
    assert r.diagnostics.b0_degenerate


# ---------------------------------------------------------------------------
# classical route, float arithmetic


def test_classical_float_block2(k2_float):
    r = classical_pade(k2_float, 2)
    assert not r.exact
    assert abs(r.b[0] - 1) == 0
    assert abs(r.b[1] + 4) < 1e-10
    assert abs(r.b[2]) < 1e-12
    for got, want in zip(r.a, (1, 252, -1008)):
        assert abs(got - want) < 1e-8 * 1008
    diag = r.diagnostics
    assert diag.sigmas is not None and len(diag.sigmas) == 2
    assert abs(diag.sigmas[0] - 91392 ** 0.5) < 1e-8 * 91392 ** 0.5
    assert abs(diag.sigmas[1] - 48384 ** 0.5) < 1e-8 * 48384 ** 0.5
    assert abs(diag.ratio - (91392 / 48384) ** 0.5) < 1e-10


def test_classical_float_trim_tolerance(k2_float):
    # the b_2 coefficient is pure rounding noise; a relative trim removes it
    untrimmed = classical_pade(k2_float, 2)
    assert untrimmed.effective_degrees[1] == 2
    trimmed = classical_pade(k2_float, 2, trim_tol=1e-10)
    assert trimmed.effective_degrees[1] == 1
    assert trimmed.b_effective == untrimmed.b[:2]


def test_classical_float_degenerate_unit_norm():
    r = classical_pade(PowerSeries.from_coefficients([1.0, 0.0, 1.0]), 1)
    assert r.diagnostics.b0_degenerate
    assert abs(np.linalg.norm(r.b) - 1.0) < 1e-12
    assert abs(r.b[1] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# robust route


def test_robust_no_reduction_matches_classical_bitwise():
    # looped rather than parametrized so the test keeps its one id
    exact = build_counterexample_series(5, PoleSequence.harmonic(5))
    s = PowerSeries.from_coefficients([complex(x) for x in exact.as_complex_array()])
    for n in (2, 6, 14, 30):
        for tol_rel in (1e-8, 1e-12):
            robust = robust_pade(s, n, tol_rel=tol_rel)
            classical = classical_pade(s, n, trim_tol=tol_rel)
            assert robust.diagnostics.reductions == (), (n, tol_rel)
            assert robust.a == classical.a, (n, tol_rel)
            assert robust.b == classical.b, (n, tol_rel)
            assert robust.effective_degrees == classical.effective_degrees
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
    d = classical_pade(k2_float, 2).to_json_dict()
    assert set(d) == {"a", "b", "mode", "requested_n", "effective_degrees",
                      "exact", "diagnostics"}
    assert d["mode"] == "classical" and d["exact"] is False
    assert d["b"][0] == [1.0, 0.0]
    diag = d["diagnostics"]
    assert set(diag) == {"sigmas", "ratio", "threshold_used", "reductions",
                         "b0_degenerate", "fully_reduced", "nullspace_dim"}
    assert diag["threshold_used"] is None and diag["reductions"] == []


def test_json_dict_exact_route_uses_rational_strings(k2_exact):
    d = classical_pade(k2_exact, 2, exact=True).to_json_dict()
    assert d["exact"] is True
    assert d["b"] == [["1", "0"], ["-4", "0"], ["0", "0"]]
    assert d["a"][2] == ["-1008", "0"]
    assert d["diagnostics"]["sigmas"] is None
    assert d["diagnostics"]["nullspace_dim"] == 1


def test_json_dict_infinite_ratio_serializes_as_string():
    # a rank-deficient order-2 system has sigma_2 = 0, hence ratio = inf
    r = classical_pade(geometric_series(5, 1.0), 2)
    assert r.diagnostics.ratio == float("inf")
    d = r.to_json_dict()
    assert d["diagnostics"]["ratio"] == "inf"
    assert d["diagnostics"]["sigmas"][1] == 0.0


# ---------------------------------------------------------------------------
# guards


def test_parameter_guards(k2_exact, k2_float):
    with pytest.raises(InvalidParameterError):
        classical_pade(k2_exact, -1)
    with pytest.raises(InvalidParameterError):
        classical_pade(k2_float, 2, exact=True)
    with pytest.raises(InvalidParameterError):
        classical_pade(k2_exact, 2, trim_tol=1.0)
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
