"""Pole classification, per-block verification, and divergence scans."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from padelab import analysis
from padelab._jsonfmt import record
from padelab.analysis import (
    CounterexampleReport,
    _coeff_bound_check,
    _tail_bound,
    divergence_scan,
    find_poles,
    verify_counterexample,
)
from padelab.errors import (
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
)
from padelab.linalg import svd
from padelab.pade import PadeApproximant, classical_pade
from padelab.rational import is_exact_scalar, qc, to_complex
from padelab.series import (
    PoleSequence,
    PowerSeries,
    _as_qc,
    build_counterexample_series,
    eval_series,
)
from padelab.toeplitz import build_pair


@pytest.fixture(scope="module")
def k2_float_approx():
    s = build_counterexample_series(2, PoleSequence.harmonic(2))
    floats = PowerSeries.from_coefficients([complex(x) for x in s.as_complex_array()])
    return classical_pade(floats, 2)


# ---------------------------------------------------------------------------
# find_poles


def test_find_poles_block2(k2_float_approx):
    report = find_poles(k2_float_approx)
    assert len(report.poles) == 1
    pole = report.poles[0]
    assert abs(pole.location - 0.25) < 1e-8
    assert abs(pole.residue_magnitude - 0.25) < 1e-6
    assert len(report.zeros) == 2
    assert report.doublets == ()
    # the pole sits inside the unit disc with numerator magnitude ~1,
    # far above the spurious threshold
    assert len(report.spurious) == 1
    assert abs(report.spurious[0].location - 0.25) < 1e-8
    assert abs(report.spurious[0].numerator_magnitude - 1.0) < 1e-6
    # the rounding-noise trailing coefficient creates one huge companion
    # root that fails the backward-error check and is discarded
    assert len(report.discarded) == 1
    assert abs(report.discarded[0]) > 1e10


def test_find_poles_backward_error_invariant(k2_float_approx):
    report = find_poles(k2_float_approx)
    b_eff = [complex(x) for x in k2_float_approx.b_effective]
    b_norm = math.sqrt(sum(abs(x) ** 2 for x in b_eff))
    for pole in report.poles:
        value = sum(c * pole.location ** j for j, c in enumerate(b_eff))
        assert abs(value) <= 1e-8 * b_norm
        assert pole.denom_residual <= 1e-8 * b_norm


def test_find_poles_boundary_pole_not_spurious():
    # 1/(1 - z) has its pole exactly on the unit circle; radius_hint = 1
    # uses a strict inequality so the pole is genuine, not spurious
    s = PowerSeries.from_coefficients([1.0, 1.0, 1.0])
    report = find_poles(classical_pade(s, 1))
    assert len(report.poles) == 1
    assert abs(report.poles[0].location - 1.0) < 1e-12
    assert report.spurious == ()
    assert abs(report.poles[0].residue_magnitude - 1.0) < 1e-12


def test_find_poles_constant_denominator():
    s = PowerSeries.from_coefficients([3.0, 0.0, 0.0])
    report = find_poles(classical_pade(s, 0))
    assert report.poles == () and report.zeros == ()
    assert report.doublets == () and report.spurious == ()


def test_find_poles_reports_close_doublet():
    # numerator root at 0.5 + 1e-5, denominator root at 0.5: a doublet
    zero_at = 0.5 + 1e-5
    approx = PadeApproximant(a=(1.0 + 0j, -1.0 / zero_at), b=(1.0 + 0j, -2.0 + 0j),
                             requested_n=1, effective_degrees=(1, 1),
                             mode="classical", exact=False)
    report = find_poles(approx)
    assert len(report.doublets) == 1
    doublet = report.doublets[0]
    assert abs(doublet.pole - 0.5) < 1e-12
    assert abs(doublet.zero - zero_at) < 1e-12
    assert abs(doublet.separation - 1e-5) < 1e-9


def test_find_poles_parameter_guards(k2_float_approx):
    with pytest.raises(InvalidParameterError):
        find_poles(k2_float_approx, radius_hint=0.0)
    with pytest.raises(InvalidParameterError):
        find_poles(k2_float_approx, delta_doublet=0.0)
    with pytest.raises(InvalidParameterError):
        find_poles(k2_float_approx, tol_spurious=0.0)


def test_pole_report_dict_shape(k2_float_approx):
    d = record(find_poles(k2_float_approx, radius_hint=0.9))
    assert set(d) == {"poles", "zeros", "doublets", "spurious", "discarded",
                      "radius_hint", "delta_doublet", "tol_spurious"}
    assert d["radius_hint"] == 0.9
    assert set(d["poles"][0]) == {"location", "residue_magnitude", "denom_residual"}
    assert set(d["spurious"][0]) == {"location", "numerator_magnitude"}
    assert isinstance(d["poles"][0]["location"], list)


# ---------------------------------------------------------------------------
# verify_counterexample


def test_verify_block2_exact_frozen():
    rep = verify_counterexample(2, PoleSequence.harmonic(2), exact=True)
    assert rep.k == 2 and rep.n == 2 and rep.exact
    assert rep.coeff_bound_ok and rep.c1_equality
    assert rep.q_match == 0.0 and rep.q_ok
    assert rep.p_at_zk == 1 + 0j and rep.p_expected == 1 + 0j
    assert rep.p_match == 0.0 and rep.p_ok
    assert abs(rep.sigma1 - 91392 ** 0.5) < 1e-8 * 91392 ** 0.5
    assert abs(rep.sigman - 48384 ** 0.5) < 1e-8 * 48384 ** 0.5
    assert abs(rep.sigma_ratio - (91392 / 48384) ** 0.5) < 1e-10
    assert rep.sigma_ratio_pass
    assert rep.sigma_ratio_oracle is not None and rep.oracle_agrees
    assert rep.head_sum == 0.0 and abs(rep.head_limit - 256 / 6) < 1e-12
    assert rep.tail_sum == 80.0 and rep.tail_limit == 128.0
    assert rep.s_value == 80.0 and abs(rep.s_limit - 512 / 3) < 1e-12
    assert rep.bounds_ok
    assert rep.sandwich_lo == 176.0 and rep.sandwich_hi == 336.0
    assert rep.sandwich_ok
    assert 0.0 < rep.max_no_reduction_tol < 1.0
    assert abs(rep.max_no_reduction_tol - (48384 / 91392) ** 0.5) < 1e-10
    assert rep.passed


def test_verify_block3_float_route():
    rep = verify_counterexample(3, PoleSequence.harmonic(3), exact=False)
    assert not rep.exact
    assert rep.n == 6
    assert rep.q_ok and rep.q_match < 1e-8 * 5
    # p(z_3) = 1.7e-5 lies within the 2.0e-4 float tolerance: not certified
    assert rep.p_ok is None
    expected_p = 4096 * 0.2 ** 12
    assert abs(rep.p_at_zk - expected_p) < 1e-8
    assert rep.sigma_ratio < 5 and rep.sigma_ratio_pass
    # exact poles make the series exact, so the oracle still engages
    assert rep.oracle_agrees
    assert rep.passed


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_verify_float_route_does_not_certify_p_within_its_tolerance(k):
    # 16^k z_k^(2 n_k) is 1.7e-5, 1.1e-17, 2.1e-45 and 1.7e-105 here, within the
    # 2.0e-4 .. 1.3 tolerance 1e-8 max(1, max|a_j|), which cannot tell it from 0
    poles = PoleSequence.harmonic(k)
    rep = verify_counterexample(k, poles, exact=False)
    a = classical_pade(build_counterexample_series(k, poles), rep.n).a
    assert abs(rep.p_expected) <= 1e-8 * max(1.0, max(abs(x) for x in a))
    assert rep.p_ok is None and record(rep)["p_ok"] is None
    assert rep.q_ok and rep.passed


# 4096 / 5^12, and 16^6 z^124 of the imaginary z = 0.11764705882352941j, which is
# real: each the exact value rounded once
@pytest.mark.parametrize("k, poles, value", [
    (3, PoleSequence.harmonic(3), 1.6777216e-05),
    (6, PoleSequence.explicit([Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(1, 7),
                               0.11764705882352941j]), 9.479231013449832e-109),
], ids=["harmonic-k3", "imaginary-pole-k6"])
def test_verify_float_route_expects_the_exact_numerator_value_rounded_once(k, poles, value):
    rep = verify_counterexample(k, poles, exact=False)
    assert rep.p_expected == to_complex(16 ** k * _as_qc(poles.z(k)) ** (2 * rep.n))
    assert rep.p_expected == complex(value, 0) and rep.passed


def test_verify_consistency_of_pass_flag():
    # the exact route at k = 2, and the float route at k = 3, whose p_ok is None
    for k, exact in ((2, True), (3, False)):
        rep = verify_counterexample(k, PoleSequence.harmonic(4), exact=exact)
        d = record(rep)
        recomputed = (d["coeff_bound_ok"] and d["c1_equality"] and d["q_ok"]
                      and d["p_ok"] is not False and d["sigma_ratio_pass"] and d["bounds_ok"]
                      and d["sandwich_ok"] and d["oracle_agrees"] is not False)
        assert d["passed"] == recomputed
    assert d["p_ok"] is None


def test_verify_csv_row_matches_header():
    rep = verify_counterexample(2, PoleSequence.harmonic(2), exact=True)
    header = CounterexampleReport.CSV_HEADER.split(",")
    assert header == ["k", "n", "sigma1", "sigman", "ratio", "S", "S_limit",
                      "q_match", "p_at_zk_re", "p_at_zk_im", "pass"]
    cells = rep.csv_row().split(",")
    assert len(cells) == len(header)
    assert cells[0] == "2" and cells[1] == "2"
    assert abs(float(cells[2]) - rep.sigma1) < 1e-12 * rep.sigma1
    assert float(cells[5]) == 80.0
    assert float(cells[7]) == 0.0
    assert float(cells[8]) == 1.0 and float(cells[9]) == 0.0
    assert cells[10] == "1"


def test_verify_float_route_reuses_the_pade_spectrum():
    poles = PoleSequence.harmonic(3)
    rep = verify_counterexample(3, poles, exact=False)
    spectrum = svd(build_pair(build_counterexample_series(3, poles), 6, exact=False).B)
    assert rep.sigma1 == float(spectrum.sigmas[0])
    assert rep.sigman == float(spectrum.sigmas[-1])
    assert rep.sigma_ratio == float(spectrum.ratio)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_oracle_bracket_on_complex_poles(k):
    poles = PoleSequence.explicit([qc(Fraction(1, 8), Fraction(1, 8)),
                                   qc(Fraction(-1, 9), Fraction(1, 9))])
    rep = verify_counterexample(k, poles, exact=True)
    lo, hi = rep.sigma_ratio_bracket
    assert lo <= rep.sigma_ratio_oracle <= hi
    assert lo * (1 - 1e-8) <= rep.sigma_ratio <= hi * (1 + 1e-8)
    assert rep.oracle_agrees and rep.passed
    assert record(rep)["sigma_ratio_bracket"] == [lo, hi]


def test_verify_bracket_absent_without_oracle():
    # the oracle runs on exact series with n <= ORACLE_MAX_ROWS only: not on
    # the exact block k = 5 (n = 30), nor on a series with a float pole
    for rep in (verify_counterexample(5, PoleSequence.harmonic(5), exact=True),
                verify_counterexample(2, PoleSequence.explicit([0.25]))):
        assert rep.sigma_ratio_bracket is None and rep.oracle_agrees is None
        assert record(rep)["sigma_ratio_bracket"] is None


def test_verify_float_series_zero_passes_only_where_its_exact_value_rounds_to_0():
    # block 9 of a float pole 1/11: 16^9 z_9^e lies below the smallest
    # subnormal for e >= 322, so c_510..c_698 are stored as 0; c_699 is 5e-324j
    poles = PoleSequence.explicit([Fraction(1, m) for m in range(4, 11)]
                                  + [0.09090909090909091j])
    s = build_counterexample_series(9, poles)
    assert [j for j, c in enumerate(s.coeffs) if not c] == list(range(510, 699))
    assert s.coeffs[699] == 5e-324j
    assert _coeff_bound_check(s, 1020) == (True, True)
    for j in (699, 1019, 5):        # a subnormal, a normal value, an earlier block
        zeroed = dataclasses.replace(s, coeffs=s.coeffs[:j] + (0j,) + s.coeffs[j + 1:])
        assert _coeff_bound_check(zeroed, 1020) == (False, True)
    rep = verify_counterexample(9, poles)
    assert rep.coeff_bound_ok and rep.q_ok and rep.passed


def test_verify_guards():
    with pytest.raises(InvalidParameterError):
        verify_counterexample(1, PoleSequence.harmonic(2))
    with pytest.raises(OutOfRangeError):
        verify_counterexample(4, PoleSequence.harmonic(3))
    with pytest.raises(InvalidParameterError):
        verify_counterexample(2, PoleSequence.explicit([Fraction(2, 5)]))
    with pytest.raises(InvalidParameterError):
        verify_counterexample(2, PoleSequence.explicit([0.25]), exact=True)


# ---------------------------------------------------------------------------
# divergence_scan


def test_scan_single_block():
    table = divergence_scan(2)
    assert table.scheme == "harmonic_repeated" and table.exact
    assert table.k_max == 2 and table.points == ()
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.k == 2 and row.n == 2
    assert row.z_k == 0.25 + 0j
    assert row.abs_q_at_zk == 0.0
    assert row.error_at_zk == math.inf


def test_scan_repeated_scheme_prefix_and_probes():
    # pole values recur across blocks: z_2 = z_3 = 1/4, z_4 = 1/5, so the
    # probe at 1/4 sees an infinite error along the subsequence k = 2, 3
    table = divergence_scan(4, points=(Fraction(1, 4), Fraction(9, 10)))
    assert [complex(r.z_k) for r in table.rows] == [0.25, 0.25, 0.2]
    for row in table.rows:
        assert row.abs_q_at_zk == 0.0
        assert row.error_at_zk == math.inf
        assert len(row.extras) == 2
    at_quarter = {row.k: row.extras[0].error for row in table.rows}
    assert at_quarter[2] == math.inf
    assert at_quarter[3] == math.inf
    assert math.isfinite(at_quarter[4])
    for row in table.rows:
        outer = row.extras[1]
        assert outer.point == 0.9 + 0j
        assert math.isfinite(outer.error)
        assert outer.abs_q > 0


def test_scan_explicit_poles_take_their_tag():
    poles = PoleSequence.explicit([Fraction(1, 4), Fraction(1, 5)])
    table = divergence_scan(3, poles=poles)
    assert table.scheme == "explicit_list"
    assert [complex(r.z_k) for r in table.rows] == [0.25, 0.2]


def test_scan_guards():
    with pytest.raises(InvalidParameterError):
        divergence_scan(1)
    # a float probe point is scanned at the dyadic rational it stores, a
    # rational literal at its value; float poles are refused
    table = divergence_scan(3, points=(0.3,))
    assert table.exact and table.points == (0.3 + 0j,)
    assert all(0 < row.extras[0].error < math.inf for row in table.rows)
    assert divergence_scan(3, points=("1/4",)) == divergence_scan(3, points=(Fraction(1, 4),))
    with pytest.raises(InvalidParameterError, match="exact pole locations"):
        divergence_scan(3, poles=PoleSequence.explicit([0.25, Fraction(1, 5)]))
    with pytest.raises(DomainError):
        divergence_scan(2, points=(Fraction(3, 2),))


# `exact` says whether the outside point is a rational or a double; both
# take the one route
@pytest.mark.parametrize("exact, outside", [(True, Fraction(10 ** 400)), (True, Fraction(2)),
                                            (False, 2.0), (False, math.nan),
                                            (True, qc(Fraction(3, 5), Fraction(4, 5)))])
def test_scan_checks_every_probe_point_before_any_row(monkeypatch, exact, outside):
    # a point beyond the double range is outside radius_hint too, and no
    # approximant is built before every point has been checked
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was started")

    assert is_exact_scalar(outside) is exact
    monkeypatch.setattr(analysis, "classical_pade", no_rows)
    with pytest.raises(DomainError):
        divergence_scan(3, points=(Fraction(1, 4), outside))


def _qc_probe(s, approx, z):
    """(|q(z)|, |f(z) - p(z)/q(z)|, inf where q(z) = 0) in QC arithmetic."""
    q = approx.denominator_at(z)
    if not q:
        return abs(to_complex(q)), math.inf
    return abs(to_complex(q)), abs(to_complex(eval_series(s, z) - approx.numerator_at(z) / q))


def test_exact_scan_errors_equal_a_qc_reference():
    # the scan's Gaussian-integer probe rounds each part of (f q - p)/q once,
    # so it must give the very floats of the QC route: seeded scans over both
    # schemes and explicit Gaussian poles, real and Gaussian probe points,
    # complex doubles (taken at the dyadic rationals they store), and probes
    # placed on block poles (exact hits)
    rng = random.Random(19)
    doubles = (0.5j, 0.3 - 0.2j, -0.7 + 0.1j, 0.1j)

    def rational(bound):
        den = rng.choice((3, 4, 5, 7, 9, 10, 16, 97))
        return Fraction(rng.randint(-int(bound * den), int(bound * den)), den)

    hits = 0
    for trial in range(60):
        k_max = rng.choice((2, 3, 3, 4))
        scheme = ("harmonic", "harmonic_repeated", None)[trial % 3]
        if scheme == "harmonic":
            poles = PoleSequence.harmonic(k_max)
        elif scheme:
            poles = PoleSequence.harmonic_repeated(k_max)
        else:
            pts = []
            while len(pts) < k_max - 1:
                z = qc(rational(0.3), rational(0.3) if rng.random() < 0.7 else 0)
                if 0 < z.abs2() < Fraction(1, 9):
                    pts.append(z)
            poles = PoleSequence.explicit(pts)
        points = [rng.choice(poles.points)]
        for _ in range(rng.randint(1, 3)):
            z = qc(rational(0.95), rational(0.6) if rng.random() < 0.5 else 0)
            if z.abs2() < 1:
                points.append(z)
        rng.shuffle(points)
        points.append(doubles[trial % len(doubles)])
        table = divergence_scan(k_max, points=tuple(points), poles=poles)
        s = build_counterexample_series(k_max, poles)
        exact_points = [qc(Fraction(p.real), Fraction(p.imag)) if isinstance(p, complex) else p
                        for p in points]
        for row in table.rows:
            approx = classical_pade(s, row.n, exact=True)
            assert (row.abs_q_at_zk, row.error_at_zk) == _qc_probe(s, approx, poles.z(row.k))
            for p, extra in zip(exact_points, row.extras):
                assert (extra.abs_q, extra.error) == _qc_probe(s, approx, p)
                hits += extra.error == math.inf
        assert table.points[-1] == points[-1]
    assert hits > 0


def test_scan_dict_serializes_infinities():
    d = record(divergence_scan(2, points=(Fraction(1, 4),)))
    assert set(d) == {"scheme", "k_max", "exact", "points", "rows"}
    assert d["points"] == [[0.25, 0.0]]
    row = d["rows"][0]
    assert row["error_at_zk"] == "inf"
    assert row["abs_q_at_zk"] == 0.0
    assert row["extras"][0]["error"] == "inf"


def test_tail_bound_is_a_tight_upper_bound_rounded_up(tail_partial_sum):
    # T(1/4) from j = 253 on, the first index the k_max = 7 truncation omits
    partial = tail_partial_sum(Fraction(1, 4), 253, 653)
    bound = _tail_bound(qc(Fraction(1, 4)), 253)
    assert partial <= Fraction(bound) <= partial * Fraction(10001, 10000)
    # |3/10 + 2i/5| = 1/2 exactly; the float point 0.3 + 0.4j is off by rounding
    half = _tail_bound(qc(Fraction(1, 2)), 13)
    assert _tail_bound(qc(Fraction(3, 10), Fraction(2, 5)), 13) == half
    assert math.isclose(_tail_bound(0.3 + 0.4j, 13), half, rel_tol=1e-12)
    # irrational |p| = sqrt(2)/3 is rounded up, so the bound covers it
    assert _tail_bound(qc(Fraction(1, 3), Fraction(1, 3)), 13) >= \
        _tail_bound(qc(Fraction(4714, 10000)), 13)
    # a bound below the double range rounds up to the least positive double
    assert _tail_bound(qc(Fraction(1, 100)), 1021) == 5e-324
    # where the term ratio ((j0+4)/(j0+3))^4 r reaches 1, T is summed exactly
    for r, j0, stop in ((Fraction(9, 10), 13, 1000), (Fraction(99, 100), 253, 8000)):
        partial = tail_partial_sum(r, j0, stop)
        bound = _tail_bound(qc(r), j0)
        assert partial <= Fraction(bound) <= partial * (1 + Fraction(1, 10 ** 12))
    # |p| = 1 has no finite T
    assert _tail_bound(qc(1), 13) is None and _tail_bound(qc(0, 1), 13) is None
