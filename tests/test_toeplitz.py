"""Toeplitz assembly, the spike/shift split, and coefficient-sum bounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padelab.errors import (
    InvalidParameterError,
    OutOfRangeError,
    UnsupportedInputError,
)
from padelab.rational import qc
from padelab.series import PoleSequence, PowerSeries, block_order, build_counterexample_series
from padelab.toeplitz import build_pair, check_sum_bounds

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
    min_size=5, max_size=13)


def test_exact_pair_oracle(k2_series):
    pair = build_pair(k2_series, 2, exact=True)
    assert pair.exact
    assert pair.A.entries == tuple(
        tuple(qc(v) for v in row)
        for row in [[1, 0, 0], [256, 1, 0], [16, 256, 1]])
    assert pair.B.entries == tuple(
        tuple(qc(v) for v in row)
        for row in [[64, 16, 256], [256, 64, 16]])


def test_float_pair_matches_exact(k2_series):
    fpair = build_pair(k2_series, 2, exact=False)
    epair = build_pair(k2_series, 2, exact=True)
    assert np.array_equal(fpair.A, epair.A.to_numpy())
    assert np.array_equal(fpair.B, epair.B.to_numpy())
    assert fpair.A.shape == (3, 3) and fpair.B.shape == (2, 3)


def test_pair_guards(k2_series):
    with pytest.raises(InvalidParameterError):
        build_pair(k2_series, 0)
    with pytest.raises(OutOfRangeError):
        build_pair(k2_series, 3)            # needs 7 coefficients, has 5
    inexact = PowerSeries.from_coefficients([1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        build_pair(inexact, 1, exact=True)


def test_default_exactness_follows_series(k2_series):
    assert build_pair(k2_series, 2).exact
    inexact = PowerSeries.from_coefficients([1.0, 2.0, 3.0])
    assert not build_pair(inexact, 1).exact


@given(coeff_lists)
def test_toeplitz_shift_structure(values):
    s = PowerSeries.from_coefficients(values)
    n = (len(values) - 1) // 2
    pair = build_pair(s, n, exact=False)
    A, B = pair.A, pair.B
    for i in range(n):
        for j in range(n):
            assert B[i, j] == B[i, j]
            if i + 1 < n and j + 1 < n + 1:
                assert B[i, j] == B[i + 1, j + 1]
            if i + 1 < n + 1 and j + 1 < n + 1:
                assert A[i, j] == A[i + 1, j + 1]
    for r in range(n):
        assert B[r, 0] == values[n + r + 1]
    for i in range(n + 1):
        for j in range(n + 1):
            if j > i:
                assert A[i, j] == 0
            else:
                assert A[i, j] == values[i - j]


@given(coeff_lists)
def test_pair_columns_give_order_system(values):
    # row r of [A; -B] stacked against convolution: B b = 0 encodes orders n+1..2n
    s = PowerSeries.from_coefficients(values)
    n = (len(values) - 1) // 2
    B = build_pair(s, n, exact=False).B
    b = np.arange(1, n + 2, dtype=complex)
    conv = np.convolve(values[:2 * n + 1], b)
    assert np.allclose(B @ b, conv[n + 1:2 * n + 1], rtol=1e-12, atol=1e-9)


def _check_split(s, k, U):
    """B_(n_k) = 16^k U + V with U U^T = I, 16^k on every cell of U in the
    exact B and ||V||_2 <= S; returns the float remainder V."""
    n, spike = block_order(k), 16 ** k
    assert np.array_equal(U @ U.T, np.eye(n))
    B = build_pair(s, n, exact=True).B
    assert all(B.entries[i][j] == qc(spike) for i, j in zip(*np.nonzero(U)))
    rest = build_pair(s, n, exact=False).B - spike * U
    assert np.linalg.norm(rest, 2) <= check_sum_bounds(s, k).s_value + 1e-9
    return rest


def test_structured_split_k2(k2_series, spike_frame):
    U = spike_frame(2)
    assert np.array_equal(U, [[0, 0, 1], [1, 0, 0]])
    rest = _check_split(k2_series, 2, U)
    # V = c_3 on the diagonal plus c_2 on the superdiagonal, S = 64 + 16
    assert np.array_equal(rest, [[64, 16, 0], [0, 64, 16]])
    assert check_sum_bounds(k2_series, 2).s_exact == 80


def test_structured_split_k3(k3_series, spike_frame):
    _check_split(k3_series, 3, spike_frame(6))


def test_structured_parts_have_unit_norm(k3_series, spike_frame):
    # the exact remainder V = B - 16^k U is constant on each diagonal, so it
    # is a sum of unit-norm shift parts weighted by one coefficient each;
    # the weights are the terms of S, which bounds ||V||_2 by the triangle
    # inequality
    n, spike = 6, 16 ** 3
    B = build_pair(k3_series, n, exact=True).B
    U = spike_frame(n)
    weights = []
    for d in range(-(n - 1), n + 1):            # diagonal j - i = d holds c_(n+1-d)
        cells = [(i, i + d) for i in range(n) if 0 <= i + d <= n]
        values = {B.entries[i][j] - qc(spike * int(U[i, j])) for i, j in cells}
        assert len(values) == 1
        (v,) = values
        if v:
            part = np.zeros((n, n + 1))
            for i, j in cells:
                part[i, j] = 1.0
            assert np.linalg.norm(part, 2) == pytest.approx(1.0)
            assert v.is_real
            weights.append(abs(v.re))
    assert sum(weights) == check_sum_bounds(k3_series, 3).s_exact


def test_structured_requires_family_metadata():
    plain = PowerSeries.from_coefficients([1, 2, 3, 4, 5])
    with pytest.raises(UnsupportedInputError,
                       match="^coefficient-sum bounds need a counterexample-family series"):
        check_sum_bounds(plain, 2)


def test_structured_block_range(k3_series):
    with pytest.raises(InvalidParameterError):
        check_sum_bounds(k3_series, 4)
    with pytest.raises(InvalidParameterError):
        check_sum_bounds(k3_series, 1)


def test_sum_bounds_k2(k2_series):
    rep = check_sum_bounds(k2_series, 2)
    assert rep.exact
    assert rep.head_sum == 0.0
    assert rep.tail_sum == 80.0
    assert rep.s_value == 80.0
    assert rep.s_exact == 80
    assert rep.tail_limit == 128.0
    assert rep.head_limit == pytest.approx(256 / 6)
    assert rep.s_limit == pytest.approx(512 / 3)
    assert rep.tail_ok and rep.head_ok and rep.s_ok


def test_sum_bounds_k3(k3_series):
    rep = check_sum_bounds(k3_series, 3)
    assert rep.head_sum == 592.0
    assert rep.s_exact == Fraction(25248976, 15625)
    assert rep.tail_sum == pytest.approx(1023.934464)
    assert rep.tail_ok and rep.head_ok and rep.s_ok


def test_sum_bounds_float_path():
    s = build_counterexample_series(3, PoleSequence.explicit([0.25, 0.2]))
    rep = check_sum_bounds(s, 3)
    assert not rep.exact
    assert rep.s_exact is None
    assert rep.head_sum == pytest.approx(592.0)
    assert rep.tail_sum == pytest.approx(1023.934464, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sum_bounds_hold_through_k5(k):
    s = build_counterexample_series(k, PoleSequence.harmonic(k))
    rep = check_sum_bounds(s, k)
    assert rep.tail_ok and rep.head_ok and rep.s_ok
    assert rep.s_value < rep.s_limit
