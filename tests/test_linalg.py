"""LAPACK SVD conventions, exact elimination, and the certified sigma oracle."""

import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padelab.errors import (
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    UnsupportedSizeError,
)
from padelab.linalg import (
    ORACLE_MAX_ROWS,
    RationalMatrix,
    exact_nullspace,
    exact_sigma_ratio_bounds,
    gram_char_poly,
    singular_value_perturbation_check,
    svd,
)
from padelab.pade import _MODULUS, _eea_pade, _rational_reconstruction, classical_pade
from padelab.rational import QC, qc
from padelab.series import block_order, build_counterexample_series, PoleSequence, PowerSeries
from padelab.toeplitz import build_pair, check_sum_bounds

B2_ROWS = [[64, 16, 256], [256, 64, 16]]

small_ints = st.integers(min_value=-9, max_value=9)


def _rng():
    return np.random.default_rng(20260823)


def _random_complex(rng, m, n, scale=1.0):
    return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


# ---------------------------------------------------------------------------
# rational matrices


def test_rational_matrix_basics():
    m = RationalMatrix.from_rows(B2_ROWS)
    assert m.rows == 2 and m.cols == 3
    assert m.is_real
    assert m.entries[0][2] == qc(256)
    v = m.matvec((1, -4, 0))
    assert v == (qc(0), qc(0))
    assert RationalMatrix.from_rows([[1, 0], [0, 1]]).entries == ((qc(1), qc(0)),
                                                                   (qc(0), qc(1)))


def test_rational_matrix_shape_guard():
    with pytest.raises(InvalidInputError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InvalidInputError):
        RationalMatrix.from_rows([])


def test_hermitian_and_gram():
    m = RationalMatrix.from_rows([[QC(1, 2), QC(0, -1)]])
    assert gram_char_poly(m) == (1, -6)       # |1+2i|^2 + |i|^2 = 5 + 1


def test_to_numpy_round_trip():
    m = RationalMatrix.from_rows([[Fraction(1, 4), QC(0, 2)]])
    arr = m.to_numpy()
    assert arr.dtype == complex
    assert arr[0, 0] == 0.25 and arr[0, 1] == 2j


# ---------------------------------------------------------------------------
# float svd (LAPACK behind SingularSpectrum)


def test_svd_known_spectrum():
    spec = svd(np.array(B2_ROWS, dtype=float))
    assert spec.sigmas[0] == pytest.approx(math.sqrt(91392), rel=1e-14)
    assert spec.sigmas[1] == pytest.approx(math.sqrt(48384), rel=1e-14)
    assert spec.ratio == pytest.approx(math.sqrt(Fraction(91392, 48384)), rel=1e-14)


def test_svd_null_vector_direction():
    spec = svd(np.array(B2_ROWS, dtype=float))
    v = spec.null_vector
    expected = np.array([1.0, -4.0, 0.0]) / math.sqrt(17)
    assert np.allclose(v, expected, atol=1e-13)
    assert spec.null_residual <= 1e-14
    assert v[0].real > 0 and abs(v[0].imag) < 1e-15    # leading-phase convention


def test_svd_factors_are_orthonormal():
    rng = _rng()
    M = _random_complex(rng, 7, 9)
    spec = svd(M)
    assert np.allclose(spec.left.conj().T @ spec.left, np.eye(7), atol=1e-12)
    assert np.allclose(spec.right.conj().T @ spec.right, np.eye(7), atol=1e-12)
    recon = (spec.left * spec.sigmas) @ spec.right.conj().T
    assert np.linalg.norm(M - recon, 2) <= 1e-12 * spec.sigmas[0]


def test_svd_matches_reference_sigmas():
    rng = _rng()
    for trial in range(25):
        m = int(rng.integers(1, 12))
        n = m + int(rng.integers(0, 3))
        M = _random_complex(rng, m, n)
        spec = svd(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert np.allclose(spec.sigmas, ref, rtol=1e-11, atol=1e-11)
        assert np.all(np.diff(spec.sigmas) <= 1e-15)


def test_svd_null_vector_annihilates():
    rng = _rng()
    for trial in range(20):
        m = int(rng.integers(1, 10))
        M = _random_complex(rng, m, m + 1)
        spec = svd(M)
        assert np.linalg.norm(M @ spec.null_vector) <= 1e-11 * max(spec.sigmas[0], 1e-300)
        assert np.linalg.norm(spec.null_vector) == pytest.approx(1.0, rel=1e-13)


def test_svd_is_deterministic():
    M = _random_complex(_rng(), 6, 7)
    a, b = svd(M), svd(M)
    assert np.array_equal(a.sigmas, b.sigmas)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.null_vector, b.null_vector)


def test_svd_square_has_no_null_vector():
    spec = svd(np.eye(3))
    assert spec.null_vector is None
    assert spec.ratio == 1.0


def test_svd_zero_and_dead_columns():
    spec = svd(np.zeros((2, 3)))
    assert np.array_equal(spec.sigmas, [0.0, 0.0])
    assert math.isinf(spec.ratio)
    M = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    spec = svd(M)
    assert np.allclose(spec.sigmas, [2.0, 1.0])
    assert abs(M @ spec.null_vector).max() <= 1e-12


def test_svd_input_guards():
    with pytest.raises(InvalidInputError):
        svd(np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        svd(np.array([[np.nan, 1.0]]))


def test_svd_refuses_an_overflowed_spectrum():
    # finite entries, but sigma_1 of this 3 x 4 block exceeds the float
    # range: LAPACK returns inf, which must not read as a zero spectrum
    s = PowerSeries.from_coefficients([1.0] + [1.5e308 * (-1) ** j for j in range(1, 7)])
    B = build_pair(s, 3, exact=False).B
    assert np.all(np.isfinite(B))
    with pytest.raises(NumericalError):
        svd(B)


def test_svd_null_residual_is_finite_at_extreme_scale():
    # ||M v|| overflows at this scale; the residual is taken on M / sigma_1
    s = PowerSeries.from_coefficients([1.0] + [1e300 * x for x in (3, -1, 4, 1, -5, 9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = svd(build_pair(s, 3, exact=False).B)
    assert spec.sigmas[-1] > 0
    assert math.isfinite(spec.null_residual) and spec.null_residual <= 1e-14


def test_svd_accepts_rational_matrix_input(k2_series):
    pair = build_pair(k2_series, 2, exact=True)
    spec = svd(pair.B)
    assert spec.ratio == pytest.approx(math.sqrt(17) / 3, rel=1e-14)


# ---------------------------------------------------------------------------
# weyl perturbation check


def test_perturbation_check_oracle():
    M = np.array(B2_ROWS, dtype=float)
    delta = np.full((2, 3), 1e-9)
    chk = singular_value_perturbation_check(M, delta)
    assert chk.passed
    assert chk.max_shift <= chk.norm_delta + 1e-10 * math.sqrt(91392)


def test_perturbation_of_spike_part_by_split_remainder(spike_frame):
    # the spike part 16^k U of the split B = 16^k U + V has U U^T = I, so
    # all its singular values equal 16^k; perturbing by the remainder
    # V = B - 16^k U keeps every shift within ||V||_2 <= S
    for k in (2, 3):
        s = build_counterexample_series(k, PoleSequence.harmonic(k))
        n = block_order(k)
        M = 16 ** k * spike_frame(n)
        sigmas = svd(M).sigmas
        assert np.allclose(sigmas, 16.0 ** k, rtol=1e-12)
        delta = build_pair(s, n, exact=False).B - M
        chk = singular_value_perturbation_check(M, delta)
        assert chk.passed
        assert chk.norm_delta <= check_sum_bounds(s, k).s_value + 1e-9


def test_perturbation_check_random_pairs():
    rng = _rng()
    for trial in range(30):
        m = int(rng.integers(1, 9))
        n = m + int(rng.integers(0, 3))
        M = _random_complex(rng, m, n)
        delta = _random_complex(rng, m, n, scale=10.0 ** -rng.integers(2, 12))
        assert singular_value_perturbation_check(M, delta).passed


# ---------------------------------------------------------------------------
# exact nullspace


def test_exact_nullspace_oracle(k2_series):
    pair = build_pair(k2_series, 2, exact=True)
    assert exact_nullspace(pair.B) == (qc(1), qc(-4), qc(0))


def test_exact_nullspace_rank_deficient():
    ones = RationalMatrix.from_rows([[1] * 4 for _ in range(3)])
    with pytest.raises(RankDeficiencyError) as exc:
        exact_nullspace(ones)
    err = exc.value
    assert err.rank == 1
    assert len(err.basis) == 3
    assert err.basis[0] == (qc(1), qc(-1), qc(0), qc(0))
    for v in err.basis:
        assert ones.matvec(v) == (qc(0),) * 3


def test_exact_nullspace_no_free_columns():
    with pytest.raises(InvalidInputError):
        exact_nullspace(RationalMatrix.from_rows([[1, 0], [0, 1]]))


def test_exact_nullspace_complex_entries():
    m = RationalMatrix.from_rows([[QC(0, 1), QC(1, 0), QC(0, 0)]])
    v = exact_nullspace(m)
    assert m.matvec(v) == (qc(0),)
    assert v[0] == qc(1)                      # first nonzero normalized to one


@given(st.lists(st.lists(small_ints, min_size=4, max_size=4),
                min_size=2, max_size=3))
def test_exact_nullspace_annihilates_property(rows):
    m = RationalMatrix.from_rows(rows)
    try:
        v = exact_nullspace(m)
    except RankDeficiencyError as err:
        v = err.basis[0]
    assert m.matvec(v) == (qc(0),) * m.rows
    assert any(v)
    first = next(x for x in v if x)
    assert first == qc(1)


@given(st.lists(st.lists(small_ints, min_size=5, max_size=5),
                min_size=3, max_size=3))
def test_exact_rank_matches_reference(rows):
    m = RationalMatrix.from_rows(rows)
    ref_rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
    try:
        exact_nullspace(m)
        rank = m.rows
    except RankDeficiencyError as err:
        rank = err.rank
    assert rank == ref_rank


P = _MODULUS           # modulus of the Euclidean Pade stage


def _series_and_reference(exact_reference, c):
    """The exact series of c and its approximant by elimination."""
    series = PowerSeries.from_coefficients(c)
    return series, exact_reference(series, (len(c) - 1) // 2)


def _stage_result(r):
    return r.a, r.b, r.diagnostics.nullspace_dim


def test_modular_route_matches_bareiss_on_random_full_rank(exact_reference):
    rng = _rng()
    proved = 0
    for trial in range(80):
        n = int(rng.integers(1, 9))
        c = [Fraction(int(a), int(d)) for a, d in
             zip(rng.integers(-5, 6, size=2 * n + 1), rng.integers(1, 4, size=2 * n + 1))]
        _, reference = _series_and_reference(exact_reference, c)
        eea = _eea_pade(c, n)
        if eea is not None:                 # None: an output beyond one prime
            assert eea == _stage_result(reference)
            proved += 1
    assert proved >= 60


def test_modular_rank_drop_falls_back_to_exact_vector(exact_reference):
    # the rows agree mod p, so the rank drops mod p but not over Q
    m = RationalMatrix.from_rows([[1, 2, 3], [1 + P, 2, 3]])
    assert exact_nullspace(m) == (qc(0), qc(1), qc(Fraction(-2, 3)))
    # B_2 = [[1, 1, 1], [1 + p, 1, 1]]: mod p the series is z / (1 - z),
    # of type (1, 1), so the nullspace mod p is a plane; its minimal
    # vector (1, -1, 0) fails the proof of dimension 2 (C b has z^4 term p)
    c = [Fraction(v) for v in (1, 1, 1, 1, 1 + P)]
    series, reference = _series_and_reference(exact_reference, c)
    assert _eea_pade(c, 2) is None
    r = classical_pade(series, 2, exact=True)
    assert r == reference
    assert _stage_result(r) == ((qc(0), qc(1), qc(0)), (qc(0), qc(1), qc(-1)), 1)
    assert r.diagnostics.b0_degenerate


def test_modular_failed_substitution_falls_back(exact_reference):
    # the entry p vanishes mod p, so the modular vector (1, 0) fails B b = 0
    m = RationalMatrix.from_rows([[P, 1]])
    assert exact_nullspace(m) == (qc(1), qc(-P))
    # B_1 = [c_2, c_1] = [p, 1]: the same vector, from the Euclidean stage
    c = [Fraction(v) for v in (1, 1, P)]
    series, reference = _series_and_reference(exact_reference, c)
    assert _eea_pade(c, 1) is None
    r = classical_pade(series, 1, exact=True)
    assert r == reference
    assert _stage_result(r) == ((qc(1), qc(1 - P)), (qc(1), qc(-P)), 1)


def test_modular_reconstruction_failure_still_exact(exact_reference):
    # both entries lie beyond the sqrt(p/2) bound: the first does not
    # reconstruct at all, the second reconstructs to a wrong small
    # fraction that the substitution check rejects
    t, b = 10 ** 12 + 2, 2 ** 40
    assert _rational_reconstruction((t + 5) * pow(t + 1, -1, P) % P) is None
    assert _rational_reconstruction((b + 3) * pow(b + 1, -1, P) % P) is not None
    for num, den in ((t + 5, t + 1), (b + 3, b + 1)):
        m = RationalMatrix.from_rows([[num, -den, 0], [0, 0, 1]])
        assert exact_nullspace(m) == (qc(1), qc(Fraction(num, den)), qc(0))
        # B_1 = [c_2, c_1] = [num, -den] has the same null vector
        c = [Fraction(1), Fraction(-den), Fraction(num)]
        series, reference = _series_and_reference(exact_reference, c)
        assert _eea_pade(c, 1) is None
        r = classical_pade(series, 1, exact=True)
        assert r == reference and r.diagnostics.nullspace_dim == 1
        assert r.b == (qc(1), qc(Fraction(num, den)))


def test_modular_denominator_divisible_by_p_falls_back(exact_reference):
    # c_1 = 1/p has no image mod p, so the Euclidean stage declines;
    # c_0 does not enter B, so a denominator p there is no obstacle
    c = [Fraction(1), Fraction(1, P), Fraction(1)]
    series, reference = _series_and_reference(exact_reference, c)
    assert _eea_pade(c, 1) is None
    r = classical_pade(series, 1, exact=True)
    assert r == reference and r.diagnostics.nullspace_dim == 1
    assert r.b == (qc(1), qc(-P))
    c = [Fraction(1, P), Fraction(1), Fraction(2)]
    assert _eea_pade(c, 1) == _stage_result(_series_and_reference(exact_reference, c)[1])


def test_rank_deficiency_error_unchanged_by_modular_attempt():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    with pytest.raises(RankDeficiencyError) as exc:
        exact_nullspace(m)
    assert exc.value.rank == 1
    assert exc.value.basis == (
        (qc(1), qc(Fraction(-1, 2)), qc(0)),
        (qc(1), qc(0), qc(Fraction(-1, 3))),
    )


def test_exact_nullspace_counterexample_k6():
    poles = PoleSequence.harmonic(6)
    s = build_counterexample_series(6, poles)
    v = exact_nullspace(build_pair(s, 62, exact=True).B)
    assert v == (qc(1), qc(-1 / poles.z(6))) + (qc(0),) * 61


def _gauss_jordan_nullspace(rows):
    """(rank, basis) by textbook Gauss-Jordan on QC, first entries normalized."""
    work = [[qc(x) for x in row] for row in rows]
    ncols = len(work[0])
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        hit = next((i for i in range(r, len(work)) if work[i][c]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = qc(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        piv_cols.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in piv_cols):
        x = [qc(0)] * ncols
        x[f] = qc(1)
        for i, pc in enumerate(piv_cols):
            x[pc] = -work[i][f]
        first = next(v for v in x if v)
        basis.append(tuple(v / first for v in x))
    return len(piv_cols), tuple(basis)


def test_exact_nullspace_matches_gauss_jordan_reference():
    rng = _rng()
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 7))
        m = n + int(rng.choice([0, 1, 1, 2, 3]))
        complex_entries = trial % 2 == 1

        def entry():
            re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            im = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            return QC(re, im if complex_entries else 0)

        rows = [[entry() for _ in range(m)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:               # a dependent last row
            scale = entry()
            rows[-1] = [scale * x for x in rows[0]]
        rank, basis = _gauss_jordan_nullspace(rows)
        mat = RationalMatrix.from_rows(rows)
        if not basis:
            with pytest.raises(InvalidInputError):
                exact_nullspace(mat)
            seen.add("square full rank")
        elif rank < n:
            with pytest.raises(RankDeficiencyError) as exc:
                exact_nullspace(mat)
            assert (exc.value.rank, exc.value.basis) == (rank, basis)
            seen.add(("rank deficient", mat.is_real))
        else:
            assert exact_nullspace(mat) == basis[0]
            seen.add(("full rank", mat.is_real, m - n))
    assert {("rank deficient", True), ("rank deficient", False),
            ("full rank", True, 1), ("full rank", False, 1),
            ("full rank", True, 3), ("full rank", False, 3)} <= seen


def test_rank_one_complex_geometric_basis_is_exact():
    # c_j = w^-j makes every row of B a multiple of the first, so the
    # basic solution of free column f is e_0 - w^-f e_f
    w = QC(Fraction(3, 5), Fraction(-4, 5))
    n = 9
    s = PowerSeries.from_coefficients([(1 / w) ** j for j in range(2 * n + 1)],
                                      radius_hint=0.9)
    with pytest.raises(RankDeficiencyError) as exc:
        exact_nullspace(build_pair(s, n, exact=True).B)
    assert exc.value.rank == 1
    basis = exc.value.basis
    assert basis[0] == (qc(1), -1 / w) + (qc(0),) * (n - 1)
    for f, v in enumerate(basis, start=1):
        expected = [qc(0)] * (n + 1)
        expected[0] = qc(1)
        expected[f] = -(1 / w) ** f
        assert v == tuple(expected)


def test_exact_nullspace_complex_counterexample_n14():
    poles = PoleSequence.explicit([qc(Fraction(1, 8), Fraction(-1, 8)),
                                   qc(Fraction(-1, 9), Fraction(1, 9)),
                                   qc(Fraction(1, 10), Fraction(1, 10))])
    s = build_counterexample_series(4, poles)
    B = build_pair(s, 14, exact=True).B
    assert not B.is_real
    assert exact_nullspace(B) == (qc(1), -1 / poles.z(4)) + (qc(0),) * 13


def test_sigma_oracle_brackets_random_gaussian_rational():
    rng = _rng()
    for _ in range(12):
        n = int(rng.integers(1, 5))
        rows = [[QC(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))),
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))))
                 for _ in range(n + 1)] for _ in range(n)]
        mat = RationalMatrix.from_rows(rows)
        oracle = exact_sigma_ratio_bounds(mat)
        ref = np.linalg.svd(mat.to_numpy(), compute_uv=False)
        for (lo, hi), sigma in ((oracle.lambda_max_bracket, ref[0]),
                                (oracle.lambda_min_bracket, ref[-1])):
            assert float(lo) * (1 - 1e-12) <= sigma ** 2 <= float(hi) * (1 + 1e-12)


def test_minimal_degree_solution_first():
    # a row-rank-deficient system whose nullspace mixes degree-0 and
    # higher-degree vectors; the reported basis leads with the lowest
    # effective degree and each vector starts with a unit pivot
    m = RationalMatrix.from_rows([[0, 0, 1, 0], [0, 0, 2, 0]])
    with pytest.raises(RankDeficiencyError) as exc:
        exact_nullspace(m)
    err = exc.value
    assert err.rank == 1
    basis = err.basis
    assert len(basis) == 3
    degrees = []
    for v in basis:
        assert any(v)
        degrees.append(max(i for i, x in enumerate(v) if x))
        first = next(x for x in v if x)
        assert first == qc(1)
    assert degrees[0] == min(degrees)
    assert basis[0] == (qc(1), qc(0), qc(0), qc(0))


# ---------------------------------------------------------------------------
# characteristic-polynomial sigma oracle


def test_gram_char_poly_oracle(k2_series):
    pair = build_pair(k2_series, 2, exact=True)
    assert gram_char_poly(pair.B) == (Fraction(1), Fraction(-139776),
                                      Fraction(4421910528))


def test_gram_char_poly_single_row():
    m = RationalMatrix.from_rows([[3, 4]])
    assert gram_char_poly(m) == (Fraction(1), Fraction(-25))


def test_gram_char_poly_rational_entries():
    m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    assert gram_char_poly(m) == (Fraction(1), Fraction(-13, 36))


def test_gram_char_poly_gaussian_rational_entries():
    rows = [[QC(Fraction(1, 2), 1), QC(0, Fraction(-2, 3)), QC(3, 0)],
            [QC(-1, Fraction(1, 4)), QC(2, 5), QC(0, Fraction(1, 3))]]
    g = [[sum((a * b.conjugate() for a, b in zip(r, c)), qc(0)) for c in rows]
         for r in rows]
    trace = g[0][0] + g[1][1]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    assert trace.im == 0 and det.im == 0 and det.re != 0
    m = RationalMatrix.from_rows(rows)
    assert gram_char_poly(m) == (1, -trace.re, det.re)     # lambda^2 - tr(G) lambda + det(G)


def test_sigma_oracle_matches_float(k2_series):
    pair = build_pair(k2_series, 2, exact=True)
    oracle = exact_sigma_ratio_bounds(pair.B)
    assert oracle.sigma_max == pytest.approx(math.sqrt(91392), rel=1e-12)
    assert oracle.sigma_min == pytest.approx(math.sqrt(48384), rel=1e-12)
    assert float(oracle.ratio) == pytest.approx(math.sqrt(17) / 3, rel=1e-12)


def test_sigma_oracle_detects_rank_deficiency():
    ones = RationalMatrix.from_rows([[1, 1, 1], [1, 1, 1]])
    oracle = exact_sigma_ratio_bounds(ones)
    assert oracle.sigma_min == 0.0
    assert math.isinf(oracle.ratio)


def test_sigma_oracle_cap():
    big = RationalMatrix.from_rows([[1] * (ORACLE_MAX_ROWS + 2)
                                    for _ in range(ORACLE_MAX_ROWS + 1)])
    with pytest.raises(UnsupportedSizeError):
        exact_sigma_ratio_bounds(big)


@settings(max_examples=15)
@given(st.lists(st.lists(small_ints, min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_sigma_oracle_agrees_with_jacobi(rows):
    m = RationalMatrix.from_rows(rows)
    oracle = exact_sigma_ratio_bounds(m)
    ref = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    assert oracle.sigma_max == pytest.approx(ref[0], rel=1e-9, abs=1e-9)
    if ref[-1] > 1e-9 * max(ref[0], 1):
        assert oracle.sigma_min == pytest.approx(ref[-1], rel=1e-7, abs=1e-9)


def test_counterexample_ratio_under_five_through_k4(harmonic_poles):
    for k in (2, 3, 4):
        s = build_counterexample_series(k, harmonic_poles)
        n = 2 ** k - 2
        oracle = exact_sigma_ratio_bounds(build_pair(s, n, exact=True).B)
        assert float(oracle.ratio) < 5.0


# ---------------------------------------------------------------------------
# certified sigma brackets (Sylvester inertia)


def _complex_poles():
    return PoleSequence.explicit([qc(Fraction(1, 8), Fraction(1, 8)),
                                  qc(Fraction(-1, 9), Fraction(1, 9))])


def _contains(bracket, value):
    lo, hi = bracket
    return lo <= value <= hi


def test_sigma_oracle_k2_bracket_holds_exact_eigenvalues(k2_series):
    oracle = exact_sigma_ratio_bounds(build_pair(k2_series, 2, exact=True).B)
    assert _contains(oracle.lambda_max_bracket, 91392)
    assert _contains(oracle.lambda_min_bracket, 48384)
    lo, hi = oracle.ratio_bracket
    assert Fraction(lo) ** 2 <= Fraction(91392, 48384) <= Fraction(hi) ** 2
    assert 0 < hi - lo <= 1e-8 * lo
    assert lo <= oracle.ratio <= hi


@pytest.mark.parametrize("k", [2, 3])
def test_sigma_oracle_certifies_gaussian_rational_block(k):
    B = build_pair(build_counterexample_series(k, _complex_poles()),
                   2 ** k - 2, exact=True).B
    assert not B.is_real
    oracle = exact_sigma_ratio_bounds(B)
    ref = np.linalg.svd(B.to_numpy(), compute_uv=False)
    assert _contains(oracle.ratio_bracket, ref[0] / ref[-1])
    for bracket, sigma in ((oracle.lambda_max_bracket, ref[0]),
                           (oracle.lambda_min_bracket, ref[-1])):
        lo, hi = bracket
        assert 0 < hi - lo <= 1e-8 * hi
        assert float(lo) <= sigma ** 2 * (1 + 1e-12)
        assert sigma ** 2 * (1 - 1e-12) <= float(hi)


def test_sigma_oracle_recovers_from_a_wrong_guess(k2_series, monkeypatch):
    import padelab.linalg as linalg

    B = build_pair(k2_series, 2, exact=True).B
    true_svd = linalg.svd

    def off_svd(mat, **kw):
        spec = true_svd(mat, **kw)
        return SimpleNamespace(sigmas=spec.sigmas * np.array([1 + 1e-3, 1 - 1e-3]))

    counts = []
    true_pivots = linalg._negative_pivots
    monkeypatch.setattr(linalg, "svd", off_svd)
    monkeypatch.setattr(linalg, "_negative_pivots",
                        lambda h: counts.append(1) or true_pivots(h))
    oracle = exact_sigma_ratio_bounds(B)
    assert len(counts) > 4            # widening and bisection, not two probes each
    assert _contains(oracle.lambda_max_bracket, 91392)
    assert _contains(oracle.lambda_min_bracket, 48384)
    for lo, hi in (oracle.lambda_max_bracket, oracle.lambda_min_bracket):
        assert hi - lo <= 3e-9 * hi
    lo, hi = oracle.ratio_bracket
    assert Fraction(lo) ** 2 <= Fraction(91392, 48384) <= Fraction(hi) ** 2


def test_sigma_oracle_steps_off_a_zero_pivot(monkeypatch):
    import padelab.linalg as linalg

    # G = [[1, 1], [1, 3]]: the leading minor 1 - mu vanishes at mu = 1,
    # and this sigma_min guess puts the lower probe exactly there
    m = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 1]])
    g = 1.0000000005
    assert (g * g) * (1.0 - 1e-9) == 1.0
    results = []
    true_pivots = linalg._negative_pivots

    def spy(h):
        results.append(true_pivots(h))
        return results[-1]

    monkeypatch.setattr(linalg, "_negative_pivots", spy)
    oracle = exact_sigma_ratio_bounds(m, guess=(math.sqrt(2 + math.sqrt(2)), g))
    assert None in results
    lo, hi = oracle.lambda_min_bracket     # lambda_min = 2 - sqrt(2)
    assert (2 - lo) ** 2 >= 2 >= (2 - hi) ** 2
    assert oracle.sigma_min == pytest.approx(math.sqrt(2 - math.sqrt(2)), rel=1e-8)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [2, 4, 6]],
    [[Fraction(1, 3), 1, 0, 2], [0, 1, 1, 1], [Fraction(1, 3), 2, 1, 3]],
    [[qc(1), qc(0, 1), qc(2)], [qc(0, 1), qc(-1), qc(0, 2)]],
])
def test_sigma_oracle_exactly_singular_gives_infinite_ratio(rows):
    oracle = exact_sigma_ratio_bounds(RationalMatrix.from_rows(rows))
    assert oracle.lambda_min_bracket == (0, 0)
    assert oracle.sigma_min == 0.0
    assert math.isinf(oracle.ratio)
    assert oracle.ratio_bracket == (math.inf, math.inf)
    assert oracle.sigma_max > 0.0


def test_sigma_oracle_char_poly_is_lazy(k2_series, monkeypatch):
    import padelab.linalg as linalg

    calls = []
    true_poly = linalg.gram_char_poly
    monkeypatch.setattr(linalg, "gram_char_poly",
                        lambda mat: calls.append(1) or true_poly(mat))
    oracle = exact_sigma_ratio_bounds(build_pair(k2_series, 2, exact=True).B)
    assert calls == []
    assert oracle.char_poly == (Fraction(1), Fraction(-139776), Fraction(4421910528))
    assert oracle.char_poly is oracle.char_poly
    assert calls == [1]
