"""Acceptance gate: every headline claim of the package, one test each.

Each criterion prints a single ``criterion N (...): PASS|FAIL`` line and
then asserts, so a plain ``pytest -v tests/test_acceptance.py`` doubles
as a runnable checklist of what the package demonstrates:

1. the exact type-(n_k, n_k) denominator is literally 1 - z/z_k and the
   numerator at z_k is exactly 16^k z_k^(2 n_k) != 0;
2. the underlying Toeplitz systems stay well conditioned
   (sigma_1/sigma_n < 5), cross-checked against an exact oracle;
3. the head/tail/S coefficient sums and the Weyl sandwich
   16^k -/+ S around the extreme singular values all hold;
4. the family respects the growth bound 0 < |c_j| <= (j+3)^4;
5. the robust SVD route finds nothing to reduce at any sensible
   threshold, yet the spurious pole is still there;
6. with recurring pole targets the approximants hit |q(z_k)| = 0 in
   infinitely many blocks, so pointwise convergence fails;
7. the numerical substrate holds up: SVD reconstruction, Weyl
   perturbation bound, exact order residuals, exact scale invariance;
8. sanity controls: the geometric series comes out as 1/(1-z) at every
   order, and a zero-padded rational input is reduced back to its true
   degrees.
"""

import math
import time
from fractions import Fraction

import numpy as np

from padelab.analysis import find_poles, divergence_scan, verify_counterexample
from padelab.errors import RankDeficiencyError
from padelab.linalg import exact_nullspace, svd
from padelab.pade import classical_pade, order_residual, robust_pade
from padelab.rational import qc
from padelab.series import (
    GROWTH_EXPONENT,
    PoleSequence,
    PowerSeries,
    block_order,
    build_counterexample_series,
)
from padelab.toeplitz import build_pair


def _report(num: int, description: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({description}): {verdict}")
    assert not failures, f"criterion {num} ({description}): " + "; ".join(failures)


def _float_series(k: int) -> PowerSeries:
    s = build_counterexample_series(k, PoleSequence.harmonic(k))
    return PowerSeries.from_coefficients(
        [complex(x) for x in s.as_complex_array()])


def test_criterion_1_exact_denominator_and_numerator():
    failures = []
    start = time.perf_counter()
    poles = PoleSequence.harmonic(4)
    for k in (2, 3, 4):
        rep = verify_counterexample(k, poles, exact=True)
        if rep.q_match != 0.0 or not rep.q_ok:
            failures.append(f"k={k}: denominator differs from 1 - z/z_k")
        if not rep.p_ok:
            failures.append(f"k={k}: numerator at z_k is not exactly 16^k z_k^(2n_k)")
        if k == 2 and rep.p_at_zk != 1 + 0j:
            failures.append("k=2: numerator at z_2 = 1/4 is not exactly 1")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s is not seconds-scale")
    _report(1, "exact denominator 1 - z/z_k and numerator 16^k z_k^(2n_k), k = 2..4",
            failures)


def test_criterion_2_sigma_ratio_below_five_with_oracle():
    failures = []
    start = time.perf_counter()
    poles = PoleSequence.harmonic(5)
    for k in (2, 3, 4, 5):
        rep = verify_counterexample(k, poles, exact=False)
        if not rep.sigma_ratio < 5.0:
            failures.append(f"k={k}: ratio {rep.sigma_ratio} not below 5")
        if k == 2:
            expected = math.sqrt(91392 / 48384)
            if abs(rep.sigma_ratio - expected) > 1e-8:
                failures.append(f"k=2: ratio {rep.sigma_ratio} != sqrt(91392/48384)")
        if k <= 4:
            if rep.sigma_ratio_oracle is None:
                failures.append(f"k={k}: exact oracle did not run")
            elif abs(rep.sigma_ratio - rep.sigma_ratio_oracle) > 1e-8 * rep.sigma_ratio_oracle:
                failures.append(f"k={k}: float ratio {rep.sigma_ratio} vs "
                                f"oracle {rep.sigma_ratio_oracle}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds the 10 s budget")
    _report(2, "sigma_1/sigma_n < 5 for k = 2..5, oracle agreement for k <= 4",
            failures)


def test_criterion_3_bound_chain_and_sandwich():
    failures = []
    poles = PoleSequence.harmonic(5)
    for k in (2, 3, 4, 5):
        rep = verify_counterexample(k, poles, exact=False)
        spike = 16 ** k
        if not rep.tail_sum < spike / 2:
            failures.append(f"k={k}: tail {rep.tail_sum} not below 16^k/2")
        if not rep.head_sum < spike / 6:
            failures.append(f"k={k}: head {rep.head_sum} not below 16^k/6")
        if not rep.s_value < 2 * spike / 3:
            failures.append(f"k={k}: S {rep.s_value} not below 2*16^k/3")
        if not rep.bounds_ok:
            failures.append(f"k={k}: bound chain flag is down")
        if not rep.sandwich_ok:
            failures.append(f"k={k}: sandwich {rep.sandwich_lo} <= sigma <= "
                            f"{rep.sandwich_hi} violated")
        if not (rep.sandwich_lo - 1e-10 * spike <= rep.sigman
                and rep.sigma1 <= rep.sandwich_hi + 1e-10 * spike):
            failures.append(f"k={k}: sigma extremes escape 16^k -/+ S")
    _report(3, "tail < 16^k/2, head < 16^k/6, S < 2*16^k/3, Weyl sandwich, k = 2..5",
            failures)


def test_criterion_4_growth_bound_on_deep_truncation():
    failures = []
    k_max = 10
    s = build_counterexample_series(k_max, PoleSequence.harmonic(k_max))
    last = 2 ** (k_max + 1) - 4
    for j in range(2, last + 1):
        c = s.coeff(j)
        limit = Fraction((j + 3) ** GROWTH_EXPONENT) ** 2
        a2 = c.abs2()
        if not (0 < a2 <= limit):
            failures.append(f"|c_{j}| violates 0 < |c_j| <= (j+3)^4")
            break
    # j = 1 attains the bound with equality; report it, do not fail it
    c1_attains = s.coeff(1).abs2() == Fraction(256) ** 2
    if not c1_attains:
        failures.append("|c_1| does not attain the boundary value 256")
    print(f"note: |c_1| = 256 = (1+3)^4 attains the bound with equality "
          f"(reported, not a failure); checked j = 2..{last}")
    _report(4, "0 < |c_j| <= (j+3)^4 for 2 <= j <= 2^11 - 4 at k_max = 10",
            failures)


def test_criterion_5_robust_keeps_order_and_spurious_pole_persists():
    failures = []
    for k in (2, 3, 4, 5):
        s = _float_series(k)
        n = block_order(k)
        z_k = 1.0 / (k + 2)
        bound = float(Fraction(16 ** k) * Fraction(1, k + 2) ** (2 * n) / 2)
        for tol_rel in (1e-8, 1e-10, 1e-12):
            r = robust_pade(s, n, tol_rel=tol_rel)
            if r.diagnostics.reductions != ():
                failures.append(f"k={k}, tol={tol_rel}: robust route reduced "
                                f"{r.diagnostics.reductions}")
                continue
            a_scale = max(abs(complex(x)) for x in r.a_effective)
            report = find_poles(r, radius_hint=1.0,
                                tol_spurious=bound / a_scale)
            hit = [sp for sp in report.spurious
                   if abs(sp.location - z_k) <= 1e-8
                   and sp.numerator_magnitude >= bound]
            if not hit:
                failures.append(f"k={k}, tol={tol_rel}: no spurious pole within "
                                f"1e-8 of z_k with numerator >= 16^k|z_k|^(2n)/2")
    _report(5, "zero robust reductions at tol in {1e-8,1e-10,1e-12} and a "
               "persistent spurious pole at z_k, k = 2..5", failures)


def test_criterion_6_divergence_along_repeated_poles():
    failures = []
    table = divergence_scan(6, scheme="harmonic_repeated", exact=True,
                            points=(Fraction(1, 4),))
    by_value: dict = {}
    for row in table.rows:
        by_value.setdefault(row.z_k, []).append(row)
        if row.abs_q_at_zk != 0.0:
            failures.append(f"k={row.k}: |q(z_k)| = {row.abs_q_at_zk} != 0")
        if row.error_at_zk != math.inf:
            failures.append(f"k={row.k}: error at its own pole is finite")
    repeated = {z: rows for z, rows in by_value.items() if len(rows) >= 2}
    if not repeated:
        failures.append("no pole value recurs, scan cannot show divergence")
    # the probe at 1/4 sees an infinite error exactly on the rows whose
    # designated pole is 1/4 (k = 2, 3, 5) and a finite one elsewhere
    probe_rows = {row.k: row.extras[0].error for row in table.rows}
    for k in (2, 3, 5):
        if probe_rows[k] != math.inf:
            failures.append(f"probe 1/4 finite at k={k} despite z_k = 1/4")
    for k in (4, 6):
        if not math.isfinite(probe_rows[k]):
            failures.append(f"probe 1/4 infinite at k={k} where z_k != 1/4")
    _report(6, "harmonic-repeated scan to k_max = 6: q(z_k) = 0 recurs along "
               "the subsequence", failures)


def test_criterion_7_property_suites(weyl_check):
    failures = []
    rng = np.random.default_rng(20260823)

    # SVD reconstruction on 200 random matrices up to 64 x 65
    worst_recon = 0.0
    for trial in range(200):
        rows = int(rng.integers(1, 65))
        cols = min(65, rows + int(rng.integers(0, 4)))
        M = rng.standard_normal((rows, cols))
        if trial % 2:
            M = M + 1j * rng.standard_normal((rows, cols))
        spec = svd(M)
        recon = (spec.left * spec.sigmas) @ spec.right.conj().T
        err = float(np.linalg.norm(M - recon, 2))
        sigma1 = float(spec.sigmas[0])
        worst_recon = max(worst_recon, err / sigma1 if sigma1 else err)
        if err > 1e-10 * sigma1:
            failures.append(f"reconstruction error {err:.2e} > 1e-10 sigma_1 "
                            f"on a {rows}x{cols} matrix")
            break

    # Weyl perturbation inequality on 200 random pairs
    for _ in range(200):
        rows = int(rng.integers(1, 11))
        cols = rows + int(rng.integers(0, 3))
        M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        D = rng.standard_normal((rows, cols)) * float(rng.uniform(1e-6, 10.0))
        max_shift, norm_delta, passed = weyl_check(M, D)
        if not passed:
            failures.append(f"Weyl bound violated: shift {max_shift} vs "
                            f"||Delta|| {norm_delta}")
            break

    # exact order residuals vanish for every counterexample approximant
    for k in (2, 3, 4, 5):
        s = build_counterexample_series(k, PoleSequence.harmonic(k))
        r = classical_pade(s, block_order(k), exact=True)
        if any(x != qc(0) for x in order_residual(s, r)):
            failures.append(f"k={k}: exact order residual is not identically zero")

    # exact scale invariance: c -> lambda c fixes b and scales a
    base = build_counterexample_series(3, PoleSequence.harmonic(3))
    r0 = classical_pade(base, 6, exact=True)
    for lam in (qc(3), qc(-2), qc(Fraction(7, 5)), qc(Fraction(-1, 3))):
        scaled = PowerSeries.from_coefficients([lam * c for c in base.coeffs])
        r1 = classical_pade(scaled, 6, exact=True)
        if r1.b != r0.b:
            failures.append(f"lambda={lam}: denominator changed under scaling")
        if r1.a != tuple(lam * x for x in r0.a):
            failures.append(f"lambda={lam}: numerator did not scale by lambda")
    print(f"note: worst SVD reconstruction error {worst_recon:.3e} "
          f"(budget 1e-10) over 200 matrices")
    _report(7, "SVD reconstruction, Weyl perturbation, exact order residuals, "
               "exact scale invariance", failures)


def test_criterion_8_sanity_controls():
    failures = []
    geometric = PowerSeries.from_coefficients([1] * 21)
    for n in range(1, 11):
        r = classical_pade(geometric, n, exact=True)
        if r.b_effective != (qc(1), qc(-1)):
            failures.append(f"n={n}: geometric denominator is not (1, -1)")
        if r.a_effective != (qc(1),):
            failures.append(f"n={n}: geometric numerator is not (1)")

    padded = PowerSeries.from_coefficients([1.0] + [2.0] * 10)
    r = robust_pade(padded, 5)
    if r.effective_degrees != (1, 1):
        failures.append(f"padded rational reduced to {r.effective_degrees}, "
                        "expected (1, 1)")
    if r.diagnostics.reductions != ((5, 4, 1),) and (
            not r.diagnostics.reductions
            or (r.diagnostics.reductions[0].nu_from, r.diagnostics.reductions[0].nu_to)
            != (5, 1)):
        failures.append(f"unexpected reduction path {r.diagnostics.reductions}")
    # independent exact-rank corroboration of the degree drop: B_5 of the
    # exact padded series has rank 1, so exactly 4 singular values vanish
    exact_padded = PowerSeries.from_coefficients([1] + [2] * 10)
    try:
        exact_nullspace(build_pair(exact_padded, 5, exact=True).B)
        failures.append("exact elimination reports full rank for the padded B_5")
    except RankDeficiencyError as deficiency:
        if deficiency.rank != 1:
            failures.append(f"exact rank {deficiency.rank} != 1 for the padded B_5")
    _report(8, "geometric series yields (1, -1) for n <= 10; padded rational "
               "reduces to effective degrees (1, 1)", failures)
