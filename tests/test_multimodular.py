"""Multi-prime Euclidean Pade stage: many word-size primes, the CRT, proved by substitution."""

import random
from fractions import Fraction

import pytest

from padelab import linalg, multimodular, pade
from padelab.errors import NumericalError, RankDeficiencyError
from padelab.linalg import exact_nullspace
from padelab.multimodular import (
    _chunk_euclid,
    _hadamard_bound,
    _residues,
    _sqrt_minus_one,
    _word_primes,
)
from padelab.pade import _eea_pade, _multiprime_pade, classical_pade
from padelab.rational import QC, qc
from padelab.series import GammelParams, PoleSequence, PowerSeries, build_gammel_series
from padelab.toeplitz import build_pair


def _big(rnd, lo_bits=150, hi_bits=220):
    """A random nonzero integer of lo_bits..hi_bits bits and random sign."""
    return rnd.choice((1, -1)) * (rnd.getrandbits(rnd.randint(lo_bits, hi_bits)) | 1)


def _det(rows):
    """Exact determinant of a square integer matrix (Gaussian elimination on Fractions)."""
    work = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(work)):
        hit = next((i for i in range(c, len(work)) if work[i][c]), None)
        if hit is None:
            return 0
        if hit != c:
            work[c], work[hit] = work[hit], work[c]
            det = -det
        det *= work[c][c]
        for row in work[c + 1:]:
            f = row[c] / work[c][c]
            row[c:] = [a - f * b for a, b in zip(row[c:], work[c][c:])]
    return int(det)


def _spy_chunks(monkeypatch):
    """Record the primes and flags of every chunk the Euclidean kernel runs."""
    seen = []
    real = multimodular._chunk_euclid

    def spy(g, n, primes):
        out = real(g, n, primes)            # (minors, flags, degrees)
        seen.append((primes.tolist(), out[1].tolist()))
        return out

    monkeypatch.setattr(multimodular, "_chunk_euclid", spy)
    return seen


def _is_prime(q):
    """Miller-Rabin with bases 2, 7, 61: exact for q below 4.7e9."""
    if q % 2 == 0:
        return q == 2
    d, r = q - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 7, 61):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def test_word_primes_are_distinct_primes_below_2_31():
    primes = _word_primes()
    assert primes is _word_primes()             # computed once
    listed = primes.tolist()
    assert len(set(listed)) == len(listed) > 2500
    assert all(2 ** 30 < q < 2 ** 31 for q in listed)
    # exactly the primes of the window, largest first
    lo = 2 ** 31 - multimodular._WORD_PRIME_SPAN
    assert listed == [q for q in range(2 ** 31 - 1, lo - 1, -1) if _is_prime(q)]


def _row_bound(rows):
    return _hadamard_bound(sum(v * v for v in row) for row in rows)


def test_hadamard_bound_covers_every_maximal_minor():
    rnd = random.Random(7)
    for n in range(1, 5):
        rows = [[rnd.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
        bound = _row_bound(rows)
        for j in range(n + 1):
            assert abs(_det([row[:j] + row[j + 1:] for row in rows])) <= bound
    assert _row_bound([[3, 4, 0], [0, 0, 5]]) == 25
    assert _row_bound([[3, 4, 1], [0, 0, 0]]) == 0


def _big_series(rnd, n):
    c = [Fraction(_big(rnd)) for _ in range(2 * n + 1)]
    return c, PowerSeries.from_coefficients(c)


def test_multimodular_rejects_a_vector_the_check_refutes(monkeypatch, operand):
    # with the bound faked to 1, one prime is taken and the CRT cannot
    # give the true minors; the exact proof must refuse them, and with
    # the one-prime stage declining too, classical_pade must raise
    c, series = _big_series(random.Random(3), 4)
    assert _eea_pade(*operand(c), 4) is None
    monkeypatch.setattr(multimodular, "_hadamard_bound", lambda squares: 1)
    assert _multiprime_pade(*operand(c), 4) is None
    with pytest.raises(NumericalError):
        classical_pade(series, 4, exact=True)


def test_multimodular_sieves_another_window_for_a_bound_beyond_one_window(monkeypatch, exact_reference,
                                                                         operand):
    # a bound just past the product of the first window's primes: the
    # stage sieves the next window of primes below 2^31 - 2^16 and
    # still proves the true vector
    c, series = _big_series(random.Random(4), 3)
    reference = exact_reference(series, 3)
    past = 1
    for q in _word_primes().tolist():
        past *= q
    monkeypatch.setattr(multimodular, "_hadamard_bound", lambda squares: past)
    seen = _spy_chunks(monkeypatch)
    assert _multiprime_pade(*operand(c), 3) == (reference.a, reference.b, 1)
    monkeypatch.setattr(pade, "_eea_pade", lambda C, dc, n: None)
    assert classical_pade(series, 3, exact=True) == reference
    below = [q for primes, _ in seen for q in primes if q < 2 ** 31 - 2 ** 16]
    assert below and all(_is_prime(q) for q in below[:50])
    assert _word_primes(2)[:len(_word_primes())].tolist() == _word_primes().tolist()


def test_residues_of_entries_beyond_2_16_limbs():
    # 2^18 limbs of 16 bits: one int64 dot product over all of them
    # would overflow, so the limb sums are reduced in blocks
    rnd = random.Random(12)
    values = [rnd.getrandbits(1 << 22) - (1 << 21), -(1 << (1 << 22)) + 1, 5]
    primes = _word_primes()[:3]
    got = _residues(values)(primes).tolist()
    assert got == [[int(v % q if v >= 0 else -(-v % q)) for q in primes.tolist()] for v in values]


# ---------------------------------------------------------------------------
# the multi-prime Euclidean stage for Toeplitz systems


def _toeplitz_rows(c, n):
    """B_n of c_0..c_2n: entry (i, j) = c_(n+1+i-j)."""
    return [[c[n + 1 + i - j] for j in range(n + 1)] for i in range(n)]


def _remainder_degrees(c, n, q):
    """Degrees 2n+1 = n_0 > n_1 > ... > n_i of the Euclidean remainders of
    (z^(2n+1), c - c_0) mod q, stopping at the first n_i <= n (-1 for zero)."""
    r0, r1 = [0] * (2 * n + 1) + [1], [0] + [v % q for v in c[1:]]
    degrees = [2 * n + 1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        degrees.append(len(r1) - 1)
        if len(r1) - 1 <= n:
            return degrees
        inv = pow(r1[-1], -1, q)
        while len(r0) >= len(r1):
            f, shift = r0[-1] * inv % q, len(r0) - len(r1)
            for i, v in enumerate(r1):
                r0[shift + i] = (r0[shift + i] - f * v) % q
            while r0 and not r0[-1]:
                r0.pop()
        r0, r1 = r1, r0


def _rational_coefficients(rnd, n):
    """c_0..c_2n of P/Q, deg Q = n, Q(0) = 1, P(0) = 0, deg P < n: the
    remainder degrees end n_(i-1) = n + 1 > n > n_i = deg P."""
    q = [1] + [rnd.randint(-3, 3) for _ in range(n - 1)] + [rnd.choice((-2, -1, 1, 2))]
    p = [0] + [rnd.randint(-3, 3) for _ in range(n - 1)]
    p[rnd.randint(1, n - 1)] = rnd.choice((-1, 1))
    c = []
    for j in range(2 * n + 1):
        c.append((p[j] if j < n else 0) - sum(q[k] * c[j - k] for k in range(1, min(j, n) + 1)))
    return c


def _bareiss_minors(c, n):
    """The minor vector y_j = (-1)^j det(B_n without column j) of a full-rank
    B_n, as its Bareiss null vector (first nonzero entry 1) times one minor,
    or the nullity of B_n when it is rank deficient."""
    rows = _toeplitz_rows(c, n)
    try:
        b = exact_nullspace(rows)
    except RankDeficiencyError as deficiency:
        return len(deficiency.basis)
    f = next(j for j, v in enumerate(b) if v)
    first = (-1) ** f * _det([row[:f] + row[f + 1:] for row in rows])
    return [int(v.re * first) for v in b]


def test_euclidean_minors_match_elimination_mod_one_prime():
    # y = +-prod rho_j^(n_(j-1) - n) t_i against the elimination's minor
    # vector, one prime at a time, on small integer series; zeros give
    # degree jumps, c_1 = .. = c_n = 0 < |c_(n+1)| a zero remainder
    rnd = random.Random(20261019)
    q = _word_primes()[:1]
    p = int(q[0])
    seen = {"full rank": 0, "rank deficient": 0, "jump": 0, "zero remainder": 0,
            "n_(i-1) = n + 1 > n > n_i": 0}
    for trial in range(600):
        n = rnd.randint(1, 10)
        c = [rnd.randint(-5, 5) for _ in range(2 * n + 1)]
        if trial % 4 == 1:
            c = [v if rnd.random() < 0.6 else 0 for v in c]
        elif trial % 4 == 2:
            c[1:n + 2] = [0] * n + [rnd.choice((-3, -1, 1, 2))]
        elif trial % 4 == 3 and n > 1:
            c = _rational_coefficients(rnd, n)
        minors = _bareiss_minors(c, n)
        y, alive, degrees = _chunk_euclid(_residues([0] + c[1:])(q), n, q)
        assert alive.tolist() == [True]
        if isinstance(minors, int):         # the nullity of B_n
            assert n + 1 - max(degrees) == minors > 1
            seen["rank deficient"] += 1
            continue
        assert max(degrees) == n
        expected = [v % p for v in minors]
        got = [int(v) % p for v in y[:, 0]]
        assert got in (expected, [-v % p for v in expected])
        remainders = _remainder_degrees(c, n, p)
        assert degrees[0] == remainders[-1]
        seen["full rank"] += 1
        seen["jump"] += any(a - b > 1 for a, b in zip(remainders[1:], remainders[2:]))
        seen["zero remainder"] += remainders[-1] == -1
        seen["n_(i-1) = n + 1 > n > n_i"] += remainders[-2] == n + 1 and 0 <= remainders[-1] < n
    assert seen["full rank"] >= 500 and seen["rank deficient"] >= 5
    assert seen["jump"] >= 250 and seen["zero remainder"] >= 100
    assert seen["n_(i-1) = n + 1 > n > n_i"] >= 100


def _no_elimination(*args):
    raise AssertionError("exact_nullspace reached")


def _gammel_series():
    poles = PoleSequence.explicit([qc(Fraction((-1) ** k, k + 1)) for k in range(1, 7)],
                                  start_index=1)
    alphas = tuple(Fraction(1, 4 ** (k * k)) for k in range(1, 7))
    return build_gammel_series(GammelParams(alphas=alphas, poles=poles), 2 ** 7 - 2)


def test_gammel_n38_is_proved_by_the_multiprime_euclidean_stage(monkeypatch, matvec):
    s = _gammel_series()
    pair = build_pair(s, 38, exact=True)
    b = exact_nullspace(pair.B)
    monkeypatch.setattr(linalg, "exact_nullspace", _no_elimination)
    r = classical_pade(s, 38, exact=True)
    assert r.b == b and r.a == matvec(pair.A, b)
    assert max(x.re.denominator.bit_length() for x in r.b) > 3000


def test_euclidean_stage_drops_a_prime_with_another_degree_sequence(monkeypatch, exact_reference, operand):
    # c_2n, the leading coefficient of g, is a multiple of the first listed
    # prime, so g has a lower degree mod that prime alone
    p0 = int(_word_primes()[0])
    rnd = random.Random(6)
    n = 6
    c = [Fraction(_big(rnd)) for _ in range(2 * n + 1)]
    c[2 * n] = Fraction(p0 * _big(rnd, 40, 60))
    series = PowerSeries.from_coefficients(c)
    expected = exact_reference(series, n)
    assert _eea_pade(*operand(c), n) is None
    seen = _spy_chunks(monkeypatch)
    monkeypatch.setattr(linalg, "exact_nullspace", _no_elimination)
    assert classical_pade(series, n, exact=True) == expected
    first_primes, first_alive = seen[0]
    assert first_primes[0] == p0 and first_alive[0] is False
    assert all(alive for _, flags in seen for alive in flags[1:])


def test_euclidean_stage_matches_elimination_beyond_one_prime(monkeypatch, exact_reference, operand):
    # random real series whose outputs the one-prime stage cannot lift:
    # 60-100-bit numerators over 1-20-bit denominators, dense or sparse,
    # or with c_1..c_(2n-1) on a recurrence of order n - 1 with 40-bit
    # rational weights, so that det(B without column 0) = 0 forces b_0 = 0
    rnd = random.Random(20261020)
    seen = {"series": 0, "proved": 0, "b0 = 0": 0}
    real = pade._multiprime_pade
    results = []
    monkeypatch.setattr(pade, "_multiprime_pade",
                        lambda *args: results.append(real(*args)) or results[-1])
    while seen["series"] < 300:
        n = rnd.randint(1, 8)
        c = [Fraction(rnd.getrandbits(rnd.randint(60, 100)) - 2 ** 59,
                      rnd.getrandbits(rnd.randint(1, 20)) | 1) for _ in range(2 * n + 1)]
        if seen["series"] % 3 == 1:
            c = [x if rnd.random() < 0.6 else Fraction(0) for x in c]
        elif seen["series"] % 3 == 2 and n > 1:
            d = [Fraction(rnd.getrandbits(40) - 2 ** 39, rnd.getrandbits(40) | 1)
                 for _ in range(n - 1)]
            for j in range(n, 2 * n):
                c[j] = sum(w * c[j - 1 - k] for k, w in enumerate(d))
        if _eea_pade(*operand(c), n) is not None:
            continue
        series = PowerSeries.from_coefficients(c)
        route = classical_pade(series, n, exact=True)
        reference = exact_reference(series, n)
        assert route.a == reference.a and route.b == reference.b
        assert route.diagnostics.nullspace_dim == reference.diagnostics.nullspace_dim
        assert route.diagnostics.b0_degenerate == reference.diagnostics.b0_degenerate
        assert route == reference
        seen["series"] += 1
        seen["proved"] += results[-1] is not None
        seen["b0 = 0"] += route.diagnostics.b0_degenerate
    assert seen["proved"] == 300 and seen["b0 = 0"] >= 50


# ---------------------------------------------------------------------------
# complex and rank-deficient series in the multi-prime Euclidean stage


def _gaussian_primes():
    primes = _word_primes()
    return primes[primes % 4 == 1]


def test_square_roots_of_minus_one_for_every_prime_1_mod_4():
    primes = _gaussian_primes()
    assert len(primes) == 1507
    iota = _sqrt_minus_one(primes)
    assert all(v * v % q == q - 1 for v, q in zip(iota.tolist(), primes.tolist()))


def _big_gaussian(rnd, lo_bits=60, hi_bits=90):
    return qc(Fraction(_big(rnd, lo_bits, hi_bits), rnd.getrandbits(16) | 1),
              Fraction(_big(rnd, lo_bits, hi_bits), rnd.getrandbits(16) | 1))


def test_complex_output_beyond_one_prime_is_proved_by_the_multiprime_stage(monkeypatch, exact_reference,
                                                                           operand):
    rnd = random.Random(8)
    n = 7
    c = [_big_gaussian(rnd) for _ in range(2 * n + 1)]
    series = PowerSeries.from_coefficients(c)
    expected = exact_reference(series, n)
    assert _eea_pade(*operand(c), n) is None and _multiprime_pade(*operand(c), n) is not None
    seen = _spy_chunks(monkeypatch)
    monkeypatch.setattr(linalg, "exact_nullspace", _no_elimination)
    r = classical_pade(series, n, exact=True)
    assert r == expected and not r.b[1].is_real
    assert max(x.re.denominator.bit_length() for x in r.b) > 61
    primes, _ = seen[0]                     # each prime runs twice, once per image of i
    assert primes[:len(primes) // 2] == primes[len(primes) // 2:]
    assert all(q % 4 == 1 for q in primes)


def test_euclidean_stage_drops_a_prime_whose_two_images_disagree(monkeypatch, exact_reference, operand):
    # c_2n = -iota + i mod the first prime p0 = 1 mod 4: its image under
    # i -> iota vanishes, so only that column has a lower degree mod p0
    p0 = int(_gaussian_primes()[0])
    iota = int(_sqrt_minus_one(_gaussian_primes()[:1])[0])
    rnd = random.Random(9)
    n = 6
    c = [_big_gaussian(rnd) for _ in range(2 * n + 1)]
    c[2 * n] = qc(p0 * _big(rnd, 40, 60) - iota, p0 * _big(rnd, 40, 60) + 1)
    series = PowerSeries.from_coefficients(c)
    expected = exact_reference(series, n)
    assert _eea_pade(*operand(c), n) is None
    seen = _spy_chunks(monkeypatch)
    monkeypatch.setattr(linalg, "exact_nullspace", _no_elimination)
    assert classical_pade(series, n, exact=True) == expected
    primes, alive = seen[0]
    half = len(primes) // 2
    assert primes[0] == primes[half] == p0
    assert alive[0] is False and alive[half] is True    # the images disagree
    assert all(alive[1:half]) and all(alive[half + 1:])
    assert all(all(flags) for _, flags in seen[1:])


def test_rank_deficient_output_beyond_one_prime_is_solved_at_the_full_rank_order(monkeypatch,
                                                                                 exact_reference, operand):
    # a type-(2, 2) rational function of z scaled by a 50-bit Gaussian
    # rational: B_9 has nullity 8, and B_2 is full rank
    rnd = random.Random(10)
    n, m = 9, 2
    q = [qc(1), qc(Fraction(3, 7), 2), qc(-5, Fraction(1, 3))]
    p = [qc(2), qc(-1, 1), qc(Fraction(4, 5))]
    s = qc(Fraction(_big(rnd, 50, 50), _big(rnd, 30, 30)), Fraction(_big(rnd, 50, 50), 7))
    c = []
    for j in range(2 * n + 1):
        c.append((p[j] if j <= m else qc(0)) - sum((q[k] * c[j - k] for k in range(1, min(j, m) + 1)), qc(0)))
    c = [x * s ** j for j, x in enumerate(c)]
    series = PowerSeries.from_coefficients(c)
    expected = exact_reference(series, n)
    assert expected.diagnostics.nullspace_dim == n - m + 1
    assert _eea_pade(*operand(c), n) is None
    orders = []
    real = multimodular._chunk_euclid

    def spy(g, order, primes):
        orders.append(order)
        return real(g, order, primes)

    monkeypatch.setattr(multimodular, "_chunk_euclid", spy)
    monkeypatch.setattr(linalg, "exact_nullspace", _no_elimination)
    assert classical_pade(series, n, exact=True) == expected
    assert orders[0] == n and set(orders[1:]) == {m}


def _shifted_corner_coefficients(rnd, n, a, gaussian):
    """c_0..c_2n whose minimal null vector of B_n is z^a q, of nullity >= 2:
    c_1..c_(2n-a) are those of r'/q, q_0 = 1, deg q, deg r' <= n - a - 1,
    and c_0 and c_(2n-a+1)..c_2n are random; q has 8-48-bit numerators,
    so some outputs lie beyond one prime."""
    def entry(bits):
        def part():
            return Fraction(rnd.getrandbits(bits) - 2 ** (bits - 1), rnd.getrandbits(12) | 1)
        return QC(part(), part() if gaussian else 0)

    top, bits = n - a - 1, rnd.randint(8, 48)
    q = [QC(1)] + [entry(bits) for _ in range(top)]
    r = [entry(bits) for _ in range(top + 1)]
    c = [entry(40)]
    for j in range(1, 2 * n - a + 1):       # c_j = (r'_j - sum_k q_k c_(j-k)) over j >= 1 only
        acc = r[j] if j <= top else QC(0)
        for k in range(1, min(j - 1, top) + 1):
            acc = acc - q[k] * c[j - k]
        c.append(acc)
    return c + [entry(40) for _ in range(a)]


def test_multiprime_stage_solves_the_shifted_block_corner(monkeypatch, exact_reference, operand):
    # b = z^a q, a > 0: B_n and the square systems below it are rank
    # deficient, but the (2n - M', M') system, M' = deg b, is not
    rnd = random.Random(3)
    seen = {"real": 0, "gaussian": 0, "b0 = 0, d >= 2": 0, "beyond one prime": 0}
    for trial in range(100):
        n = rnd.randint(3, 9)
        a = rnd.randint(1, n - 1)
        gaussian = trial % 2 == 1
        c = _shifted_corner_coefficients(rnd, n, a, gaussian)
        reference = exact_reference(PowerSeries.from_coefficients(c), n)
        d = reference.diagnostics.nullspace_dim
        assert _multiprime_pade(*operand(c), n) == (reference.a, reference.b, d)
        seen["gaussian" if gaussian else "real"] += 1
        seen["b0 = 0, d >= 2"] += not reference.b[0] and d >= 2
        seen["beyond one prime"] += _eea_pade(*operand(c), n) is None
    assert seen["real"] == seen["gaussian"] == 50 and seen["b0 = 0, d >= 2"] == 100
    assert seen["beyond one prime"] >= 30
