"""Multi-modular nullspace stage: many word-size primes, the CRT, proved by B y = 0."""

import random
from fractions import Fraction

import pytest

from padelab import linalg, multimodular
from padelab.errors import RankDeficiencyError
from padelab.linalg import (
    RationalMatrix,
    _bareiss_nullspace,
    _strip_to_field,
    exact_nullspace,
)
from padelab.multimodular import _hadamard_bound, _word_primes
from padelab.pade import _eea_pade
from padelab.rational import qc
from padelab.series import GammelParams, PoleSequence, build_gammel_series
from padelab.toeplitz import build_pair


def _big(rnd, lo_bits=150, hi_bits=220):
    """A random nonzero integer of lo_bits..hi_bits bits and random sign."""
    return rnd.choice((1, -1)) * (rnd.getrandbits(rnd.randint(lo_bits, hi_bits)) | 1)


def _big_rows(rnd, n):
    return [[_big(rnd) for _ in range(n + 1)] for _ in range(n)]


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


def _bareiss_rows(rows):
    return _bareiss_nullspace([[(v, 0) for v in row] for row in rows])


def _spy_chunks(monkeypatch):
    """Record the rank-n flags of every chunk the multi-modular stage eliminates."""
    seen = []
    real = multimodular._chunk_minors

    def spy(limbs, signs, p):
        minors, alive = real(limbs, signs, p)
        seen.append((p.tolist(), alive.tolist()))
        return minors, alive

    monkeypatch.setattr(multimodular, "_chunk_minors", spy)
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


def test_hadamard_bound_covers_every_maximal_minor():
    rnd = random.Random(7)
    for n in range(1, 5):
        rows = [[rnd.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
        bound = _hadamard_bound(rows)
        for j in range(n + 1):
            assert abs(_det([row[:j] + row[j + 1:] for row in rows])) <= bound
    assert _hadamard_bound([[3, 4, 0], [0, 0, 5]]) == 25
    assert _hadamard_bound([[3, 4, 1], [0, 0, 0]]) == 0


def test_multimodular_matches_bareiss_on_large_random_systems():
    # entries of 150-220 bits and both signs; some systems have vanishing
    # leading minors (row pivoting), a singular leading n x n block (the
    # spare column trades in) or rank below n (the stage declines)
    rnd = random.Random(20261018)
    seen = set()
    for trial in range(36):
        n = rnd.randint(1, 8)
        rows = _big_rows(rnd, n)
        kind = ("plain", "leading zero", "leading minor", "singular block",
                "rank deficient")[trial % 5]
        if kind == "leading zero":
            rows[0][0] = 0
        elif kind == "leading minor" and n > 1:
            rows[1][:2] = [3 * rows[0][0], 3 * rows[0][1]]
        elif kind == "singular block" and n > 1:
            for row in rows:
                row[n - 1] = -5 * row[0]
        elif kind == "rank deficient" and n > 1:
            rows[-1] = [-7 * v for v in rows[0]]
        mat = RationalMatrix.from_rows(rows)
        try:
            expected = _bareiss_rows(rows)
        except RankDeficiencyError as ref:
            assert multimodular.nullspace(rows) is None
            with pytest.raises(RankDeficiencyError) as exc:
                exact_nullspace(mat)
            assert (exc.value.rank, exc.value.basis) == (ref.rank, ref.basis)
            seen.add("rank deficient")
            continue
        assert multimodular.nullspace(rows) == expected
        assert exact_nullspace(mat) == expected
        if n > 1:
            seen.add(kind)
    assert seen == {"plain", "leading zero", "leading minor", "singular block",
                    "rank deficient"}


def _gammel_series():
    poles = PoleSequence.explicit([qc(Fraction((-1) ** k, k + 1)) for k in range(1, 7)],
                                  start_index=1)
    alphas = tuple(Fraction(1, 4 ** (k * k)) for k in range(1, 7))
    return build_gammel_series(GammelParams(alphas=alphas, poles=poles), 2 ** 7 - 2)


def test_gammel_n38_is_proved_without_bareiss(monkeypatch):
    s = _gammel_series()
    # too big for one prime: the Euclidean Pade stage declines
    assert _eea_pade([s.coeff(j).re for j in range(2 * 38 + 1)], 38) is None
    B = build_pair(s, 38, exact=True).B
    rows = [[re for re, _ in row] for row in _strip_to_field(B)]
    expected = _bareiss_rows(rows)

    def no_bareiss(*args):
        raise AssertionError("Bareiss fallback reached")

    monkeypatch.setattr(linalg, "_bareiss_nullspace", no_bareiss)
    v = exact_nullspace(B)
    assert v == expected and v[0] == qc(1)
    assert all(x == 0 for x in B.matvec(v))
    assert max(x.re.denominator.bit_length() for x in v) > 3000


def test_multimodular_drops_a_prime_whose_rank_drops(monkeypatch):
    # every entry of row 2 is a multiple of the first listed prime, so
    # that prime sees a zero row; the others still prove the vector
    p0 = int(_word_primes()[0])
    rnd = random.Random(5)
    rows = _big_rows(rnd, 6)
    rows[2] = [p0 * _big(rnd, 40, 60) for _ in range(7)]
    seen = _spy_chunks(monkeypatch)
    assert multimodular.nullspace(rows) == _bareiss_rows(rows)
    first_primes, first_alive = seen[0]
    assert first_primes[0] == p0 and first_alive[0] is False
    assert all(alive for _, flags in seen for alive in flags[1:])


def test_multimodular_gives_up_on_rank_deficiency_after_one_chunk(monkeypatch):
    # rank < n over Q drops every prime, so the first chunk decides
    rows = _big_rows(random.Random(9), 6)
    rows[4] = [3 * v for v in rows[1]]
    seen = _spy_chunks(monkeypatch)
    assert multimodular.nullspace(rows) is None
    assert len(seen) == 1 and not any(seen[0][1])


def test_multimodular_pivots_per_prime(monkeypatch):
    # the leading entry is a multiple of the first prime only, so that
    # prime alone swaps rows at the first step
    p0 = int(_word_primes()[0])
    rnd = random.Random(11)
    rows = _big_rows(rnd, 5)
    rows[0][0] = p0 * _big(rnd)
    seen = _spy_chunks(monkeypatch)
    assert multimodular.nullspace(rows) == _bareiss_rows(rows)
    assert all(all(flags) for _, flags in seen)


def test_multimodular_trades_the_spare_column_per_prime(monkeypatch):
    # det of the leading 5 x 5 block is a nonzero multiple of the first
    # prime, so that prime alone trades a column for the spare one
    p0 = int(_word_primes()[0])
    rnd = random.Random(13)
    n = 5
    rows = _big_rows(rnd, n)
    rows[0][0] = 0
    rest = _det([row[:n] for row in rows])
    rows[0][0] = 1
    cofactor = _det([row[:n] for row in rows]) - rest
    rows[0][0] = -rest * pow(cofactor, -1, p0) % p0 + p0 * _big(rnd)
    block = _det([row[:n] for row in rows])
    assert block and block % p0 == 0
    seen = _spy_chunks(monkeypatch)
    assert multimodular.nullspace(rows) == _bareiss_rows(rows)
    assert all(all(flags) for _, flags in seen)


def test_multimodular_rejects_a_vector_the_check_refutes(monkeypatch):
    # with the bound faked to 1, one prime is taken and the CRT cannot
    # give the true minors; the exact check B y = 0 must refuse them
    rows = _big_rows(random.Random(3), 4)
    expected = _bareiss_rows(rows)
    monkeypatch.setattr(multimodular, "_hadamard_bound", lambda rows: 1)
    assert multimodular.nullspace(rows) is None
    assert exact_nullspace(RationalMatrix.from_rows(rows)) == expected


def test_multimodular_declines_a_bound_beyond_the_prime_list(monkeypatch):
    rows = _big_rows(random.Random(4), 3)
    expected = _bareiss_rows(rows)
    huge = 1 << (30 * len(_word_primes()))
    monkeypatch.setattr(multimodular, "_hadamard_bound", lambda rows: huge)
    assert multimodular.nullspace(rows) is None
    assert exact_nullspace(RationalMatrix.from_rows(rows)) == expected
