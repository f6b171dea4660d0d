"""Exact integral minor vectors of large n x (n+1) systems, many primes at once.

The multi-modular method (Cabay, *Exact solution of linear equations*,
1971): the integral vector of maximal minors is found modulo enough
word-size primes to cover its Hadamard bound, by an int64 kernel
vectorized over a chunk of primes, and joined by the CRT (:func:`_crt`,
one prime loop and product tree for both kernels): O(n^3) elimination
of general real rows in :func:`nullspace`, for `linalg.exact_nullspace`,
and the O(n^2) extended Euclidean algorithm on a real or Gaussian power
series, full rank or not, in :func:`pade_minors`, for
`pade.classical_pade`.  The CRT and the check B y = 0 are the only
big-integer work.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import accumulate

import numpy as np

from .rational import scaled_to_first

_WORD_PRIME_TOP = 1 << 31     # products of two residues stay below 2^62: int64-safe
_WORD_PRIME_SPAN = 1 << 16    # the list holds every prime in [2^31 - span, 2^31)
_PRIME_CHUNK = 16             # primes eliminated together: 0.2 MB of residues at n = 38
_ROW_BLOCK = 8                # rows updated per elimination call: bounds the temporary array
_EUCLID_CHUNK = 256           # primes in one Euclidean run: 0.5 MB per (R, T) pair at n = 62


@cache
def _word_primes() -> np.ndarray:
    """Every prime in [2^31 - span, 2^31), largest first (a segmented sieve)."""
    lo = _WORD_PRIME_TOP - _WORD_PRIME_SPAN
    small = np.ones(math.isqrt(_WORD_PRIME_TOP) + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(len(small) - 1) + 1):
        if small[q]:
            small[q * q::q] = False
    window = np.ones(_WORD_PRIME_SPAN, dtype=bool)
    for q in np.flatnonzero(small):
        window[-lo % q::q] = False
    primes = (lo + np.flatnonzero(window)[::-1]).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


def _hadamard_bound(squares) -> int:
    """Product of ceil(sqrt(s)) over squared row norms s: bounds every maximal minor."""
    bound = 1
    for norm2 in squares:
        if not norm2:
            return 0
        bound *= math.isqrt(norm2 - 1) + 1
    return bound


def nullspace(rows: list) -> tuple | None:
    """Proved nullspace vector of integral n x (n+1) rows, or None.

    The integral vector of maximal minors, y_j = (-1)^j det(B without
    column j), spans the nullspace when the rank is n, and each |y_j|
    is at most H, the Hadamard bound.  :func:`_crt` joins its images
    mod primes that exceed 2H, each chunk from one elimination
    (:func:`_chunk_minors`).  The vector is returned, scaled so its
    first nonzero entry is 1, only if the exact check B y = 0 holds;
    else None, and the caller falls back to Bareiss.
    """
    n = len(rows)
    residues = _residues([v for row in rows for v in row])
    y = _crt(2 * _hadamard_bound(sum(v * v for v in row) for row in rows),
             lambda p: _chunk_minors(residues(p).reshape(n, n + 1, -1), p),
             _PRIME_CHUNK, _word_primes())
    if y is None or any(sum(map(operator.mul, row, y)) for row in rows):
        return None
    return scaled_to_first(y)


def pade_minors(c: list, n: int) -> list | None:
    """Integral minor vector y of a full-rank Toeplitz B_m, as (re, im) pairs, unproved, or None.

    c holds c_0..c_2n as (re, im) int pairs.  B_n (entry (i, j) =
    c_(n+1+i-j)) is never built: :func:`_crt` joins images of y from
    :func:`_chunk_euclid`, with the Hadamard bound from window sums of
    |c_j|^2.  m = n unless the first chunk reads nullity n + 1 - m > 1.
    A complex series runs both images of i (+-iota mod p = 1 mod 4) as
    columns of one chunk, drops a prime unless both follow the chunk's
    degree sequence, and joins (y+ + y-)/2 and (y+ - y-)/(2 iota) as rows.
    """
    gaussian = any(im for _, im in c)
    sums = list(accumulate((re * re + im * im for re, im in c[1:]), initial=0))
    residues = _residues([0] + [re for re, _ in c[1:]]
                         + ([0] + [im for _, im in c[1:]] if gaussian else []))
    primes = _word_primes()[_word_primes() % 4 == 1] if gaussian else _word_primes()
    orders = []

    def images(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        g, q = residues(p), p
        if gaussian:
            iota = _sqrt_minus_one(p)
            re, im, q = g[:2 * n + 1], g[2 * n + 1:] * iota, np.concatenate([p, p])
            g = np.fmod(np.concatenate([re + im, re - im], axis=1), q)
        y, alive, order = _chunk_euclid(g[:2 * m + 1], m, q)
        orders.append(order)
        if not gaussian:
            return y, alive
        plus, minus, half = y[:, :len(p)], y[:, len(p):], (p + 1) >> 1     # 1/2 mod p
        return (np.concatenate([(plus + minus) * half % p,
                                (plus - minus) % p * (half * (p - iota) % p) % p]),
                alive[:len(p)] & alive[len(p):])

    def solve(m: int) -> list | None:
        bound = 2 * _hadamard_bound(sums[i + m + 1] - sums[i] for i in range(m))
        return _crt(bound, lambda p: images(p, m), _EUCLID_CHUNK, primes)

    y = solve(n)
    if y is None and orders and orders[0] < n:                      # rank deficient
        y = solve(orders[0])
    if y is None:
        return None
    return list(zip(y[:len(y) // 2], y[len(y) // 2:])) if gaussian else [(v, 0) for v in y]


def _sqrt_minus_one(p: np.ndarray) -> np.ndarray:
    """A square root of -1 modulo each prime p = 1 mod 4: a^((p-1)/4) for a non-residue a."""
    iota, a = np.zeros_like(p), 2
    while not iota.all():
        root = _power_mod(np.full_like(p, a), (p - 1) >> 2, p)
        found = (iota == 0) & (root * root % p == p - 1)
        iota[found], a = root[found], a + 1
    return iota


def _residues(values: list):
    """Signed residues |r| < p of the ints, (len, P), as a function of a prime chunk p."""
    width = max(1, (max(abs(v).bit_length() for v in values) + 15) // 16)
    data = b"".join(abs(v).to_bytes(2 * width, "little") for v in values)
    limbs = np.frombuffer(data, dtype="<u2").reshape(len(values), width)
    signs = np.array([[-1 if v < 0 else 1] for v in values], dtype=np.int64)

    def reduce(p: np.ndarray) -> np.ndarray:
        powers = np.empty((width, len(p)), dtype=np.int64)    # 2^(16k) mod p
        powers[0] = 1
        for k in range(1, width):
            np.fmod(powers[k - 1] << 16, p, out=powers[k])
        w = np.empty((len(values), len(p)), dtype=np.int64)
        for i in range(0, len(values), 64):     # 64 at a time: bounds the int64 copy of the limbs
            np.matmul(limbs[i:i + 64], powers, out=w[i:i + 64])
        np.fmod(w, p, out=w)
        w *= signs
        return w

    return reduce


def _crt(bound: int, images, chunk: int, primes: np.ndarray) -> list | None:
    """The int vector y, |y_j| < bound / 2, from `images(p)`: ((m, P) residues, P flags).

    Primes come from `primes` in order, at most `chunk` per call, until
    those kept (flagged True) exceed the bound; the CRT in the symmetric
    range gives y exactly.  None when the bound is 0 or outgrows the
    list, a chunk drops more primes than it keeps, or y is 0.
    """
    # every prime exceeds 2^30; the bound also caps the entries, so fewer
    # than 2^16 limbs each and the limb sums in _residues fit in int64
    if not bound or bound.bit_length() >= 30 * len(primes):
        return None
    moduli, parts, modulus, start = [], [], 1, 0
    while modulus <= bound:
        stop, grown = start, modulus
        while grown <= bound and stop - start < chunk and stop < len(primes):
            grown *= int(primes[stop])
            stop += 1
        if stop == start:
            return None
        residues, alive = images(primes[start:stop])
        kept = primes[start:stop][alive].tolist()
        moduli += kept
        modulus *= math.prod(kept)
        parts.append(residues[:, alive])
        if stop - len(moduli) > len(moduli):    # more primes dropped than kept
            return None
        start = stop
    # y = sum_q s_q M/q mod M, s_q = r_q (M/q)^-1 mod q, up a balanced product tree
    # T(S u S') = T(S) M(S') + T(S') M(S), whose first level fits in int64 (s, q < 2^31)
    level = np.array(moduli, dtype=np.int64)
    cofactors = np.array([modulus % (v * v) // v for v in moduli], dtype=np.int64)
    sums = np.concatenate(parts, axis=1) % level * _power_mod(cofactors, level - 2, level) % level
    while sums.shape[1] > 1:
        if sums.shape[1] % 2:                   # an odd node pairs with (T, M) = (0, 1)
            sums, level = np.concatenate([sums, sums[:, :1] * 0], axis=1), np.append(level, 1)
        sums = sums[:, ::2] * level[1::2] + sums[:, 1::2] * level[::2]
        level = level[::2] * level[1::2]
        if sums.dtype != object:                # Python ints from the second level on
            sums, level = sums.astype(object), np.array(level, dtype=object)
    y = [v - modulus if 2 * v > modulus else v for v in (int(t) % modulus for t in sums[:, 0])]
    return y if any(y) else None


def _chunk_minors(w: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minor vector y mod each prime of `p`: ((n+1, P) residues, P rank-n flags).

    The work array `w` is (row, column, prime) with signed residues,
    |r| < p, updated in place.  Each prime picks its own pivot row
    (:func:`_choose_pivots`); the pivot row is never normalized
    (r_i <- s r_i - f r_c, one fmod per step).  A column without a
    pivot is traded for the spare column n.  The spare then holds a
    column that is zero from that row down, so a second trade finds no
    pivot either: rank < n mod p.  After one batched inversion of the
    pivots, back substitution gives the null vector with its spare entry
    scaled to det of the square part, which is y up to one sign shared
    by every prime.
    """
    n, m = w.shape[:2]
    nprimes = len(p)
    sign = np.ones(nprimes, dtype=np.int64)
    spare = np.full(nprimes, n)             # the input column held in column n
    alive = np.ones(nprimes, dtype=bool)
    pivots = np.empty((n, nprimes), dtype=np.int64)
    scaled = np.empty(_ROW_BLOCK * n * nprimes, dtype=np.int64)
    for c in range(n):
        if not w[c, c].all():
            _choose_pivots(w, c, sign, spare, alive)
        s = w[c, c]
        pivots[c] = s
        for r in range(c + 1, n, _ROW_BLOCK):
            below = w[r:r + _ROW_BLOCK, c + 1:]
            t = scaled[:below.size].reshape(below.shape)
            np.multiply(below, s, out=t)
            np.multiply(w[r:r + _ROW_BLOCK, c, None], w[c, None, c + 1:], out=below)
            np.subtract(t, below, out=t)
            np.fmod(t, p, out=below)
    inv = _power_mod(pivots, p - 2, p)      # Fermat; a dead prime's 0 stays 0
    # each step scaled the rows below by its pivot: det = sign d_(n-1) prod_c inv_c^(n-2-c)
    det = sign * pivots[n - 1]
    prefix = np.ones(nprimes, dtype=np.int64)
    for c in range(n - 2):
        prefix = np.fmod(prefix * inv[c], p)
        det = np.fmod(det * prefix, p)
    y = np.zeros((m, nprimes), dtype=np.int64)
    y[n] = det
    for i in reversed(range(n)):
        acc = np.fmod(w[i, i + 1:] * y[i + 1:], p).sum(axis=0)
        y[i] = np.fmod(np.fmod(-acc, p) * inv[i], p)
    cols = np.arange(nprimes)
    held = y[spare, cols]
    y[spare, cols] = y[n]
    y[n] = held
    return y, alive


def _choose_pivots(w: np.ndarray, c: int, sign: np.ndarray, spare: np.ndarray,
                   alive: np.ndarray) -> None:
    """Bring a nonzero residue to (c, c) for every prime, in place.

    Each prime takes its first row at or below c that is nonzero in
    column c.  A prime with no such row trades column c for the spare
    column n, and one with none after that is marked dead (rank < n).
    Every row or column swap flips that prime's sign.
    """
    n = w.shape[0]
    live = w[c:, c] != 0
    found = live.any(axis=0)
    if not found.all():
        lost = ~found
        held = w[:, c, lost]
        w[:, c, lost] = w[:, n, lost]
        w[:, n, lost] = held
        spare[lost] = c
        sign[lost] = -sign[lost]
        live = w[c:, c] != 0
        alive &= live.any(axis=0)
    top = live.argmax(axis=0) + c
    moved = np.flatnonzero(top != c)
    held = w[c, :, moved]
    w[c, :, moved] = w[top[moved], :, moved]
    w[top[moved], :, moved] = held
    sign[moved] = -sign[moved]


def _chunk_euclid(g: np.ndarray, n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(y, flags, m): minor vector y of B_n mod each prime of `p`, from g_0 = 0, g_1..g_2n.

    The extended Euclidean algorithm on (z^(2n+1), g) (Brent, Gustavson
    & Yun 1980) stops at the first remainder r_i of degree n_i <= n, and
    the nullspace of B mod p is a line exactly when max(n_i, deg t_i) = n.
    With r_j monic, rho_j its divided-out leading coefficient (rho_i = 1
    if r_i = 0) and t_j its cofactor of g, y = +-prod_j rho_j^(n_(j-1) - n) t_i,
    one sign per degree sequence (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 6).  No step divides: pseudo-remainders
    R_j = mu_j r_j, T_j = mu_j t_j (mu_j = lc R_j) give rho_j = mu_j / kappa_j,
    kappa_j = mu_(j-2) mu_(j-1)^(quotient steps), and one inversion ends
    the run.  B mod p has nullity n + 1 - m, m = max(n_i, deg t_i) of the
    chunk; flags are False where a remainder degree falls below the
    chunk's, and everywhere if m < n.
    """
    alive = np.ones(len(p), dtype=bool)
    old, new = np.zeros((2, 2, 2 * n + 2, len(p)), dtype=np.int64)      # (R, T) pairs
    old[0, -1] = new[1, 0] = 1
    new[0, :-1] = g
    n0 = 2 * n + 1
    kappa = num = den = snum = sden = np.ones(len(p), dtype=np.int64)
    while True:
        live = np.flatnonzero((new[0, :n0] != 0)[:, alive].any(axis=1))
        n1 = int(live[-1]) if len(live) else -1
        mu = new[0, n1].copy() if n1 >= 0 else kappa
        alive &= mu != 0
        num, den = num * mu % p, den * kappa % p                    # rho_1 ... rho_j
        for _ in range(n0 - max(n1, n)):                            # the product, telescoped
            snum, sden = snum * num % p, sden * den % p
        if n1 <= n:
            break
        kappa = old[0, n0].copy()
        for k in reversed(range(n0 - n1 + 1)):                      # R <- mu R - f z^k R_j
            f = old[0, k + n1].copy()
            w = old[:, :max(k + n1, n) + 1]                         # the rows that can change
            w *= mu
            w[:, k:] -= f * new[:, :w.shape[1] - k]
            np.fmod(w, p, out=w)
            kappa = kappa * mu % p
        old, new, n0 = new, old, n1
    m = max(n1, 2 * n + 1 - n0)
    alive &= m == n                                                 # the nullspace is a line
    return new[1, :n + 1] * (snum * _power_mod(sden * mu % p, p - 2, p) % p) % p, alive, m


def _power_mod(base: np.ndarray, exps: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base ** exps mod p by square and multiply, exponents per prime (last axis)."""
    out = np.ones_like(base)
    for bit in range(int(exps.max()).bit_length()):
        out = np.where((exps >> bit) & 1 == 1, np.fmod(out * base, p), out)
        base = np.fmod(base * base, p)
    return out
