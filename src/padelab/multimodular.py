"""Exact integral minor vectors of Toeplitz Pade systems, many primes at once.

The multi-modular method (Cabay, *Exact solution of linear equations*,
1971): the integral vector of maximal minors of the Toeplitz B_n of a
real or Gaussian power series, full rank or not, is found modulo
enough word-size primes to cover its Hadamard bound, by the O(n^2)
extended Euclidean algorithm vectorized in int64 over a chunk of
primes, and joined by the CRT, for `pade.classical_pade`
(:func:`pade_minors`).  B_n is never built; the CRT and the exact proof
in ``pade`` are the only big-integer work.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate

import numpy as np

_WORD_PRIME_TOP = 1 << 31     # products of two residues stay below 2^62: int64-safe
_WORD_PRIME_SPAN = 1 << 16    # one window of the list: every prime in [2^31 - span, 2^31)
_LIMB_BLOCK = (1 << 63) // ((1 << 16) * _WORD_PRIME_TOP)    # 16-bit limbs whose int64 sum is safe
_EUCLID_CHUNK = 256           # primes in one Euclidean run: 0.5 MB per (R, T) pair at n = 62


@cache
def _word_primes(windows: int = 1) -> np.ndarray:
    """Every prime in [2^31 - windows span, 2^31), largest first (a segmented sieve)."""
    lo = _WORD_PRIME_TOP - windows * _WORD_PRIME_SPAN
    small = np.ones(math.isqrt(_WORD_PRIME_TOP) + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(len(small) - 1) + 1):
        if small[q]:
            small[q * q::q] = False
    window = np.ones(windows * _WORD_PRIME_SPAN, dtype=bool)
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


def pade_minors(c: list, n: int) -> tuple[list, int] | None:
    """(y, d): an integral minor vector y as (re, im) pairs, unproved, and the nullity d of B_n, or None.

    c holds c_0..c_2n as (re, im) int pairs.  B_n (entry (i, j) =
    c_(n+1+i-j)) is never built: :func:`_crt` joins images of y from
    :func:`_chunk_euclid`, with the Hadamard bound from window sums of
    |c_j|^2.  The first chunk reads deg r and M' = deg t at the first
    remainder of degree <= n, so d = n + 1 - max(deg r, M').  When
    d = 1, y is the minor vector of B_n.  Otherwise y is that of the
    (2n - M', M') entry of the Pade table, the last M' rows of B_n over
    its first M' + 1 columns, of nullity 1, whose null vector is t:
    B_M' of the series shifted down by 2n - 2M' (y = 1 when M' = 0).
    A complex series runs both images of i (+-iota mod p = 1 mod 4) as
    columns of one chunk, drops a prime unless both follow the chunk's
    degree sequence, and joins (y+ + y-)/2 and (y+ - y-)/(2 iota) as rows.
    """
    gaussian = any(im for _, im in c)
    sums = list(accumulate((re * re + im * im for re, im in c[1:]), initial=0))
    residues = _residues([0] + [re for re, _ in c[1:]]
                         + ([0] + [im for _, im in c[1:]] if gaussian else []))
    degrees = []                                                    # (deg r, deg t) of a chunk

    def primes(windows: int) -> np.ndarray:
        listed = _word_primes(windows)
        return listed[listed % 4 == 1] if gaussian else listed

    def images(p: np.ndarray, m: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
        g, q = residues(p), p
        if gaussian:
            iota = _sqrt_minus_one(p)
            re, im, q = g[:2 * n + 1], g[2 * n + 1:] * iota, np.concatenate([p, p])
            g = np.fmod(np.concatenate([re + im, re - im], axis=1), q)
        y, alive, found = _chunk_euclid(g[shift:shift + 2 * m + 1], m, q)
        if alive.any():
            degrees.append(found)
        alive &= max(found) == m                                    # the nullspace is a line
        if not gaussian:
            return y, alive
        plus, minus, half = y[:, :len(p)], y[:, len(p):], (p + 1) >> 1     # 1/2 mod p
        return (np.concatenate([(plus + minus) * half % p,
                                (plus - minus) % p * (half * (p - iota) % p) % p]),
                alive[:len(p)] & alive[len(p):])

    def solve(m: int, shift: int) -> list | None:
        rows = (sums[shift + i + m + 1] - sums[shift + i] for i in range(m))
        return _crt(2 * _hadamard_bound(rows), lambda p: images(p, m, shift), _EUCLID_CHUNK, primes)

    y = solve(n, 0)
    if y is None and not degrees:                                   # a zero row: no chunk ran
        images(primes(1)[:_EUCLID_CHUNK], n, 0)
    if y is None and degrees and max(degrees[0]) < n:               # rank deficient
        top = degrees[0][1]
        y = solve(top, 2 * (n - top)) if top else [1] + [0] * gaussian
    if y is None:
        return None
    d = n + 1 - max(degrees[0])
    return (list(zip(y[:len(y) // 2], y[len(y) // 2:])) if gaussian else [(v, 0) for v in y]), d


def _sqrt_minus_one(p: np.ndarray) -> np.ndarray:
    """A square root of -1 modulo each prime p = 1 mod 4: a^((p-1)/4) for a non-residue a."""
    iota = []
    for q in p.tolist():
        a = 2
        while (root := pow(a, (q - 1) >> 2, q)) * root % q != q - 1:
            a += 1
        iota.append(root)
    return np.array(iota, dtype=np.int64)


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
        w = np.zeros((len(values), len(p)), dtype=np.int64)
        for k in range(0, width, _LIMB_BLOCK):
            for i in range(0, len(values), 64):     # 64 at a time: bounds the int64 copy of the limbs
                w[i:i + 64] += np.fmod(limbs[i:i + 64, k:k + _LIMB_BLOCK] @ powers[k:k + _LIMB_BLOCK], p)
            np.fmod(w, p, out=w)
        w *= signs
        return w

    return reduce


def _crt(bound: int, images, chunk: int, primes) -> list | None:
    """The int vector y, |y_j| < bound / 2, from `images(p)`: ((m, P) residues, P flags).

    Primes come in order from `primes(w)`, the list of the first w
    windows (a prefix of the next one), at most `chunk` per call, one
    window more whenever the list runs out, until those kept (flagged
    True) exceed the bound; the CRT in the symmetric range gives y
    exactly.  None when the bound is 0, a chunk drops more primes than
    it keeps, or y is 0.
    """
    if not bound:
        return None
    windows, listed = 1, primes(1)
    moduli, parts, modulus, start = [], [], 1, 0
    while modulus <= bound:
        stop, grown = start, modulus
        while grown <= bound and stop - start < chunk:
            if stop == len(listed):
                windows += 1
                listed = primes(windows)
            grown *= int(listed[stop])
            stop += 1
        residues, alive = images(listed[start:stop])
        kept = listed[start:stop][alive].tolist()
        moduli += kept
        modulus *= math.prod(kept)
        parts.append(residues[:, alive])
        if stop - len(moduli) > len(moduli):    # more primes dropped than kept
            return None
        start = stop
    # y = sum_q s_q M/q mod M, s_q = r_q (M/q)^-1 mod q, up a balanced product tree
    # T(S u S') = T(S) M(S') + T(S') M(S), whose first level fits in int64 (s, q < 2^31)
    level = np.array(moduli, dtype=np.int64)
    inverses = np.array([pow(modulus % (v * v) // v, -1, v) for v in moduli], dtype=np.int64)
    sums = np.concatenate(parts, axis=1) % level * inverses % level
    while sums.shape[1] > 1:
        if sums.shape[1] % 2:                   # an odd node pairs with (T, M) = (0, 1)
            sums, level = np.concatenate([sums, sums[:, :1] * 0], axis=1), np.append(level, 1)
        sums = sums[:, ::2] * level[1::2] + sums[:, 1::2] * level[::2]
        level = level[::2] * level[1::2]
        if sums.dtype != object:                # Python ints from the second level on
            sums, level = sums.astype(object), np.array(level, dtype=object)
    y = [v - modulus if 2 * v > modulus else v for v in (int(t) % modulus for t in sums[:, 0])]
    return y if any(y) else None


def _chunk_euclid(g: np.ndarray, n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(y, flags, (n_i, deg t_i)): t_i, scaled to the minor vector y of B_n, mod each prime of `p`.

    g holds g_0..g_2n; g_0 is not read.  The extended Euclidean
    algorithm on (z^(2n+1), g) (Brent, Gustavson & Yun 1980) stops at
    the first remainder r_i of degree n_i <= n, and the nullspace of B
    mod p, of dimension n + 1 - max(n_i, deg t_i), is a line exactly when
    that maximum is n.  Then, with r_j monic, rho_j its divided-out
    leading coefficient (rho_i = 1 if r_i = 0) and t_j its cofactor of
    g, y = +-prod_j rho_j^(n_(j-1) - n) t_i, one sign per degree sequence
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  No
    step divides: pseudo-remainders R_j = mu_j r_j, T_j = mu_j t_j
    (mu_j = lc R_j) give rho_j = mu_j / kappa_j, kappa_j =
    mu_(j-2) mu_(j-1)^(quotient steps), and one inversion ends the run.
    The degrees are the chunk's; flags are False where a remainder
    degree falls below them.
    """
    alive = np.ones(len(p), dtype=bool)
    old, new = np.zeros((2, 2, 2 * n + 2, len(p)), dtype=np.int64)      # (R, T) pairs
    old[0, -1] = new[1, 0] = 1
    new[0, 1:-1] = g[1:]
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
    last = zip((sden * mu % p).tolist(), p.tolist())               # 0 on a dead prime: stays 0
    inverse = np.array([pow(v, -1, q) if v else 0 for v, q in last], dtype=np.int64)
    y = new[1, :n + 1] * (snum * inverse % p) % p
    return y, alive, (n1, 2 * n + 1 - n0)

