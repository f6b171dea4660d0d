"""Exact nullspace vector of a large integral n x (n+1) system, many primes at once.

The multi-modular method (Cabay, *Exact solution of linear equations*,
1971): the integral vector of maximal minors is found modulo enough
word-size primes to cover its Hadamard bound and recombined by the
Chinese remainder theorem.  The O(n^3) elimination runs on int64
residues, vectorized over a chunk of primes, so no step touches a big
integer; the CRT, the exact check B y = 0 and the normalization are the
only big-integer work.  `linalg.exact_nullspace` calls :func:`nullspace`
for every real n x (n+1) system before it falls back to Bareiss.
"""

from __future__ import annotations

import math
import operator
from functools import cache

import numpy as np

from .rational import scaled_to_first

_WORD_PRIME_TOP = 1 << 31     # products of two residues stay below 2^62: int64-safe
_WORD_PRIME_SPAN = 1 << 16    # the list holds every prime in [2^31 - span, 2^31)
_PRIME_CHUNK = 16             # primes eliminated together: 0.2 MB of residues at n = 38
_ROW_BLOCK = 8                # rows updated per elimination call: bounds the temporary array


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


def _hadamard_bound(rows: list) -> int:
    """Product of the row norms rounded up: bounds every maximal minor (0 on a zero row)."""
    bound = 1
    for row in rows:
        norm2 = sum(v * v for v in row)
        if not norm2:
            return 0
        bound *= math.isqrt(norm2 - 1) + 1
    return bound


def nullspace(rows: list) -> tuple | None:
    """Proved nullspace vector of integral n x (n+1) rows, or None.

    The integral vector of maximal minors, y_j = (-1)^j det(B without
    column j), spans the nullspace when the rank is n, and each |y_j|
    is at most H, the Hadamard bound.  Word-size primes are taken from
    a fixed list until their product exceeds 2H; for each, y mod p
    comes from one elimination (:func:`_chunk_minors`), run on many
    primes at once in int64 arrays.  A prime whose rank drops is
    dropped.  The CRT in the symmetric range then gives y exactly; no
    rational reconstruction is needed.  The vector is returned only if
    the exact check B y = 0 holds, normalized so its first nonzero
    entry is 1.  Returns None when the bound outgrows the prime list,
    more primes are dropped than kept (as for rank below n), or the
    check fails; the caller then falls back to Bareiss.
    """
    n = len(rows)
    bound = 2 * _hadamard_bound(rows)
    primes = _word_primes()
    # every prime exceeds 2^30; the bound also caps the entries, so fewer
    # than 2^16 limbs each and the limb sums in _chunk_minors fit in int64
    if not bound or bound.bit_length() >= 30 * len(primes):
        return None
    flat = [v for row in rows for v in row]
    width = max(1, (max(abs(v).bit_length() for v in flat) + 15) // 16)
    data = b"".join(abs(v).to_bytes(2 * width, "little") for v in flat)
    limbs = np.frombuffer(data, dtype="<u2").reshape(n, n + 1, width)
    signs = np.array([-1 if v < 0 else 1 for v in flat], dtype=np.int64).reshape(n, n + 1, 1)
    moduli: list[int] = []
    images: list[np.ndarray] = []
    modulus = 1
    start = 0
    while modulus <= bound:
        stop, grown = start, modulus
        while grown <= bound and stop - start < _PRIME_CHUNK and stop < len(primes):
            grown *= int(primes[stop])
            stop += 1
        if stop == start:
            return None
        minors, alive = _chunk_minors(limbs, signs, primes[start:stop])
        kept = primes[start:stop][alive].tolist()
        moduli += kept
        modulus *= math.prod(kept)
        images.append(minors[:, alive])
        if stop - len(moduli) > len(moduli):    # more primes dropped than kept
            return None
        start = stop
    half = modulus >> 1
    weights = []
    for q in moduli:
        rest = modulus // q
        weights.append(rest * pow(rest % q, -1, q))
    y = []
    for residues in np.concatenate(images, axis=1):
        v = sum(map(operator.mul, weights, residues.tolist())) % modulus
        y.append(v - modulus if v > half else v)
    if not any(y) or any(sum(map(operator.mul, row, y)) for row in rows):
        return None
    return scaled_to_first(y)


def _chunk_minors(limbs: np.ndarray, signs: np.ndarray,
                  p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minor vector y mod each prime of `p`: ((n+1, P) residues, P rank-n flags).

    Entries arrive as 16-bit limbs and reduce through a table of
    2^(16k) mod p.  The work array is (row, column, prime) with signed
    residues, |r| < p.  Each prime picks its own pivot row
    (:func:`_choose_pivots`); the pivot row is never normalized
    (r_i <- s r_i - f r_c, one fmod per step).  A column without a
    pivot is traded for the spare column n.  The spare then holds a
    column that is zero from that row down, so a second trade finds no
    pivot either: rank < n mod p.  After one batched inversion of the
    pivots, back substitution gives the null vector with its spare entry
    scaled to det of the square part, which is y up to one sign shared
    by every prime.
    """
    n, m = limbs.shape[:2]
    nprimes = len(p)
    powers = np.empty((limbs.shape[2], nprimes), dtype=np.int64)
    powers[0] = 1
    for k in range(1, len(powers)):
        np.fmod(powers[k - 1] << 16, p, out=powers[k])
    w = np.empty((n, m, nprimes), dtype=np.int64)
    for i in range(n):                      # row by row: no int64 copy of every limb
        np.matmul(limbs[i], powers, out=w[i])
    np.fmod(w, p, out=w)
    w *= signs
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


def _power_mod(base: np.ndarray, exps: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base ** exps mod p by square and multiply, exponents per prime (last axis)."""
    out = np.ones_like(base)
    for bit in range(int(exps.max()).bit_length()):
        out = np.where((exps >> bit) & 1 == 1, np.fmod(out * base, p), out)
        base = np.fmod(base * base, p)
    return out
