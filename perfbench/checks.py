"""Semantic checks of `pade-lab` outputs.

Each check reads an output's bytes and returns a list of problems (empty
when the output is right).  The checks re-derive what the counterexample
family fixes, from the series files and the seeded poles, with plain
`fractions`/`json` arithmetic and without calling padelab.  They never
compare against golden bytes, so formatting changes such as a trailing
newline or an added certificate block do not count as failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

FLOAT_B_TOL = 1e-8           # relative, against 1 - z/z_k
FLOAT_RESIDUAL_TOL = 1e-12   # order residual, relative to its largest term
PROBE_Q_TOL = 1e-9           # relative, |q(p)| against |1 - p/z_k|
VERIFY_CSV_HEADER = ["k", "n", "sigma1", "sigman", "ratio", "S", "S_limit", "q_match",
                     "p_at_zk_re", "p_at_zk_im", "pass"]


def _gauss(pair) -> tuple:
    return (Fraction(pair[0]), Fraction(pair[1]))


def _gmul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    if not b and not d:
        return (a * c, Fraction(0))
    return (a * c - b * d, a * d + b * c)


def _gadd(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def _series_coeffs(path: str) -> list:
    """Exact coefficients of a series file as (re, im) Fraction pairs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [_gauss(c) for c in doc["c"]]


def _block_pole(k: int, scheme: str) -> Fraction:
    """z_k of the scan's named pole scheme (harmonic or harmonic-repeated)."""
    if scheme == "harmonic":
        return Fraction(1, k + 2)
    seq = []
    group = 1
    while len(seq) < k - 1:
        seq.extend(Fraction(1, m + 3) for m in range(1, group + 1))
        group += 1
    return seq[k - 2]


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------------------
# verify


def check_verify(data: bytes, spec: dict) -> list:
    poles = [Fraction(z) for z in spec["poles"]]
    ks = list(range(spec["k_lo"], spec["k_lo"] + len(poles)))
    problems = []
    if spec["format"] == "csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or rows[0] != VERIFY_CSV_HEADER:
            return ["verify csv: unexpected header"]
        blocks = [dict(zip(VERIFY_CSV_HEADER, r)) for r in rows[1:] if r]
        passed = [b["pass"] == "1" for b in blocks]
        p_re = [float(b["p_at_zk_re"]) for b in blocks]
        ratio = [float(b["ratio"]) for b in blocks]
    else:
        blocks = json.loads(data)
        passed = [b["passed"] is True for b in blocks]
        p_re = [float(b["p_at_zk"][0]) for b in blocks]
        ratio = [float(b["sigma_ratio"]) for b in blocks]
        for b in blocks:
            # the oracle runs on every block with n <= 16, i.e. k <= 4
            if int(b["k"]) <= 4 and b["oracle_agrees"] is not True:
                problems.append(f"verify k={b['k']}: oracle_agrees is {b['oracle_agrees']}")
    if [int(b["k"]) for b in blocks] != ks:
        return problems + [f"verify: blocks {[b['k'] for b in blocks]}, expected {ks}"]
    for i, (k, z) in enumerate(zip(ks, poles)):
        n = 2 ** k - 2
        if int(blocks[i]["n"]) != n:
            problems.append(f"verify k={k}: n = {blocks[i]['n']}, expected {n}")
        if not passed[i]:
            problems.append(f"verify k={k}: block not passed")
        if not ratio[i] < 5.0:
            problems.append(f"verify k={k}: sigma ratio {ratio[i]} not below 5")
        p_expected = float(16 ** k * z ** (2 * n))
        if not _close(p_re[i], p_expected, 1e-8):
            problems.append(f"verify k={k}: p(z_k) = {p_re[i]}, expected {p_expected}")
    return problems


# ---------------------------------------------------------------------------
# scan


def check_scan(data: bytes, spec: dict) -> list:
    doc = json.loads(data)
    points = [Fraction(p) for p in spec["points"]]
    ks = list(range(2, spec["k_max"] + 1))
    rows = doc["rows"]
    if [r["k"] for r in rows] != ks:
        return [f"scan: rows {[r['k'] for r in rows]}, expected {ks}"]
    problems = []
    for row in rows:
        k = row["k"]
        z = _block_pole(k, spec["scheme"].replace("_", "-"))
        if not _close(row["z_k"][0], float(z), 1e-15) or row["z_k"][1] != 0:
            problems.append(f"scan k={k}: z_k = {row['z_k']}, expected {z}")
        if row["error_at_zk"] != "inf" or row["abs_q_at_zk"] != 0:
            problems.append(f"scan k={k}: no exact pole hit at z_k")
        if len(row["extras"]) != len(points):
            problems.append(f"scan k={k}: {len(row['extras'])} probe results")
            continue
        for p, extra in zip(points, row["extras"]):
            # the family fixes q = 1 - z/z_k, so |q(p)| and the hit are known
            q_expected = float(abs(1 - p / z))
            if not abs(extra["abs_q"] - q_expected) <= PROBE_Q_TOL * max(1.0, q_expected):
                problems.append(f"scan k={k} p={p}: |q| = {extra['abs_q']}, "
                                f"expected {q_expected}")
            hit = extra["error"] == "inf"
            if hit != (p == z):
                problems.append(f"scan k={k} p={p}: error {extra['error']}")
            elif not hit and not (isinstance(extra["error"], float)
                                  and math.isfinite(extra["error"])):
                problems.append(f"scan k={k} p={p}: error {extra['error']!r}")
    return problems


# ---------------------------------------------------------------------------
# approximants


def check_exact(data: bytes, spec: dict) -> list:
    """B b = 0 and a = A b by exact substitution, plus the family's fixed b."""
    doc = json.loads(data)
    n = spec["n"]
    a = [_gauss(x) for x in doc["a"]]
    b = [_gauss(x) for x in doc["b"]]
    if doc["exact"] is not True or doc["requested_n"] != n or len(a) != n + 1 or len(b) != n + 1:
        return [f"exact n={n}: wrong shape or route"]
    c = _series_coeffs(spec["series"])
    zero = (Fraction(0), Fraction(0))
    problems = []
    if b[0] != (1, 0):
        problems.append(f"exact n={n}: b_0 = {b[0]}, expected 1")
    for i in range(n):
        acc = zero
        for j in range(n + 1):
            if b[j] != zero:
                acc = _gadd(acc, _gmul(c[n + 1 + i - j], b[j]))
        if acc != zero:
            problems.append(f"exact n={n}: (B b)_{i} != 0")
            break
    for i in range(n + 1):
        acc = zero
        for j in range(i + 1):
            if b[j] != zero:
                acc = _gadd(acc, _gmul(c[i - j], b[j]))
        if acc != a[i]:
            problems.append(f"exact n={n}: a_{i} != (A b)_{i}")
            break
    if spec["expect_b"] is not None:
        expect = [_gauss(x) for x in spec["expect_b"]]
        if b != expect + [zero] * (n + 1 - len(expect)):
            problems.append(f"exact n={n}: b is not (1, -1/z, 0, ...)")
    if doc["diagnostics"]["nullspace_dim"] != spec["nullspace_dim"]:
        problems.append(f"exact n={n}: nullspace_dim {doc['diagnostics']['nullspace_dim']}, "
                        f"expected {spec['nullspace_dim']}")
    return problems


def check_float(data: bytes, spec: dict) -> list:
    """b against 1 - z/z_k (or the reduced form) and a small order residual."""
    doc = json.loads(data)
    n = spec["n"]
    a = [complex(x[0], x[1]) for x in doc["a"]]
    b = [complex(x[0], x[1]) for x in doc["b"]]
    problems = []
    reductions = doc["diagnostics"]["reductions"]
    nu = n if spec["reduced_to"] is None else spec["reduced_to"]
    if spec["reduced_to"] is None and reductions:
        problems.append(f"float n={n}: unexpected reductions {reductions}")
    if spec["reduced_to"] is not None and (not reductions
                                           or reductions[-1]["nu_to"] != nu):
        problems.append(f"float n={n}: reductions {reductions}, expected to reach {nu}")
    if len(b) != nu + 1 or len(a) != nu + 1:
        return problems + [f"float n={n}: {len(a)}/{len(b)} coefficients, expected {nu + 1}"]
    expect = [complex(float(Fraction(e)), 0.0) for e in spec["expect_b"]]
    expect += [0j] * (nu + 1 - len(expect))
    scale = max(1.0, max(abs(e) for e in expect))
    dev = max(abs(x - e) for x, e in zip(b, expect))
    if not dev <= FLOAT_B_TOL * scale:
        problems.append(f"float n={n}: b deviates from the expected denominator by {dev:.3e}")
    c = [complex(float(re), float(im)) for re, im in _series_coeffs(spec["series"])]
    # a - f b through z^(2 nu), against the largest term that enters it:
    # per-row ratios would flag rows whose exact terms cancel to ~0
    residual = scale_terms = 0.0
    for i in range(2 * nu + 1):
        acc = a[i] if i <= nu else 0j
        size = abs(acc)
        for j in range(min(i, nu) + 1):
            term = c[i - j] * b[j]
            acc -= term
            size += abs(term)
        residual = max(residual, abs(acc))
        scale_terms = max(scale_terms, size)
    if not residual <= FLOAT_RESIDUAL_TOL * scale_terms:
        problems.append(f"float n={n}: relative order residual "
                        f"{residual / scale_terms:.3e}")
    return problems


CHECKS = {
    "verify": check_verify,
    "scan": check_scan,
    "exact": check_exact,
    "float": check_float,
}


def check(data: bytes, spec: dict) -> list:
    """Problems found in one output; a parse failure is a problem too."""
    try:
        return CHECKS[spec["kind"]](data, spec)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"{spec['kind']}: unreadable output ({type(exc).__name__}: {exc})"]
