"""Seeded inputs of the padelab benchmark.

`plan(workload, seed)` returns the workload's input series and its fixed
list of `pade-lab` invocations.  The seed flips signs (and, for complex
poles, quadrants) of poles and probe points; it never changes a
magnitude, an order or the number of invocations, so every seed asks
for the same amount of work.

Run as a script, this file is the benchmark's set-up step: it imports
padelab, writes the series files and an `ops.json` manifest into the
work directory, and exits.  `run.py` times that in a fresh process.

    python3 perfbench/inputs.py --workload scan --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "scan", "approx-float", "exact-general")

# Probe-point magnitudes of the scan workload.  1/4 recurs as a block
# pole, so some seeds probe a pole exactly and some probe its mirror.
SCAN_POINTS = (Fraction(1, 4), Fraction(9, 10), Fraction(1, 3), Fraction(2, 7))


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _rat(x) -> list:
    """A rational or Gaussian rational as the [re, im] string pair files use."""
    if isinstance(x, tuple):
        return [str(x[0]), str(x[1])]
    return [str(x), "0"]


# ---------------------------------------------------------------------------
# series the set-up step writes (pure data, no padelab objects)


def _counterexample(k_max: int, poles: list) -> dict:
    """Counterexample series spec; poles are z_2..z_kmax (rational or (re, im))."""
    return {"family": "counterexample", "k_max": k_max, "poles": [_rat(z) for z in poles]}


def _gammel(alphas: list, poles: list) -> dict:
    """Gammel series spec through j_max = 2^(len(alphas)+1) - 2."""
    return {"family": "gammel", "alphas": [str(a) for a in alphas],
            "poles": [_rat(z) for z in poles]}


def _geometric(w: tuple, terms: int, radius: float) -> dict:
    """Series of 1/(1 - z/w): c_j = w^-j, a rank-one Toeplitz family."""
    return {"family": "geometric", "w": _rat(w), "terms": terms, "radius_hint": radius}


# ---------------------------------------------------------------------------
# workload plans


def _plan_verify(rng: random.Random) -> tuple[dict, list]:
    # Blocks k = 2..3 keep one pass near a second; the sigma oracle is
    # still ~95% of it.  Block 4 would add ~22 s per invocation.
    ops = []
    for i in range(4):
        poles = [Fraction(_sign(rng), k + 2) for k in (2, 3)]
        fmt = "json" if i < 2 else "csv"
        exact_up_to = 3 if i % 2 == 0 else 0
        ops.append({
            "argv": ["verify", "--k-range", "2..3", "--exact-up-to", str(exact_up_to),
                     "--poles=" + ",".join(str(z) for z in poles),
                     "--format", fmt, "--out", f"out/verify{i}.{fmt}"],
            "check": {"kind": "verify", "format": fmt, "k_lo": 2,
                      "poles": [str(z) for z in poles]},
        })
    return {}, ops


def _plan_scan(rng: random.Random) -> tuple[dict, list]:
    # k_max = 5 puts Bareiss at n = 30; k_max = 6 (n = 62) costs ~11 s.
    ops = []
    for i in range(4):
        points = [m * _sign(rng) for m in SCAN_POINTS]
        scheme = "harmonic-repeated" if i % 2 == 0 else "harmonic"
        ops.append({
            "argv": ["scan", "--k-max", "5", "--scheme", scheme,
                     "--points=" + ",".join(str(p) for p in points),
                     "--out", f"out/scan{i}.json"],
            "check": {"kind": "scan", "k_max": 5, "scheme": scheme,
                      "points": [str(p) for p in points]},
        })
    return {}, ops


def _plan_approx_float(rng: random.Random) -> tuple[dict, list]:
    # n = 126 (2.7 s per Jacobi solve) is left out to keep passes short.
    ce_poles = [Fraction(_sign(rng), k + 2) for k in range(2, 8)]
    gz_poles = [Fraction(_sign(rng), k + 1) for k in range(1, 4)]
    series = {
        "ce7.json": _counterexample(7, ce_poles),
        # blocks 4..6 weigh zero: a degree-14 polynomial, so robust
        # reduces 62 -> 14 and lands on b = (1, 0, ..., 0)
        "gz.json": _gammel([1, 2, 4, 0, 0, 0], gz_poles),
    }
    ops = []
    for n, mode in ((14, "robust"), (30, "robust"), (62, "robust"), (62, "classical")):
        k = (n + 2).bit_length() - 1
        argv = ["approximate", "--series", "ce7.json", "--n", str(n), "--mode", mode]
        if mode == "robust":
            argv.append("--analyze")
        ops.append({
            "argv": argv + ["--out", f"out/ce7_{mode}_{n}.json"],
            "check": {"kind": "float", "series": "ce7.json", "n": n,
                      "expect_b": ["1", str(-1 / ce_poles[k - 2])], "reduced_to": None},
        })
    ops.append({
        "argv": ["approximate", "--series", "gz.json", "--n", "62", "--mode", "robust",
                 "--analyze", "--out", "out/gz_robust_62.json"],
        "check": {"kind": "float", "series": "gz.json", "n": 62,
                  "expect_b": ["1"], "reduced_to": 14},
    })
    return series, ops


def _plan_exact_general(rng: random.Random) -> tuple[dict, list]:
    # Sizes trimmed from n = 30 (complex poles, 2 s) so one pass stays
    # near a second; the three inputs still cover large outputs,
    # Gaussian-rational entries and a rank-deficient system.
    gx_poles = [Fraction(_sign(rng), k + 1) for k in range(1, 7)]
    cx_poles = [(Fraction(_sign(rng), k + 6), Fraction(_sign(rng), k + 6)) for k in range(2, 5)]
    w = (Fraction(27 * _sign(rng), 50), Fraction(36 * _sign(rng), 50))    # |w| = 9/10
    series = {
        "gx.json": _gammel([Fraction(1, 4 ** (k * k)) for k in range(1, 7)], gx_poles),
        "cx.json": _counterexample(4, cx_poles),
        "rf.json": _geometric(w, 127, 0.9),
    }
    zc = cx_poles[-1]
    ops = [
        {"argv": ["approximate", "--series", "gx.json", "--n", "38", "--exact",
                  "--out", "out/gx_exact_38.json"],
         "check": {"kind": "exact", "series": "gx.json", "n": 38, "expect_b": None,
                   "nullspace_dim": 1}},
        {"argv": ["approximate", "--series", "cx.json", "--n", "14", "--exact",
                  "--out", "out/cx_exact_14.json"],
         "check": {"kind": "exact", "series": "cx.json", "n": 14,
                   "expect_b": [_rat(Fraction(1)), _rat(_neg_inverse(zc))],
                   "nullspace_dim": 1}},
        {"argv": ["approximate", "--series", "rf.json", "--n", "62", "--exact",
                  "--out", "out/rf_exact_62.json"],
         "check": {"kind": "exact", "series": "rf.json", "n": 62,
                   "expect_b": [_rat(Fraction(1)), _rat(_neg_inverse(w))],
                   "nullspace_dim": 62}},
    ]
    return series, ops


def _neg_inverse(z: tuple) -> tuple:
    re, im = z
    d = re * re + im * im
    return (-re / d, im / d)


_PLANS = {
    "verify": _plan_verify,
    "scan": _plan_scan,
    "approx-float": _plan_approx_float,
    "exact-general": _plan_exact_general,
}


def plan(workload: str, seed: int) -> tuple[dict, list]:
    """(series specs by file name, op list) for one workload and seed."""
    return _PLANS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# set-up step


def _build(spec: dict):
    """padelab PowerSeries for one series spec."""
    from padelab.rational import QC
    from padelab.series import (
        GammelParams,
        PoleSequence,
        PowerSeries,
        build_counterexample_series,
        build_gammel_series,
    )

    def qc(pair):
        return QC(Fraction(pair[0]), Fraction(pair[1]))

    if spec["family"] == "counterexample":
        poles = PoleSequence.explicit([qc(z) for z in spec["poles"]])
        return build_counterexample_series(spec["k_max"], poles)
    if spec["family"] == "gammel":
        alphas = tuple(Fraction(a) for a in spec["alphas"])
        poles = PoleSequence.explicit([qc(z) for z in spec["poles"]], start_index=1)
        return build_gammel_series(GammelParams(alphas=alphas, poles=poles),
                                   2 ** (len(alphas) + 1) - 2)
    w_inv = 1 / qc(spec["w"])
    coeffs = [w_inv ** j for j in range(spec["terms"])]
    return PowerSeries.from_coefficients(coeffs, radius_hint=spec["radius_hint"])


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the series files and the absolute-path op manifest `ops.json`."""
    from padelab.series import save_series

    series, ops = plan(workload, seed)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for name, spec in series.items():
        save_series(_build(spec), workdir / name)
    for op in ops:
        argv = op["argv"]
        for i in range(1, len(argv)):
            if argv[i - 1] in ("--series", "--out"):
                argv[i] = str(workdir / argv[i])
        op["out"] = argv[argv.index("--out") + 1]
        if "series" in op["check"]:
            op["check"]["series"] = str(workdir / op["check"]["series"])
    (workdir / "ops.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    write_inputs(args.workload, args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
