"""padelab benchmark: whole `pade-lab` runs, end to end and layer by layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One client drives `padelab.cli.main(argv)` in this process as a closed
loop: each workload is a fixed list of invocations (one pass), and the
next invocation starts when the previous one returns.  Set-up writes the
seeded input files in fresh processes (see `inputs.py`); one untimed
warm-up pass follows; then passes repeat for `--seconds`.  Every output
is checked semantically (`checks.py`) and must match the warm-up pass
byte for byte.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports per-layer metrics from the spans
(`spans.py`).  The last line of stdout is the JSON result; the lines
before it give the environment, the run-time quartiles and the failure
ratio.  See README.md in this directory for the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from checks import check  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


# ---------------------------------------------------------------------------
# one pass of a workload


class Runner:
    """Runs a workload's op list and counts failed operations.

    The first pass is the reference: its outputs are checked
    semantically, and every later output must equal it byte for byte
    (the package's determinism contract).  An operation fails on a
    nonzero exit, an exception, a failed check or a byte mismatch.
    """

    def __init__(self, ops: list, cli):
        self.ops = ops
        self.cli = cli
        self.reference: list | None = None
        self.reference_ok: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, argv: list) -> int:
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                return self.cli.main(list(argv))
        except Exception:                        # noqa: BLE001 - counted as a failed op
            self.problems.append(traceback.format_exc(limit=3))
            return -1

    def run_pass(self) -> tuple:
        """(wall seconds, CPU seconds, bytes written) of one pass."""
        outputs = []
        t0 = time.perf_counter()
        c0 = time.process_time()
        for op in self.ops:
            rc = self._call(op["argv"])
            try:
                data = Path(op["out"]).read_bytes() if rc == 0 else None
            except OSError:
                data = None
            outputs.append((rc, data))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self._account(outputs)
        return wall, cpu, sum(len(d) for _, d in outputs if d is not None)

    def _account(self, outputs: list) -> None:
        if self.reference is None:
            self.reference = [data for _, data in outputs]
            for op, (rc, data) in zip(self.ops, outputs):
                found = [f"exit code {rc}"] if data is None else check(data, op["check"])
                self.problems += [f"{op['argv'][0]} {op['out']}: {p}" for p in found]
                self.reference_ok.append(not found)
        for i, (rc, data) in enumerate(outputs):
            self.attempted += 1
            if not self.reference_ok[i]:
                self.failed += 1
            elif data != self.reference[i]:
                self.failed += 1
                self.problems.append(f"{self.ops[i]['out']}: output differs between passes")


# ---------------------------------------------------------------------------
# measurement


def time_setup(workload: str, seed: int, workdir: Path) -> list:
    """Wall time of each fresh-process set-up (import padelab, write inputs)."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def measure(runner: Runner, seconds: float) -> list:
    """Untraced passes for `seconds`; returns their (wall, cpu, bytes)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(runner.run_pass())
    return samples


def measure_traced(runner: Runner, seconds: float) -> tuple:
    """Alternating untraced and traced passes for `seconds`.

    Returns (untraced samples, traced samples, per-pass layer metrics).
    """
    untraced, traced, layers = [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            sample = runner.run_pass()
        finally:
            tracer.uninstall()
        spans = tracer.take()
        traced.append(sample)
        row = layer_metrics(spans)
        row["cli.bytes_written"] = sample[2]
        row["trace.self_total_s"] = sum(v for k, v in row.items() if k.endswith(".self_s"))
        layers.append(row)
    return untraced, traced, layers


def timing_summary(values: list) -> dict:
    """Median, quartiles, sample count and the highest percentile with >= 10 beyond."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) / n:.0f}"] = vals[n - 11]
    return out


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "within_nproc": blas is None or blas <= nproc,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or ".self_s" in name:
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_call"):
        return "1/call"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, in turn, with one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}.{name}": m for name, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padelab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "padelab" / "cli.py").is_file():
        print(f"error: no padelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from padelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: padelab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = time_setup(args.workload, args.seed, workdir)
        env = environment(args.seed)
        ops = json.loads((workdir / "ops.json").read_text(encoding="utf-8"))
        runner = Runner(ops, cli)
        runner.run_pass()                       # warm-up: reference outputs
        if args.trace:
            untraced, traced, layers = measure_traced(runner, args.seconds)
        else:
            samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()                        # left in place while other runs use it
        except OSError:
            pass

    print(json.dumps({"env": env, "workload": args.workload, "trace": args.trace}))
    for p in runner.problems[:20]:
        print(f"FAILED {p}")
    fail_ratio = runner.failed / runner.attempted
    print(f"fail_ratio {fail_ratio:.6g} ratio ({runner.failed}/{runner.attempted} operations)")
    if args.trace:
        run_untraced = statistics.median([w for w, _, _ in untraced])
        run_traced = statistics.median([w for w, _, _ in traced])
        metrics = {}
        for name in layers[0]:
            metrics[name] = _metric(statistics.median([row[name] for row in layers]), _layer_unit(name))
        metrics["trace.run_s"] = _metric(run_traced, "s")
        metrics["trace.untraced_run_s"] = _metric(run_untraced, "s")
        metrics["trace.overhead_s"] = _metric(run_traced - run_untraced, "s")
    else:
        walls = [w for w, _, _ in samples]
        print("run_s " + json.dumps(timing_summary(walls)) + " s")
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "run_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median([c for _, c, _ in samples]), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
