"""Tests of the benchmark itself: failure accounting, span arithmetic, seeding.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

from padelab import cli  # noqa: E402


class TamperingCli:
    """Runs the real CLI, then lets `tamper(text, pass_no)` rewrite the output."""

    def __init__(self, tamper):
        self.tamper = tamper
        self.calls = 0

    def main(self, argv):
        rc = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(self.tamper(out.read_text(), self.calls), encoding="utf-8")
        self.calls += 1
        return rc


def _series_op(tmp_path, k_max: int, n: int, extra: list, check: dict) -> dict:
    from padelab.series import PoleSequence, build_counterexample_series, save_series

    series = tmp_path / "s.json"
    save_series(build_counterexample_series(k_max, PoleSequence.harmonic(k_max)), series)
    out = tmp_path / "a.json"
    return {"argv": ["approximate", "--series", str(series), "--n", str(n)] + extra
            + ["--out", str(out)],
            "out": str(out), "check": dict(check, series=str(series), n=n)}


def _verify_op(tmp_path) -> dict:
    out = tmp_path / "v.json"
    return {"argv": ["verify", "--k-range", "2..2", "--exact-up-to", "2", "--poles=1/4",
                     "--out", str(out)],
            "out": str(out),
            "check": {"kind": "verify", "format": "json", "k_lo": 2, "poles": ["1/4"]}}


def _exact_op(tmp_path) -> dict:
    return _series_op(tmp_path, 3, 6, ["--exact"],
                      {"kind": "exact", "expect_b": [["1", "0"], ["-5", "0"]],
                       "nullspace_dim": 1})


def _float_op(tmp_path) -> dict:
    return _series_op(tmp_path, 3, 6, ["--mode", "robust"],
                      {"kind": "float", "expect_b": ["1", "-5"], "reduced_to": None})


def _passes(op, tamper, count=2) -> run.Runner:
    runner = run.Runner([op], TamperingCli(tamper))
    for _ in range(count):
        runner.run_pass()
    return runner


def _perturb_b1(text: str, _pass_no: int) -> str:
    doc = json.loads(text)
    re_part = doc["b"][1][0]
    doc["b"][1][0] = (str(Fraction(re_part) + Fraction(1, 10**6)) if isinstance(re_part, str)
                      else re_part * (1 + 1e-6))
    return json.dumps(doc)


@pytest.mark.parametrize("make_op", [_verify_op, _exact_op, _float_op])
def test_untouched_outputs_pass(tmp_path, make_op):
    runner = _passes(make_op(tmp_path), lambda text, _: text)
    assert (runner.attempted, runner.failed) == (2, 0), runner.problems


def test_wrong_passed_raises_fail_ratio(tmp_path):
    def flip(text, _):
        assert '"passed": true' in text
        return text.replace('"passed": true', '"passed": false')

    runner = _passes(_verify_op(tmp_path), flip)
    assert runner.failed == runner.attempted == 2


@pytest.mark.parametrize("make_op", [_exact_op, _float_op])
def test_perturbed_denominator_raises_fail_ratio(tmp_path, make_op):
    runner = _passes(make_op(tmp_path), _perturb_b1)
    assert runner.failed == runner.attempted == 2
    assert any("b " in p or "(B b)" in p for p in runner.problems), runner.problems


def test_nondeterministic_output_counts_as_failure(tmp_path):
    runner = _passes(_verify_op(tmp_path), lambda text, i: text + " " * i, count=3)
    assert (runner.attempted, runner.failed) == (3, 2)


def test_nonzero_exit_counts_as_failure(tmp_path):
    op = _verify_op(tmp_path)
    op["argv"][2] = "9..2"                       # empty range: exit code 2
    runner = run.Runner([op], cli)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_nested_spans():
    # root 0..10 with children a (footprint 0.9..4.1) and b (5..6.5);
    # a has child c (footprint 1.9..3.2)
    spans = [
        Span(0, None, "cli.main", enter=0.0, start=0.0, end=10.0, exit=10.0),
        Span(1, 0, "pade.classical_pade", enter=0.9, start=1.0, end=4.0, exit=4.1),
        Span(2, 1, "linalg.svd", enter=1.9, start=2.0, end=3.0, exit=3.2,
             counts={"n": 6, "key": b"x", "sweeps": 3}),
        Span(3, 0, "toeplitz.build_pair", enter=5.0, start=5.0, end=6.5, exit=6.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.2 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.3)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    m = layer_metrics(spans)
    assert m["linalg.svd.self_s.n6"] == pytest.approx(1.0)
    assert m["linalg.svd.calls"] == 1 and m["linalg.svd.sweeps"] == 3
    assert m["linalg.svd.unique_ratio"] == 1.0
    assert m["analysis.find_poles.calls"] == 0


def test_tracer_wraps_call_sites_and_restores_them(tmp_path):
    import padelab.analysis
    import padelab.linalg
    import padelab.pade

    op = _float_op(tmp_path)
    original = padelab.linalg.svd
    tracer = Tracer()
    tracer.install()
    try:
        assert padelab.pade.svd is not original and padelab.analysis.svd is not original
        assert cli.main(op["argv"]) == 0
    finally:
        tracer.uninstall()
    assert padelab.pade.svd is original and padelab.analysis.svd is original
    spans = tracer.take()
    by_name = {s.name: s for s in spans}
    assert by_name["cli.main"].parent is None
    assert spans[by_name["linalg.svd"].parent].name == "pade.robust_pade"
    m = layer_metrics(spans)
    assert m["pade.robust_pade.svd_per_call"] == 1.0
    total = by_name["cli.main"].end - by_name["cli.main"].start
    # self times cover the whole call except the tracer's own bookkeeping
    assert 0.8 * total <= sum(self_times(spans).values()) <= total


# ---------------------------------------------------------------------------
# seeded inputs


def _shape(obj):
    """The plan with every sign dropped: magnitudes, orders and sizes only."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_shape(v) for v in obj]
    if isinstance(obj, str):
        return re.sub(r"(^|[=,])-(?=\d)", r"\1", obj)
    return abs(obj) if isinstance(obj, (int, float)) else obj


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_change_signs_only(workload):
    plans = [inputs.plan(workload, seed) for seed in range(1, 6)]
    assert all(_shape(p) == _shape(plans[0]) for p in plans)
    assert any(p != plans[0] for p in plans)


@pytest.mark.parametrize("workload", ["approx-float", "exact-general"])
def test_seeded_series_have_equal_magnitudes(workload):
    from padelab.rational import to_complex

    def magnitudes(seed):
        series, _ = inputs.plan(workload, seed)
        return {name: [abs(to_complex(c)) for c in inputs._build(spec).coeffs]
                for name, spec in series.items()}

    first = magnitudes(1)
    for seed in (2, 3):
        other = magnitudes(seed)
        for name in first:
            assert other[name] == pytest.approx(first[name], rel=1e-12)


def test_timing_summary_tail_percentile():
    summary = run.timing_summary([float(i) for i in range(1, 21)])
    assert summary["n"] == 20 and summary["median"] == 10.5
    assert summary["p50"] == 10.0                 # ten samples (11..20) lie beyond it
    assert "p0" not in run.timing_summary([1.0] * 10)


# ---------------------------------------------------------------------------
# the result contract


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(monkeypatch, capsys, trace, section):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", "scan", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {d["name"]: d["unit"] for d in declared})


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
