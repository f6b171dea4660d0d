"""End-to-end command-line behavior: files written, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import padelab
from padelab import cli
from padelab._jsonfmt import dumps, record
from padelab.analysis import (
    CounterexampleReport,
    PoleInfo,
    PoleReport,
    SpuriousPole,
    divergence_scan,
)
from padelab.cli import ENV_MAX_N, main
from padelab.errors import ConvergenceError, NumericalError
from padelab.linalg import svd
from padelab.pade import Diagnostics, PadeApproximant
from padelab.rational import qc
from padelab.series import (
    PoleSequence,
    PowerSeries,
    build_counterexample_series,
    load_series,
    save_series,
)


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_MAX_N, raising=False)
    return tmp_path


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# generate


def test_generate_block2_explicit_pole(capsys):
    assert run("generate", "--k-max", "2", "--poles", "1/4", "--out", "s.json") == 0
    out = capsys.readouterr().out
    assert "s.json" in out and "5 coefficients" in out
    s = load_series("s.json")
    assert s.exact
    assert s.coeffs == (qc(1), qc(256), qc(16), qc(64), qc(256))
    assert s.meta.family == "counterexample" and s.meta.k_max == 2


def test_generate_harmonic_default_poles():
    assert run("generate", "--k-max", "4", "--out", "s.json") == 0
    s = load_series("s.json")
    assert len(s.coeffs) == 29
    assert s.meta.poles is not None
    assert [str(z.re) for z in s.meta.poles.points] == ["1/4", "1/5", "1/6"]


def test_harmonic_poles_are_tagged_harmonic():
    # in a generated file, and as the scheme of a scan given the poles
    # themselves; a file with the older explicit_list tag still loads
    assert run("generate", "--k-max", "3", "--out", "s.json") == 0
    doc = json.loads(Path("s.json").read_text())
    assert doc["meta"]["pole_scheme"] == "harmonic"
    assert load_series("s.json").meta.poles.generator_tag == "harmonic"
    doc["meta"]["pole_scheme"] = "explicit_list"
    Path("old.json").write_text(json.dumps(doc))
    assert load_series("old.json").meta.poles.points == PoleSequence.harmonic(3).points
    assert divergence_scan(3, poles=PoleSequence.harmonic(3)).scheme == "harmonic"


# sizes compared exactly: a probe point whose double rounds to |z| = 1, and a
# pole whose double is the largest below 1/3, lie inside their bounds
@pytest.mark.parametrize("argv", [
    ("scan", "--k-max", "2", "--points", "99999999999999999999/100000000000000000000"),
    ("verify", "--k-range", "2..3", "--poles", "0.3333333333333333j,1/5"),
])
def test_sizes_just_inside_a_bound_are_accepted(argv):
    assert run(*argv, "--out", "a.json") == 0
    if argv[0] == "verify":
        assert [block["passed"] for block in json.loads(Path("a.json").read_text())] == [True] * 2


def test_generate_gammel_family():
    assert run("generate", "--family", "gammel", "--alphas", "1,2",
               "--poles", "1/2,1/3", "--out", "g.json") == 0
    s = load_series("g.json")
    assert len(s.coeffs) == 7
    assert s.meta.family == "gammel"
    assert s.meta.alphas is not None and len(s.meta.alphas) == 2


@pytest.mark.parametrize("alphas, poles", [("1/4,1/16", "0.5j,1/3"),
                                           ("0.25j,1/16", "1/2,1/3")])
def test_generate_gammel_mixing_float_and_exact_values_writes_a_float_file(alphas, poles):
    assert run("generate", "--family", "gammel", "--alphas", alphas,
               "--poles", poles, "--out", "g.json") == 0
    doc = json.loads(Path("g.json").read_text())
    assert doc["exact"] is False and len(doc["c"]) == 7
    # a float file writes JSON numbers, an exact one rational strings
    assert not any(isinstance(part, str) for pair in doc["c"] for part in pair)
    assert load_series("g.json").exact is False


# SHA-256 of the series files these generate commands write, recorded before
# the exact families were walked on Gaussian integers; the k = 7 file was
# pinned again when harmonic poles took the pole_scheme "harmonic" in place of
# "explicit_list", the one change in its bytes
GENERATE_SHA256 = [
    (("--k-max", "7"),
     "6b9bc752f047185612e7d701199c1fa45b902bc09be90580e2757ea9848a7f0b"),
    (("--family", "gammel", "--alphas", "1/4,1/16,0,0", "--poles", "1/2,1/3,1/4,1/5"),
     "dd6f141b912e134f649c912f6839c35a7fe999dd2ab2548f57cd15dee5df6c48"),
]


@pytest.mark.parametrize("argv, digest", GENERATE_SHA256, ids=["counterexample-k7", "gammel"])
def test_generate_writes_pinned_bytes(argv, digest):
    assert run("generate", *argv, "--out", "s.json") == 0
    assert hashlib.sha256(Path("s.json").read_bytes()).hexdigest() == digest


# a dash-led value given as its own argument, after any option, reads as
# its '=' form
@pytest.mark.parametrize("argv, option, value", [
    (("generate", "--k-max", "3"), "--poles", "-1/4,1/5"),
    (("scan", "--k-max", "3"), "--points", "-1/4"),
    (("generate", "--family", "gammel", "--poles", "1/2,1/3"), "--alphas", "-1,2"),
])
def test_negative_value_may_follow_its_option(argv, option, value):
    assert run(*argv, option, value, "--out", "a.json") == 0
    assert run(*argv, f"{option}={value}", "--out", "b.json") == 0
    assert Path("a.json").read_bytes() == Path("b.json").read_bytes()


def test_generate_usage_failures(capsys):
    assert run("generate", "--family", "gammel", "--out", "g.json") == 2
    assert "--alphas" in capsys.readouterr().err
    assert run("generate", "--family", "gammel", "--alphas", "1,2",
               "--poles", "harmonic", "--out", "g.json") == 2
    assert "explicit" in capsys.readouterr().err
    # 0.4 lies outside the |z| < 1/3 admissibility region of the family
    assert run("generate", "--k-max", "2", "--poles", "0.4", "--out", "s.json") == 2
    assert "1/3" in capsys.readouterr().err
    assert run("generate", "--k-max", "1", "--out", "s.json") == 2


def test_order_cap_env(capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "5")
    assert run("generate", "--k-max", "4", "--out", "s.json") == 2
    err = capsys.readouterr().err
    assert "14" in err and ENV_MAX_N in err
    monkeypatch.setenv(ENV_MAX_N, "14")
    assert run("generate", "--k-max", "4", "--out", "s.json") == 0
    monkeypatch.setenv(ENV_MAX_N, "abc")
    assert run("generate", "--k-max", "2", "--out", "s.json") == 2
    assert "not an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approximate


def _make_series(path="s.json", k_max=2):
    assert run("generate", "--k-max", str(k_max), "--out", path) == 0
    return path


def test_approximate_single_order(capsys):
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2",
               "--out", "r.json") == 0
    assert "classical mode" in capsys.readouterr().out
    doc = json.loads(open("r.json").read())
    assert doc["mode"] == "classical" and doc["requested_n"] == 2
    assert doc["b"][0] == [1.0, 0.0]
    assert abs(doc["b"][1][0] + 4.0) < 1e-10
    assert doc["diagnostics"]["ratio"] < 5


def test_approximate_exact_flag_writes_rational_strings():
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--exact",
               "--out", "r.json") == 0
    doc = json.loads(open("r.json").read())
    assert doc["exact"] is True
    assert doc["b"] == [["1", "0"], ["-4", "0"], ["0", "0"]]
    assert doc["a"] == [["1", "0"], ["252", "0"], ["-1008", "0"]]


@pytest.mark.parametrize("n", [2, 6, 14])
def test_approximate_exact_reads_a_float_file_as_the_doubles_it_stores(n):
    # poles 2^-2, 2^-3, 2^-4 given as doubles make a float file whose values
    # are exactly the rationals of the exact file, so the exact route writes
    # the same bytes for both
    save_series(build_counterexample_series(4, PoleSequence.explicit([0.25, 0.125, 0.0625])),
                "f.json")
    assert run("generate", "--k-max", "4", "--poles", "1/4,1/8,1/16", "--out", "e.json") == 0
    assert json.loads(Path("f.json").read_text())["exact"] is False
    for name in ("f", "e"):
        assert run("approximate", "--series", f"{name}.json", "--n", str(n), "--exact",
                   "--analyze", "--out", f"{name}-a.json") == 0
    assert Path("f-a.json").read_bytes() == Path("e-a.json").read_bytes()


def _unlimited_str(x):
    """str(x) with Python's int <-> str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_generate_writes_rationals_beyond_the_int_str_digit_limit():
    # c_510's denominator (10^9 + 7)^510 has 4,591 digits, past the 4,300
    # that str() and int() accept by default
    denominators = (4, 5, 6, 7, 8, 9, 10, 10 ** 9 + 7)
    poles = ",".join(f"1/{d}" for d in denominators)
    assert run("generate", "--k-max", "9", "--poles", poles, "--out", "big9.json") == 0
    expected = build_counterexample_series(
        9, PoleSequence.explicit([Fraction(1, d) for d in denominators]))
    assert len(_unlimited_str(expected.coeffs[510].re.denominator)) == 4591
    assert load_series("big9.json") == expected
    assert run("approximate", "--series", "big9.json", "--n", "2", "--exact",
               "--out", "r.json") == 0


def test_exact_approximant_beyond_the_int_str_digit_limit_round_trips():
    # c = (1, 1, 10^-4400): at n = 1, b = (1, -10^-4400) and a = (1, 1 - 10^-4400),
    # parts with 4,401-digit denominators
    tiny = Fraction(1, 10 ** 4400)
    save_series(PowerSeries.from_coefficients([1, 1, tiny]), "s.json")
    assert load_series("s.json").coeffs == (qc(1), qc(1), qc(tiny))
    assert run("approximate", "--series", "s.json", "--n", "1", "--exact",
               "--out", "r.json") == 0
    doc = json.loads(open("r.json").read())
    assert doc["b"] == [["1", "0"], [_unlimited_str(-tiny), "0"]]
    assert doc["a"] == [["1", "0"], [_unlimited_str(1 - tiny), "0"]]
    Path("b.json").write_text(json.dumps({"c": doc["b"], "exact": True, "radius_hint": 1.0}))
    assert load_series("b.json").coeffs == (qc(1), qc(-tiny))


def test_cli_reads_literals_beyond_the_int_str_digit_limit():
    # 10^5000 has 5,001 digits, past the 4,300 that int() accepts by default
    big = "1" + "0" * 5000
    assert run("generate", "--family", "gammel", "--alphas", f"{big},1/16",
               "--poles", "1/2,1/3", "--out", "g.json") == 0
    s = load_series("g.json")
    assert s.exact and s.meta.alphas == (qc(10 ** 5000), qc(Fraction(1, 16)))
    assert cli._parse_number("1/" + big) == Fraction(1, 10 ** 5000)


def test_approximate_order_range_writes_array():
    path = _make_series()
    assert run("approximate", "--series", path, "--n-range", "0..2",
               "--out", "r.json") == 0
    docs = json.loads(open("r.json").read())
    assert isinstance(docs, list) and len(docs) == 3
    assert [d["requested_n"] for d in docs] == [0, 1, 2]


def test_approximate_analyze_appends_pole_report():
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--analyze",
               "--radius", "0.9", "--out", "r.json") == 0
    doc = json.loads(open("r.json").read())
    report = doc["pole_report"]
    assert report["radius_hint"] == 0.9
    assert len(report["poles"]) == 1
    assert abs(report["poles"][0]["location"][0] - 0.25) < 1e-8
    assert len(report["spurious"]) == 1


def test_approximate_robust_mode():
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--mode", "robust",
               "--tol", "1e-10", "--out", "r.json") == 0
    doc = json.loads(open("r.json").read())
    assert doc["mode"] == "robust"
    assert doc["diagnostics"]["threshold_used"] == 1e-10
    assert doc["diagnostics"]["reductions"] == []


def test_approximate_usage_failures(capsys):
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--mode", "robust",
               "--exact", "--out", "r.json") == 2
    assert "classical" in capsys.readouterr().err
    assert run("approximate", "--series", "nowhere.json", "--n", "2",
               "--out", "r.json") == 2
    assert "nowhere.json" in capsys.readouterr().err
    assert run("approximate", "--series", path, "--n", "2", "--mode", "robust",
               "--tol", "2.0", "--out", "r.json") == 2
    assert run("approximate", "--series", path, "--n", "9",
               "--out", "r.json") == 2   # series too short -> usage error
    capsys.readouterr()


@pytest.mark.parametrize("env, k_max, argv, message", [
    # the cap applies to the top of the range, not the first order past it
    ("2", 3, ("--n-range", "1..3"), "system order 3 exceeds the cap 2"),
    # --analyze settings, NaN included, with the messages find_poles gives
    (None, 2, ("--n", "2", "--exact", "--analyze", "--radius", "nan"),
     "radius_hint must be positive"),
    (None, 2, ("--n", "2", "--analyze", "--delta-doublet", "0"),
     "delta_doublet must be positive"),
    (None, 2, ("--n", "2", "--analyze", "--tol-spurious", "nan"),
     "tol_spurious must be positive"),
    # a series too short for the top order (5 coefficients, 7 needed)
    (None, 2, ("--n-range", "1..3"), "need 7 coefficients, series provides 5"),
])
def test_approximate_usage_errors_stop_before_any_approximant(capsys, monkeypatch, env,
                                                              k_max, argv, message):
    path = _make_series(k_max=k_max)
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv(ENV_MAX_N, env)

    def no_work(*args, **kwargs):
        raise AssertionError("an approximant was computed")

    monkeypatch.setattr(padelab.pade, "classical_pade", no_work)
    assert run("approximate", "--series", path, *argv, "--out", "r.json") == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not Path("r.json").exists()


def test_approximate_rejects_an_infinite_radius_hint(capsys):
    # 1/(1 - z/2): with radius_hint 1e999 (read as inf) the pole at z = 2
    # would lie "inside" and be reported as spurious
    coeffs = ", ".join(f'["1/{2 ** j}", "0"]' for j in range(5))
    Path("g.json").write_text('{"c": [%s], "exact": true, "radius_hint": 1e999}' % coeffs)
    assert run("approximate", "--series", "g.json", "--n", "2", "--mode", "robust",
               "--analyze", "--out", "r.json") == 2
    assert "g.json: field 'radius_hint' must be a finite positive number" in \
        capsys.readouterr().err
    assert not Path("r.json").exists()


@pytest.mark.parametrize("flag", ["--radius", "--delta-doublet", "--tol-spurious"])
def test_approximate_rejects_an_infinite_analysis_setting(capsys, flag):
    # 1/(1 - z/2) with a finite file radius_hint: --radius inf would put
    # the pole at z = 2 "inside" and report it as spurious
    coeffs = ", ".join(f'["1/{2 ** j}", "0"]' for j in range(5))
    Path("g.json").write_text('{"c": [%s], "exact": true, "radius_hint": 1.0}' % coeffs)
    assert run("approximate", "--series", "g.json", "--n", "2", "--mode", "robust",
               "--analyze", flag, "inf", "--out", "r.json") == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not Path("r.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_json_default_out(capsys):
    assert run("verify", "--k-range", "2..3", "--exact-up-to", "2") == 0
    out = capsys.readouterr().out
    assert "verify.json" in out and "all passed" in out
    docs = json.loads(open("verify.json").read())
    assert [d["k"] for d in docs] == [2, 3]
    assert docs[0]["exact"] is True and docs[1]["exact"] is False
    assert all(d["passed"] for d in docs)


def test_verify_csv_format():
    assert run("verify", "--k-range", "2..3", "--format", "csv",
               "--out", "v.csv") == 0
    lines = open("v.csv").read().splitlines()
    assert lines[0] == "k,n,sigma1,sigman,ratio,S,S_limit,q_match,p_at_zk_re,p_at_zk_im,pass"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",1")
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "2"
    assert float(first[4]) < 5


def test_verify_summary_names_uncertified_numerators(capsys):
    assert run("verify", "--k-range", "3..5") == 0
    out = capsys.readouterr().out
    assert "k = 3, 4, 5" in out and "--exact-up-to 5" in out
    assert [b["p_ok"] for b in json.loads(Path("verify.json").read_text())] == [None, None, None]
    assert run("verify", "--k-range", "3..5", "--exact-up-to", "5") == 0
    assert capsys.readouterr().out == "wrote verify.json (3 blocks, all passed)\n"


def test_verify_summary_names_no_rerun_that_float_poles_refuse(capsys):
    # the exact route refuses a float pole, so the summary names no rerun
    assert run("verify", "--k-range", "4..4", "--poles", "1/4,1/5,0.125j") == 0
    out = capsys.readouterr().out
    assert out == ("wrote verify.json (1 blocks, all passed; p(z_k) not certified for k = 4 "
                   "(the float tolerance cannot tell it from 0), certifying it needs rational "
                   "poles)\n")
    assert run("verify", "--k-range", "4..4", "--poles", "1/4,1/5,0.125j",
               "--exact-up-to", "4") == 2
    assert "exact verification requires exact pole locations" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan


def test_scan_writes_table(capsys):
    # the complex point 0.5j is scanned at the dyadic rational its double
    # stores, on the one exact route
    assert run("scan", "--k-max", "3", "--points", "1/4,9/10,0.5j",
               "--out", "t.json") == 0
    assert capsys.readouterr().out == "wrote t.json (2 rows, 2 exact pole hits)\n"
    doc = json.loads(open("t.json").read())
    assert doc["scheme"] == "harmonic_repeated" and doc["exact"] is True
    assert [row["k"] for row in doc["rows"]] == [2, 3]
    assert all(row["error_at_zk"] == "inf" for row in doc["rows"])
    assert doc["points"][2] == [0.0, 0.5]
    assert all(0 < row["extras"][2]["error"] < 1e3 for row in doc["rows"])


def test_scan_probe_errors_say_when_the_tail_of_f_could_hide_them(tail_partial_sum):
    # against f itself, |f - r_n| is only known up to the tail the k_max = 7
    # truncation omits: T(1/4) ~ 2.7e-143, T(9/10) ~ 0.13, T(99/100) ~ 2.1e11
    assert run("scan", "--k-max", "7", "--points", "1/4,9/10,99/100,1/3",
               "--out", "t.json") == 0
    rows = {row["k"]: row["extras"] for row in json.loads(Path("t.json").read_text())["rows"]}
    # the errors at 1/3 for k = 5, 6, 7 lie far below the double rounding of
    # f(1/3) and r_n(1/3), and are kept
    for k, error in ((5, 2.3e-22), (6, 9.0e-52), (7, 3.1e-112)):
        assert error * 0.99 < rows[k][3]["error"] < error * 1.01
    quarter, outer, edge, _ = rows[7]
    assert outer["error"] < 1e-3 < 0.13 < outer["tail_bound"] < 0.14
    assert outer["error_undetermined"] is True
    assert quarter["error"] < quarter["tail_bound"] < 2.8e-143
    assert quarter["error_undetermined"] is True
    # at 99/100 the terms still grow at j = 253; the bound is T summed exactly
    partial = tail_partial_sum(Fraction(99, 100), 253, 8000)
    assert partial <= Fraction(edge["tail_bound"]) <= partial * (1 + Fraction(1, 10 ** 12))
    assert edge["error"] < edge["tail_bound"] and edge["error_undetermined"] is True
    k4_quarter = rows[4][0]
    assert 8e-12 < k4_quarter["error"] < 8.3e-12
    assert k4_quarter["error_undetermined"] is False
    assert rows[2][0]["error"] == "inf" and rows[2][0]["error_undetermined"] is False


# ---------------------------------------------------------------------------
# result encoding: every file lists its result's dataclass fields in order

# exact outputs, whose floats come from exact values (no LAPACK in them)
EXACT_APPROXIMANT_K2 = """\
{
  "a": [
    ["1", "0"],
    ["252", "0"],
    ["-1008", "0"]
  ],
  "b": [
    ["1", "0"],
    ["-4", "0"],
    ["0", "0"]
  ],
  "mode": "classical",
  "requested_n": 2,
  "effective_degrees": [2, 1],
  "exact": true,
  "diagnostics": {
    "sigmas": null,
    "ratio": null,
    "threshold_used": null,
    "reductions": [],
    "b0_degenerate": false,
    "fully_reduced": false,
    "nullspace_dim": 1
  }
}
"""

EXACT_SCAN_K3 = """\
{
  "scheme": "harmonic_repeated",
  "k_max": 3,
  "exact": true,
  "points": [
    [0.25, 0],
    [0.90000000000000002, 0]
  ],
  "rows": [
    {
      "k": 2,
      "n": 2,
      "z_k": [0.25, 0],
      "abs_q_at_zk": 0,
      "error_at_zk": "inf",
      "extras": [
        {
          "point": [0.25, 0],
          "abs_q": 0,
          "error": "inf",
          "tail_bound": 0.001433186095855517,
          "error_undetermined": false
        },
        {
          "point": [0.90000000000000002, 0],
          "abs_q": 2.6000000000000001,
          "error": 4252.771383128551,
          "tail_bound": 2470985.8997060461,
          "error_undetermined": true
        }
      ]
    },
    {
      "k": 3,
      "n": 6,
      "z_k": [0.25, 0],
      "abs_q_at_zk": 0,
      "error_at_zk": "inf",
      "extras": [
        {
          "point": [0.25, 0],
          "abs_q": 0,
          "error": "inf",
          "tail_bound": 0.001433186095855517,
          "error_undetermined": false
        },
        {
          "point": [0.90000000000000002, 0],
          "abs_q": 2.6000000000000001,
          "error": 1601.7665281285513,
          "tail_bound": 2470985.8997060461,
          "error_undetermined": true
        }
      ]
    }
  ]
}
"""


def _field_names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def test_exact_outputs_are_pinned_byte_for_byte():
    path = _make_series()
    assert run("approximate", "--series", path, "--exact", "--n", "2",
               "--out", "a.json") == 0
    assert Path("a.json").read_bytes() == EXACT_APPROXIMANT_K2.encode()
    assert run("scan", "--k-max", "3", "--points", "1/4,9/10", "--out", "t.json") == 0
    assert Path("t.json").read_bytes() == EXACT_SCAN_K3.encode()
    # a scan op of the benchmark's size (161 lines), pinned by digest
    assert run("scan", "--k-max", "5", "--scheme", "harmonic",
               "--points=-1/4,9/10,-1/3,2/7", "--out", "t5.json") == 0
    assert hashlib.sha256(Path("t5.json").read_bytes()).hexdigest() == \
        "befee2c11849387f33f84e544d6228971566976c3702f1e8dfc9db57175b57a5"


@pytest.mark.parametrize("argv, digest", [
    (("--k-range", "2..6", "--exact-up-to", "4", "--out", "v.json"),
     "b80f13ac36e39a06ed6bc44d51885f4681b08568546dce88f488591fd3ee4cb4"),
    (("--k-range", "2..6", "--exact-up-to", "4", "--format", "csv", "--out", "v.csv"),
     "adc3b94c87ffac8eec8b6001133e4f0632513a432395815d4114c22089de79c0"),
    # a float pole among exact ones: the whole series, and each block, is float,
    # each coefficient and expected value the exact value of the doubles
    # given, rounded once; the sigma-ratio oracle brackets every block, each
    # stored double read as the dyadic rational it is
    (("--k-range", "2..4", "--poles", "1/4,0.2j,1/6", "--out", "v.json"),
     "5f2b32c30992e7bdaa188a122c6ae93b4999e803d88dd277775bf4aee70eeb61"),
], ids=["exact-json", "exact-csv", "float-pole-json"])
def test_verify_outputs_are_pinned_byte_for_byte(argv, digest):
    assert run("verify", *argv) == 0
    assert hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest() == digest


def test_float_outputs_list_dataclass_fields_in_order():
    assert run("verify", "--k-range", "2..3", "--exact-up-to", "2", "--out", "v.json") == 0
    for report in json.loads(Path("v.json").read_text()):
        assert list(report) == _field_names(CounterexampleReport)
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--mode", "robust",
               "--analyze", "--out", "a.json") == 0
    doc = json.loads(Path("a.json").read_text())
    assert list(doc) == _field_names(PadeApproximant) + ["pole_report"]
    assert list(doc["diagnostics"]) == _field_names(Diagnostics)
    report = doc["pole_report"]
    assert list(report) == _field_names(PoleReport)
    assert list(report["poles"][0]) == _field_names(PoleInfo)
    assert list(report["spurious"][0]) == _field_names(SpuriousPole)


def test_record_encodes_infinities_and_refuses_nan():
    inf = float("inf")
    value = record((inf, complex(-inf, 1.0), qc(Fraction(1, 3), -2), None, True, 7, "x"))
    assert value == ["inf", ["-inf", 1.0], ["1/3", "-2"], None, True, 7, "x"]
    with pytest.raises(ValueError):
        dumps(record(float("nan")))
    with pytest.raises(TypeError):
        record(Fraction(1, 3))


def test_dumps_layout_escapes_and_errors():
    class Name(str):
        pass

    class Count(int):
        pass

    doc = {"s": 'é "q"\\\n\t', Name("k"): [1, 2.5, None, True], "five": [1, 2, 3, 4, 5],
           "nested": [[], {}, ("x", False)], "sub": [Count(2), Name("n"), 0.5],
           "deep": {"a": {"b": [0.1]}}}
    assert dumps(doc) == (
        '{\n  "s": "\\u00e9 \\"q\\"\\\\\\n\\t",\n  "k": [1, 2.5, null, true],\n'
        '  "five": [\n    1,\n    2,\n    3,\n    4,\n    5\n  ],\n'
        '  "nested": [\n    [],\n    {},\n    ["x", false]\n  ],\n'
        '  "sub": [2, "n", 0.5],\n  "deep": {\n    "a": {\n      "b": [0.10000000000000001]\n    }\n  }\n}\n')
    assert dumps(doc["s"]) == json.dumps(doc["s"]) + "\n"
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps({"a": {1: 2}})
    with pytest.raises(ValueError, match="non-finite"):
        dumps([1, [float("nan")]])
    for bad in ([set()], {"a": 1j}):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps(bad)


# ---------------------------------------------------------------------------
# cross-cutting


def test_reruns_are_byte_identical():
    # the second case runs the LAPACK route at n = 62
    cases = ((_make_series(), ("--n", "2")),
             (_make_series("s6.json", k_max=6), ("--mode", "robust", "--n", "62")))
    for path, order in cases:
        assert run("approximate", "--series", path, *order, "--analyze",
                   "--out", "a.json") == 0
        first = open("a.json", "rb").read()
        assert run("approximate", "--series", path, *order, "--analyze",
                   "--out", "b.json") == 0
        assert open("b.json", "rb").read() == first


def test_json_outputs_end_in_one_newline():
    path = _make_series()
    assert run("approximate", "--series", path, "--n", "2", "--out", "a.json") == 0
    assert run("approximate", "--series", path, "--n-range", "1..2",
               "--out", "r.json") == 0
    assert run("verify", "--k-range", "2..2", "--out", "v.json") == 0
    assert run("scan", "--k-max", "2", "--out", "t.json") == 0
    for name in (path, "a.json", "r.json", "v.json", "t.json"):
        data = open(name, "rb").read()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), name
        json.loads(data)


def _fresh_process(code: str, cwd: Path) -> str:
    src = Path(padelab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_leaves_mpmath_unimported(tmp_path):
    code = ("import sys, padelab\n"
            "from padelab.cli import main\n"
            "assert main(['verify', '--k-range', '2..3', '--out', 'v.json']) == 0\n"
            "print('mpmath' in sys.modules)\n")
    assert _fresh_process(code, tmp_path).splitlines()[-1] == "False"


def test_series_layer_leaves_numpy_unimported(tmp_path):
    code = ("import sys, padelab.series\n"
            "print('numpy' in sys.modules)\n")
    assert _fresh_process(code, tmp_path).splitlines()[-1] == "False"


# series I/O and both generate families; run once with numpy blocked
NUMPY_FREE_WORK = """\
import padelab, padelab.rational, padelab.series
from padelab.cli import main
from padelab.series import load_series, save_series
assert main(["generate", "--k-max", "5", "--out", "ce.json"]) == 0
assert main(["generate", "--family", "gammel", "--alphas", "1/4,1/16,0,0",
             "--poles", "1/2,1/3,1/4,1/5", "--out", "gz.json"]) == 0
save_series(load_series("ce.json"), "ce2.json")
save_series(load_series("gz.json"), "gz2.json")
print(sys.modules.get("numpy") is not None)    # numpy loaded
"""


def test_series_io_and_generate_run_with_numpy_blocked(tmp_path):
    results = []
    for blocked in (True, False):
        work = tmp_path / ("blocked" if blocked else "open")
        work.mkdir()
        block = "sys.modules['numpy'] = None\n" if blocked else ""
        out = _fresh_process("import sys\n" + block + NUMPY_FREE_WORK, work)
        results.append((out, {f.name: f.read_bytes() for f in sorted(work.iterdir())}))
    (out_blocked, files_blocked), (out_open, files_open) = results
    assert out_open.splitlines()[-1] == "False"
    assert out_blocked == out_open
    assert files_blocked == files_open
    assert sorted(files_open) == ["ce.json", "ce2.json", "gz.json", "gz2.json"]


def test_import_loads_no_module_and_dir_lists_the_public_names(tmp_path):
    code = ("import sys, padelab\n"
            "print(sorted(m for m in sys.modules if m.startswith('padelab')))\n"
            "print(set(padelab.__all__) <= set(dir(padelab)))\n")
    assert _fresh_process(code, tmp_path).splitlines() == ["['padelab']", "True"]


def test_public_names_are_their_home_modules_objects():
    names = [n for n in padelab.__all__ if n != "__version__"]
    for name in names:
        obj = getattr(padelab, name)
        assert obj.__module__.startswith("padelab."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from padelab import *", namespace)
    assert all(namespace[name] is getattr(padelab, name) for name in padelab.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        padelab.nope


def test_module_run_writes_output(tmp_path):
    src = Path(padelab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "padelab.cli", "scan", "--k-max", "2",
                           "--out", "t.json"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "t.json").read_text())
    assert "RuntimeWarning" not in proc.stderr


def test_package_main_resolves_lazily_to_cli_main():
    assert padelab.main is cli.main
    assert "main" in padelab.__all__


def test_help_and_bad_arguments_exit_codes(capsys):
    assert run("--help") == 0
    assert run("frobnicate") == 2
    assert run("approximate", "--series", "s.json") == 2    # missing --n
    capsys.readouterr()


# every argument is parsed before any work starts: no series file exists
# here, and --alphas parses before the counterexample family refuses it
@pytest.mark.parametrize("argv, message", [
    (("approximate", "--series", "s.json", "--n", "-1"), "--n must be nonnegative"),
    (("approximate", "--series", "s.json", "--n-range", "3..1"), "empty --n-range '3..1'"),
    (("approximate", "--series", "s.json", "--n-range", "x"), "bad --n-range 'x'"),
    (("approximate", "--series", "s.json", "--n-range=-1..2"),
     "--n-range must be nonnegative"),
    (("verify", "--k-range", "2-x"), "bad --k-range '2-x'"),
    (("scan", "--k-max", "1"), "scan needs --k-max >= 2"),
    (("scan", "--k-max", "2", "--points", "1/0"), "cannot parse number '1/0'"),
    (("scan", "--k-max", "1", "--points", "1/0"), "cannot parse number '1/0'"),
    (("generate", "--k-max", "2", "--alphas", "1/0"), "cannot parse number '1/0'"),
    # a dash-led range value given as its own argument
    (("approximate", "--series", "s.json", "--n-range", "-1..2"),
     "--n-range must be nonnegative"),
    (("verify", "--k-range", "-1..2"), "counterexample blocks start at k = 2"),
    # ... after an abbreviated option name, which argparse accepts
    (("approximate", "--series", "s.json", "--n-r", "-1..2"),
     "--n-range must be nonnegative"),
    (("verify", "--k-ra", "-1..2"), "counterexample blocks start at k = 2"),
    # --tol is checked in every mode, before the series is read
    (("approximate", "--series", "s.json", "--n", "2", "--tol", "2"),
     "--tol must lie in (0, 1)"),
    (("approximate", "--series", "s.json", "--n", "2", "--mode", "robust", "--tol", "nan"),
     "--tol must lie in (0, 1)"),
    # a probe point outside radius_hint, after a complex one or not, even where
    # a part of q(p) would leave the double range; and an output that cannot
    # be written
    (("scan", "--k-max", "3", "--points", "1e400"), "|z| = inf outside radius_hint = 1.0"),
    (("scan", "--k-max", "3", "--points", "0.5j,1e400"),
     "|z| = inf outside radius_hint = 1.0"),
    (("scan", "--k-max", "3", "--points", "1e308"), "|z| = 1e+308 outside radius_hint = 1.0"),
    (("generate", "--k-max", "2", "--out", "missing/s.json"),
     "cannot write series file missing/s.json"),
    # a float Gammel series whose exact first block (alpha_1 = 10^400) it cannot round
    (("generate", "--family", "gammel", "--alphas", "1" + "0" * 400 + ",1/16",
      "--poles", "1/2,0.5j", "--out", "huge.json"),
     "error: a coefficient lies beyond the double range"),
    # an alpha of inf, and a float series whose true values leave the double range
    (("generate", "--family", "gammel", "--alphas", "inf,1/16", "--poles", "1/2,1/3",
      "--out", "inf.json"), "error: a float coefficient is infinite or NaN"),
    (("generate", "--family", "gammel", "--alphas", "1e300j,1",
      "--poles", "0.0000000001j,1/3", "--out", "nan.json"),
     "error: a coefficient lies beyond the double range"),
    # sizes on a bound, or not finite: an exact probe point of modulus 1, the
    # double just above 1/3 as a pole, and NaN or infinite points and poles
    (("scan", "--k-max", "2", "--points", "-1"), "|z| = 1.0 outside radius_hint = 1.0"),
    (("verify", "--k-range", "2..3", "--poles", "0.33333333333333337j,1/5"),
     "counterexample poles must satisfy 0 < |z_k| < 1/3"),
    (("scan", "--k-max", "2", "--points", "nan"),
     "|z| = nan outside radius_hint = 1.0"),
    (("scan", "--k-max", "2", "--points", "infj"),
     "|z| = inf outside radius_hint = 1.0"),
    (("verify", "--k-range", "2..3", "--poles", "nanj,1/5"),
     "pole z_2 = nanj outside the punctured unit disc"),
    (("generate", "--k-max", "3", "--poles", "1/4,inf"),
     "pole z_3 = (inf+0j) outside the punctured unit disc"),
    # a pole scheme only the scan's choices name, and one the gammel family cannot index
    (("scan", "--k-max", "3", "--scheme", "fibonacci"), "invalid choice: 'fibonacci'"),
    (("generate", "--family", "gammel", "--alphas", "1", "--poles", "harmonic"),
     "poles indexed from k = 1 take an explicit list, not a scheme name"),
    # a list value given empty is not an omitted one
    (("verify", "--k-range", "2..3", "--poles", ""), "empty number list ''"),
    (("generate", "--k-max", "3", "--poles", ""), "empty number list ''"),
    (("generate", "--k-max", "3", "--alphas", ""), "empty number list ''"),
    (("generate", "--family", "gammel", "--alphas", "1", "--poles", ""),
     "empty number list ''"),
    (("scan", "--k-max", "2", "--points", ""), "empty number list ''"),
    (("scan", "--k-max", "2", "--points", " "), "empty number list ' '"),
    # the one scan route has no float option
    (("scan", "--k-max", "2", "--float"), "unrecognized arguments: --float"),
    # an option the family does not read
    (("generate", "--family", "gammel", "--alphas", "1,1", "--poles", "1/2,1/3", "--k-max", "9"),
     "the gammel family does not read --k-max"),
    (("generate", "--k-max", "3", "--alphas", "1,2"),
     "the counterexample family does not read --alphas"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not list(Path().iterdir())      # nothing written


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(cfg):
        raise NumericalError("iteration stalled")

    monkeypatch.setitem(cli._DISPATCH, "scan", boom)
    assert run("scan", "--k-max", "2", "--out", "t.json") == 3
    assert "numerical failure: iteration stalled" in capsys.readouterr().err


def test_lapack_svd_failure_maps_to_exit_3(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = _make_series()
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceError):
        svd(np.eye(2))
    assert run("approximate", "--series", path, "--n", "2", "--out", "a.json") == 3
    assert "did not converge" in capsys.readouterr().err


def test_overflowed_spectrum_maps_to_exit_3(capsys):
    # finite coefficients whose 3 x 4 Toeplitz block has sigma_1 = inf
    coeffs = [[1.0, 0.0]] + [[1.5e308 * (-1) ** j, 0.0] for j in range(1, 7)]
    Path("big.json").write_text(json.dumps({"c": coeffs, "exact": False, "radius_hint": 1.0}))
    assert run("approximate", "--series", "big.json", "--n", "3", "--out", "a.json") == 3
    assert "numerical failure: sigma_1 = inf" in capsys.readouterr().err
    assert not Path("a.json").exists()


def _write_huge_component_series(path, exact):
    coeffs = [["1", "0"], ["1e400", "0"], ["1", "0"]]
    Path(path).write_text(json.dumps({"c": coeffs, "exact": exact, "radius_hint": 1.0}))


def test_float_file_component_beyond_double_range_exits_2(capsys):
    _write_huge_component_series("f.json", exact=False)
    assert run("approximate", "--series", "f.json", "--n", "1", "--out", "a.json") == 2
    assert "c[1]: component beyond the double range" in capsys.readouterr().err
    assert not Path("a.json").exists()


def test_exact_file_on_the_float_route_beyond_double_range_exits_3(capsys):
    _write_huge_component_series("e.json", exact=True)
    assert run("approximate", "--series", "e.json", "--n", "1", "--out", "a.json") == 3
    assert "numerical failure: a coefficient lies beyond the double range" in capsys.readouterr().err
    assert not Path("a.json").exists()


def test_exact_pole_analysis_beyond_double_range_exits_3(capsys):
    _write_huge_component_series("e.json", exact=True)
    assert run("approximate", "--series", "e.json", "--n", "1", "--exact",
               "--out", "a.json") == 0
    assert run("approximate", "--series", "e.json", "--n", "1", "--exact", "--analyze",
               "--out", "b.json") == 3
    assert ("numerical failure: an approximant coefficient lies beyond the double range"
            in capsys.readouterr().err)
    assert not Path("b.json").exists()
