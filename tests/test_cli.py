"""End-to-end command-line behavior: files written, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import padelab
from padelab import cli
from padelab.cli import ENV_MAX_N, main
from padelab.errors import ConvergenceError, NumericalError
from padelab.linalg import svd
from padelab.rational import qc
from padelab.series import load_series


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


def test_generate_gammel_family():
    assert run("generate", "--family", "gammel", "--alphas", "1,2",
               "--poles", "1/2,1/3", "--out", "g.json") == 0
    s = load_series("g.json")
    assert len(s.coeffs) == 7
    assert s.meta.family == "gammel"
    assert s.meta.alphas is not None and len(s.meta.alphas) == 2


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


# ---------------------------------------------------------------------------
# scan


def test_scan_writes_table(capsys):
    assert run("scan", "--k-max", "3", "--points", "1/4,9/10",
               "--out", "t.json") == 0
    assert "2 rows, 2 exact pole hits" in capsys.readouterr().out
    doc = json.loads(open("t.json").read())
    assert doc["scheme"] == "harmonic_repeated" and doc["exact"] is True
    assert [row["k"] for row in doc["rows"]] == [2, 3]
    assert all(row["error_at_zk"] == "inf" for row in doc["rows"])


def test_scan_float_mode():
    assert run("scan", "--k-max", "2", "--float", "--out", "t.json") == 0
    doc = json.loads(open("t.json").read())
    assert doc["exact"] is False
    assert doc["rows"][0]["error_at_zk"] == "inf"


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


def test_verify_leaves_mpmath_unimported(tmp_path):
    src = Path(padelab.__file__).resolve().parent.parent
    code = ("import sys, padelab\n"
            "from padelab.cli import main\n"
            "assert main(['verify', '--k-range', '2..3', '--out', 'v.json']) == 0\n"
            "print('mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_help_and_bad_arguments_exit_codes(capsys):
    assert run("--help") == 0
    assert run("frobnicate") == 2
    assert run("approximate", "--series", "s.json") == 2    # missing --n
    capsys.readouterr()


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
