"""Command-line driver: exit codes, file outputs, provenance sidecars."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trawlkit.cli import main

SIM_SPEC = {
    "trawl": {"family": "exponential", "rate": 1.0},
    "seed_spec": {"family": "poisson", "rate": 1.0},
    "n": 512,
    "delta": 0.1,
    "seed": 7,
}


@pytest.fixture
def sim_spec_file(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(SIM_SPEC))
    return f


def _simulate(tmp_path, sim_spec_file, out_name="path.csv", extra=()):
    out = tmp_path / out_name
    code = main(["simulate", "--spec", str(sim_spec_file), "--out", str(out), *extra])
    assert code == 0
    return out


def test_simulate_writes_csv_and_sidecar(tmp_path, sim_spec_file):
    out = _simulate(tmp_path, sim_spec_file)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "x"]
    assert len(rows) == SIM_SPEC["n"] + 2
    sidecar = json.loads((tmp_path / "path.csv.provenance.json").read_text())
    assert sidecar["command"] == "simulate"
    assert sidecar["spec"]["simulator"] == "auto"
    assert "config_hash" in sidecar and "version" in sidecar


def test_simulate_deterministic(tmp_path, sim_spec_file):
    a = _simulate(tmp_path, sim_spec_file, "a.csv")
    b = _simulate(tmp_path, sim_spec_file, "b.csv")
    assert a.read_text() == b.read_text()
    c = _simulate(tmp_path, sim_spec_file, "c.csv", extra=["--seed", "8"])
    assert a.read_text() != c.read_text()


def test_simulate_flag_overrides(tmp_path, sim_spec_file):
    out = tmp_path / "short.csv"
    assert main(["simulate", "--spec", str(sim_spec_file), "--n", "16", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 18


def test_simulate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SIM_SPEC, "trawl": {"family": "nope"}}))
    assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["simulate", "--spec", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 2
    assert main(["simulate", "--spec", str(bad), "--method", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    bad.write_text(json.dumps({**SIM_SPEC, "simulator": "bogus"}))
    assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    bad.write_text(json.dumps({**SIM_SPEC, "horizon": 5}))
    assert main(["simulate", "--spec", str(bad), "--method", "slices-exact", "--out", str(tmp_path / "x.csv")]) == 2
    # Unknown keys are rejected by name instead of silently ignored.
    for key, value in (("horizon", "exact"), ("simualtor", "points")):
        bad.write_text(json.dumps({**SIM_SPEC, key: value}))
        capsys.readouterr()
        assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_method_recorded_and_replayed(tmp_path, sim_spec_file):
    """The sidecar's spec names the simulator, so replaying it reproduces the path."""
    out = _simulate(tmp_path, sim_spec_file, "exact.csv", extra=["--n", "64", "--method", "slices-exact"])
    spec = json.loads((tmp_path / "exact.csv.provenance.json").read_text())["spec"]
    assert spec["simulator"] == "slices-exact"
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(spec))
    assert _simulate(tmp_path, replay, "again.csv").read_text() == out.read_text()
    assert _simulate(tmp_path, sim_spec_file, "auto.csv", extra=["--n", "64"]).read_text() != out.read_text()


def test_estimate_pipeline(tmp_path, sim_spec_file):
    path_csv = _simulate(tmp_path, sim_spec_file)
    est_csv = tmp_path / "ahat.csv"
    fun_csv = tmp_path / "functionals.csv"
    code = main(
        [
            "estimate",
            "--input",
            str(path_csv),
            "--out",
            str(est_csv),
            "--functionals-out",
            str(fun_csv),
            "--g",
            "square",
            "--t-grid",
            "0.5,1.0",
        ]
    )
    assert code == 0
    rows = list(csv.reader(est_csv.open()))
    assert rows[0] == ["lag_time", "a_hat"]
    assert len(rows) == SIM_SPEC["n"] + 1
    # a_hat(0) should be near a(0) = 1 on a decent path
    assert abs(float(rows[1][1]) - 1.0) < 0.5
    frows = list(csv.reader(fun_csv.open()))
    assert frows[0] == ["t", "psi_n", "lambda_n", "lambda_bar_n"]
    assert len(frows) == 3
    assert (tmp_path / "ahat.csv.provenance.json").exists()


def test_estimate_head_count_just_below_an_integer(tmp_path, sim_spec_file):
    # 0.3 / 0.1 = 2.9999999999999996 but lambda_bar_n counts 3 head lags; the
    # window is round(0.09375 * 256^0.625) = 3, so no windowed sum exists.
    path_csv = _simulate(tmp_path, sim_spec_file, extra=["--n", "256"])
    fun_csv = tmp_path / "functionals.csv"
    code = main(
        [
            "estimate",
            "--input",
            str(path_csv),
            "--delta",
            "0.1",
            "--out",
            str(tmp_path / "ahat.csv"),
            "--functionals-out",
            str(fun_csv),
            "--t-grid",
            "0.3,0.4",
            "--theta",
            "0.09375",
        ]
    )
    assert code == 0
    rows = list(csv.reader(fun_csv.open()))
    assert [row[3] for row in rows[1:]] == ["nan", "nan"]


def test_estimate_methods_agree(tmp_path, sim_spec_file):
    path_csv = _simulate(tmp_path, sim_spec_file)
    outs = []
    for method in ("fft", "naive"):
        out = tmp_path / f"est_{method}.csv"
        assert main(["estimate", "--input", str(path_csv), "--method", method, "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))[1:]
        outs.append(np.array([float(r[1]) for r in rows]))
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-10)


def test_estimate_bad_g(tmp_path, sim_spec_file):
    path_csv = _simulate(tmp_path, sim_spec_file)
    code = main(
        [
            "estimate",
            "--input",
            str(path_csv),
            "--out",
            str(tmp_path / "e.csv"),
            "--functionals-out",
            str(tmp_path / "f.csv"),
            "--g",
            "cubic",
        ]
    )
    assert code == 2


def test_tdep_stdout_and_file(tmp_path, sim_spec_file, capsys):
    path_csv = _simulate(tmp_path, sim_spec_file)
    assert main(["tdep", "--input", str(path_csv), "--T", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"tau", "scaled", "T", "p"} <= set(payload)
    out = tmp_path / "report.json"
    assert main(["tdep", "--input", str(path_csv), "--T", "1.0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["T"] == 1.0


def test_tdep_advisory_flag(tmp_path, sim_spec_file, capsys):
    path_csv = _simulate(tmp_path, sim_spec_file)
    assert main(["tdep", "--input", str(path_csv), "--T", "1.0", "--p", "2.0"]) == 0
    assert json.loads(capsys.readouterr().out)["p_below_clt_threshold"] is True


def test_tdep_horizon_error(tmp_path, sim_spec_file):
    path_csv = _simulate(tmp_path, sim_spec_file)
    assert main(["tdep", "--input", str(path_csv), "--T", "1000.0"]) == 2


def test_mc_subcommand(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps(
            {
                "trawl": {"family": "exponential", "rate": 1.0},
                "seed_spec": {"family": "poisson", "rate": 1.0},
                "theorem": "T3",
                "t": 0.0,
                "n_grid": [256],
                "replications": 10,
            }
        )
    )
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert "256" in summary["summaries"]
    raw = (tmp_path / "result.json.raw.csv").read_text().splitlines()
    assert raw[0] == "n,rep,stat" and len(raw) == 11
    assert (tmp_path / "result.json.provenance.json").exists()


def test_mc_bundled_experiment(tmp_path):
    """The shipped tail-sum experiment shows the factor-2 bias."""
    exp = Path(__file__).resolve().parent.parent / "experiments" / "theorem3.json"
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    mean = summary["summaries"]["4096"]["mean"]
    assert abs(mean - 1.0) < abs(mean - 0.5)


def test_mc_unknown_theorem(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps(
            {
                "trawl": {"family": "exponential", "rate": 1.0},
                "seed_spec": {"family": "poisson", "rate": 1.0},
                "theorem": "T9",
                "n_grid": [64],
                "replications": 2,
            }
        )
    )
    assert main(["mc", "--experiment", str(exp), "--out", str(tmp_path / "o.json")]) == 2


def test_kernels_subcommand(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "kernels",
            "--trawl",
            json.dumps({"family": "exponential", "rate": 1.0}),
            "--k4",
            "1.0",
            "--what",
            "sigma_a",
            "--lo",
            "0.0",
            "--hi",
            "1.0",
            "--points",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["s", "r", "value"]
    origin = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert abs(float(origin[0][2]) - 1.0) < 1e-6  # Sigma_a(0,0) = k4 for this family


def test_usage_errors():
    assert main([]) == 2
    assert main(["simulate"]) == 2  # missing --out
    assert main(["frobnicate"]) == 2


def test_console_entry_point(tmp_path, sim_spec_file):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trawlkit.cli", "simulate", "--spec", str(sim_spec_file), "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()
