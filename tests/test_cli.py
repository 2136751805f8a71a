"""Command-line driver: exit codes, file outputs, provenance sidecars."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trawlkit.cli import main

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

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


def test_simulate_bad_config(tmp_path, capsys, sim_spec_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SIM_SPEC, "trawl": {"family": "nope"}}))
    assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["simulate", "--spec", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 2
    assert main(["simulate", "--spec", str(bad), "--method", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    for name in ("bogus", "slices"):  # no name selects the truncated slice sampler
        bad.write_text(json.dumps({**SIM_SPEC, "simulator": name}))
        assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--spec", str(sim_spec_file), "--method", name, "--out", str(tmp_path / "x.csv")]) == 2
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


@pytest.mark.parametrize(
    "seed_spec,method,message",
    [
        ({"family": "gaussian", "mean": 0.0, "var": 1.0}, "points", "requires a Poisson or Gamma seed"),
        ({"family": "poisson", "rate": 1.0}, "circulant", "requires a Gaussian seed"),
    ],
)
def test_simulate_seed_simulator_mismatch(tmp_path, capsys, seed_spec, method, message):
    """A simulator that cannot sample the spec's seed is a config error."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SIM_SPEC, "seed_spec": seed_spec}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", str(spec), "--method", method, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theorem", ["T1", "T5", "T6"])
@pytest.mark.parametrize(
    "seed_spec",
    [
        {"family": "gaussian", "mean": 0.0, "var": 2.0},
        {"family": "poisson", "rate": 2.0},
        {"family": "gamma", "shape": 2.0, "scale": 0.5},
    ],
    ids=lambda d: d["family"],
)
def test_mc_rejects_a_seed_with_kappa2_other_than_one(tmp_path, capsys, seed_spec, theorem):
    """Such a run once centred on a target a_hat does not estimate and
    exited 0; it is a config error that names kappa2, and writes nothing."""
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({**json.loads((EXPERIMENTS / "theorem5.json").read_text()),
                               "theorem": theorem, "seed_spec": seed_spec}))
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out)]) == 2
    assert "kappa2" in capsys.readouterr().err
    assert not out.exists()


def test_mc_c1_runs_with_a_seed_of_any_kappa2(tmp_path):
    exp = tmp_path / "exp.json"
    cfg = json.loads((EXPERIMENTS / "corollary1_null.json").read_text())
    exp.write_text(json.dumps({**cfg, "seed_spec": {"family": "poisson", "rate": 2.0}, "replications": 4}))
    assert main(["mc", "--experiment", str(exp), "--out", str(tmp_path / "result.json")]) == 0


def test_simulate_gaussian_auto_is_circulant(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SIM_SPEC, "seed_spec": {"family": "gaussian", "mean": 0.0, "var": 1.0}}))
    auto = _simulate(tmp_path, spec, "auto.csv")
    assert _simulate(tmp_path, spec, "circulant.csv", extra=["--method", "circulant"]).read_text() == auto.read_text()


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


def test_estimate_has_no_method_option(tmp_path, sim_spec_file):
    """The naive O(n^2) estimator is a test oracle, not a CLI choice."""
    path_csv = _simulate(tmp_path, sim_spec_file)
    out = tmp_path / "e.csv"
    assert main(["estimate", "--input", str(path_csv), "--method", "naive", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [("estimate", []), ("tdep", ["--T", "1.0"])])
def test_one_row_two_column_csv_is_a_usage_error(tmp_path, capsys, command, extra):
    one = tmp_path / "one.csv"
    one.write_text("t,x\n0,1\n")
    assert main([command, "--input", str(one), "--out", str(tmp_path / "o"), *extra]) == 2
    assert "at least two rows" in capsys.readouterr().err


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


@pytest.mark.parametrize("command,extra", [("estimate", []), ("tdep", ["--T", "1.0"])])
def test_delta_disagreeing_with_the_time_column_is_a_usage_error(tmp_path, capsys, command, extra):
    two = tmp_path / "two.csv"
    two.write_text("t,x\n" + "".join(f"{0.2 * k!r},{x}\n" for k, x in enumerate([1.0, 2.0, 3.5, 0.5, 1.5, 2.5] * 2)))
    out = tmp_path / "o"
    assert main([command, "--input", str(two), "--delta", "0.1", "--out", str(out), *extra]) == 2
    assert "disagrees with the time step" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--input", str(two), "--delta", "0.2", "--out", str(out), *extra]) == 0


def test_mc_rejects_threads_below_one(tmp_path, capsys):
    exp = EXPERIMENTS / "theorem3.json"
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out), "--threads", "-3"]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_corrupt_rows_after_the_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\nfoo,bar\nbaz,qux\n0,1\n0.1,2\n0.2,3\n0.3,4\n")
    out = tmp_path / "ahat.csv"
    assert main(["estimate", "--input", str(bad), "--out", str(out)]) == 2
    assert "non-numeric row 2" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_nan_in_the_time_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n0.0,1.0\n0.1,2.0\nnan,3.5\n0.3,0.5\n0.4,1.5\n")
    out = tmp_path / "ahat.csv"
    assert main(["estimate", "--input", str(bad), "--out", str(out)]) == 2
    assert "not equidistant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("delta", math.inf, "delta must be positive and finite"),
        ("trawl", {"family": "powerlaw", "alpha": math.nan, "scale": 1.0}, "alpha must exceed 1"),
        ("seed_spec", {"family": "gamma", "shape": math.nan, "scale": 1.0}, "shape and scale must be"),
        ("seed_spec", {"family": "gaussian", "mean": math.nan, "var": 1.0}, "mean must be finite"),
    ],
    ids=["delta", "alpha", "shape", "mean"],
)
def test_simulate_rejects_non_finite_parameters(tmp_path, capsys, key, value, message):
    """Each once wrote a CSV of NaN or inf rows and exited 0."""
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({**SIM_SPEC, key: value}))  # as the JSON extensions NaN and Infinity
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("n", 100.7), ("seed", 1.5), ("n", "512")])
def test_simulate_rejects_non_integral_n_and_seed(tmp_path, capsys, key, value):
    """A fractional n or seed was truncated: the path came from other values
    than the ones its sidecar records."""
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({**SIM_SPEC, key: value}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", str(bad), "--out", str(out)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps({**SIM_SPEC, "n": 512.0, "seed": 7.0}))
    assert main(["simulate", "--spec", str(whole), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 513


@pytest.mark.parametrize("points", ["0", "-2"])
def test_kernels_rejects_fewer_than_one_point(tmp_path, capsys, points):
    """--points 0 once wrote a header-only grid and a sidecar and exited 0."""
    out = tmp_path / "grid.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    assert main(["kernels", "--trawl", trawl, "--points", points, "--out", str(out)]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--k4", "nan", "k4 must be non-negative and finite"),
        ("--lo", "nan", "time arguments must be non-negative"),
        ("--lo", "inf", "time arguments must be non-negative and finite"),
        ("--hi", "inf", "time arguments must be non-negative and finite"),
    ],
)
def test_kernels_rejects_non_finite_arguments(tmp_path, capsys, flag, value, message):
    """Each NaN once ended in a QuadratureError, a runtime error (exit 3);
    at an infinite end numpy's linspace warned before the exit."""
    out = tmp_path / "grid.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    assert main(["kernels", "--trawl", trawl, flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mc_rejects_an_infinite_t(tmp_path, capsys):
    """A T5 experiment with t = Infinity once built, warned from the limit
    covariance and exited 3 on NaN node-count checks."""
    exp = tmp_path / "exp.json"
    cfg = {**json.loads((EXPERIMENTS / "theorem3.json").read_text()), "theorem": "T5", "t": math.inf}
    exp.write_text(json.dumps(cfg))
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out)]) == 2
    assert "t must be non-negative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [("c", math.inf), ("replications", 2.5), ("threads", 1.5), ("master_seed", 1.5), ("master_seed", -1),
     ("n_grid", [100.7])],
)
def test_mc_rejects_infinite_c_and_non_integral_counts(tmp_path, capsys, field, value):
    """Each would run to NaN summaries, crash with a TypeError or silently
    truncate; each is a config error naming its field instead."""
    exp = tmp_path / "exp.json"
    cfg = {**json.loads((EXPERIMENTS / "theorem3.json").read_text()), "theorem": "T1", field: value}
    exp.write_text(json.dumps(cfg))
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


_THEOREM3 = json.loads((EXPERIMENTS / "theorem3.json").read_text())


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("mc", {k: v for k, v in _THEOREM3.items() if k != "replications"}, "replications"),
        ("mc", {**_THEOREM3, "trawl": 5}, "trawl"),
        ("mc", {**_THEOREM3, "trawl": {"family": "exponential", "rate": "fast"}}, "rate"),
        ("mc", {**_THEOREM3, "n_grid": 4096}, "n_grid"),
        ("mc", {**_THEOREM3, "varpi": "2"}, "varpi"),
        ("mc", {**_THEOREM3, "test_function": {"kind": "power", "exponent": [3]}}, "exponent"),
        ("simulate", {**SIM_SPEC, "trawl": 5}, "trawl"),
        ("simulate", {**SIM_SPEC, "delta": [0.1]}, "delta"),
        ("simulate", 7, "simulate spec"),
        ("kernels", 5, "trawl"),
        ("mc", {**_THEOREM3, "c": True, "replications": True}, "c must be a number, got True"),
        ("mc", {**_THEOREM3, "replications": True}, "replications must be an integer, got True"),
        ("mc", {**_THEOREM3, "trawl": {"family": "exponential", "rate": True}}, "'rate' must be a number"),
        ("simulate", {**SIM_SPEC, "delta": True}, "delta must be a number, got True"),
        ("simulate", {**SIM_SPEC, "n": False}, "n must be an integer, got False"),
    ],
    ids=["no-replications", "trawl-5", "rate-fast", "n_grid-int", "varpi-str", "exponent-list",
         "spec-trawl-5", "spec-delta-list", "spec-7", "kernels-trawl-5",
         "c-true", "replications-true", "rate-true", "spec-delta-true", "spec-n-false"],
)
def test_malformed_config_is_a_usage_error(tmp_path, capsys, command, config, field):
    """Each once crashed with a TypeError, a runtime error (exit 3); each is
    a config error that names its field, and writes nothing."""
    conf = tmp_path / "config.json"
    conf.write_text(json.dumps(config))
    out = tmp_path / "out"
    flag = {"mc": "--experiment", "simulate": "--spec", "kernels": "--trawl"}[command]
    assert main([command, flag, str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--seed", "3", "--threads", "2"]], ids=["plain", "flags"])
@pytest.mark.parametrize("config", [[1, 2], "T5", 7], ids=["list", "string", "number"])
def test_mc_rejects_an_experiment_that_is_not_an_object(tmp_path, capsys, config, flags):
    """A list once exited 3 with --seed ("list indices must be integers")
    and, without it, named its items as unknown experiment fields."""
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(exp), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: experiment must be a mapping")
    assert not out.exists()


def test_simulate_spec_without_n_names_it(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({k: v for k, v in SIM_SPEC.items() if k != "n"}))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
    assert "missing required field 'n'" in capsys.readouterr().err


def test_runtime_failure_exits_3(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("replication failed")

    monkeypatch.setattr("trawlkit.cli.run_experiment", broken)
    out = tmp_path / "result.json"
    assert main(["mc", "--experiment", str(EXPERIMENTS / "theorem3.json"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "runtime error: replication failed\n"
    assert not out.exists()


def test_mc_seed_overrides_the_master_seed(tmp_path):
    """``--seed`` runs what a file with that ``master_seed`` runs."""
    small = {**_THEOREM3, "n_grid": [256], "replications": 5}
    exp, reseeded = tmp_path / "exp.json", tmp_path / "reseeded.json"
    exp.write_text(json.dumps(small))
    reseeded.write_text(json.dumps({**small, "master_seed": 77}))
    assert main(["mc", "--experiment", str(exp), "--out", str(tmp_path / "a.json"), "--seed", "77"]) == 0
    assert main(["mc", "--experiment", str(reseeded), "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["config"]["master_seed"] == 77
    raw_a, raw_b = [(tmp_path / name).read_bytes() for name in ("a.json.raw.csv", "b.json.raw.csv")]
    assert raw_a == raw_b
    assert main(["mc", "--experiment", str(exp), "--out", str(tmp_path / "c.json")]) == 0
    assert (tmp_path / "c.json.raw.csv").read_bytes() != raw_a


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_a_negative_seed_flag_is_refused_by_name(tmp_path, capsys, sim_spec_file, command):
    """``--seed -1`` once built its config and failed in numpy's seeding,
    with a message that named no field."""
    flag, source = {"mc": ("--experiment", EXPERIMENTS / "theorem3.json"),
                    "simulate": ("--spec", sim_spec_file)}[command]
    out = tmp_path / "out"
    assert main([command, flag, str(source), "--out", str(out), "--seed", "-1"]) == 2
    assert "master_seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_nan_delta(tmp_path, capsys):
    one_column = tmp_path / "x.csv"
    one_column.write_text("x\n1.0\n2.0\n3.5\n0.5\n")
    out = tmp_path / "ahat.csv"
    assert main(["estimate", "--input", str(one_column), "--delta", "nan", "--out", str(out)]) == 2
    assert "delta must be positive" in capsys.readouterr().err
    assert not out.exists()


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


def _replay_argv(sidecar, out):
    """The argv that reruns a sidecar's command from its fields alone,
    writing to ``out``."""
    fields = {k: v for k, v in sidecar.items() if k not in ("command", "version", "config_hash")}
    if sidecar["command"] == "estimate-functionals":
        argv = ["estimate", "--out", str(out) + ".ahat", "--functionals-out", str(out)]
        fields["t_grid"] = ",".join(repr(t) for t in fields["t_grid"])
    else:
        argv = [sidecar["command"], "--out", str(out)]
    for key, value in fields.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), json.dumps(value) if isinstance(value, dict) else str(value)]
    return argv


@pytest.mark.parametrize(
    "command,argv",
    [
        ("estimate", ["estimate", "--out", "{out}"]),
        (
            "estimate-functionals",
            ["estimate", "--out", "{out}.ahat", "--functionals-out", "{out}", "--g", "power:3.5",
             "--t-grid", "0.3,0.7", "--varpi", "2.2", "--theta", "1.5", "--kappa", "0.6"],
        ),
        ("tdep", ["tdep", "--out", "{out}", "--T", "0.5", "--p", "3.5"]),
    ],
    ids=["estimate", "estimate-functionals", "tdep"],
)
def test_sidecar_replays_the_run(tmp_path, sim_spec_file, command, argv):
    """A one-column path with an explicit --delta: rerunning from the
    sidecar's fields writes a byte-identical output and the same sidecar."""
    rows = list(csv.reader(_simulate(tmp_path, sim_spec_file).open()))
    one_column = tmp_path / "x.csv"
    one_column.write_text("".join(row[1] + "\n" for row in rows[1:]))
    first, again = tmp_path / "first.out", tmp_path / "again.out"
    argv = [a.replace("{out}", str(first)) for a in argv] + ["--input", str(one_column), "--delta", "0.05"]
    assert main(argv) == 0
    sidecar = json.loads(Path(str(first) + ".provenance.json").read_text())
    assert sidecar["command"] == command and sidecar["delta"] == 0.05
    assert main(_replay_argv(sidecar, again)) == 0
    assert again.read_bytes() == first.read_bytes()
    assert json.loads(Path(str(again) + ".provenance.json").read_text()) == sidecar


@pytest.mark.parametrize("what", ["sigma_a", "sigma_a_sq", "f:1,2"])
def test_kernels_sidecar_replays_the_run(tmp_path, what):
    """The kernels sidecar records the grid (--lo, --hi, --points) besides the
    trawl, k4 and what: rerunning from its fields rewrites the same bytes."""
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    argv = ["kernels", "--trawl", trawl, "--k4", "1.0", "--what", what, "--lo", "0.5", "--hi", "3", "--points", "4"]
    assert main(argv + ["--out", str(first)]) == 0
    sidecar = json.loads(Path(str(first) + ".provenance.json").read_text())
    assert (sidecar["lo"], sidecar["hi"], sidecar["points"]) == (0.5, 3.0, 4)
    assert main(_replay_argv(sidecar, again)) == 0
    assert again.read_bytes() == first.read_bytes()
    assert json.loads(Path(str(again) + ".provenance.json").read_text()) == sidecar


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
    exp = EXPERIMENTS / "theorem3.json"
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


@pytest.mark.parametrize("what", ["sigma", "f:1", "f:a,b", "f:1,2,3", "f:2,1", "f:5,6", "g:1,2"])
def test_kernels_rejects_unknown_what(tmp_path, capsys, what):
    """An unknown or malformed --what is a usage error naming the accepted
    forms, and no output file is left behind."""
    out = tmp_path / "grid.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    assert main(["kernels", "--trawl", trawl, "--what", what, "--out", str(out)]) == 2
    assert "sigma_a, sigma_a_sq or f:l1,l2" in capsys.readouterr().err
    assert not out.exists()


def test_kernels_sigma_a_sq(tmp_path):
    """sigma_a^2(t) = k4 e^-t + 1 + (2t - 1) e^-2t for the unit-rate exponential trawl."""
    out = tmp_path / "sq.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    assert main(["kernels", "--trawl", trawl, "--k4", "1.3", "--what", "sigma_a_sq", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "value"] and len(rows) == 10
    for t, value in ((float(t), float(v)) for t, v in rows[1:]):
        expect = 1.3 * np.exp(-t) + 1.0 + (2 * t - 1) * np.exp(-2 * t)
        assert value == pytest.approx(expect, abs=1e-9)


def test_kernels_block_pair(tmp_path):
    out = tmp_path / "f.csv"
    trawl = json.dumps({"family": "exponential", "rate": 1.0})
    assert main(["kernels", "--trawl", trawl, "--what", "f:1,2", "--points", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["s", "r", "value"] and len(rows) == 5


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


#: Runs in a fresh interpreter and prints every scipy module it has loaded.
_NO_SCIPY = """
import sys
import trawlkit
from trawlkit.cli import main
out, experiment = sys.argv[1:]
assert main(["mc", "--experiment", experiment, "--out", out + "/mc.json"]) == 0
trawl = '{"family": "powerlaw", "alpha": 2.5, "scale": 1.0}'
for what in ("sigma_a_sq", "f:1,3"):
    assert main(["kernels", "--trawl", trawl, "--what", what, "--points", "3", "--out", out + "/k.csv"]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_scipy_at_run_time(tmp_path):
    """numpy is the only run-time dependency: importing trawlkit, a T5 run and
    the kernel dumps load no scipy module."""
    experiment = tmp_path / "t5.json"
    experiment.write_text(
        json.dumps(
            {
                "trawl": {"family": "exponential", "rate": 1.0},
                "seed_spec": {"family": "poisson", "rate": 1.0},
                "theorem": "T5",
                "n_grid": [256],
                "replications": 4,
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path), str(experiment)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
