"""Monte Carlo harness: configs, summaries, determinism."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from trawlkit import (
    ExponentialTrawl,
    ExperimentConfig,
    convergence_slope,
    ks_distance,
    power_function,
    run_experiment,
    square_function,
    true_lambda,
    true_psi,
)
from trawlkit.mc import test_function_from_dict as tf_from_dict


def _config(**overrides):
    base = dict(
        trawl={"family": "exponential", "rate": 1.0},
        seed_spec={"family": "poisson", "rate": 1.0},
        theorem="T3",
        t=0.0,
        n_grid=[256],
        replications=8,
        varpi=2.0,
        master_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# -- targets -------------------------------------------------------------


def test_true_functionals_closed_form():
    trawl = ExponentialTrawl(1.0)
    g = square_function()
    assert true_psi(trawl, g, 1.0) == pytest.approx((1 - math.exp(-2)) / 2)
    assert true_lambda(trawl, g, 0.0) == pytest.approx(0.5)
    assert true_psi(trawl, g, 1.0) + true_lambda(trawl, g, 1.0) == pytest.approx(0.5)
    g4 = power_function(4.0)
    assert true_lambda(trawl, g4, 0.0) == pytest.approx(0.25)


def test_true_functionals_quadrature_fallback():
    """A non-power g exercises the quadrature branch."""
    from trawlkit import TestFunction

    trawl = ExponentialTrawl(1.0)
    g = TestFunction(g=lambda x: np.sin(np.abs(x)))
    expect, _ = integrate.quad(lambda s: math.sin(math.exp(-s)), 0.0, 1.0)
    assert true_psi(trawl, g, 1.0) == pytest.approx(expect, abs=1e-8)


def test_test_function_from_dict():
    assert tf_from_dict({"kind": "square"}).exponent == 2.0
    assert tf_from_dict({"kind": "power", "exponent": 3.0}).exponent == 3.0
    with pytest.raises(ValueError):
        tf_from_dict({"kind": "nope"})


# -- summary statistics --------------------------------------------------


def test_ks_distance_exact_quantiles():
    """Plugging in exact normal quantiles gives the minimal possible distance."""
    m = 200
    samples = stats.norm.ppf((np.arange(m) + 0.5) / m)
    assert ks_distance(samples) == pytest.approx(0.5 / m, abs=1e-12)
    shifted = ks_distance(samples + 1.0)
    assert shifted > 0.3
    with pytest.raises(ValueError):
        ks_distance(np.zeros(5))


@pytest.mark.parametrize("law", ["normal", "student_t", "shifted"])
def test_ks_distance_matches_kstest(law):
    r = np.random.default_rng(3)
    samples = {
        "normal": r.standard_normal(500),
        "student_t": r.standard_t(3.0, 500),
        "shifted": r.standard_normal(500) + 0.2,
    }[law]
    expect = stats.kstest(samples, "norm").statistic
    assert ks_distance(samples) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_convergence_slope_exact():
    nds = [10.0, 100.0, 1000.0]
    rmses = [5.0 * nd**-0.5 for nd in nds]
    assert convergence_slope(nds, rmses) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        convergence_slope([10.0, 20.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        convergence_slope(nds, [1.0, 0.0, 0.1])


# -- config validation ---------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        _config(theorem="T9")
    with pytest.raises(ValueError):
        _config(varpi=3.5)
    with pytest.raises(ValueError):
        _config(replications=0)
    with pytest.raises(ValueError):
        _config(n_grid=[])
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trawl": {}, "bogus_field": 1})
    with pytest.raises(ValueError, match="unknown simulator"):
        run_experiment(_config(simulator="bogus"))  # rejected by the dispatcher
    # CLT regime guard: n * delta^3 must vanish
    with pytest.raises(ValueError):
        _config(theorem="T5", varpi=2.9, c=2.0, n_grid=[64])


def test_config_hash_stable_and_sensitive():
    a, b = _config(), _config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != _config(master_seed=1).config_hash()
    assert a.delta_for(256) == pytest.approx(256**-0.5)


# -- experiment runs -----------------------------------------------------


def test_run_deterministic_and_thread_invariant():
    """One pool serves the whole n-grid, and T5 centres after the gather."""
    for overrides in ({}, {"theorem": "T5", "t": 1.0}):
        res1 = run_experiment(_config(n_grid=[128, 256], **overrides))
        res2 = run_experiment(_config(n_grid=[128, 256], **overrides))
        res_threads = run_experiment(_config(n_grid=[128, 256], threads=2, **overrides))
        for n in (128, 256):
            np.testing.assert_array_equal(res1.stats[n], res2.stats[n])
            np.testing.assert_array_equal(res1.stats[n], res_threads.stats[n])
    assert not np.array_equal(res1.stats[256], run_experiment(_config(master_seed=9)).stats[256])


def test_simulator_choices_agree_in_law():
    slices = run_experiment(_config(simulator="slices", replications=30))
    points = run_experiment(_config(simulator="points", replications=30))
    assert slices.summaries[256]["mean"] == pytest.approx(points.summaries[256]["mean"], abs=0.3)
    with pytest.raises(ValueError):
        run_experiment(_config(simulator="bogus"))


def test_theorem3_summary_structure():
    res = run_experiment(_config(n_grid=[128, 256, 512], replications=20))
    assert res.theory["lambda"] == pytest.approx(0.5)
    for n in (128, 256, 512):
        s = res.summaries[n]
        assert s["replications"] == 20
        assert "rmse" in s and s["rmse"] > 0
        assert "convergence_slope" in s
    rows = list(res.raw_rows())
    assert len(rows) == 60
    assert rows[0][:2] == (128, 0)


def test_t5_statistic_centered():
    res = run_experiment(_config(theorem="T5", n_grid=[1024], replications=40, t=1.0))
    assert "limit_variance" in res.theory
    assert res.theory["limit_variance"] > 0
    assert "variance_ratio" in res.summaries[1024]
    assert "ks_distance" in res.summaries[1024]


def test_t4_window_clears_a_head_count_just_below_an_integer():
    # delta = 0.4 * 16^(-1/2) = 0.1 and 0.3 / 0.1 = 2.9999999999999996, while
    # lambda_bar_n counts floor(t / delta + 1e-12) = 3 head lags.
    cfg = _config(theorem="T4", n_grid=[16], c=0.4, t=0.3, theta=0.1, replications=4)
    assert cfg.t / cfg.delta_for(16) < 3
    res = run_experiment(cfg)
    assert all(math.isfinite(stat) for _, _, stat in res.raw_rows())


def test_c1_statistic_summaries():
    res = run_experiment(_config(theorem="C1", n_grid=[512], replications=25, tdep_T=1.0))
    s = res.summaries[512]
    assert s["median_abs_scaled"] > 0
    assert s["q95_abs_scaled"] >= s["median_abs_scaled"]


def test_result_files(tmp_path):
    res = run_experiment(_config(replications=5))
    res.write_csv(tmp_path / "raw.csv")
    res.write_json(tmp_path / "summary.json")
    raw = (tmp_path / "raw.csv").read_text().splitlines()
    assert raw[0] == "n,rep,stat"
    assert len(raw) == 6
    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config_hash"] == res.config.config_hash()
    assert "256" in summary["summaries"]
