"""Monte Carlo harness: configs, summaries, determinism."""

import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trawlkit import TestFunction as G  # aliased: pytest would try to collect a Test* class
from trawlkit import (
    ExponentialTrawl,
    ExperimentConfig,
    convergence_slope,
    ks_distance,
    run_experiment,
    true_lambda,
    true_psi,
)
from trawlkit import QuadratureError, SampledPath, estimate_trawl, mc
from trawlkit.mc import test_function_from_dict as tf_from_dict
from trawlkit.simulate import SIMULATORS

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


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
    g = G(2.0)
    assert true_psi(trawl, g, 1.0) == pytest.approx((1 - math.exp(-2)) / 2)
    assert true_lambda(trawl, g, 0.0) == pytest.approx(0.5)
    assert true_psi(trawl, g, 1.0) + true_lambda(trawl, g, 1.0) == pytest.approx(0.5)
    g4 = G(4.0)
    assert true_lambda(trawl, g4, 0.0) == pytest.approx(0.25)
    root = G(0.5)  # p < 1: int_0^1 exp(-s/2) ds
    assert true_psi(trawl, root, 1.0) == pytest.approx(2.0 * (1.0 - math.exp(-0.5)), rel=1e-14)


def test_test_function_from_dict():
    assert tf_from_dict({"kind": "square"}).exponent == 2.0
    assert tf_from_dict({"kind": "power", "exponent": 3.0}).exponent == 3.0
    # An unknown kind or key is an error that names it, never a silent x^2;
    # with no kind the g is a square, which takes no exponent.
    for cfg, name in (
        ({"kind": "nope"}, "'nope'"),
        ({"exponent": 4.0}, "'exponent'"),
        ({"kind": "square", "exponent": 4.0}, "'exponent'"),
        ({"kind": "power", "exponent": 4.0, "shift": 1.0}, "'shift'"),
    ):
        with pytest.raises(ValueError, match=name):
            tf_from_dict(cfg)


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
    for theorem in ("T9", "T2"):
        with pytest.raises(ValueError, match="unknown theorem tag"):
            _config(theorem=theorem)
    with pytest.raises(ValueError):
        _config(varpi=3.5)
    with pytest.raises(ValueError):
        _config(replications=0)
    for n_grid in ([], [1, 256], [128, 256, 128]):
        with pytest.raises(ValueError, match="n_grid"):
            _config(n_grid=n_grid)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            _config(threads=threads)
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        _config(master_seed=-1)
    for field, kind in (("c", "a number"), ("replications", "an integer"), ("master_seed", "an integer")):
        with pytest.raises(ValueError, match=f"{field} must be {kind}, got True"):
            _config(**{field: True})
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive"):
            _config(c=c)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trawl": {}, "bogus_field": 1})
    with pytest.raises(ValueError, match="unknown simulator"):
        _config(simulator="bogus")  # rejected when the config is built
    # CLT regime guard: n * delta^3 must vanish
    with pytest.raises(ValueError):
        _config(theorem="T5", varpi=2.9, c=2.0, n_grid=[64])


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t", math.inf, "t must be non-negative and finite"),
        ("t", -0.5, "t must be non-negative and finite"),
        ("tdep_T", math.inf, "tdep_T must be positive and finite"),
        ("tdep_T", 0.0, "tdep_T must be positive and finite"),
        ("tdep_p", -1.0, "tdep_p must be positive and finite"),
        ("tdep_p", math.nan, "tdep_p must be positive and finite"),
        ("theta", 0.0, "theta must be positive and finite"),
        ("theta", math.inf, "theta must be positive and finite"),
    ],
)
def test_unusable_times_and_exponents_fail_when_built(field, value, message):
    """Each once built and then failed in the first replication, or, for
    t = inf, ran to NaN limit variances and a runtime error."""
    with pytest.raises(ValueError, match=message):
        _config(theorem="T5", **{field: value})


def test_t4_kappa_outside_its_bounds_fails_when_built():
    """T4 once simulated a path before choose_window refused kappa; on an
    exponential trawl with varpi = 2 and g(x) = x^2 the bounds are
    (1/2, 3/4)."""
    assert _config(theorem="T4", kappa=0.6).window_for(256) == round(256**0.6)
    for kappa in (0.4, 0.75, 0.9):
        with pytest.raises(ValueError, match=f"kappa={kappa} outside admissible interval"):
            _config(theorem="T4", kappa=kappa)


GAUSSIAN = {"family": "gaussian", "mean": 0.0, "var": 1.0}
#: With g = |x|^0.6, q = p * alpha = 0.9: the head functional is finite, every tail infinite.
POWER_LAW_15 = {"family": "powerlaw", "alpha": 1.5, "scale": 1.0}
ROOT_06 = {"kind": "power", "exponent": 0.6}
EXPONENTIAL = {"family": "exponential", "rate": 1.0}
#: a(s) = max(0, 1 - s) reaches 0 at s = 1, where g = |x|^0.5 has an infinite derivative.
TRIANGLE = {"family": "triangle", "support": 1.0}
ROOT_05 = {"kind": "power", "exponent": 0.5}

#: Configs that a replication could not serve, each refused when it is
#: built, and the message that names the field (and n).  At n = 4096,
#: varpi = 2 and c = 1, delta = 1/64 and the horizon (n - 1) delta is about
#: 64; at n = 256 the T4 window is 32 and t = 3 holds 48 head lags.
LATE_FAILURES = {
    "unknown": ({"simulator": "bogus"}, "simulator"),
    "old-slices-name": ({"simulator": "slices"}, "simulator"),
    "circulant-poisson": ({"simulator": "circulant"}, "simulator"),
    "points-gaussian": ({"simulator": "points", "seed_spec": GAUSSIAN}, "simulator"),
    "slices-exact-above-cap": ({"simulator": "slices-exact", "n_grid": [256, 8192]}, "simulator"),
    "C1-T": ({"theorem": "C1", "tdep_T": 100.0, "n_grid": [4096]}, "tdep_T = 100.0 does not fit n = 4096"),
    "T1-t": ({"theorem": "T1", "t": 100.0, "n_grid": [4096]}, "t = 100.0 does not fit n = 4096"),
    "T3-t": ({"theorem": "T3", "t": 100.0, "n_grid": [4096]}, "t = 100.0 does not fit n = 4096"),
    "T5-t": ({"theorem": "T5", "t": 100.0, "n_grid": [4096]}, "t = 100.0 does not fit n = 4096"),
    "T4-window": ({"theorem": "T4", "t": 3.0, "n_grid": [256]}, "t = 3.0 does not fit n = 256: .*window = 32"),
    # int_t^inf |a|^p is infinite at q = p * alpha <= 1, and T6's limit needs p > 3 off a compact trawl
    "T3-infinite-target": ({"theorem": "T3", "trawl": POWER_LAW_15, "test_function": ROOT_06},
                            r"test_function = .* does not fit T3: need p \* alpha > 1"),
    "T4-infinite-target": ({"theorem": "T4", "trawl": POWER_LAW_15, "test_function": ROOT_06},
                            r"test_function = .* does not fit T4: need p \* alpha > 1"),
    "T6-infinite-target": ({"theorem": "T6", "trawl": POWER_LAW_15, "test_function": ROOT_06},
                            r"test_function = .* does not fit T6: need p \* alpha > 1"),
    "T6-exponent": ({"theorem": "T6"}, "test_function = .* does not fit T6: tail CLT needs .* order > 3"),
    # g' = p |x|^(p-1) is infinite at 0 for p < 1, and the triangle's a reaches 0 at s = 1
    "T5-root-at-support": ({"theorem": "T5", "t": 1.0, "trawl": TRIANGLE, "test_function": ROOT_05},
                           r"test_function = .* does not fit T5: CLT needs g'\(a\(u\)\) finite up to u = 1; exponent 0.5"),
    "T5-root-past-support": ({"theorem": "T5", "t": 2.0, "trawl": TRIANGLE, "test_function": ROOT_05},
                             r"does not fit T5: CLT needs g'\(a\(u\)\) finite up to u = 2;"),
    "T6-root-compact": ({"theorem": "T6", "t": 0.0, "trawl": TRIANGLE, "test_function": ROOT_05},
                        r"does not fit T6: CLT needs g'\(a\(u\)\) finite up to u = inf;"),
}


@pytest.mark.parametrize("overrides,message", LATE_FAILURES.values(), ids=LATE_FAILURES)
def test_late_failures_fail_when_built(tmp_path, monkeypatch, overrides, message):
    """Each config fails when it is built, with an error that names the
    field (and n), and exits 2 through ``trawlkit mc``; no path is drawn."""
    from trawlkit.cli import main

    drawn = []
    monkeypatch.setattr(mc, "simulate", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=message):
        _config(**overrides)
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({**_config().to_dict(), **overrides}))
    assert main(["mc", "--experiment", str(exp), "--out", str(tmp_path / "o.json")]) == 2
    assert drawn == [] and not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("trawl,t,exponent", [(EXPONENTIAL, 0.5, 0.5), (TRIANGLE, 0.5, 0.5), (TRIANGLE, 1.0, 1.0)],
                         ids=["root-exponential", "root-triangle-inside", "linear-triangle-at-support"])
def test_clt_exponent_below_1_runs_where_a_stays_positive(trawl, t, exponent):
    """T5 with g = |x|^0.5 runs where a > 0 on [0, t]; at exponent 1, g' is
    finite at 0, so T5 runs up to the triangle's support."""
    res = run_experiment(_config(theorem="T5", t=t, trawl=trawl, replications=2,
                                 test_function={"kind": "power", "exponent": exponent}))
    assert math.isfinite(res.theory["limit_variance"]) and res.theory["limit_variance"] > 0


@pytest.mark.parametrize("theorem", ["T1", "T5"])
def test_head_functional_runs_where_the_tails_are_infinite(theorem):
    """At q = 0.9 both power tails are infinite, yet psi = int_0^1 a^0.6 =
    (2^0.1 - 1)/0.1 is finite, and T1 and T5 run to finite summaries."""
    res = run_experiment(_config(theorem=theorem, t=1.0, trawl=POWER_LAW_15, test_function=ROOT_06, replications=20))
    assert res.theory["psi"] == pytest.approx((2**0.1 - 1) / 0.1, rel=1e-14)
    assert all(math.isfinite(v) for v in res.summaries[256].values())
    assert all(math.isfinite(v) for v in res.theory.values())


@pytest.mark.parametrize("theorem,field,last_lag", [("T1", "t", 256), ("T3", "t", 255), ("T4", "t", 31), ("C1", "tdep_T", 255)])
def test_largest_admissible_time_runs(theorem, field, last_lag):
    """At n = 256 and delta = 1/16 the largest time each statistic can read,
    last_lag * delta, still runs; one step more fails when built.  psi_n
    sums floor(t/delta) <= n lags, lambda_n starts at lag floor(t/delta)
    <= n - 1, lambda_bar_n needs floor(t/delta) below its window of 32, and
    tau needs T <= (n - 1) delta."""
    base = {"theorem": theorem, "n_grid": [256], "replications": 2}
    res = run_experiment(_config(**base, **{field: last_lag / 16}))
    assert all(math.isfinite(stat) for _, _, stat in res.raw_rows())
    with pytest.raises(ValueError, match=f"{field} = {(last_lag + 1) / 16!r} does not fit n = 256"):
        _config(**base, **{field: (last_lag + 1) / 16})


#: Seeds whose kappa2 is not 1, and the theorems that need kappa2 = 1.
KAPPA2_SEEDS = [
    {"family": "gaussian", "mean": 0.0, "var": 2.0},
    {"family": "poisson", "rate": 2.0},
    {"family": "gamma", "shape": 2.0, "scale": 0.5},
]
KAPPA2_THEOREMS = [
    {"theorem": "T1", "t": 0.5},
    {"theorem": "T5", "t": 1.0},
    {"theorem": "T6", "t": 0.0, "test_function": {"kind": "power", "exponent": 4.0}},
]


@pytest.mark.parametrize("theorem", KAPPA2_THEOREMS, ids=lambda d: d["theorem"])
@pytest.mark.parametrize("seed_spec", KAPPA2_SEEDS, ids=lambda d: d["family"])
def test_seed_with_kappa2_other_than_one_is_a_config_error(seed_spec, theorem):
    """a_hat estimates kappa2 * a, so these would centre on the wrong target
    and exit 0; the error names kappa2.  C1's ratio cancels kappa2."""
    with pytest.raises(ValueError, match="kappa2 = 1, got kappa2 = (0.5|2.0)"):
        run_experiment(_config(seed_spec=seed_spec, **theorem))


def test_c1_takes_a_seed_with_any_kappa2():
    res = run_experiment(_config(theorem="C1", seed_spec=KAPPA2_SEEDS[1], n_grid=[512]))
    assert all(math.isfinite(stat) for _, _, stat in res.raw_rows())


@pytest.mark.parametrize("time", [0.5, 0.3], ids=["on-grid", "off-grid"])
@pytest.mark.parametrize("theorem", mc.THEOREM_TAGS)
def test_lags_for_is_what_each_statistic_reads(theorem, time):
    """At n = 64 and 256 (delta = 1/8 and 1/16), each row's statistic runs
    on an estimate at ``lags_for(n)`` lags and, where that is more than one,
    refuses an estimate one lag short."""
    field = "tdep_T" if theorem == "C1" else "t"
    g = {"test_function": {"kind": "power", "exponent": 4.0}} if theorem == "T6" else {}
    cfg = _config(theorem=theorem, n_grid=[64, 256], **{field: time}, **g)
    statistic = mc._STATISTICS[mc._THEOREMS[theorem][0]]
    for n in cfg.n_grid:
        assert (time / cfg.delta_for(n)).is_integer() == (time == 0.5)
        path = SampledPath(cfg.delta_for(n), np.cumsum(np.random.default_rng(n).standard_normal(n + 1)))
        lags = cfg.lags_for(n)
        assert math.isfinite(statistic(cfg, estimate_trawl(path, lags)))
        if lags > 1:
            with pytest.raises(ValueError, match=f"reads {lags} lags but the estimate holds {lags - 1}"):
                statistic(cfg, estimate_trawl(path, lags - 1))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


#: Experiments drawn over every field, at small n.  The ranges reach past
#: several fields' limits, and the seeds include kappa2 = 1 and other values.
EXPERIMENT_DICTS = st.fixed_dictionaries({
    "trawl": st.one_of(
        st.builds(lambda rate: {"family": "exponential", "rate": rate}, _floats(0.2, 5.0)),
        st.builds(lambda alpha, scale: {"family": "powerlaw", "alpha": alpha, "scale": scale},
                  _floats(1.05, 6.0), _floats(0.2, 3.0)),
        st.builds(lambda support: {"family": "triangle", "support": support}, _floats(0.2, 5.0)),
    ),
    "seed_spec": st.one_of(
        st.builds(lambda mean, var: {"family": "gaussian", "mean": mean, "var": var},
                  _floats(-2.0, 2.0), st.sampled_from([1.0, 2.0])),
        st.builds(lambda rate: {"family": "poisson", "rate": rate}, st.sampled_from([1.0, 0.3])),
        st.sampled_from([{"family": "gamma", "shape": 1.0, "scale": 1.0},
                         {"family": "gamma", "shape": 4.0, "scale": 0.5},
                         {"family": "gamma", "shape": 0.6, "scale": 1.0}]),
    ),
    "theorem": st.sampled_from(mc.THEOREM_TAGS),
    "n_grid": st.lists(st.integers(2, 64), min_size=1, max_size=3, unique=True),
    "replications": st.integers(1, 3),
    "varpi": _floats(1.05, 2.95),
    "c": _floats(0.05, 2.0),
    "t": _floats(0.0, 3.0),
    "test_function": st.one_of(st.just({"kind": "square"}),
                               st.builds(lambda e: {"kind": "power", "exponent": e}, _floats(0.3, 6.0))),
    "theta": _floats(0.1, 4.0),
    "kappa": st.one_of(st.none(), _floats(0.3, 1.0)),
    "tdep_T": _floats(0.05, 3.0),
    "tdep_p": _floats(0.5, 8.0),
    "master_seed": st.integers(-4096, 2**32),
    "simulator": st.sampled_from(SIMULATORS),
    "threads": st.integers(1, 2),
})


@settings(max_examples=300, deadline=None)
@given(EXPERIMENT_DICTS)
def test_every_config_error_comes_before_the_first_path(experiment):
    """Building the config raises ValueError, or the run draws every path
    and summarises every n; paths are counted through ``mc.simulate``.  Two
    late errors are admitted: the theory stage's QuadratureError, raised
    before any path, and C1's refusal of a path flat over tau's head, which
    a sparse seed can draw at small n: a refusal of the draw, not of the
    config."""
    try:
        cfg = ExperimentConfig.from_dict(experiment)
    except ValueError:
        return
    drawn, simulate = [], mc.simulate
    mc.simulate = lambda *args: drawn.append(args[2].n) or simulate(*args)
    try:
        res = run_experiment(cfg)
    except QuadratureError:
        assert drawn == []
        return
    except ValueError as exc:
        if cfg.theorem == "C1" and str(exc) == "degenerate path: head functional vanished":
            return
        raise
    finally:
        mc.simulate = simulate
    assert sorted(drawn) == sorted(cfg.n_grid * cfg.replications)
    assert sorted(res.summaries) == sorted(cfg.n_grid)


@pytest.mark.parametrize("path", sorted(EXPERIMENTS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_experiments_build(path):
    """Every shipped file builds a config, which parses its trawl, seed law
    and g once; the parsed parts stay out of the dict form, which the hash
    is taken from."""
    d = json.loads(path.read_text())
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.trawl_model.to_dict() == d["trawl"]
    assert cfg.seed_model.to_dict() == d["seed_spec"]
    assert cfg.g == tf_from_dict(d.get("test_function", {}))
    as_dict = cfg.to_dict()
    assert set(as_dict) == set(ExperimentConfig.__dataclass_fields__)
    assert all(as_dict[k] == v for k, v in d.items())


def test_config_hash_stable_and_sensitive():
    a, b = _config(), _config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != _config(master_seed=1).config_hash()
    assert a.delta_for(256) == pytest.approx(256**-0.5)


# -- experiment runs -----------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"theorem": "T5", "t": 1.0},
        {"theorem": "T1", "t": 0.5, "seed_spec": {"family": "gamma", "shape": 1.0, "scale": 1.0}},
        {"theorem": "T1", "t": 0.5, "seed_spec": {"family": "gaussian", "mean": 1.0, "var": 1.0}},
        {"theorem": "T4"},
        {"theorem": "C1", "tdep_T": 1.0},
        {"theorem": "T6", "test_function": {"kind": "power", "exponent": 4.0}, "replications": 7},
    ],
    ids=["T3", "T5", "T1-gamma-points", "T1-gaussian-circulant", "T4", "C1", "T6-odd"],
)
def test_run_deterministic_and_thread_invariant(overrides, monkeypatch):
    """One pool serves the whole n-grid, and T5 centres after the gather.
    Every sampler (points, circulant) and statistic gives the serial
    bits on 1, 2 and 3 threads, with the interpreter switching threads as
    often as it can.  T3, T6 and C1 estimate two replications per call; at
    T6's odd count the last block runs alone, and every statistic keeps the
    bits it has when each replication runs alone."""
    res1 = run_experiment(_config(n_grid=[128, 256], **overrides))
    res2 = run_experiment(_config(n_grid=[128, 256], **overrides))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [run_experiment(_config(n_grid=[128, 256], threads=t, **overrides)) for t in (2, 3)]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(mc, "_block_size", lambda cfg, n: 1)
    alone = run_experiment(_config(n_grid=[128, 256], **overrides))
    for n in (128, 256):
        np.testing.assert_array_equal(res1.stats[n], res2.stats[n])
        for res_threads in pooled:
            np.testing.assert_array_equal(res1.stats[n], res_threads.stats[n])
        assert res1.stats[n].tobytes() == alone.stats[n].tobytes()
        assert len(res1.stats[n]) == res1.config.replications
    reseeded = run_experiment(_config(n_grid=[128, 256], master_seed=9, **overrides))
    assert not np.array_equal(res1.stats[256], reseeded.stats[256])


@pytest.mark.parametrize("theorem,paired", [("T3", True), ("T6", True), ("C1", True), ("T1", False), ("T4", False), ("T5", False)])
def test_blocks_pair_the_all_lag_statistics(theorem, paired):
    """lambda_n and tau read all n lags, so their replications run two to a
    call at a transform length the pairing rule admits; the lag-bounded
    statistics run one to a call, and so does every statistic at n = 2^18."""
    cfg = _config(theorem=theorem, test_function={"kind": "power", "exponent": 4.0}, t=1.0)
    assert mc._block_size(cfg, 256) == (2 if paired else 1)
    assert mc._block_size(cfg, 2**18) == 1
    assert len(mc._one_replication(cfg, 256, 7)) == 1  # the last of 8 replications


def test_thread_pool_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("run_experiment forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    res = run_experiment(_config(threads=2))
    np.testing.assert_array_equal(res.stats[256], run_experiment(_config()).stats[256])


def test_thread_pool_leaves_no_thread_running():
    before = set(threading.enumerate())
    run_experiment(_config(threads=3))
    assert set(threading.enumerate()) == before


def test_simulator_choices_agree_in_law():
    """lambda_n has a per-replication SD of 0.869 (pilot: 2000 points and
    1000 exact slice replications, master seeds 4000 and 4001), so 269
    replications per sampler put abs 0.3 at 4 SE of the difference."""
    slices = run_experiment(_config(simulator="slices-exact", replications=269))
    points = run_experiment(_config(simulator="points", replications=269))
    assert slices.summaries[256]["mean"] == pytest.approx(points.summaries[256]["mean"], abs=0.3)
    with pytest.raises(ValueError):
        _config(simulator="bogus")


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


_SUMMARY_BASE = {"n", "delta", "replications", "mean", "variance", "median"}


@pytest.mark.parametrize(
    "theorem,theory_keys,summary_keys",
    [
        ("T1", {"psi"}, {"rmse", "convergence_slope"}),
        ("T3", {"lambda"}, {"rmse", "convergence_slope"}),
        ("T4", {"lambda"}, {"rmse", "convergence_slope"}),
        ("T5", {"psi", "limit_variance"}, {"variance_ratio", "ks_distance"}),
        ("T6", {"lambda", "limit_variance"}, {"variance_ratio", "ks_distance"}),
        ("C1", set(), {"median_abs_scaled", "q95_abs_scaled"}),
    ],
)
def test_summary_schema(theorem, theory_keys, summary_keys):
    """The exact keys of the theory block and of each per-n summary: the
    summary JSON's schema, which downstream checks read by name.  g is
    |x|^4, of the order the tail CLT (T6) needs."""
    quartic = {"kind": "power", "exponent": 4.0}
    res = run_experiment(
        _config(theorem=theorem, t=0.5, test_function=quartic, n_grid=[128, 256, 512], replications=20)
    )
    assert set(res.theory) == theory_keys
    for n in (128, 256, 512):
        assert set(res.summaries[n]) == _SUMMARY_BASE | summary_keys
    assert set(res.summary_dict()) == {"config", "config_hash", "theory", "summaries"}


def test_t5_statistic_centered():
    res = run_experiment(_config(theorem="T5", n_grid=[1024], replications=40, t=1.0))
    assert "limit_variance" in res.theory
    assert res.theory["limit_variance"] > 0
    assert "variance_ratio" in res.summaries[1024]
    assert "ks_distance" in res.summaries[1024]


def test_t4_window_clears_a_head_count_just_below_an_integer():
    # delta = 0.4 * 16^(-1/2) = 0.1 and 0.3 / 0.1 = 2.9999999999999996, while
    # lambda_bar_n counts floor(t / delta + 1e-12) = 3 head lags.  The build
    # counts them by the same rule: window 3 fails there, and window 4 runs.
    with pytest.raises(ValueError, match="t = 0.3 does not fit n = 16: .*window = 3"):
        _config(theorem="T4", n_grid=[16], c=0.4, t=0.3, theta=0.6, replications=4)
    cfg = _config(theorem="T4", n_grid=[16], c=0.4, t=0.3, theta=0.7, replications=4)
    assert cfg.t / cfg.delta_for(16) < 3 and cfg.window_for(16) == 4
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
