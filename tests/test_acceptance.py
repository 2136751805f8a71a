"""Acceptance suite: one quantitative gate per headline result.

Each test prints a single PASS/FAIL line (also collected in
``acceptance_report.txt`` in the session's pytest temporary directory) with
the measured value and its tolerance, then asserts it.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from trawlkit import (
    AvarKernel,
    CompactTriangleTrawl,
    ExponentialTrawl,
    ExperimentConfig,
    GammaSeed,
    GridScheme,
    PoissonSeed,
    PowerLawTrawl,
    convergence_slope,
    estimate_trawl,
    ks_distance,
    run_experiment,
    true_lambda,
    true_psi,
)
from trawlkit.simulate import SampledPath, residual_area, simulate, slice_area

from oracles import AdaptiveKernel, naive_trawl_estimate

MASTER = 777

#: The CLT regimes of gates 4 and 5.  The tail statistic approaches its
#: Gaussian limit slowly in n*delta (the residual quadratic term decays like
#: (n*delta)^(-1/2)), so T6 runs in a wider-horizon regime than T5.
HEAD_CLT = dict(theorem="T5", t=1.0, replications=500)
TAIL_CLT = dict(
    theorem="T6",
    t=0.0,
    replications=500,
    test_function={"kind": "power", "exponent": 4.0},
    varpi=2.5,
    c=0.9,
    n_grid=[2**15],
)


@pytest.fixture(scope="session")
def report(tmp_path_factory):
    """Print, collect and assert one gate's verdict line."""
    path = tmp_path_factory.getbasetemp() / "acceptance_report.txt"
    path.write_text("")

    def verdict(num, ok, detail):
        line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}"
        print(line)
        with path.open("a") as fh:
            fh.write(line + "\n")
        assert ok, line

    return verdict


def _exp_poisson_config(**overrides):
    base = dict(
        trawl={"family": "exponential", "rate": 1.0},
        seed_spec={"family": "poisson", "rate": 1.0},
        theorem="T3",
        t=0.0,
        n_grid=[2**14],
        replications=200,
        varpi=2.0,
        c=1.0,
        master_seed=MASTER,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@pytest.fixture(scope="module")
def tail_bias_runs():
    """Full and windowed tail-functional estimates on identical paths, and their wall time."""
    start = time.perf_counter()
    full = run_experiment(_exp_poisson_config(theorem="T3"))
    windowed = run_experiment(_exp_poisson_config(theorem="T4"))
    return full, windowed, time.perf_counter() - start


def test_01_tail_sum_bias_factor(tail_bias_runs, report):
    full, _, elapsed = tail_bias_runs
    mean = full.summaries[2**14]["mean"]
    ok = abs(mean - 1.0) <= 0.15 and abs(mean - 0.5) > 0.3 and elapsed < 300
    report(
        1,
        ok,
        f"mean full tail sum = {mean:.4f} (target 1.0 +/- 0.15, "
        f"distance from 0.5 = {abs(mean - 0.5):.3f} > 0.3), both runs {elapsed:.1f}s < 300s",
    )


def test_02_windowed_tail_sum_correction(tail_bias_runs, report):
    full, windowed, _ = tail_bias_runs
    mean = windowed.summaries[2**14]["mean"]
    close = abs(mean - 0.5) <= 0.15
    # per-replication discrimination: the windowed estimate sits nearer the
    # true value 0.5 than the biased full sum does, for a majority of paths
    wins = np.mean(
        np.abs(windowed.stats[2**14] - 0.5) < np.abs(full.stats[2**14] - 0.5)
    )
    ok = close and wins > 0.5
    report(
        2,
        ok,
        f"mean windowed tail sum = {mean:.4f} (target 0.5 +/- 0.15), "
        f"closer-than-full fraction = {wins:.2f} > 0.5",
    )


def test_03_head_functional_convergence_rate(report):
    cfg = _exp_poisson_config(theorem="T1", t=1.0, n_grid=[2**12, 2**13, 2**14])
    res = run_experiment(cfg)
    target = (1 - math.exp(-2)) / 2
    assert res.theory["psi"] == pytest.approx(target)
    slope = res.summaries[2**12]["convergence_slope"]
    ok = -0.65 <= slope <= -0.35
    report(3, ok, f"log-RMSE slope vs log(n*delta) = {slope:.3f} (target [-0.65, -0.35])")


def test_04_head_functional_clt(report):
    res = run_experiment(_exp_poisson_config(**HEAD_CLT))
    summary = res.summaries[2**14]
    ratio = summary["variance_ratio"]
    ks = summary["ks_distance"]
    ks_crit = 1.63 / math.sqrt(500)
    ok = 0.8 <= ratio <= 1.25 and ks < ks_crit
    report(
        4,
        ok,
        f"variance ratio = {ratio:.3f} (target [0.8, 1.25]), "
        f"KS = {ks:.4f} < {ks_crit:.4f}",
    )


def test_05_tail_functional_clt(report):
    res = run_experiment(_exp_poisson_config(**TAIL_CLT))
    ratio = res.summaries[2**15]["variance_ratio"]
    ok = 0.8 <= ratio <= 1.25
    report(5, ok, f"|x|^4 tail CLT variance ratio = {ratio:.3f} (target [0.8, 1.25])")


def test_06_tdependence_test_behavior(report):
    # Regime choice matters here: the alternative's scaled statistic is the
    # sum of a slowly shrinking noise term and a sqrt(n*delta) signal; the
    # wider-horizon regime below lets the signal dominate by n = 2^14.
    grids = [2**12, 2**14]
    regime = dict(theorem="C1", tdep_T=1.0, n_grid=grids, replications=100, varpi=2.2, c=1.5)
    null = run_experiment(
        _exp_poisson_config(trawl={"family": "triangle", "support": 1.0}, **regime)
    )
    alt = run_experiment(_exp_poisson_config(**regime))
    null_med = [null.summaries[n]["median_abs_scaled"] for n in grids]
    alt_med = [alt.summaries[n]["median_abs_scaled"] for n in grids]
    null_q95 = null.summaries[grids[-1]]["q95_abs_scaled"]
    ok = null_med[1] < null_med[0] and alt_med[1] > alt_med[0] and alt_med[1] > null_q95
    report(
        6,
        ok,
        f"null median |scaled tau| {null_med[0]:.3f} -> {null_med[1]:.3f} (down), "
        f"alternative {alt_med[0]:.3f} -> {alt_med[1]:.3f} (up, > null q95 {null_q95:.3f})",
    )


def test_07_quadrature_identities(report):
    start = time.time()
    rng = np.random.default_rng(11)
    families = [ExponentialTrawl(1.0), PowerLawTrawl(2.5, 1.0), CompactTriangleTrawl(1.5)]
    worst_diag, worst_dec = 0.0, 0.0
    for trawl in families:
        kern, oracle = AvarKernel(trawl, k4=1.0), AdaptiveKernel(trawl, k4=1.0)
        for t in np.linspace(0.0, 2.5, 20):
            worst_diag = max(worst_diag, abs(oracle.sigma_a_sq(t) - kern.sigma_a_matrix(t, t)))
        for _ in range(50):
            s, r = rng.uniform(0.0, 2.5, 2)
            worst_dec = max(worst_dec, kern.decomposition_residual(s, r))
    elapsed = time.time() - start
    ok = worst_diag < 1e-8 and worst_dec < 1e-6 and elapsed < 60
    report(
        7,
        ok,
        f"max |sigma_a_sq - diag| = {worst_diag:.2e} < 1e-8, "
        f"max decomposition residual = {worst_dec:.2e} < 1e-6, {elapsed:.1f}s",
    )


def test_08_simulator_exactness(report):
    # (a) area conservation on an n = 512 grid for every k
    n, delta = 512, 0.1
    worst = 0.0
    for trawl in [ExponentialTrawl(1.0), PowerLawTrawl(2.5, 1.0), CompactTriangleTrawl(1.5)]:
        total = np.zeros(n + 1)
        for i in range(n):
            areas = slice_area(trawl, delta, i, np.arange(i, n))
            # slice (i, j) covers k in [i, j]: add via a difference array
            diff = np.zeros(n + 2)
            diff[i] = np.sum(areas)
            np.subtract.at(diff, np.arange(i, n) + 1, areas)
            total += np.cumsum(diff)[: n + 1]
        total += np.cumsum(residual_area(trawl, delta, n, np.arange(n + 1)))  # residual i covers k >= i
        worst = max(worst, float(np.max(np.abs(total - trawl.leb_A))))
    area_ok = worst < 1e-10

    # (b) cross-simulator agreement within 3 Monte Carlo standard errors
    trawl, seed = ExponentialTrawl(1.0), PoissonSeed(1.0)
    per_path = {"slices-exact": [], "points": []}
    for name in per_path:
        for rep in range(200):
            path = simulate(trawl, seed, GridScheme(n=512, delta=0.2, master_seed=1000 + rep), name)
            x = path.values
            xc = x - np.mean(x)
            acf1 = float(np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc))
            per_path[name].append((np.mean(x), np.var(x), acf1))
    agree_ok = True
    deviations = []
    for idx in range(3):
        a = np.array([row[idx] for row in per_path["slices-exact"]])
        b = np.array([row[idx] for row in per_path["points"]])
        se = math.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
        dev = abs(np.mean(a) - np.mean(b)) / se
        deviations.append(dev)
        agree_ok &= dev < 3.0

    # (c) marginal variance = kappa2 * Leb(A), to 5%: the mean over paths of
    # E(X - kappa1 * Leb(A))^2 over every value of a path.  The per-path
    # estimates are independent, with relative SD 0.413 (pilot: 2000 paths
    # on seeds from 900000), so 1092 paths put 5% at 4 SE.
    gamma = GammaSeed(2.0, 0.5)
    mu, target = gamma.kappa1 * trawl.leb_A, gamma.kappa2 * trawl.leb_A
    per_path = []
    for rep in range(1092):
        x = simulate(trawl, gamma, GridScheme(n=100, delta=0.5, master_seed=5000 + rep), "slices-exact").values
        per_path.append(np.mean((x - mu) ** 2))
    var = float(np.mean(per_path))
    var_se = float(np.std(per_path, ddof=1)) / math.sqrt(len(per_path))
    var_ok = abs(var - target) / target < 0.05

    ok = area_ok and agree_ok and var_ok
    report(
        8,
        ok,
        f"area defect = {worst:.2e} < 1e-10; cross-simulator deviations "
        f"{['%.2f' % d for d in deviations]} sigma < 3; "
        f"Var(X) = {var:.4f} vs {target:.4f} ({abs(var - target) / target:.1%} < 5%, SE {var_se / target:.1%})",
    )


def test_09_fft_naive_equivalence_and_speed(report):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 4097))
        path = SampledPath(0.1, rng.standard_normal(n + 1))
        a = estimate_trawl(path).a_hat
        b = naive_trawl_estimate(path.values, path.delta)
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    big = SampledPath(0.01, rng.standard_normal(2**15 + 1))

    def best_of(estimator, repeats=3):
        elapsed = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            a_hat = estimator()
            elapsed.append(time.perf_counter() - t0)
        return a_hat, min(elapsed)

    a, fft_time = best_of(lambda: estimate_trawl(big).a_hat)
    b, naive_time = best_of(lambda: naive_trawl_estimate(big.values, big.delta))
    worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    speedup = naive_time / fft_time
    ok = worst <= 1e-10 and speedup >= 20.0
    report(
        9,
        ok,
        f"max relative FFT/naive deviation = {worst:.2e} <= 1e-10; "
        f"speedup at n=2^15 = {speedup:.0f}x >= 20x",
    )


def test_10_bitwise_determinism(report):
    cfg1 = _exp_poisson_config(n_grid=[512], replications=20, threads=1)
    cfg3 = _exp_poisson_config(n_grid=[512], replications=20, threads=3)
    r1, r3 = run_experiment(cfg1), run_experiment(cfg3)
    mc_ok = np.array_equal(r1.stats[512], r3.stats[512])

    from trawlkit import seed_from_dict, trawl_from_dict

    # A Gamma path from each sampler that takes one, replayed from its
    # provenance, the sampler's recorded name included.
    path_ok = True
    for method in ("slices-exact", "points"):
        path = simulate(PowerLawTrawl(2.5, 1.0), GammaSeed(2.0, 0.5), GridScheme(n=256, delta=0.1, master_seed=99), method)
        prov = path.provenance
        replay = simulate(
            trawl_from_dict(prov["trawl"]),
            seed_from_dict(prov["seed_spec"]),
            GridScheme(n=prov["n"], delta=prov["delta"], master_seed=prov["master_seed"]),
            prov["simulator"],
        )
        path_ok &= np.array_equal(path.values, replay.values)
    ok = mc_ok and path_ok
    report(
        10,
        ok,
        f"thread-count bitwise equality = {mc_ok}; provenance replay bitwise = {path_ok}",
    )


def test_11_clt_with_gaussian_seed(report):
    # For the Poisson seeds of gates 4 and 5, kappa4 = kappa2, so a Sigma_a
    # that read kappa2 for the kappa4 term would pass them.  A Gaussian seed
    # has kappa4 = 0; the auto sampler draws its paths by circulant embedding.
    gaussian = {"family": "gaussian", "mean": 0.0, "var": 1.0}
    head = run_experiment(_exp_poisson_config(seed_spec=gaussian, **HEAD_CLT)).summaries[2**14]
    tail_run = run_experiment(_exp_poisson_config(seed_spec=gaussian, **TAIL_CLT))
    tail = tail_run.summaries[2**15]
    tail_mean_sd = tail["mean"] / math.sqrt(tail_run.theory["limit_variance"])
    ks_crit = 1.63 / math.sqrt(500)
    ok = (
        0.8 <= head["variance_ratio"] <= 1.25
        and head["ks_distance"] < ks_crit
        and 0.8 <= tail["variance_ratio"] <= 1.25
    )
    report(
        11,
        ok,
        f"Gaussian seed: T5 variance ratio = {head['variance_ratio']:.3f} (target [0.8, 1.25]), "
        f"KS = {head['ks_distance']:.4f} < {ks_crit:.4f}; T6 variance ratio = {tail['variance_ratio']:.3f} "
        f"(target [0.8, 1.25]), KS = {tail['ks_distance']:.4f}, mean = {tail_mean_sd:.3f} SD",
    )


@pytest.mark.xfail(
    strict=True,
    reason="finite-n variance inflation with a Gamma seed: at master 777 the T5 ratio is 1.663 "
    "(KS 0.0866) and the T6 ratio 1.774; over 3000 replications the T5 ratio falls from 1.31 at "
    "n = 2^14 to 1.05 at n = 2^18, and over 2000 and 1000 the T6 ratio from 1.66 at n = 2^15 to "
    "1.30 at n = 2^17 (CHANGES.md)",
)
def test_12_clt_with_gamma_seed(report):
    # A Gamma(1, 1) seed has kappa2 = 1 and kappa4 = 6, a third value of the
    # k4 term of Sigma_a beside the Poisson seed's 1 and the Gaussian's 0.
    # The auto sampler draws its paths as marked points.  The bounds are
    # gates 4 and 5's, fixed before the first run; it misses them (see the
    # xfail reason), and strict=True turns a pass into a failure, so the
    # marker goes when the gate is met.
    gamma = {"family": "gamma", "shape": 1.0, "scale": 1.0}
    head = run_experiment(_exp_poisson_config(seed_spec=gamma, **HEAD_CLT)).summaries[2**14]
    tail_run = run_experiment(_exp_poisson_config(seed_spec=gamma, **TAIL_CLT))
    tail = tail_run.summaries[2**15]
    tail_mean_sd = tail["mean"] / math.sqrt(tail_run.theory["limit_variance"])
    ks_crit = 1.63 / math.sqrt(500)
    ok = (
        0.8 <= head["variance_ratio"] <= 1.25
        and head["ks_distance"] < ks_crit
        and 0.8 <= tail["variance_ratio"] <= 1.25
    )
    report(
        12,
        ok,
        f"Gamma seed: T5 variance ratio = {head['variance_ratio']:.3f} (target [0.8, 1.25]), "
        f"KS = {head['ks_distance']:.4f} < {ks_crit:.4f}; T6 variance ratio = {tail['variance_ratio']:.3f} "
        f"(target [0.8, 1.25]), KS = {tail['ks_distance']:.4f}, mean = {tail_mean_sd:.3f} SD",
    )
