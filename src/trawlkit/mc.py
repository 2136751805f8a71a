"""Monte Carlo harness: limit theorems as reproducible pass/fail checks.

An experiment fixes a trawl spec, a seed law, a sampling regime
``delta = c * n^(-1/varpi)``, an n-grid, a replication count and a target
theorem tag.  Each replication simulates a path, runs the estimator, and
records the theorem's statistic; summaries (means, variance ratios against
the analytic limit variance, Kolmogorov-Smirnov normality distances,
convergence slopes) are computed per grid point.

Everything is deterministic given the master seed: per-replication seeds are
derived by keyed spawning, so results do not depend on the execution order
or the worker count.

With ``threads > 1`` the replications run on a thread pool inside the
calling process.  Their heavy kernels (pocketfft, numpy's loops over large
arrays, ``Generator`` draws) release the interpreter lock, and the
estimator's FFT workspace is per thread, so threads overlap the work that
dominates.  A very short replication spends a larger share of its time in
Python under the lock and scales less.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .estimators import (
    TestFunction,
    choose_window,
    estimate_trawl,
    lambda_bar_n,
    lambda_n,
    num_head_terms,
    psi_n,
)
from .inference import tau_test
from .limit_theory import AvarKernel
from .models import LevySeedSpec, TrawlSpec, seed_from_dict, trawl_from_dict
from .simulate import GridScheme, _write_csv, simulate

__all__ = [
    "ExperimentConfig",
    "McResult",
    "run_experiment",
    "ks_distance",
    "convergence_slope",
    "true_psi",
    "true_lambda",
    "test_function_from_dict",
]

THEOREM_TAGS = ("T1", "T3", "T4", "T5", "T6", "C1")


def test_function_from_dict(cfg) -> TestFunction:
    """Build g(x) = |x|^p from ``{"kind": "square"}`` (p = 2, also the kind
    when none is named) or ``{"kind": "power", "exponent": p}``."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", "square")
    keys = {"square": set(), "power": {"exponent"}}
    if kind not in keys:
        raise ValueError(f"unknown test function kind {kind!r}; choose from {sorted(keys)}")
    unknown = set(cfg) - keys[kind]
    if unknown:
        raise ValueError(f"unknown test function parameters {sorted(unknown)} for kind {kind!r}")
    return TestFunction(float(cfg["exponent"]) if kind == "power" else 2.0)


def true_psi(trawl, g: TestFunction, t: float) -> float:
    """Ground-truth head functional ``int_0^t g(a(s)) ds`` of g(x) = |x|^p."""
    p = g.exponent
    return float(trawl.power_tail_integral(0.0, p) - trawl.power_tail_integral(t, p))


def true_lambda(trawl, g: TestFunction, t: float) -> float:
    """Ground-truth tail functional ``int_t^inf g(a(s)) ds`` of g(x) = |x|^p."""
    return float(trawl.power_tail_integral(t, g.exponent))


def _whole(name, value) -> int:
    """``value`` as an int; a float is accepted only when it is integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible Monte Carlo experiment definition."""

    trawl: dict
    seed_spec: dict
    theorem: str
    n_grid: tuple
    replications: int
    varpi: float = 2.0
    c: float = 1.0
    t: float = 1.0
    test_function: dict = field(default_factory=lambda: {"kind": "square"})
    theta: float = 1.0
    kappa: Optional[float] = None
    tdep_T: float = 1.0
    tdep_p: float = 4.0
    master_seed: int = 0
    simulator: str = "auto"
    threads: int = 1

    def __post_init__(self):
        if self.theorem not in THEOREM_TAGS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}; choose from {THEOREM_TAGS}")
        if not 1 < self.varpi < 3:
            raise ValueError("varpi must lie in (1, 3)")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if not self.n_grid:
            raise ValueError("empty n grid")
        object.__setattr__(self, "n_grid", tuple(_whole("n_grid", n) for n in self.n_grid))
        for name in ("replications", "threads", "master_seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.theorem in ("T5", "T6", "C1"):
            n_max = max(self.n_grid)
            nd3 = n_max * self.delta_for(n_max) ** 3
            if nd3 >= 0.1:
                raise ValueError(
                    f"CLT regime requires n*delta^3 -> 0; got {nd3:.3g} at n={n_max}"
                )

    def delta_for(self, n: int) -> float:
        return self.c * n ** (-1.0 / self.varpi)

    def to_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["n_grid"] = list(self.n_grid)
        return d

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown experiment fields {sorted(unknown)}")
        return cls(**d)


@dataclass
class McResult:
    """Raw per-replication statistics and per-n summaries."""

    config: ExperimentConfig
    stats: dict  # n -> np.ndarray of per-replication statistics
    summaries: dict  # n -> {mean, variance, ...}
    theory: dict  # analytic targets shared by all n

    def raw_rows(self):
        for n in self.config.n_grid:
            for rep, value in enumerate(self.stats[n]):
                yield n, rep, float(value)

    def write_csv(self, path):
        _write_csv(path, ["n", "rep", "stat"], self.raw_rows())

    def summary_dict(self):
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "theory": self.theory,
            "summaries": {str(n): s for n, s in self.summaries.items()},
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2)


def ks_distance(samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    samples = np.sort(np.asarray(samples, dtype=float))
    m = len(samples)
    if m < 20:
        raise ValueError("need at least 20 samples")
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in samples])
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


def convergence_slope(n_deltas, rmses) -> float:
    """Least-squares slope of log RMSE against log(n * delta)."""
    x = np.log(np.asarray(n_deltas, dtype=float))
    y = np.asarray(rmses, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(y <= 0):
        raise ValueError("RMSEs must be positive")
    slope, _ = np.polyfit(x, np.log(y), 1)
    return float(slope)


def _rep_seed(master_seed: int, n: int, rep: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(n, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class _Parsed(NamedTuple):
    """An experiment with its trawl, seed law and test function parsed once
    and shared, read-only, by every replication."""

    cfg: ExperimentConfig
    trawl: TrawlSpec
    seed: LevySeedSpec
    g: TestFunction


def _one_replication(exp: _Parsed, n: int, rep: int) -> float:
    """One replication's raw statistic: psi_n (T1, T5), lambda_n (T3, T6),
    the windowed lambda_bar_n (T4) or the scaled ratio tau (C1)."""
    cfg, trawl, seed, g = exp
    scheme = GridScheme(n=n, delta=cfg.delta_for(n), master_seed=_rep_seed(cfg.master_seed, n, rep))
    path = simulate(trawl, seed, scheme, cfg.simulator)
    if cfg.theorem == "C1":
        return tau_test(path, T=cfg.tdep_T, p=cfg.tdep_p).scaled
    est = estimate_trawl(path)
    if cfg.theorem in ("T1", "T5"):
        return psi_n(est, g, cfg.t)
    if cfg.theorem in ("T3", "T6"):
        return lambda_n(est, g, cfg.t)
    # The floor(e)-th derivative of |x|^e is O(|x|^p) at 0.
    p = g.exponent - math.floor(g.exponent)
    window = choose_window(n, cfg.varpi, cfg.theta, cfg.kappa, alpha=trawl.tail_exponent, p=p)
    return lambda_bar_n(est, g, cfg.t, max(window, num_head_terms(est, cfg.t) + 1))


def run_experiment(cfg: ExperimentConfig) -> McResult:
    """Run all replications over the n-grid and summarize.

    The trawl, seed law and test function are parsed once.  Replications are
    independent work units, each drawing only from its own substreams; with
    ``threads > 1`` they run on one thread pool for the whole n-grid,
    gathered in order, so the result is bit-identical at any worker count.
    T5 and T6 centre and scale the gathered estimates as
    sqrt(n delta) (estimate - target).
    """
    trawl = trawl_from_dict(cfg.trawl)
    seed = seed_from_dict(cfg.seed_spec)
    g = test_function_from_dict(cfg.test_function)
    exp = _Parsed(cfg, trawl, seed, g)

    theory = {}
    if cfg.theorem in ("T1", "T5"):
        theory["psi"] = true_psi(trawl, g, cfg.t)
    if cfg.theorem in ("T3", "T4", "T6"):
        theory["lambda"] = true_lambda(trawl, g, cfg.t)
    if cfg.theorem in ("T5", "T6"):
        kern = AvarKernel(trawl, k4=seed.kappa4)
        limit_cov = kern.limit_cov_psi if cfg.theorem == "T5" else kern.limit_cov_lambda
        theory["limit_variance"] = limit_cov(g, cfg.t, cfg.t)

    ns = [n for n in cfg.n_grid for _ in range(cfg.replications)]
    reps = list(range(cfg.replications)) * len(cfg.n_grid)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            values = list(pool.map(_one_replication, repeat(exp), ns, reps))
    else:
        values = list(map(_one_replication, repeat(exp), ns, reps))

    all_stats, summaries = {}, {}
    for n, vals in zip(cfg.n_grid, np.reshape(values, (len(cfg.n_grid), cfg.replications))):
        if cfg.theorem in ("T5", "T6"):
            target = theory["psi"] if cfg.theorem == "T5" else theory["lambda"]
            vals = math.sqrt(n * cfg.delta_for(n)) * (vals - target)
        all_stats[n] = vals
        summary = {
            "n": n,
            "delta": cfg.delta_for(n),
            "replications": len(vals),
            "mean": float(np.mean(vals)),
            "variance": float(np.var(vals, ddof=1)) if len(vals) > 1 else 0.0,
            "median": float(np.median(vals)),
        }
        if cfg.theorem == "T1":
            summary["rmse"] = float(np.sqrt(np.mean((vals - theory["psi"]) ** 2)))
        if cfg.theorem in ("T3", "T4"):
            summary["rmse"] = float(np.sqrt(np.mean((vals - theory["lambda"]) ** 2)))
        if cfg.theorem in ("T5", "T6"):
            limit_var = theory["limit_variance"]
            summary["variance_ratio"] = summary["variance"] / limit_var if limit_var > 0 else math.inf
            if len(vals) >= 20 and limit_var > 0:
                summary["ks_distance"] = ks_distance(vals / math.sqrt(limit_var))
        if cfg.theorem == "C1":
            summary["median_abs_scaled"] = float(np.median(np.abs(vals)))
            summary["q95_abs_scaled"] = float(np.quantile(np.abs(vals), 0.95))
        summaries[n] = summary

    if cfg.theorem in ("T1", "T3", "T4") and len(cfg.n_grid) >= 3:
        nds = [n * cfg.delta_for(n) for n in cfg.n_grid]
        rmses = [summaries[n]["rmse"] for n in cfg.n_grid]
        if all(r > 0 for r in rmses):
            slope = convergence_slope(nds, rmses)
            for n in cfg.n_grid:
                summaries[n]["convergence_slope"] = slope

    return McResult(config=cfg, stats=all_stats, summaries=summaries, theory=theory)
