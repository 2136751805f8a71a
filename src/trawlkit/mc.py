"""Monte Carlo harness: limit theorems as reproducible pass/fail checks.

An experiment fixes a trawl spec, a seed law, a sampling regime
``delta = c * n^(-1/varpi)``, an n-grid, a replication count and a target
theorem tag.  Each replication simulates a path, runs the estimator, and
records the theorem's statistic; summaries (means, variance ratios against
the analytic limit variance, Kolmogorov-Smirnov normality distances,
convergence slopes) are computed per grid point.

The table ``_THEOREMS`` gives each tag one row, (estimate, summary), and
the harness branches on the row's two values, never on the tag.  An
``ExperimentConfig`` parses its trawl, seed law and test function when it is
built, and checks its simulator and its times at every n of the grid by the
rules the sampler and the statistic apply themselves, so a malformed
experiment fails before any replication runs.

Everything is deterministic given the master seed: per-replication seeds are
derived by keyed spawning, so results do not depend on the execution order
or the worker count.

A block of replications goes from paths to values one way: the lag count
its statistic reads (``ExperimentConfig.lags_for``), one estimator call for
all its paths, and the statistic on each estimate.  ``estimators`` sets how
many paths one call takes (``_rows_per_call``), and each estimate keeps the
bits of a one-path call.

With ``threads > 1`` the replications run on a thread pool inside the
calling process.  Their heavy kernels (pocketfft, numpy's loops over large
arrays, ``Generator`` draws) release the interpreter lock, and the estimator
keeps no state between calls, so threads overlap the work that dominates.
A very short replication spends a larger share of its time in Python under
the lock and scales less.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from itertools import repeat
from typing import Optional

import numpy as np

from .estimators import (
    TestFunction,
    _estimate_paths,
    _rows_per_call,
    choose_window,
    functional_lags,
    lambda_bar_n,
    lambda_n,
    psi_n,
)
from .inference import _tau_report
from .limit_theory import AvarKernel, check_finite_derivative, check_tail_clt
from .models import _as_dict, _check_number, _whole, seed_from_dict, trawl_from_dict
from .simulate import GridScheme, _write_csv, check_simulator, simulate

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

#: Theorem tag -> (estimate, summary).  The estimate is what a replication
#: returns: psi_n, lambda_n, the windowed lambda_bar_n or the scaled ratio
#: tau.  The summary says how the gathered values are read: as an RMSE
#: against the true functional with a convergence slope, as a CLT statistic
#: sqrt(n delta) (estimate - target) against the analytic limit variance, or
#: by the quantiles of |tau|.
_THEOREMS = {"T1": ("psi", "rmse"), "T3": ("lambda", "rmse"), "T4": ("lambda_bar", "rmse"),
             "T5": ("psi", "clt"), "T6": ("lambda", "clt"), "C1": ("tau", "quantiles")}
THEOREM_TAGS = tuple(_THEOREMS)

#: Estimate -> its statistic (cfg, trawl estimate) -> float.  Each entry looks
#: its function up by name when called, so a wrapper set on this module sees it.
_STATISTICS = {
    "psi": lambda cfg, est: psi_n(est, cfg.g, cfg.t),
    "lambda": lambda cfg, est: lambda_n(est, cfg.g, cfg.t),
    "lambda_bar": lambda cfg, est: lambda_bar_n(est, cfg.g, cfg.t, cfg.window_for(est.n)),
    "tau": lambda cfg, est: _tau_report(est, cfg.tdep_T, cfg.tdep_p).scaled,
}


def test_function_from_dict(cfg) -> TestFunction:
    """Build g(x) = |x|^p from ``{"kind": "square"}`` (p = 2, also the kind
    when none is named) or ``{"kind": "power", "exponent": p}``."""
    cfg = _as_dict("test function", cfg)
    kind = cfg.pop("kind", "square")
    keys = {"square": set(), "power": {"exponent"}}
    if not isinstance(kind, str) or kind not in keys:
        raise ValueError(f"unknown test function kind {kind!r}; choose from {sorted(keys)}")
    unknown = set(cfg) - keys[kind]
    if unknown:
        raise ValueError(f"unknown test function parameters {sorted(unknown)} for kind {kind!r}")
    return TestFunction(float(_check_number("exponent", cfg["exponent"])) if kind == "power" else 2.0)


def true_psi(trawl, g: TestFunction, t: float) -> float:
    """Ground-truth head functional ``int_0^t g(a(s)) ds`` of g(x) = |x|^p."""
    return float(trawl.head_integral(t, g.exponent))


def true_lambda(trawl, g: TestFunction, t: float) -> float:
    """Ground-truth tail functional ``int_t^inf g(a(s)) ds`` of g(x) = |x|^p."""
    return float(trawl.power_tail_integral(t, g.exponent))


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible Monte Carlo experiment definition.

    Building one checks every field and parses the trawl, seed law and test
    function once, into the attributes ``trawl_model``, ``seed_model`` and
    ``g`` that every replication reads.  They are not dataclass fields, so
    ``to_dict``, ``config_hash`` and equality see only the fields as given.
    Every theorem but C1 needs a seed with kappa2 = 1: a_hat estimates
    kappa2 * a, while the targets and the limit variances are functionals
    of a itself.  The simulator must be able to draw the seed at every n
    (``check_simulator``), and at every n the theorem's statistic must be
    able to read its time, t or C1's tdep_T (``lags_for``).  A tail
    target must be finite, a tail CLT's limit must exist
    (``check_tail_clt``), and a CLT's g' must be finite wherever its limit
    variance reads a (``check_finite_derivative``): an exponent below 1 only
    where a stays positive, on [0, t] for T5 and on [t, inf) for T6.  All
    three rules are closed forms.
    """

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
        for name in ("varpi", "c", "t", "theta", "kappa", "tdep_T", "tdep_p"):
            if name != "kappa" or self.kappa is not None:  # kappa None: choose_window's default
                _check_number(name, getattr(self, name))
        if not 1 < self.varpi < 3:
            raise ValueError("varpi must lie in (1, 3)")
        if not 0 <= self.t < math.inf:
            raise ValueError("t must be non-negative and finite")
        for name in ("c", "theta", "tdep_T", "tdep_p"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not isinstance(self.n_grid, (list, tuple)) or not self.n_grid:
            raise ValueError(f"n_grid must be a non-empty list of integers, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(_whole("n_grid", n) for n in self.n_grid))
        if min(self.n_grid) < 2 or len(set(self.n_grid)) < len(self.n_grid):
            raise ValueError(f"n_grid entries must be distinct and at least 2, got {self.n_grid!r}")
        for name in ("replications", "threads", "master_seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if _THEOREMS[self.theorem][1] != "rmse":  # sqrt(n delta)-scaled: the CLTs and tau
            n_max = max(self.n_grid)
            nd3 = n_max * self.delta_for(n_max) ** 3
            if nd3 >= 0.1:
                raise ValueError(f"CLT regime requires n*delta^3 -> 0; got {nd3:.3g} at n={n_max}")
        object.__setattr__(self, "trawl_model", trawl_from_dict(self.trawl))
        object.__setattr__(self, "seed_model", seed_from_dict(self.seed_spec))
        object.__setattr__(self, "g", test_function_from_dict(self.test_function))
        kappa2 = self.seed_model.kappa2
        if _THEOREMS[self.theorem][0] != "tau" and not math.isclose(kappa2, 1.0, rel_tol=1e-12):
            raise ValueError(
                f"{self.theorem} needs a seed with kappa2 = 1, got kappa2 = {kappa2!r}: a_hat estimates "
                f"kappa2 * a, and the targets and limit variances are those of a (C1's ratio cancels kappa2)"
            )
        check_simulator(self.simulator, self.seed_model, max(self.n_grid))
        estimate, summary_kind = _THEOREMS[self.theorem]
        try:
            if estimate in ("lambda", "lambda_bar"):  # the tail target, infinite at p * alpha <= 1
                self.trawl_model.power_tail_integral(self.t, self.g.exponent)
            if summary_kind == "clt":  # the closed-form conditions of the limit variance
                if estimate == "lambda":
                    check_tail_clt(self.trawl_model, self.g)
                check_finite_derivative(self.trawl_model, self.g, self.t if estimate == "psi" else math.inf)
        except ValueError as exc:
            raise ValueError(f"test_function = {self.test_function!r} does not fit {self.theorem}: {exc}") from None
        if estimate == "lambda_bar":
            self.window_for(self.n_grid[0])  # an explicit kappa outside its bounds fails here, unwrapped
        name = "tdep_T" if estimate == "tau" else "t"
        for n in self.n_grid:
            try:
                self.lags_for(n)
            except ValueError as exc:
                raise ValueError(f"{name} = {getattr(self, name)!r} does not fit n = {n}: {exc}") from None

    def lags_for(self, n: int) -> int:
        """L, the lags the theorem's statistic reads at n: the stop of its
        ``functional_lags``, at least 1 (psi_n at t < delta reads none)."""
        estimate = _THEOREMS[self.theorem][0]
        time = self.tdep_T if estimate == "tau" else self.t
        window = self.window_for(n) if estimate == "lambda_bar" else None
        return max(functional_lags(estimate, n, self.delta_for(n), time, window)[1], 1)

    def window_for(self, n: int) -> int:
        """The window of lambda_bar_n at n.  The floor(e)-th derivative of
        |x|^e is O(|x|^p) at 0, p = e - floor(e)."""
        p = self.g.exponent - math.floor(self.g.exponent)
        return choose_window(n, self.varpi, self.theta, self.kappa, alpha=self.trawl_model.tail_exponent, p=p)

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
        d = _as_dict("experiment", d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown experiment fields {sorted(unknown)}")
        required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
        if required - set(d):
            raise ValueError(f"missing experiment fields {sorted(required - set(d))}")
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


def _block_size(cfg: ExperimentConfig, n: int) -> int:
    """Replications per call of ``_one_replication`` at n: the paths that one
    call of ``_estimate_paths`` estimates at the statistic's lag count."""
    return _rows_per_call(n, cfg.lags_for(n))


def _one_replication(cfg: ExperimentConfig, n: int, rep: int) -> list:
    """The raw statistics of the block of ``_block_size`` replications that
    starts at ``rep``, cut short at the last replication: its paths, each
    from its own substream, estimated in one call, and the row's statistic
    on each estimate.  A value does not depend on the block it ran in."""
    paths = [
        simulate(cfg.trawl_model, cfg.seed_model,
                 GridScheme(n=n, delta=cfg.delta_for(n), master_seed=_rep_seed(cfg.master_seed, n, r)),
                 cfg.simulator)
        for r in range(rep, min(rep + _block_size(cfg, n), cfg.replications))
    ]
    statistic = _STATISTICS[_THEOREMS[cfg.theorem][0]]
    return [statistic(cfg, est) for est in _estimate_paths(paths, cfg.lags_for(n))]


def run_experiment(cfg: ExperimentConfig) -> McResult:
    """Run all replications over the n-grid and summarize.

    Blocks of one or two replications (``_block_size``) are independent
    work units, each replication drawing only from its own substreams; with
    ``threads > 1`` the blocks run on one thread pool for the whole n-grid,
    gathered in order, so the result is bit-identical at any worker count.
    The theorem's row of ``_THEOREMS`` picks the target and the summary: an
    RMSE summary compares the estimates with the true functional; a CLT
    summary centres and scales them as sqrt(n delta) (estimate - target) and
    compares their variance with the limit variance of the same functional.
    """
    estimate, summary_kind = _THEOREMS[cfg.theorem]
    theory = {}
    if estimate == "psi":
        target = theory["psi"] = true_psi(cfg.trawl_model, cfg.g, cfg.t)
    elif estimate != "tau":
        target = theory["lambda"] = true_lambda(cfg.trawl_model, cfg.g, cfg.t)
    if summary_kind == "clt":
        limit_cov = getattr(AvarKernel(cfg.trawl_model, k4=cfg.seed_model.kappa4), f"limit_cov_{estimate}")
        theory["limit_variance"] = limit_cov(cfg.g, cfg.t, cfg.t)

    ns, starts = zip(*((n, rep) for n in cfg.n_grid for rep in range(0, cfg.replications, _block_size(cfg, n))))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            blocks = list(pool.map(_one_replication, repeat(cfg), ns, starts))
    else:
        blocks = list(map(_one_replication, repeat(cfg), ns, starts))
    values = [value for block in blocks for value in block]

    all_stats, summaries = {}, {}
    for n, vals in zip(cfg.n_grid, np.reshape(values, (len(cfg.n_grid), cfg.replications))):
        if summary_kind == "clt":
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
        if summary_kind == "rmse":
            summary["rmse"] = float(np.sqrt(np.mean((vals - target) ** 2)))
        elif summary_kind == "clt":
            limit_var = theory["limit_variance"]
            summary["variance_ratio"] = summary["variance"] / limit_var if limit_var > 0 else math.inf
            if len(vals) >= 20 and limit_var > 0:
                summary["ks_distance"] = ks_distance(vals / math.sqrt(limit_var))
        else:
            summary["median_abs_scaled"] = float(np.median(np.abs(vals)))
            summary["q95_abs_scaled"] = float(np.quantile(np.abs(vals), 0.95))
        summaries[n] = summary

    if summary_kind == "rmse" and len(cfg.n_grid) >= 3:
        nds = [n * cfg.delta_for(n) for n in cfg.n_grid]
        rmses = [summaries[n]["rmse"] for n in cfg.n_grid]
        if all(r > 0 for r in rmses):
            slope = convergence_slope(nds, rmses)
            for n in cfg.n_grid:
                summaries[n]["convergence_slope"] = slope

    return McResult(config=cfg, stats=all_stats, summaries=summaries, theory=theory)
