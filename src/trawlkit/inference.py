"""A memory-robust test for T-dependence.

A trawl process is T-dependent exactly when its trawl function vanishes
beyond T, equivalently when the tail functional ``int_T^inf |a(s)|^p ds`` is
zero for some (hence every) p > 0.  The ratio statistic

    tau = [delta * sum_{l=0}^{n-1} |a_hat(l delta)|^p]
        / [delta * sum_{l=0}^{ceil(T/delta)-1} |a_hat(l delta)|^p]  -  1

compares the full tail sum with its head part; scaled by sqrt(n * delta) it
vanishes under the null and diverges otherwise, provided p > 3.  No critical
value is attached: the limit theory gives no null CLT, so thresholds must
come from Monte Carlo quantiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import TestFunction, TrawlEstimate, estimate_trawl, functional_lags
from .simulate import SampledPath

__all__ = ["TestReport", "tau_test"]


@dataclass(frozen=True)
class TestReport:
    """Outcome of the T-dependence ratio test."""

    T: float
    p: float
    tau: float
    scaled: float
    numerator: float
    denominator: float
    n: int
    delta: float
    p_below_clt_threshold: bool

    def to_json(self, **kwargs) -> str:
        return json.dumps(asdict(self), **kwargs)


def _head_terms(n: int, delta: float, T: float, p: float) -> int:
    """ceil(T/delta), the head's lag count, after refusing a T or p that the
    test cannot take."""
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    return functional_lags("tau", n, delta, T)[1]


def tau_test(path: SampledPath, T: float, p: float = 4.0) -> TestReport:
    """Compute the T-dependence ratio statistic on an observed path.

    ``p`` defaults to 4, the smallest integer satisfying the p > 3 moment
    condition of the divergence result; smaller p is allowed but flagged.
    """
    _head_terms(path.n, path.delta, T, p)  # refuse T and p before estimating
    return _tau_report(estimate_trawl(path), T, p)


def _tau_report(est: TrawlEstimate, T: float, p: float) -> TestReport:
    """The ratio test on an estimate that holds all n lags: ``tau_test``
    applies it to ``estimate_trawl(path)``, the Monte Carlo harness to the
    estimates of a stacked pair of paths."""
    n, delta = est.n, est.delta
    head_terms = _head_terms(n, delta, T, p)
    if est.lags != n:
        raise ValueError(f"tau reads all n = {n} lags but the estimate holds {est.lags}")
    powers = TestFunction(p).g(est.a_hat)
    denominator = float(delta * np.sum(powers[:head_terms]))
    full = float(delta * np.sum(powers))
    # Tail part: the lags l >= ceil(T/delta).  lambda_n(est, |x|^p, T) starts
    # at floor(T/delta), so the two agree only when T/delta is an integer.
    numerator = full - denominator
    if denominator <= 0.0:
        raise ValueError("degenerate path: head functional vanished")
    tau = full / denominator - 1.0
    return TestReport(
        T=T,
        p=p,
        tau=tau,
        scaled=math.sqrt(n * delta) * tau,
        numerator=numerator,
        denominator=denominator,
        n=n,
        delta=delta,
        p_below_clt_threshold=p <= 3.0,
    )
