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

from .estimators import TestFunction, estimate_trawl
from .simulate import SampledPath

__all__ = ["TestReport", "tau_test", "check_tau_horizon"]


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


def check_tau_horizon(n: int, delta: float, T: float) -> None:
    """Refuse a T beyond the observed horizon (n-1)*delta of a path of n
    steps: ``tau_test``'s rule, which the Monte Carlo harness checks its
    configs with before it draws a path."""
    if T > (n - 1) * delta:
        raise ValueError(f"T exceeds the observed horizon (n-1)*delta = {(n - 1) * delta!r} at n = {n}")


def tau_test(path: SampledPath, T: float, p: float = 4.0) -> TestReport:
    """Compute the T-dependence ratio statistic on an observed path.

    ``p`` defaults to 4, the smallest integer satisfying the p > 3 moment
    condition of the divergence result; smaller p is allowed but flagged.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    n, delta = path.n, path.delta
    check_tau_horizon(n, delta, T)
    est = estimate_trawl(path)
    powers = TestFunction(p).g(est.a_hat)
    head_terms = int(math.ceil(T / delta - 1e-12))
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
