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

from .estimators import TestFunction, TrawlEstimate, _sum_g, estimate_trawl, functional_lags
from .simulate import SampledPath

__all__ = ["DegeneratePathError", "TestReport", "tau_test"]


class DegeneratePathError(ValueError):
    """The ratio is undefined on the path: its estimate vanishes at every
    lag of tau's head, so the denominator is 0."""


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


def tau_test(path: SampledPath, T: float, p: float = 4.0) -> TestReport:
    """Compute the T-dependence ratio statistic on an observed path.

    ``p`` defaults to 4, the smallest integer satisfying the p > 3 moment
    condition of the divergence result; smaller p is allowed but flagged.
    """
    return _tau_report(estimate_trawl(path), T, p)


def _tau_report(est: TrawlEstimate, T: float, p: float) -> TestReport:
    """The ratio test on an estimate that holds all n lags: ``tau_test``
    applies it to ``estimate_trawl(path)``, the Monte Carlo harness to the
    estimates of its blocks of paths.  Both sums are ``_sum_g``'s, which
    refuses an estimate of fewer lags.  It refuses a p, and through
    ``functional_lags`` a T, that the test cannot take."""
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    n, delta, g = est.n, est.delta, TestFunction(p)
    head_terms, stop = functional_lags("tau", n, delta, T)
    denominator = _sum_g(est, g, 0, head_terms, "tau")
    full = _sum_g(est, g, 0, stop, "tau")
    numerator = full - denominator
    if denominator <= 0.0:
        raise DegeneratePathError("degenerate path: head functional vanished")
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
