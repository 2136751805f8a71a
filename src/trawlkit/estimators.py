"""Nonparametric estimation of the trawl function and its functionals.

The lag-l estimate of the trawl function is a centered cross-correlation
between the path and its increments,

    a_hat(l * delta) = -(1 / (n * delta)) * sum_{k=l}^{n-1}
                       (X_{(k-l) delta} - xbar) * (X_{(k+1) delta} - X_{k delta}),

and plug-in Riemann sums of g(a_hat) estimate the head functional
``int_0^t g(a(s)) ds`` and the tail functional ``int_t^inf g(a(s)) ds``.
The full tail sum is biased by a factor of 2 for quadratic g; truncating the
sum at a slowly growing window removes the bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .simulate import SampledPath

__all__ = [
    "TestFunction",
    "power_function",
    "square_function",
    "TrawlEstimate",
    "estimate_trawl",
    "psi_n",
    "lambda_n",
    "lambda_bar_n",
    "window_exponent_bounds",
    "choose_window",
]


@dataclass(frozen=True)
class TestFunction:
    """A test function g with an optional derivative.

    ``exponent`` is set when g(x) = |x|^exponent; it enables closed-form
    target functionals and is the order at 0 that the tail CLT checks.
    """

    g: Callable[[np.ndarray], np.ndarray]
    dg: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exponent: Optional[float] = None


def power_function(exponent: float) -> TestFunction:
    """g(x) = |x|^exponent."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    e = exponent
    return TestFunction(
        g=lambda x: np.abs(x) ** e,
        dg=lambda x: e * np.abs(x) ** (e - 1) * np.sign(x),
        exponent=e,
    )


def square_function() -> TestFunction:
    """g(x) = x^2, the quadratic case with the tail-sum bias."""
    return power_function(2.0)


@dataclass
class TrawlEstimate:
    """Trawl-function estimates a_hat(l * delta) for l = 0..n-1."""

    delta: float
    n: int
    a_hat: np.ndarray
    x_bar: float

    def __post_init__(self):
        self.a_hat = np.asarray(self.a_hat, dtype=float)
        if len(self.a_hat) != self.n:
            raise ValueError("a_hat must hold n values")
        if not np.all(np.isfinite(self.a_hat)):
            raise ValueError("non-finite trawl estimates")

    @property
    def lag_times(self):
        return self.delta * np.arange(self.n)


def estimate_trawl(path: SampledPath, method: str = "fft") -> TrawlEstimate:
    """Estimate the trawl function at every lag of an observed path.

    ``method="naive"`` evaluates the centered sum lag by lag and is the
    oracle for the default ``"fft"`` method, which computes all lags at once
    through frequency-domain cross-correlation.  The centering term is folded
    in exactly via the telescoping identity
    sum_{k=l}^{n-1} (X_{(k+1)d} - X_{kd}) = X_{nd} - X_{ld}.
    """
    x = path.values
    n = path.n
    delta = path.delta
    if not np.all(np.isfinite(x)):
        raise ValueError("path contains non-finite values")
    dx = np.diff(x)
    x_bar = float(np.mean(x[:n]))
    if method == "naive":
        raw = np.empty(n)
        for lag in range(n):
            raw[lag] = np.dot(x[: n - lag], dx[lag:])
    elif method == "fft":
        m = 1 << (2 * n - 1).bit_length()
        fx = np.fft.rfft(x[:n], m)
        fd = np.fft.rfft(dx, m)
        raw = np.fft.irfft(fd * np.conj(fx), m)[:n]
    else:
        raise ValueError("method must be 'naive' or 'fft'")
    centering = x_bar * (x[n] - x[:n])
    a_hat = -(raw - centering) / (n * delta)
    return TrawlEstimate(delta=delta, n=n, a_hat=a_hat, x_bar=x_bar)


def _num_head_terms(est: TrawlEstimate, t: float) -> int:
    if t < 0:
        raise ValueError("t must be non-negative")
    return int(math.floor(t / est.delta + 1e-12))


def psi_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Head-functional estimate: delta * sum_{l=0}^{floor(t/delta)-1} g(a_hat)."""
    terms = _num_head_terms(est, t)
    if terms > est.n:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return float(est.delta * np.sum(g.g(est.a_hat[:terms])))


def lambda_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Tail-functional estimate: delta * sum_{l=floor(t/delta)}^{n-1} g(a_hat)."""
    start = _num_head_terms(est, t)
    if start > est.n - 1:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return float(est.delta * np.sum(g.g(est.a_hat[start:])))


def lambda_bar_n(est: TrawlEstimate, g: TestFunction, t: float, window: int) -> float:
    """Windowed tail-functional estimate, summed up to lag ``window - 1``."""
    start = _num_head_terms(est, t)
    if not start < window <= est.n:
        raise ValueError("need floor(t/delta) < window <= n")
    return float(est.delta * np.sum(g.g(est.a_hat[start:window])))


def window_exponent_bounds(varpi: float, alpha: float, p: float) -> tuple[float, float]:
    """Admissible interval for the window growth exponent kappa.

    ``varpi`` is the sampling regime exponent (delta ~ n^(-1/varpi)),
    ``alpha`` the polynomial tail exponent of the trawl function, and ``p``
    the small-x order of the test function's top derivative.  The lower bound
    keeps the unobserved tail of the functional asymptotically negligible;
    the upper bound keeps the window's own discretization error negligible.
    """
    if not 1 < varpi < 3:
        raise ValueError("varpi must lie in (1, 3)")
    if p < 0:
        raise ValueError("p must be non-negative")
    if math.isinf(alpha):
        lower = 1.0 / varpi
    else:
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")
        lower = 1.0 / varpi + (varpi - 1.0) / (2.0 * varpi * ((2.0 + p) * alpha - 1.0))
    upper = 0.5 * (1.0 + 1.0 / varpi)
    if lower >= upper:
        raise ValueError(
            f"empty admissible interval ({lower:.6g}, {upper:.6g}) for varpi={varpi}, "
            f"alpha={alpha}, p={p}"
        )
    return lower, upper


def choose_window(
    n: int,
    varpi: float,
    theta: float = 1.0,
    kappa: Optional[float] = None,
    alpha: float = math.inf,
    p: float = 0.0,
) -> int:
    """Window N = clamp(round(theta * n^kappa), 1, n) for the truncated tail sum.

    When ``kappa`` is omitted the midpoint of the admissible interval is
    used; an explicit kappa is validated against that interval.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    lower, upper = window_exponent_bounds(varpi, alpha, p)
    if kappa is None:
        kappa = 0.5 * (lower + upper)
    elif not lower < kappa < upper:
        raise ValueError(f"kappa={kappa} outside admissible interval ({lower:.6g}, {upper:.6g})")
    return int(min(max(round(theta * n**kappa), 1), n))
