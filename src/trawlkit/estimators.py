"""Nonparametric estimation of the trawl function and its functionals.

The lag-l estimate of the trawl function is a centered cross-correlation
between the path and its increments,

    a_hat(l * delta) = -(1 / (n * delta)) * sum_{k=l}^{n-1}
                       (X_{(k-l) delta} - xbar) * (X_{(k+1) delta} - X_{k delta}).

Increments do not change when the path is shifted, so with the centred path
y_k = X_{k delta} - xbar (k = 0..n) the sum is an autocorrelation difference,

    sum_{k=0}^{n-1-l} y_k (y_{k+l+1} - y_{k+l}) = R(l+1) - R(l) + y_{n-l} y_n,
    R(h) = sum_{k=0}^{n-h} y_k y_{k+h},

so every lag comes from one autocorrelation of y: one forward and one inverse
real FFT.  Centring first matters: on an uncentred path R(h) carries a term
of order n * xbar^2 whose rounding error survives the difference
R(l+1) - R(l), so a path with mean 100 and unit variance would lose about
five digits.

Plug-in Riemann sums of g(a_hat) estimate the head functional
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
    "num_head_terms",
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
    oracle for the default ``"fft"`` method.  That method centres the path,
    y = x - xbar, and takes the autocorrelation R(0..n) of y from one real
    FFT of length m = 2^ceil(log2(2n)) >= 2n and its inverse; then
    a_hat(l * delta) = (R(l) - R(l+1) - y_{n-l} y_n) / (n * delta).  Lag n
    is the only one that can wrap around: when m = 2n the circular
    correlation adds lag -n to it and doubles it, so R(n) = y_0 y_n is set
    directly.
    """
    x = path.values
    n = path.n
    delta = path.delta
    if not np.all(np.isfinite(x)):
        raise ValueError("path contains non-finite values")
    x_bar = float(np.mean(x[:n]))
    if method == "naive":
        dx = np.diff(x)
        raw = np.empty(n)
        for lag in range(n):
            raw[lag] = np.dot(x[: n - lag], dx[lag:])
        centering = x_bar * (x[n] - x[:n])
        a_hat = -(raw - centering) / (n * delta)
    elif method == "fft":
        y = x - x_bar
        m = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(y, m)
        r = np.fft.irfft(f.real * f.real + f.imag * f.imag, m)[: n + 1]
        r[n] = y[0] * y[n]
        a_hat = (r[:n] - r[1:] - y[n:0:-1] * y[n]) / (n * delta)
    else:
        raise ValueError("method must be 'naive' or 'fft'")
    return TrawlEstimate(delta=delta, n=n, a_hat=a_hat, x_bar=x_bar)


def num_head_terms(est: TrawlEstimate, t: float) -> int:
    """floor(t / delta), the number of lags below t: the head sum's length
    and the tail sums' first lag.  The 1e-12 slack keeps a t on the grid
    from losing a lag to rounding (0.3 / 0.1 = 2.9999999999999996)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return int(math.floor(t / est.delta + 1e-12))


def psi_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Head-functional estimate: delta * sum_{l=0}^{floor(t/delta)-1} g(a_hat)."""
    terms = num_head_terms(est, t)
    if terms > est.n:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return float(est.delta * np.sum(g.g(est.a_hat[:terms])))


def lambda_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Tail-functional estimate: delta * sum_{l=floor(t/delta)}^{n-1} g(a_hat)."""
    start = num_head_terms(est, t)
    if start > est.n - 1:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return float(est.delta * np.sum(g.g(est.a_hat[start:])))


def lambda_bar_n(est: TrawlEstimate, g: TestFunction, t: float, window: int) -> float:
    """Windowed tail-functional estimate, summed up to lag ``window - 1``."""
    start = num_head_terms(est, t)
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
