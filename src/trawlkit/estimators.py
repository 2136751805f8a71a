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

A statistic may need only the first L lags: the head functional
``int_0^t g(a(s)) ds`` reads floor(t / delta) of them and the windowed tail
sum its window.  Lags 0..L-1 need R(0..L), which a circular correlation of
length m gives free of wrap-around once m >= n + L + 1, so the transform
shrinks from about 2n towards n; all n lags need m >= 2n.  m is the
smallest 5-smooth length that suffices: numpy's real FFT has fast passes for
the factors 2, 3 and 5 only, and a length with a large prime factor falls
back to Bluestein's algorithm, several times slower.  The transforms use a
per-thread workspace of 24 * m bytes.  The Monte Carlo harness asks for
floor(t / delta) lags (at least one) for psi_n (T1, T5) and for the window
for lambda_bar_n (T4); lambda_n (T3, T6) and the T-dependence ratio (C1)
read all n.

For a trawl process Cov(X_0, X_h) = kappa2 * A(h), so a_hat estimates
kappa2 * a: the trawl function itself only for a seed with kappa2 = 1.

Plug-in Riemann sums of g(a_hat) estimate the head functional
``int_0^t g(a(s)) ds`` and the tail functional ``int_t^inf g(a(s)) ds``.
The full tail sum is biased by a factor of 2 for quadratic g; truncating the
sum at a slowly growing window removes the bias.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simulate import SampledPath

__all__ = [
    "TestFunction",
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
    """The test function g(x) = |x|^exponent; ``TestFunction(2.0)`` is the
    quadratic case with the tail-sum bias.

    The exponent gives the closed-form target functionals and is the order
    at 0 that the tail CLT checks.
    """

    exponent: float

    def __post_init__(self):
        if not 0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be positive and finite, got {self.exponent!r}")

    def g(self, x):
        if self.exponent == 4.0:
            # numpy raises to the power 4 through pow(), several times slower
            # than squaring twice
            x2 = np.square(x)
            x2 *= x2
            return x2
        return np.abs(x) ** self.exponent

    def dg(self, x):
        e = self.exponent
        return e * np.abs(x) ** (e - 1) * np.sign(x)


@dataclass
class TrawlEstimate:
    """Trawl-function estimates a_hat(l * delta) for the first L lags,
    l = 0..L-1, of a path of n steps; 1 <= L <= n."""

    delta: float
    n: int
    a_hat: np.ndarray
    x_bar: float

    def __post_init__(self):
        self.a_hat = np.asarray(self.a_hat, dtype=float)
        if not 1 <= len(self.a_hat) <= self.n:
            raise ValueError(f"a_hat must hold 1 to n = {self.n} lags, got {len(self.a_hat)}")
        if not np.all(np.isfinite(self.a_hat)):
            raise ValueError("non-finite trawl estimates")

    @property
    def lags(self) -> int:
        """L, the number of lags estimated."""
        return len(self.a_hat)

    @property
    def lag_times(self):
        return self.delta * np.arange(self.lags)


@functools.lru_cache(maxsize=256)
def _fast_length(k: int) -> int:
    """The smallest 5-smooth integer m >= k >= 1, that is m = 2^i 3^j 5^l."""
    best = 1 << (k - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power of two times odd that reaches k
            best = min(best, odd << (-(-k // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


class _Workspace(threading.local):
    """The FFT buffers of the last transform length m seen by this thread:
    the zero-padded centred path (m float64), its half spectrum (m/2 + 1
    complex128) and the autocorrelation (m float64), 24 * m bytes in all.
    Reusing them spares every call the page faults of fresh buffers."""

    m = 0

    def buffers(self, m: int):
        if m != self.m:
            self.m, self.arrays = 0, None  # free the old buffers first
            self.arrays = (np.empty(m), np.empty(m // 2 + 1, dtype=complex), np.empty(m))
            self.m = m
        return self.arrays


_workspace = _Workspace()


def estimate_trawl(path: SampledPath, lags: Optional[int] = None) -> TrawlEstimate:
    """Estimate the trawl function at the first ``lags`` lags of an observed
    path, l = 0..L-1 with L = ``lags`` (default and at most n): the estimates
    converge to kappa2 * a, the seed's variance per unit area times the trawl
    function.

    The path is centred, y = x - xbar, and the autocorrelation R(0..L) of y
    comes from one real FFT and its inverse; then a_hat(l * delta) =
    (R(l) - R(l+1) - y_{n-l} y_n) / (n * delta).  The transform length m is
    the smallest 5-smooth integer (2^i 3^j 5^k) that keeps R(0..L) exact:

    * for L < n, m >= n + L + 1, so the circular correlation's wrapped lags
      -(m - h) stay below -n, where R vanishes, for every h <= L;
    * for L = n, m >= 2n.  Lag n is then the only one that can wrap around:
      when m = 2n the circular correlation adds lag -n to it and doubles it,
      so R(n) = y_0 y_n is set directly.  At a power-of-two n this m is
      exactly 2n, the next power of two.

    The transforms run in a per-thread workspace of 24 * m bytes (12 MiB for
    all lags at n = 2^18) that is kept for the next call of the same m and
    replaced when m changes; every call rewrites the whole padded input, so
    nothing of an earlier call leaks into the result.  Only the returned
    ``a_hat`` is freshly allocated.  The O(n^2) oracle that evaluates the
    defining sum lag by lag lives in the tests (``tests/oracles.py``).
    """
    x = path.values
    n = path.n
    delta = path.delta
    num_lags = n if lags is None else operator.index(lags)
    if not 1 <= num_lags <= n:
        raise ValueError(f"lags must lie in 1..n = {n}, got {num_lags}")
    if not np.all(np.isfinite(x)):
        raise ValueError("path contains non-finite values")
    x_bar = float(np.mean(x[:n]))
    m = _fast_length(2 * n if num_lags == n else n + num_lags + 1)
    pad, spec, corr = _workspace.buffers(m)
    y = np.subtract(x, x_bar, out=pad[: n + 1])
    pad[n + 1 :] = 0.0
    np.fft.rfft(pad, out=spec)
    # |f|^2 in place: square re and im, add im into re, zero im.
    power = spec.view(float)
    np.multiply(power, power, out=power)
    np.add(power[0::2], power[1::2], out=power[0::2])
    power[1::2] = 0.0
    np.fft.irfft(spec, m, out=corr)
    r = corr[: num_lags + 1]
    if num_lags == n:
        r[n] = y[0] * y[n]
    a_hat = np.subtract(r[:-1], r[1:])
    tmp = np.multiply(y[n : n - num_lags : -1], y[n], out=power[:num_lags])
    np.subtract(a_hat, tmp, out=a_hat)
    np.divide(a_hat, n * delta, out=a_hat)
    return TrawlEstimate(delta=delta, n=n, a_hat=a_hat, x_bar=x_bar)


def num_head_terms(delta: float, t: float) -> int:
    """floor(t / delta), the number of lags below t: the head sum's length
    and the tail sums' first lag.  The 1e-12 slack keeps a t on the grid
    from losing a lag to rounding (0.3 / 0.1 = 2.9999999999999996)."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be non-negative and finite")
    return int(math.floor(t / delta + 1e-12))


def _sum_g(est: TrawlEstimate, g: TestFunction, start: int, stop: int, name: str) -> float:
    """delta * sum_{l=start}^{stop-1} g(a_hat(l delta)), refusing lags beyond
    the L that ``est`` holds."""
    if stop > est.lags:
        raise ValueError(f"{name} reads {stop} lags but the estimate holds {est.lags}; "
                         f"estimate_trawl(path, lags={stop}) covers it")
    return float(est.delta * np.sum(g.g(est.a_hat[start:stop])))


def psi_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Head-functional estimate: delta * sum_{l=0}^{floor(t/delta)-1} g(a_hat)."""
    terms = num_head_terms(est.delta, t)
    if terms > est.n:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return _sum_g(est, g, 0, terms, "psi_n")


def lambda_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Tail-functional estimate: delta * sum_{l=floor(t/delta)}^{n-1} g(a_hat);
    it reads every lag, so ``est`` must hold all n."""
    start = num_head_terms(est.delta, t)
    if start > est.n - 1:
        raise ValueError("t exceeds the observed horizon (n-1)*delta")
    return _sum_g(est, g, start, est.n, "lambda_n")


def lambda_bar_n(est: TrawlEstimate, g: TestFunction, t: float, window: int) -> float:
    """Windowed tail-functional estimate, summed up to lag ``window - 1``."""
    start = num_head_terms(est.delta, t)
    if not start < window <= est.n:
        raise ValueError("need floor(t/delta) < window <= n")
    return _sum_g(est, g, start, window, "lambda_bar_n")


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
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    lower, upper = window_exponent_bounds(varpi, alpha, p)
    if kappa is None:
        kappa = 0.5 * (lower + upper)
    elif not lower < kappa < upper:
        raise ValueError(f"kappa={kappa} outside admissible interval ({lower:.6g}, {upper:.6g})")
    return int(min(max(round(theta * n**kappa), 1), n))
