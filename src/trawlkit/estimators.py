"""Nonparametric estimation of the trawl function and its functionals.

The lag-l estimate of the trawl function is a centered cross-correlation
between the path and its increments,

    a_hat(l * delta) = -(1 / (n * delta)) * sum_{k=l}^{n-1}
                       (X_{(k-l) delta} - xbar) * (X_{(k+1) delta} - X_{k delta}).

Increments do not change when the path is shifted, so with the centred path
y_k = X_{k delta} - xbar (k = 0..n) the sum is an autocorrelation difference,

    sum_{k=0}^{n-1-l} y_k (y_{k+l+1} - y_{k+l}) = R(l+1) - R(l) + y_{n-l} y_n,
    R(h) = sum_{k=0}^{n-h} y_k y_{k+h},

so every lag comes from one circular autocorrelation of y zero-padded to a
length m: one forward and one inverse FFT.  Centring first matters: on an
uncentred path R(h) carries a term of order n * xbar^2 whose rounding error
survives the difference R(l+1) - R(l), so a path with mean 100 and unit
variance would lose about five digits.

The transforms are complex and of half length M = m/2: the padded y is
packed as z_j = y_{2j} + i y_{2j+1} (Sorensen, Jones, Heideman & Burrus
1987); numpy's complex FFT of length M runs about 1.4 times faster than its
real FFT of length m at m = 2^17 to 2^19.  With Z = FFT_M(z), the halves
y_{2j} and y_{2j+1} have the transforms E_k = (Z_k + conj(Z_{M-k})) / 2 and
O_k = (Z_k - conj(Z_{M-k})) / (2i), and with W = exp(-2 pi i / m) the real
transform of y is Y_k = E_k + W^k O_k, Y_{k+M} = E_k - W^k O_k.  R is the
inverse transform of P_k = |Y_k|^2; split into even and odd lags,

    R(2j) + i R(2j+1) = (1/2) IFFT_M(F)_j,
    F_k = (P_k + P_{k+M}) + i W^{-k} (P_k - P_{k+M}).

With A = Z_k, B = Z_{M-k} and theta_k = 2 pi k / m = pi k / M,

    P_k + P_{k+M} = 2 (|E_k|^2 + |O_k|^2) = |A|^2 + |B|^2 =: G,
    P_k - P_{k+M} = 4 Re(conj(E_k) W^k O_k)
                  = 2 Im(A B) cos(theta_k) - (|A|^2 - |B|^2) sin(theta_k) =: S,

so F_k = (G - S sin(theta_k)) + i S cos(theta_k).  At M - k, A and B swap
and theta becomes pi - theta_k, so S changes sign and F_{M-k} =
(G + S sin(theta_k)) + i S cos(theta_k).  With conj(Phi) = |A|^2 - |B|^2 -
2i Im(A B) and v_k = cos(theta_k) exp(i theta_k) / 2, the halves H = F / 2
are, as expanding the products shows,

    H_k = |A|^2 - v_k conj(Phi),    H_{M-k} = |B|^2 + conj(v_k conj(Phi)),

and H_0 = |Z_0|^2 + 2i Re(Z_0) Im(Z_0), H_{M/2} = |Z_{M/2}|^2, so that
R(2j) + i R(2j+1) = IFFT_M(H)_j.  One complex product with a table of v
per pair (k, M - k), k = 1..M/2 - 1, turns Z into H in place.  That step
is a dozen numpy calls, whose fixed cost is about what the shorter
transforms save at m of a few thousand; the saving grows with m, so the
packed transform pays where transforms are long, at the all-lag estimates
that dominate a Monte Carlo run, and every length uses it (the timings
are in CHANGES.md).

A statistic may need only the first L lags: the head functional
``int_0^t g(a(s)) ds`` reads floor(t / delta) of them and the windowed tail
sum its window.  Lags 0..L-1 need R(0..L), which a circular correlation of
length m gives free of wrap-around once m >= n + L + 1, so the transform
shrinks from about 2n towards n.  All n lags need m >= 2n, and then lag n
is the only one that can wrap around: at m = 2n the circular correlation
adds lag -n to it and doubles it, so R(n) = y_0 y_n is set directly.  m is
the smallest 5-smooth multiple of 4 that suffices, 4 * (the smallest
5-smooth integer >= k / 4): a multiple of 4 makes M even, so that k = M/2
pairs with itself, and numpy's FFT has fast passes for the factors 2, 3
and 5 only; a length with a large prime factor falls back to Bluestein's
algorithm, several times slower.  Each transform allocates the padded
path, 8 * m bytes, and runs both FFTs and the step from Z to H in place on
it; y_0, y_{n-l} and y_n are read from x again afterwards.  pocketfft takes
a working copy of about the same size inside each FFT, and the step from Z
to H a scratch of 4 * min(``_PACK_BLOCK``, m/4) floats; freed, they go back
to the allocator, whose policy decides whether the next call faults them
in again (see ``cli``).  The step reads one cached read-only table of the
m/4 - 1 complex v_k per length.

Paths with the same n and delta can share their transforms: their padded
rows are stacked and go through one forward FFT and one inverse along the
rows (``_estimate_paths``).  numpy's pocketfft, built for the x86-64-v2
baseline, transforms the rows of a stack two at a time, one in each lane
of a 128-bit vector register, but runs a one-row transform as scalar code;
each row gets the arithmetic of a one-row transform, so its bits do not
change.  So two rows take less time than two one-row calls, and four or
eight save nothing more per row.  A stack costs memory: pocketfft works on
an interleaved copy of the rows, so a pair holds about 40 * m bytes (its
two padded rows and a working copy of about three rows) where one path
holds 16 * m.  Hence the pairing rule (``_rows_per_call``): all-lag
estimates run two paths per call while m <= ``_PAIR_MAX_LENGTH`` = 2^17,
that is n <= 2^16, where a pair holds at most 5 MiB.  Beyond it the time a
pair saves shrinks as the transforms outgrow the caches, while its memory
keeps growing: at m = 2^19 (n = 2^18) a pair would hold 12 MiB more per
worker than two single calls, for a few per cent of estimate time.
Lag-bounded estimates run one path per call.

Sampled at a small delta, a path of an integer-valued trawl process is flat
almost everywhere: a T5 path of the ``clt`` benchmark (n = 2^14, delta =
2^-7, Poisson seed) moves at about 260 of its 16 384 steps.  So a call that
asks for L < n lags first counts the steps S at which the path moves, one
pass over x, and when |S| * (L + L0) < c * m * log2(m), with m the transform
length above, it evaluates the defining sum over those steps alone,

    a_hat(l * delta) = (1 / (n * delta)) * sum_{k in S, k >= l}
                       (X_{k delta} - X_{(k+1) delta}) * y_{k-l}.

A step with X_{(k+1) delta} = X_{k delta} adds exactly 0 to the defining
sum, so this is that sum with its zero terms left out: it agrees with the
O(n^2) oracle to rounding, and it differences no autocorrelations.  The rows
y_{k-L+1..k} of the steps in S are gathered in blocks of at most 2 * m
floats, the 16 * m bytes the transform would allocate.  Calls for all n
lags never count the steps, and a dense path, such as any Gaussian one,
fails the rule, so both keep the transform.  A step of the sum costs L
multiply-adds and the gathering of its row, which costs about as much as
L0 more; the transform costs about m * log2(m).  c = 1.5 and L0 = 24 were
measured on a 2-vCPU Intel Xeon with numpy 2.4, timing both ways at n in
{2^12, 2^13, 2^14, 2^16}, L in {16, 64, 256, 1024} and |S| * L /
(m * log2(m)) from 0.1 to 10: that ratio at which the sum stops winning
grows with L, from 0.52-0.69 at L = 16 to 1.14-2.02 at L = 1024, as
c * L / (L + L0) does (0.60 and 1.47).  Over the 263 timed cells this rule
costs 0.5% more than the faster way on average and 20% at worst; the rule
|S| * L < 1.5 * m * log2(m) without L0 cost 2.6% and 64%.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .simulate import SampledPath

__all__ = [
    "TestFunction",
    "TrawlEstimate",
    "estimate_trawl",
    "psi_n",
    "lambda_n",
    "lambda_bar_n",
    "functional_lags",
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


def _transform_length(k: int) -> int:
    """The smallest 5-smooth multiple of 4 that is >= k: 4 * _fast_length(ceil(k / 4))."""
    return 4 * _fast_length(-(-k // 4))


@functools.lru_cache(maxsize=8)
def _twiddles(m: int) -> np.ndarray:
    """v_k = cos(theta_k) exp(i theta_k) / 2 = (1 + exp(2i theta_k)) / 4,
    theta_k = 2 pi k / m, for k = 1..m/4 - 1: complex, read only."""
    table = np.arange(1, m // 4, dtype=complex)
    table *= 4j * math.pi / m
    np.exp(table, out=table)
    table += 1.0
    table *= 0.25
    table.flags.writeable = False
    return table


#: c and L0 in the rule |S| * (L + L0) < c * m * log2(m) under which a
#: lag-bounded call sums over the path's moves instead of transforming; L0
#: is the cost of gathering one row of the sum in lags.  Measured, see the
#: module docstring.
_JUMP_SUM_COST = 1.5
_JUMP_SUM_ROW = 24


#: pairs (k, M - k) per block of ``_packed_power``: a block's slices of Z,
#: of the table and of the scratch, 0.75 MiB, stay in a core's L2 cache
#: between the block's twelve array operations.  At m = 2^19 this takes the
#: step from about 2.2 to 1.6 ms on a 2-vCPU Intel Xeon; up to m = 2^15
#: there is one block.
_PACK_BLOCK = 8192


def _packed_power(spec, m: int) -> None:
    """Overwrite the packed spectrum Z_k (k = 0..M-1, M = m/2) of a real
    sequence y with the H whose inverse transform is the circular
    autocorrelation of y, packed as y is: R(2j) + i R(2j+1).  With A = Z_k,
    B = Z_{M-k}, conj(Phi) = |A|^2 - |B|^2 - 2i Im(A B) and v_k from
    ``_twiddles`` (see the module docstring), for k = 1..M/2 - 1

        H_k = |A|^2 - v_k conj(Phi),    H_{M-k} = |B|^2 + conj(v_k conj(Phi)),

    and H_0 = |Z_0|^2 + 2i Re(Z_0) Im(Z_0), H_{M/2} = |Z_{M/2}|^2.  The
    pairs are taken ``_PACK_BLOCK`` at a time; a scratch of 4 floats per
    pair of a block holds its A B and squared moduli."""
    big_m, half = m // 2, m // 4
    twiddles = _twiddles(m)
    scratch = np.empty(4 * min(_PACK_BLOCK, half))
    z = spec.view(float)
    r0, i0, rh, ih = float(z[0]), float(z[1]), float(z[2 * half]), float(z[2 * half + 1])
    for start in range(1, half, _PACK_BLOCK):
        stop = min(start + _PACK_BLOCK, half)
        size = stop - start
        a = spec[start:stop]
        b = spec[big_m - stop + 1 : big_m - start + 1]  # Z_{M-k} for k = stop - 1 down to start
        phi = np.multiply(a, b[::-1], out=scratch[: 2 * size].view(complex))
        norm_a, norm_b = scratch[2 * size : 3 * size], scratch[3 * size : 4 * size]
        for zs, norm in ((a, norm_a), (b, norm_b)):
            zs_float = zs.view(float)
            np.square(zs_float, out=zs_float)
            np.add(zs_float[0::2], zs_float[1::2], out=norm)
        norm_b = norm_b[::-1]
        np.subtract(norm_a, norm_b, out=phi.real)
        phi.imag *= -2.0  # phi is conj(Phi) now
        phi *= twiddles[start - 1 : stop - 1]
        np.subtract(norm_a, phi.real, out=a.real)
        np.negative(phi.imag, out=a.imag)
        np.add(norm_b, phi.real, out=b.real[::-1])
        b.imag[::-1] = a.imag
    z[0], z[1] = r0 * r0 + i0 * i0, 2.0 * r0 * i0
    z[2 * half], z[2 * half + 1] = rh * rh + ih * ih, 0.0


def _jump_sum(x, x_bar, moved, num_lags: int, block: int) -> np.ndarray:
    """sum_{k in S, k >= l} (x_k - x_{k+1}) * y_{k-l} for l = 0..L-1, where
    y = x - xbar and S holds the steps k at which ``moved`` is true.  The
    rows y_{k-L+1..k} of the steps in S are gathered ``block // L`` at a
    time, so the gathered block never exceeds ``block`` floats."""
    n = len(moved)
    steps = np.flatnonzero(moved)
    drops = x[steps] - x[steps + 1]
    # ypad[j + L - 1] = y_j behind L - 1 zeros, which stand in for y_j at j < 0
    ypad = np.zeros(n + num_lags - 1)
    np.subtract(x[:n], x_bar, out=ypad[num_lags - 1 :])
    windows = sliding_window_view(ypad, num_lags)  # row k: y_{k-L+1}, ..., y_k
    total = np.zeros(num_lags)
    rows = max(block // num_lags, 1)
    for start in range(0, len(steps), rows):
        chunk = slice(start, start + rows)
        # einsum sums over k in its own loops; a matrix product would call BLAS
        total += np.einsum("k,kj->j", drops[chunk], windows[steps[chunk]])
    return total[::-1]  # column j of the windows is lag L - 1 - j


def _path_mean(path: SampledPath) -> float:
    """xbar, the mean of X_0..X_{(n-1) delta}; refuses a path with a
    non-finite value."""
    x, n = path.values, path.n
    with np.errstate(invalid="ignore"):  # +inf and -inf in x: refused below
        x_bar = float(np.mean(x[:n]))
    # A non-finite value in x[:n] makes the mean non-finite, and so may an
    # overflow; only then is the whole path checked.
    if not (math.isfinite(x_bar) and math.isfinite(x[n])) and not np.all(np.isfinite(x)):
        raise ValueError("path contains non-finite values")
    return x_bar


def _transform_estimates(paths, x_bars, num_lags: int, m: int) -> list:
    """The estimates at lags 0..L-1 of paths that share n and delta, from
    one stacked transform of length m: each row is padded, all rows go
    through one forward FFT and one inverse, both in place, and each row's
    autocorrelation R(0..L) is differenced.  A row's bits do not depend on
    the other rows: pocketfft runs the same arithmetic on every row, and
    runs two rows at a time in the two lanes of a vector register."""
    n, delta, rows = paths[0].n, paths[0].delta, range(len(paths))
    pad = np.empty((len(paths), m))
    for i in rows:
        np.subtract(paths[i].values, x_bars[i], out=pad[i, : n + 1])
    pad[:, n + 1 :] = 0.0
    spec = pad.view(complex)
    np.fft.fft(spec, axis=1, out=spec)
    for i in rows:
        _packed_power(spec[i], m)
    np.fft.ifft(spec, axis=1, out=spec)
    return [
        TrawlEstimate(delta=delta, n=n, a_hat=_lag_differences(pad[i, : num_lags + 1], paths[i], x_bars[i]))
        for i in rows
    ]


def _lag_differences(r, path: SampledPath, x_bar: float) -> np.ndarray:
    """a_hat(l delta) = (R(l) - R(l+1) - y_{n-l} y_n) / (n delta) for
    l = 0..L-1, from r = R(0..L).  The transforms overwrote y, so y_0,
    y_{n-l} and y_n come from x again; at L = n, R(n) = y_0 y_n is set in r
    (see the module docstring).  One temporary of L floats."""
    x, n, num_lags = path.values, path.n, len(r) - 1
    y_n = float(x[n]) - x_bar
    if num_lags == n:
        r[n] = (float(x[0]) - x_bar) * y_n
    a_hat = np.subtract(r[:-1], r[1:])
    tail = np.subtract(x[n : n - num_lags : -1], x_bar)  # y_{n-l}, l = 0..L-1
    np.subtract(a_hat, np.multiply(tail, y_n, out=tail), out=a_hat)
    np.divide(a_hat, n * path.delta, out=a_hat)
    return a_hat


def estimate_trawl(path: SampledPath, lags: Optional[int] = None) -> TrawlEstimate:
    """Estimate the trawl function at the first ``lags`` lags of an observed
    path, l = 0..L-1 with L = ``lags`` (default and at most n): the estimates
    converge to kappa2 * a, the seed's variance per unit area times the trawl
    function.

    The path is centred, y = x - xbar, and R(0..L), the autocorrelation of
    y, comes from one packed FFT of a 5-smooth length m and its inverse; then
    a_hat(l * delta) = (R(l) - R(l+1) - y_{n-l} y_n) / (n * delta).  A call
    with L < n on a path that moves at few steps evaluates the defining sum
    over those steps instead, by the rule of ``_JUMP_SUM_COST`` and
    ``_JUMP_SUM_ROW``.  Either way the estimate agrees with the O(n^2)
    oracle of the tests (``tests/oracles.py``) to rounding.  The module
    docstring derives the transform, the rule for m, the memory a call takes
    and the jump-sum rule.  A lag count outside 1..n and a path with a
    non-finite value are refused.
    """
    x = path.values
    n = path.n
    delta = path.delta
    num_lags = n if lags is None else operator.index(lags)
    if not 1 <= num_lags <= n:
        raise ValueError(f"lags must lie in 1..n = {n}, got {num_lags}")
    x_bar = _path_mean(path)
    m = _transform_length(n + min(num_lags, n - 1) + 1)
    if num_lags < n:
        moved = x[1:] != x[:-1]
        if np.count_nonzero(moved) * (num_lags + _JUMP_SUM_ROW) < _JUMP_SUM_COST * m * math.log2(m):
            a_hat = np.divide(_jump_sum(x, x_bar, moved, num_lags, 2 * m), n * delta)
            return TrawlEstimate(delta=delta, n=n, a_hat=a_hat)
    return _transform_estimates([path], [x_bar], num_lags, m)[0]


#: The longest transform at which all-lag estimates run two paths to a
#: call; see the module docstring.
_PAIR_MAX_LENGTH = 2**17


def _rows_per_call(n: int, num_lags: int) -> int:
    """How many paths of n steps ``_estimate_paths`` estimates at L lags in
    one call: two when L = n and their transform length
    ``_transform_length(2 * n)`` is at most ``_PAIR_MAX_LENGTH``, else one."""
    return 2 if num_lags == n and _transform_length(2 * n) <= _PAIR_MAX_LENGTH else 1


def _estimate_paths(paths, num_lags: int) -> list:
    """The estimates at lags 0..L-1 of a block of paths, each bitwise the
    ``estimate_trawl(path, L)`` of its path.  One path goes through
    ``estimate_trawl``; a stack must share n and delta and read all n lags,
    and goes through one pair of FFT calls (see the module docstring)."""
    if len(paths) == 1:
        return [estimate_trawl(paths[0], num_lags)]
    n, delta = paths[0].n, paths[0].delta
    if num_lags != n or any(path.n != n or path.delta != delta for path in paths):
        raise ValueError(f"stacked paths must share n and delta and read all n = {n} lags, got {num_lags}")
    x_bars = [_path_mean(path) for path in paths]
    return _transform_estimates(paths, x_bars, n, _transform_length(2 * n))


def _sum_g(est: TrawlEstimate, g: TestFunction, start: int, stop: int, name: str) -> float:
    """delta * sum_{l=start}^{stop-1} g(a_hat(l delta)), refusing lags beyond
    the L that ``est`` holds."""
    if stop > est.lags:
        raise ValueError(f"{name} reads {stop} lags but the estimate holds {est.lags}; "
                         f"estimate_trawl(path, lags={stop}) covers it")
    return float(est.delta * np.sum(g.g(est.a_hat[start:stop])))


def functional_lags(functional: str, n: int, delta: float, t: float, window: Optional[int] = None):
    """(start, stop): the lags l = start..stop-1 that ``functional`` sums on a
    path of n steps, each functional's rule for the t it can serve.

    ``psi`` sums the floor(t/delta) lags below t, at most n; ``lambda`` the
    lags from floor(t/delta) to n - 1, so floor(t/delta) <= n - 1;
    ``lambda_bar`` those up to ``window - 1``, so floor(t/delta) < window <= n;
    and ``tau``'s tail the lags from ceil(T/delta) to n - 1, for T in
    (0, (n-1)*delta].  Each stop is the lag count the functional reads.  tau's
    head keeps every lag below T, so that under the null, where a vanishes
    beyond T, its tail holds only lags where a is 0; its tail and lambda_n's
    agree only when T/delta is an integer.

    The functionals and ``tau_test`` read their lags here, and the Monte Carlo
    harness checks its configs here, before it draws a path.
    """
    if functional == "tau":
        if not 0 < t < math.inf:
            raise ValueError("T must be positive and finite")
        if t > (n - 1) * delta:
            raise ValueError(f"T exceeds the observed horizon (n-1)*delta = {(n - 1) * delta!r} at n = {n}")
        return int(math.ceil(t / delta - 1e-12)), n
    if not 0 <= t < math.inf:
        raise ValueError("t must be non-negative and finite")
    # floor(t/delta), the lags below t; the 1e-12 slack keeps a t on the grid
    # from losing a lag to rounding (0.3 / 0.1 = 2.9999999999999996)
    start = int(math.floor(t / delta + 1e-12))
    if functional == "psi":
        if start > n:
            raise ValueError(f"t exceeds the observed horizon: psi_n sums floor(t/delta) = {start} lags, "
                             f"more than n = {n}")
        return 0, start
    if functional == "lambda":
        if start > n - 1:
            raise ValueError(f"t exceeds the observed horizon (n-1)*delta: lambda_n starts at lag "
                             f"floor(t/delta) = {start}, past the last lag n - 1 = {n - 1}")
        return start, n
    if functional == "lambda_bar":
        if not start < window <= n:
            raise ValueError(f"need floor(t/delta) < window <= n; got floor(t/delta) = {start}, "
                             f"window = {window}, n = {n}")
        return start, window
    raise ValueError(f"unknown functional {functional!r}; choose from ('psi', 'lambda', 'lambda_bar', 'tau')")


def psi_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Head-functional estimate: delta * sum_{l=0}^{floor(t/delta)-1} g(a_hat)."""
    return _sum_g(est, g, *functional_lags("psi", est.n, est.delta, t), "psi_n")


def lambda_n(est: TrawlEstimate, g: TestFunction, t: float) -> float:
    """Tail-functional estimate: delta * sum_{l=floor(t/delta)}^{n-1} g(a_hat);
    it reads every lag, so ``est`` must hold all n."""
    return _sum_g(est, g, *functional_lags("lambda", est.n, est.delta, t), "lambda_n")


def lambda_bar_n(est: TrawlEstimate, g: TestFunction, t: float, window: int) -> float:
    """Windowed tail-functional estimate, summed up to lag ``window - 1``."""
    return _sum_g(est, g, *functional_lags("lambda_bar", est.n, est.delta, t, window), "lambda_bar_n")


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
