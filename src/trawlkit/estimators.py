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
1987).  With Z = FFT_M(z), the halves y_{2j} and y_{2j+1} have the
transforms E_k = (Z_k + conj(Z_{M-k})) / 2 and O_k = (Z_k - conj(Z_{M-k})) /
(2i), and with W = exp(-2 pi i / m) the real transform of y is Y_k = E_k +
W^k O_k, Y_{k+M} = E_k - W^k O_k.  R is the inverse transform of P_k =
|Y_k|^2; split into even and odd lags,

    R(2j) + i R(2j+1) = (1/2) IFFT_M(F)_j,
    F_k = (P_k + P_{k+M}) + i W^{-k} (P_k - P_{k+M}).

With A = Z_k, B = Z_{M-k} and theta_k = 2 pi k / m = pi k / M,

    P_k + P_{k+M} = 2 (|E_k|^2 + |O_k|^2) = |A|^2 + |B|^2 =: G,
    P_k - P_{k+M} = 4 Re(conj(E_k) W^k O_k)
                  = 2 Im(A B) cos(theta_k) - (|A|^2 - |B|^2) sin(theta_k) =: S,

so F_k = (G - S sin(theta_k)) + i S cos(theta_k).  At M - k, A and B swap
and theta becomes pi - theta_k, so S changes sign and F_{M-k} =
(G + S sin(theta_k)) + i S cos(theta_k).  With conj(Phi) = |A|^2 - |B|^2 -
2i Im(A B) and v_k = cos(theta_k) exp(i theta_k) / 2 = (1 + w_k) / 4,
w_k = exp(2i theta_k), the halves H = F / 2 are, as expanding the products
shows,

    H_k = |A|^2 - v_k conj(Phi),    H_{M-k} = |B|^2 + conj(v_k conj(Phi)),

and H_0 = |Z_0|^2 + 2i Re(Z_0) Im(Z_0), H_{M/2} = |Z_{M/2}|^2, so that
R(2j) + i R(2j+1) = IFFT_M(H)_j.  One complex product per pair (k, M - k),
k = 1..M/2 - 1, turns Z into H in place.

Each transform of length M runs as two of length h = M/2 = m/4, after one
radix-2 step of decimation in frequency (Cooley & Tukey 1965) done in
numpy.  With V = exp(-2 pi i / M) = W^2, so that w_k = V^-k, V^h = -1 and
V^2 = exp(-2 pi i / h),

    Z_k = sum_{j<h} (z_j + (-1)^k z_{j+h}) V^(jk),

so the rows e_j = z_j + z_{j+h} and o_j = (z_j - z_{j+h}) V^j, j = 0..h-1,
have FFT_h(e)_c = Z_{2c} and FFT_h(o)_c = Z_{2c+1}: the forward transforms
give Z in split order, the even k and then the odd k.  The butterfly
multiplies by -V^j = w_{h-j} instead, which negates the odd half; H is
quadratic in each half, so the sign drops out.  The step from Z to H runs
in the split order: an even k = 2c pairs with M - k = 2(h - c) and an odd
k = 2c + 1 with M - k = 2(h - 1 - c) + 1, so each half pairs with itself.
The inverse splits the same way,

    IFFT_M(H)_j = (1/2) (IFFT_h(H_{2c})_j + w_j IFFT_h(H_{2c+1})_j),

so after the two inverse transforms one product with w_j and one sum give
R(2j) + i R(2j+1) at the j <= L/2 the lags need; numpy's inverse runs
unscaled, and the factor M goes into the division by n delta.  One cached
read-only table of w_1..w_h per length serves all three steps.  numpy's
pocketfft, built for the x86-64-v2 baseline, transforms the rows of a stack
two at a time, one in each lane of a 128-bit vector register, but runs a
one-row transform as scalar code, so the two half rows put even a single
path on the vector code.  The butterfly, the step in split order and the
recombination are array passes that cost more than the shorter transforms
save at m of a few thousand and less from m of about 2^15 on, where the
all-lag estimates that dominate a Monte Carlo run lie; every length uses
them (CHANGES.md has the timings).

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
path, 8 * m bytes, and runs the butterfly, both FFTs, the step from Z to H
and the recombination in place on it; y_0, y_{n-l} and y_n are read from x
again afterwards.  Where y reaches the second half of z, which only a
lag-bounded call's does by more than one float, the butterfly takes a
temporary of those differences.  pocketfft takes a working copy of two
half rows, 8 * m bytes, inside each FFT, and the step from Z to H a scratch
of 2 floats per pair, at most 32 * ``_PACK_BLOCK`` bytes; freed, they go
back to the allocator, whose policy decides whether the next call faults
them in again (see ``cli``).

Paths with the same n and delta can share their transforms: their half
rows are stacked and go through one forward FFT and one inverse along the
rows (``_estimate_paths``).  Each row gets the arithmetic of a one-row
transform, so its bits do not depend on the stack.  A pair saves the
fixed cost of a second call, and costs memory: it holds two padded rows,
16 * m bytes, where one path holds 8 * m, beside pocketfft's working copy
of two half rows either way.  Hence the pairing rule (``_rows_per_call``):
all-lag estimates run two paths per call while m <= ``_PAIR_MAX_LENGTH``
= 2^17, that is n <= 2^16, where a pair takes a few per cent less time
than two single calls; beyond it the saving vanishes while the memory
keeps growing (CHANGES.md has the measurements).  Lag-bounded estimates
run one path per call.

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
L0 more; the transform costs about m * log2(m).  c = 1.5 and L0 = 24 put
the switch where the sum stops winning in timings of both ways over n, L
and |S| (CHANGES.md has them).

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
    """w_k = exp(4 pi i k / m) = V^-k, V = exp(-2 pi i / M) and M = m/2,
    for k = 1..m/4 (see the module docstring): complex, read only."""
    table = np.arange(1, m // 4 + 1, dtype=complex)
    table *= 4j * math.pi / m
    np.exp(table, out=table)
    table.flags.writeable = False
    return table


#: c and L0 in the rule |S| * (L + L0) < c * m * log2(m) under which a
#: lag-bounded call sums over the path's moves instead of transforming; L0
#: is the cost of gathering one row of the sum in lags.  Measured, see the
#: module docstring.
_JUMP_SUM_COST = 1.5
_JUMP_SUM_ROW = 24


#: pairs (k, M - k) per half of the split spectrum in a block of
#: ``_packed_power``: a block's slices of the spectrum, of the table and of
#: the scratch, about 1 MiB, stay in a core's L2 cache between the block's
#: array operations (CHANGES.md has the timings).
_PACK_BLOCK = 8192


def _packed_power(spec, table) -> None:
    """Overwrite the packed spectrum Z (length M = m/2) of a real sequence
    y, held in split order, E_c = Z_{2c} and then O_c = +-Z_{2c+1} for c =
    0..h-1 (h = m/4), with the H in the same order whose inverse transform
    is the circular autocorrelation of y, packed as y is.  With A = Z_k,
    B = Z_{M-k}, conj(Phi) = |A|^2 - |B|^2 - 2i Im(A B) and v_k = (1 + w_k)
    / 4 (see the module docstring), for k = 1..M/2 - 1

        H_k = |A|^2 - v_k conj(Phi),    H_{M-k} = |B|^2 + conj(v_k conj(Phi)),

    and H_0 = |Z_0|^2 + 2i Re(Z_0) Im(Z_0), H_{M/2} = |Z_{M/2}|^2.  An even
    k = 2c pairs E_c with E_{h-c}, an odd k = 2c+1 pairs O_c with
    O_{h-1-c}, so the sign of O does not matter.  The first (h-1)//2 pairs
    of both halves go through one set of array operations on (2, columns)
    views, ``_PACK_BLOCK`` columns at a time.  A scratch of 2 floats per
    pair holds A B; the squared moduli go into B's slots and 1 + w_k into
    A's.  Z_0, Z_{M/2} (E_{h/2} for even h, O_{(h-1)/2} for odd h) and, for
    even h, O's middle pair (O_{h/2-1}, O_{h/2}) are Python scalars."""
    h = len(spec) // 2
    pairs = (h - 1) // 2
    firsts = spec[1 : 2 * h - 1].reshape(2, h - 1)[:, :pairs]  # E_1.., O_0..
    partners = spec.reshape(2, h)[:, h - pairs :]  # ..E_{h-1}, ..O_{h-1}: the partners, last first
    twiddles = table[: 2 * pairs].reshape(pairs, 2).T[::-1]  # w_2, w_4..; w_1, w_3..
    scratch = np.empty((2, min(_PACK_BLOCK, pairs)), dtype=complex)
    for start in range(0, pairs, _PACK_BLOCK):
        stop = min(start + _PACK_BLOCK, pairs)
        a = firsts[:, start:stop]
        b = partners[:, pairs - stop : pairs - start]
        phi = np.multiply(a, b[:, ::-1], out=scratch[:, : stop - start])
        a_float, b_float = a.view(float), b.view(float)
        np.square(b_float, out=b_float)
        np.add(b.real, b.imag, out=b.real)
        np.square(a_float, out=a_float)
        np.add(a_float[:, 0::2], a_float[:, 1::2], out=b.imag[:, ::-1])
        norm_a, norm_b = b.imag[:, ::-1], b.real[:, ::-1]  # |A|^2 and |B|^2, in the order of a
        re, im = phi.real, phi.imag
        np.subtract(norm_a, norm_b, out=re)
        re *= 0.25
        im *= -0.5  # phi is conj(Phi) / 4 now
        np.add(twiddles[:, start:stop], 1.0, out=a)
        phi *= a
        np.subtract(norm_a, phi, out=a)
        np.add(norm_b, re, out=norm_b)
        b.imag[:, ::-1] = a.imag
    mid = h // 2 if h % 2 == 0 else h + h // 2  # Z_{M/2}
    z0, z_mid = spec[0].item(), spec[mid].item()
    spec[0] = complex(z0.real * z0.real + z0.imag * z0.imag, 2.0 * z0.real * z0.imag)
    spec[mid] = z_mid.real * z_mid.real + z_mid.imag * z_mid.imag
    if h % 2 == 0:
        j = h + h // 2 - 1  # O_{h/2-1}, k = M/2 - 1, and then its partner
        a, b = spec[j : j + 2].tolist()
        norm_a, norm_b = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
        phi = complex(0.25 * (norm_a - norm_b), -0.5 * (a * b).imag) * (1.0 + table[h - 2].item())
        spec[j : j + 2] = norm_a - phi, norm_b + phi.conjugate()


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
    one stacked transform of half rows (see the module docstring): each
    path's padded row, packed as z of length M = m/2, becomes e_j = z_j +
    z_{j+h} and o_j = (z_j - z_{j+h}) w_{h-j} = -(z_j - z_{j+h}) V^j in
    place (h = m/4), all 2 * paths rows of length h go through one forward
    FFT and one unscaled inverse, both in place, and e_j + w_j o_j = M
    (R(2j) + i R(2j+1)) is formed for the j the lags need.  A row's bits
    do not depend on the other rows: pocketfft runs the same arithmetic on
    every row, two rows at a time in the two lanes of a vector register."""
    n, delta = paths[0].n, paths[0].delta
    half, h = m // 2, m // 4
    moved = (max(n + 1 - half, 0) + 1) // 2  # the j < h at which y reaches z_{j+h}
    pad = np.empty((len(paths), m))
    for row, path, x_bar in zip(pad, paths, x_bars):
        np.subtract(path.values, x_bar, out=row[: n + 1])
    pad[:, n + 1 : half + 2 * moved] = 0.0  # the rest of z_{j+h} is never read
    stack = pad.view(complex).reshape(2 * len(paths), h)  # rows z_{0..h-1}, z_{h..M-1}; then e, o
    e, o = stack[0::2], stack[1::2]
    table = _twiddles(m)
    mirrored = table[::-1]  # w_{h-j} = -V^j at j
    spilled = np.subtract(e[:, :moved], o[:, :moved])
    e[:, :moved] += o[:, :moved]
    np.multiply(spilled, mirrored[:moved], out=o[:, :moved])
    np.multiply(e[:, moved:], mirrored[moved:], out=o[:, moved:])
    np.fft.fft(stack, axis=1, out=stack)
    for row in pad:
        _packed_power(row.view(complex), table)
    np.fft.ifft(stack, axis=1, out=stack, norm="forward")  # unscaled: h times numpy's inverse
    stop = min(num_lags // 2 + 1, h)  # at L = n = M, R(n) is set later
    o[:, 1:stop] *= table[: stop - 1]
    e[:, :stop] += o[:, :stop]
    return [
        TrawlEstimate(delta=delta, n=n, a_hat=_lag_differences(row[: num_lags + 1], path, x_bar, half))
        for row, path, x_bar in zip(pad, paths, x_bars)
    ]


def _lag_differences(r, path: SampledPath, x_bar: float, scale: int) -> np.ndarray:
    """a_hat(l delta) = (R(l) - R(l+1) - y_{n-l} y_n) / (n delta) for
    l = 0..L-1, from r = scale * R(0..L).  The transforms overwrote y, so
    y_0, y_{n-l} and y_n come from x again; at L = n, R(n) = y_0 y_n is set
    in r (see the module docstring).  One temporary of L floats."""
    x, n, num_lags = path.values, path.n, len(r) - 1
    y_n = float(x[n]) - x_bar
    if num_lags == n:
        r[n] = scale * (float(x[0]) - x_bar) * y_n
    a_hat = np.subtract(r[:-1], r[1:])
    tail = np.subtract(x[n : n - num_lags : -1], x_bar)  # y_{n-l}, l = 0..L-1
    np.subtract(a_hat, np.multiply(tail, scale * y_n, out=tail), out=a_hat)
    np.divide(a_hat, scale * n * path.delta, out=a_hat)
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
