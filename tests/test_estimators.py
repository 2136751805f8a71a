"""Trawl-function estimator and plug-in functionals."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from trawlkit import TestFunction as G  # aliased: pytest would try to collect a Test* class
from trawlkit import (
    ExponentialTrawl,
    GammaSeed,
    GaussianSeed,
    GridScheme,
    PoissonSeed,
    PowerLawTrawl,
    SampledPath,
    TrawlEstimate,
    choose_window,
    estimate_trawl,
    lambda_bar_n,
    lambda_n,
    psi_n,
    simulate_points,
    window_exponent_bounds,
)
from trawlkit import estimators
from trawlkit.estimators import _fast_length, _transform_length, functional_lags
from trawlkit.simulate import simulate

from oracles import naive_trawl_estimate


def test_hand_worked_example():
    # x = (0, 1, 0): n = 2, xbar = 1/2, increments (1, -1).
    # lag 0: -((0 - 1/2) * 1 + (1 - 1/2) * (-1)) / 2 = 1/2
    # lag 1: -((0 - 1/2) * (-1)) / 2 = -1/4
    path = SampledPath(1.0, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(naive_trawl_estimate(path.values, path.delta), [0.5, -0.25])
    est = estimate_trawl(path)
    np.testing.assert_allclose(est.a_hat, [0.5, -0.25], atol=1e-15)


# An even 5-smooth n gives an FFT length of exactly 2n, where lag n wraps
# around; an odd n pads further (3, 5, 9 to 8, 12, 20) and 257 to 540.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 257])
def test_fft_matches_naive_oracle(n):
    rng = np.random.default_rng(n)
    path = SampledPath(0.3, rng.standard_normal(n + 1))
    x = path.values
    last = -(x[0] - np.mean(x[:n])) * (x[n] - x[n - 1]) / (n * path.delta)
    est = estimate_trawl(path)
    np.testing.assert_allclose(est.a_hat, naive_trawl_estimate(x, path.delta), atol=1e-12)
    assert est.a_hat[-1] == pytest.approx(last, rel=1e-12, abs=1e-14)


def _point_path(trawl, seed, n=1024, delta=2**-6, master_seed=5):
    return simulate_points(trawl, seed, GridScheme(n=n, delta=delta, master_seed=master_seed))


def _steps_at(n, *steps):
    """A path of n steps that moves, by 1, only at the given steps k."""
    diff = np.zeros(n)
    diff[list(steps)] = 1.0
    return SampledPath(0.3, np.concatenate([[0.0], np.cumsum(diff)]))


# Dense Gaussian paths and sparse point-sampled ones, whose estimates for few
# lags skip the transform and sum over the steps at which the path moves;
# each path meets both sides of that rule as L grows.
_LAG_BOUNDED_PATHS = {
    **{
        str(n): lambda n=n: SampledPath(0.3, np.random.default_rng(100 + n).standard_normal(n + 1))
        for n in [2, 3, 4, 5, 8, 9, 64, 257]
    },
    **{
        f"points-{trawl!r}-{seed!r}": lambda trawl=trawl, seed=seed: _point_path(trawl, seed)
        for trawl in [ExponentialTrawl(1.0), PowerLawTrawl(1.5, 1.0)]
        for seed in [PoissonSeed(1.0), GammaSeed(1.0, 1.0)]
    },
    "constant": lambda: SampledPath(0.3, np.full(65, 2.0)),
    "step-at-0": lambda: _steps_at(64, 0),
    "step-at-n-1": lambda: _steps_at(64, 63),
    "steps-at-both-ends": lambda: _steps_at(257, 0, 256),
}


@pytest.mark.parametrize("case", _LAG_BOUNDED_PATHS)
def test_lag_bounded_estimate_matches_full_and_oracle(case):
    """Lags 0..L-1, from the shorter transform of length >= n + L + 1 or
    from the sum over the path's moves, agree with the oracle and with the
    full estimate, and so do the functionals that read only those lags."""
    path = _LAG_BOUNDED_PATHS[case]()
    n = path.n
    naive = naive_trawl_estimate(path.values, path.delta)
    full = estimate_trawl(path)
    g = G(2.0)
    for lags in sorted({1, 2, n // 2, n - 1, n} - {0}):
        est = estimate_trawl(path, lags=lags)
        assert (est.n, est.lags) == (n, lags)
        np.testing.assert_allclose(est.a_hat, naive[:lags], rtol=0, atol=1e-12)
        np.testing.assert_allclose(est.a_hat, full.a_hat[:lags], rtol=0, atol=1e-12)
        if case == "constant":
            assert not np.any(est.a_hat)
        t = lags * path.delta  # the head reads exactly L lags
        assert psi_n(est, g, t) == pytest.approx(psi_n(full, g, t), rel=1e-12, abs=1e-12)
        start = functional_lags("psi", n, path.delta, t / 2)[1]
        if start < lags:
            assert lambda_bar_n(est, g, t / 2, lags) == pytest.approx(
                lambda_bar_n(full, g, t / 2, lags), rel=1e-12, abs=1e-12
            )


def _walk(n, seed, level=0.0):
    return SampledPath(0.3, level + np.cumsum(np.random.default_rng(seed).standard_normal(n + 1)))


# n = 2, 5 and 1350 take m = 4, 12 and 2700 for all lags, where m/4 is odd;
# n = 7 and 1001 are odd, so m > 2n.
_PACKED_PATHS = {
    **{str(n): lambda n=n: _random_path(n, 200 + n, delta=0.3) for n in [2, 3, 5, 7, 64, 1000, 1001, 1350, 4060, 4096]},
    **{f"walk-100-{n}": lambda n=n: _walk(n, 300 + n, level=100.0) for n in [64, 1000]},
    "constant": lambda: SampledPath(0.3, np.full(1001, -4.5)),
}


@pytest.mark.parametrize("case", _PACKED_PATHS)
def test_packed_transform_matches_naive_oracle(case, monkeypatch):
    """The half-length complex transform pair, forced for every lag count
    (no call takes the sum over the moves), agrees with the O(n^2) oracle
    for all lags and for lag-bounded calls, on odd n, on lengths whose m/4
    is odd, on a random walk around 100 and on a constant path."""
    monkeypatch.setattr(estimators, "_JUMP_SUM_COST", 0.0)
    path = _PACKED_PATHS[case]()
    n = path.n
    naive = naive_trawl_estimate(path.values, path.delta)
    for lags in sorted({1, 2, 3, n // 2, n - 1, n} & set(range(1, n + 1))):
        est = estimate_trawl(path, lags=lags)
        np.testing.assert_allclose(est.a_hat, naive[:lags], rtol=0, atol=1e-12)
        if case == "constant":
            assert not np.any(est.a_hat)
    assert [_transform_length(2 * k) // 4 % 2 for k in (2, 5, 1350)] == [1, 1, 1]


def test_transform_length_is_the_next_5_smooth_multiple_of_4():
    lengths = [m for m in range(4, 5101, 4) if next_fast_len(m, real=True) == m]
    for k in range(1, 5001):
        assert _transform_length(k) == next(m for m in lengths if m >= k), k
    assert [_transform_length(k) for k in (2, 6, 10, 14, 2177, 8120, 2**19)] == [
        4, 8, 12, 16, 2304, 8192, 2**19
    ]


def test_fast_length_is_the_next_5_smooth_length():
    for k in list(range(1, 20_001)) + [2**19 - 3, 2**19 - 1, 2**19, 2**19 + 1, 2**19 + 129]:
        assert _fast_length(k) == next_fast_len(k, real=True), k


def test_estimate_validates_lags():
    path = _random_path(10, 0)
    for bad in (0, -1, 11):
        with pytest.raises(ValueError, match="lags must lie in 1..n = 10"):
            estimate_trawl(path, lags=bad)
    with pytest.raises(TypeError):
        estimate_trawl(path, lags=2.5)
    assert estimate_trawl(path, lags=np.int64(3)).lags == 3


def test_fft_keeps_digits_on_a_large_mean():
    """A slowly mixing Gaussian AR(1) path, the exponential trawl's Gaussian
    chain, around mean 100: the FFT autocorrelation must centre the path
    before differencing adjacent lags, or it loses about five digits."""
    n, delta = 2**12, 1e-4
    phi = math.exp(-delta)
    rng = np.random.default_rng(12)
    z = rng.standard_normal(n + 1)
    values = np.empty(n + 1)
    values[0] = z[0]
    for k in range(n):
        values[k + 1] = phi * values[k] + math.sqrt(1 - phi * phi) * z[k + 1]
    path = SampledPath(delta, 100.0 + values)
    fft = estimate_trawl(path).a_hat
    naive = naive_trawl_estimate(path.values, path.delta)
    np.testing.assert_allclose(fft, naive, rtol=0, atol=1e-10)


def test_estimator_consistency():
    """On a long path, a_hat should approach the true trawl function."""
    trawl = ExponentialTrawl(1.0)
    path = simulate(
        trawl, GaussianSeed(0.0, 1.0), GridScheme(n=60_000, delta=0.05, master_seed=17)
    )
    est = estimate_trawl(path)
    for lag_t in [0.0, 0.5, 1.0]:
        lag = int(round(lag_t / path.delta))
        assert est.a_hat[lag] == pytest.approx(float(trawl.a(lag_t)), abs=0.08)


def test_shift_invariance():
    """Adding a constant to the path leaves a_hat unchanged (centering)."""
    rng = np.random.default_rng(1)
    values = rng.standard_normal(101)
    base = estimate_trawl(SampledPath(0.2, values)).a_hat
    shifted = estimate_trawl(SampledPath(0.2, values + 7.3)).a_hat
    np.testing.assert_allclose(shifted, base, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
def test_affine_equivariance(c, shift):
    """a_hat(c X + b) = c^2 a_hat(X)."""
    rng = np.random.default_rng(99)
    values = rng.standard_normal(64)
    base = estimate_trawl(SampledPath(0.1, values)).a_hat
    scaled = estimate_trawl(SampledPath(0.1, c * values + shift)).a_hat
    np.testing.assert_allclose(scaled, c**2 * base, rtol=1e-9, atol=1e-9)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        estimate_trawl(SampledPath(0.1, np.array([0.0, np.nan, 1.0])))
    # A sparse path asked for few lags, which would take the sum over its
    # moves, is refused by the same check before anything is computed.
    for bad in (np.nan, np.inf, -np.inf):
        values = _steps_at(256, 3, 100).values
        values[50:52] = bad
        with pytest.raises(ValueError, match="path contains non-finite values"):
            estimate_trawl(SampledPath(0.1, values), lags=4)
        # x_n is not in the mean that screens the path first
        values = _steps_at(256, 3, 100).values
        values[-1] = bad
        for lags in (4, None):
            with pytest.raises(ValueError, match="path contains non-finite values"):
                estimate_trawl(SampledPath(0.1, values), lags=lags)
    # +inf and -inf together make the mean NaN without a warning escaping
    values = _steps_at(256, 3, 100).values
    values[[7, 9]] = np.inf, -np.inf
    with pytest.raises(ValueError, match="path contains non-finite values"):
        estimate_trawl(SampledPath(0.1, values))


# -- no state survives a call ---------------------------------------------


def _random_path(n, seed, delta=0.1):
    return SampledPath(delta, np.random.default_rng(seed).standard_normal(n + 1))


def test_estimate_does_not_alias_the_workspace():
    """A later call of the same transform length leaves an earlier result
    as it was."""
    first = estimate_trawl(_random_path(1000, 1))
    kept = first.a_hat.copy()
    second = estimate_trawl(_random_path(1000, 2))
    np.testing.assert_array_equal(first.a_hat, kept)
    assert not np.shares_memory(first.a_hat, second.a_hat)


@pytest.mark.parametrize("rows", [1, 2], ids=["single", "pair"])
def test_estimate_allocates_8_m_bytes_per_row(rows):
    """An all-lag estimate allocates its padded path, m floats, and both
    transforms and the step from Z to H run in place on it; besides it each
    row takes its result and one temporary of n floats, and the step from Z
    to H a block scratch.  A pair stacks two padded rows and keeps the first
    result while it finishes the second.  The warm-up call builds the cached
    twiddle table first, so it is not counted; the lower bound fails if
    buffers are kept from one call to the next, the upper one if a transform
    copies its rows, or if a pair keeps its padded paths beside separate
    spectra."""
    n = 2**15
    paths = [_random_path(n, 3 + k) for k in range(rows)]
    m = _transform_length(2 * n)
    scratch = 32 * min(estimators._PACK_BLOCK, m // 4)
    assert scratch < 8 * m
    run = (lambda: estimate_trawl(paths[0])) if rows == 1 else (lambda: estimators._estimate_paths(paths, n))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    live = 8 * m * rows + 8 * n * (rows + 1)
    assert live <= peak <= live + scratch


#: n -> the all-lag transform length m = _transform_length(2n) of a pair test.
_PAIR_LENGTHS = {4096: 8192, 1800: 3600, 1799: 3600, 3001: 6144}


@pytest.mark.parametrize("n", _PAIR_LENGTHS, ids=["m-2^13", "m-3600", "odd-n-m-3600", "odd-n-m-6144"])
def test_pair_matches_single_estimates_bitwise(n):
    """Two paths estimated in one stacked call give the bits of two one-path
    ``estimate_trawl`` calls, in either order: at a power-of-two m = 2n,
    where lag n wraps around, at the 5-smooth m = 3600 = 2^4 3^2 5^2 for an
    even and an odd n, and at m = 6144 = 2^11 3 for an odd n.  One path
    has a large mean."""
    assert _transform_length(2 * n) == _PAIR_LENGTHS[n]
    first = _random_path(n, 40)
    second = SampledPath(0.1, 100.0 + np.cumsum(np.random.default_rng(41).standard_normal(n + 1)))
    single = [estimate_trawl(path) for path in (first, second)]
    for pair, expected in (((first, second), single), ((second, first), single[::-1])):
        for got, want in zip(estimators._estimate_paths(pair, n), expected):
            assert got.lags == n
            assert got.a_hat.tobytes() == want.a_hat.tobytes()


def test_stacked_estimates_refuse_mismatched_paths():
    """A stack shares one transform of all n lags, so paths of different n
    or delta, and a stack asked for fewer lags, are refused."""
    with pytest.raises(ValueError, match="share n and delta"):
        estimators._estimate_paths([_random_path(100, 1), _random_path(101, 2)], 100)
    with pytest.raises(ValueError, match="share n and delta"):
        estimators._estimate_paths([_random_path(100, 1), _random_path(100, 2, delta=0.2)], 100)
    with pytest.raises(ValueError, match="non-finite"):
        estimators._estimate_paths([_random_path(100, 1), SampledPath(0.1, np.full(101, np.inf))], 100)
    with pytest.raises(ValueError, match="read all n = 100 lags, got 99"):
        estimators._estimate_paths([_random_path(100, 1), _random_path(100, 2)], 99)


def test_rows_per_call_pairs_all_lags_up_to_m_2_17():
    """The pairing rule on the transform length: T6's m = 2^16 (n = 2^15)
    and C1's 2^17 (n = 2^16) pair, C1's 2^19 (n = 2^18) does not; an
    estimate of fewer than n lags never pairs."""
    assert estimators._rows_per_call(2**15, 2**15) == estimators._rows_per_call(2**16, 2**16) == 2
    assert estimators._rows_per_call(2**16 + 1, 2**16 + 1) == estimators._rows_per_call(2**18, 2**18) == 1
    for n in (2, 3, 256, 2**15, 2**16):
        assert all(estimators._rows_per_call(n, lags) == 1 for lags in range(1, n))


#: m/4 is 1, 2, 3, 5, 105, 1080 and 2^14: odd and even, and a self-paired
#: middle entry or a middle pair in the odd half of the split spectrum.
_TWIDDLE_LENGTHS = [4, 8, 12, 20, 420, 4320, 2**16]


@pytest.mark.parametrize("m", _TWIDDLE_LENGTHS)
def test_twiddles_match_the_direct_formula(m):
    """w_k = W^-k = exp(2 pi i k / M), M = m/2, for k = 1..m/4, from the
    cosine and sine of 4 pi k / m; w_{m/4} = -1."""
    angle = np.arange(1, m // 4 + 1) * (4 * np.pi / m)
    direct = np.cos(angle) + 1j * np.sin(angle)
    twiddles = estimators._twiddles(m)
    assert len(twiddles) == m // 4 and not twiddles.flags.writeable
    np.testing.assert_allclose(twiddles, direct, rtol=0, atol=1e-15)
    assert abs(twiddles[-1] + 1) < 1e-15


@pytest.mark.parametrize("m", _TWIDDLE_LENGTHS[:-1])
def test_packed_power_matches_its_formula_in_split_order(m):
    """The step from Z to H, given Z in split order (the even k, then the
    odd k), returns H in that order, entry by entry as the module docstring
    defines it from the natural order: H_0 and H_{M/2} from one entry,
    every other k from the pair (Z_k, Z_{M-k}) and v_k = (1 + W^-k) / 4.
    Negating the odd half, as the butterfly does, changes nothing."""
    big_m = m // 2
    z = np.random.default_rng(m).standard_normal(m).view(complex)
    h = np.empty(big_m, dtype=complex)
    h[0] = abs(z[0]) ** 2 + 2j * z[0].real * z[0].imag
    h[big_m // 2] = abs(z[big_m // 2]) ** 2
    for k in range(1, big_m // 2):
        a, b = z[k], z[big_m - k]
        v = (1 + np.exp(2j * np.pi * k / big_m)) / 4
        phi = v * (abs(a) ** 2 - abs(b) ** 2 - 2j * (a * b).imag)
        h[k], h[big_m - k] = abs(a) ** 2 - phi, abs(b) ** 2 + np.conj(phi)
    for sign in (1, -1):
        spec = np.concatenate([z[0::2], sign * z[1::2]])
        estimators._packed_power(spec, estimators._twiddles(m))
        np.testing.assert_allclose(spec, np.concatenate([h[0::2], h[1::2]]), rtol=1e-13, atol=1e-13)


def test_every_transform_runs_at_least_two_rows_of_m_over_4(monkeypatch):
    """pocketfft runs a one-row transform as scalar code and two rows at a
    time in the two lanes of a vector register, so the estimator splits each
    path's row into two half rows of length m/4: every forward and inverse
    FFT it calls gets at least two rows, for one path, a pair and a
    lag-bounded estimate."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, _name=name, _transform=transform, **kwargs:
                            calls.append((_name, a.shape)) or _transform(a, *args, **kwargs))
    n = 1000
    pair = [_random_path(n, 1), _random_path(n, 2)]
    for run, rows, m in (
        (lambda: estimate_trawl(pair[0]), 1, _transform_length(2 * n)),
        (lambda: estimators._estimate_paths(pair, n), 2, _transform_length(2 * n)),
        (lambda: estimate_trawl(pair[0], lags=100), 1, _transform_length(n + 101)),
    ):
        calls.clear()
        run()
        assert calls == [("fft", (2 * rows, m // 4)), ("ifft", (2 * rows, m // 4))]


def test_estimate_independent_of_call_order():
    """n = 4096 and n = 4060 share the transform length 8192 (the next
    5-smooth multiple of 4 after 8120 is 8192), so a buffer kept between
    calls would be shared; a longer earlier path must leave nothing behind."""
    assert _transform_length(2 * 4060) == _transform_length(2 * 4096) == 8192
    paths = [_random_path(4096, 3), _random_path(4060, 4), _random_path(4096, 5)]
    forward = [estimate_trawl(p).a_hat for p in paths]
    backward = [estimate_trawl(p).a_hat for p in reversed(paths)][::-1]
    for a, b in zip(forward, backward):
        assert a.tobytes() == b.tobytes()


def test_lag_bounded_and_full_estimates_independent_of_order():
    """A lag-bounded call (m = 2304 here) and a full call (m = 4096) switch
    between transform lengths; either order gives the same bits."""
    path = _random_path(2048, 8)
    assert _transform_length(2048 + 128 + 1) == 2304 != _transform_length(2 * 2048)
    short_first = [estimate_trawl(path, lags=128).a_hat, estimate_trawl(path).a_hat]
    full_first = [estimate_trawl(path).a_hat, estimate_trawl(path, lags=128).a_hat][::-1]
    for a, b in zip(short_first, full_first):
        assert a.tobytes() == b.tobytes()


def test_failed_estimate_leaves_no_trace():
    """Neither a path rejected up front (NaN) nor one whose estimate
    overflows after its buffers are filled changes the next result."""
    path = _random_path(300, 6)
    expected = estimate_trawl(path).a_hat
    nan_path = SampledPath(0.1, np.where(np.arange(301) == 7, np.nan, 1.0))
    huge_path = SampledPath(0.1, 1e200 * np.random.default_rng(7).standard_normal(301))
    for bad in (nan_path, huge_path):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            estimate_trawl(bad)
        assert estimate_trawl(path).a_hat.tobytes() == expected.tobytes()


def test_threads_match_serial_estimates():
    """Four threads (more than the cores) estimating paths of different
    transform lengths at once, switching often, reproduce the serial
    results.  Among them are lag-bounded estimates of sparse point-sampled
    paths, which sum over the moves instead of transforming."""
    sizes = [64, 1000, 2100, 4096, 5000, 300, 4096, 17]
    jobs = [(_random_path(n, 10 + k), None) for k, n in enumerate(sizes)]
    for k, trawl in enumerate([ExponentialTrawl(1.0), PowerLawTrawl(1.5, 1.0)]):
        sparse = _point_path(trawl, PoissonSeed(1.0), n=4096, delta=2**-7, master_seed=20 + k)
        jobs += [(sparse, 128), (sparse, 3)]
    jobs.append((_random_path(2100, 30), 100))  # dense: transformed
    serial = [estimate_trawl(p, lags=L).a_hat.tobytes() for p, L in jobs]
    barrier = threading.Barrier(4)

    def work(offset):
        barrier.wait(timeout=30)
        order = jobs[offset:] + jobs[:offset]
        results = [estimate_trawl(p, lags=L).a_hat.tobytes() for p, L in order * 3]
        return results[-len(jobs) :]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(work, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for offset, results in enumerate(runs):
        assert results == serial[offset:] + serial[:offset]


# -- functionals ---------------------------------------------------------


def test_functional_riemann_sums(short_path):
    est = estimate_trawl(short_path)
    g = G(2.0)
    t = 1.0
    terms = int(t / est.delta)
    head = est.delta * np.sum(est.a_hat[:terms] ** 2)
    tail = est.delta * np.sum(est.a_hat[terms:] ** 2)
    assert psi_n(est, g, t) == pytest.approx(head)
    assert lambda_n(est, g, t) == pytest.approx(tail)
    assert lambda_bar_n(est, g, t, terms + 5) == pytest.approx(
        est.delta * np.sum(est.a_hat[terms : terms + 5] ** 2)
    )


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 20.0))
def test_full_sum_decomposition(t):
    """psi_n(t) + lambda_n(t) is the full sum, independent of t."""
    rng = np.random.default_rng(3)
    est = estimate_trawl(SampledPath(0.1, rng.standard_normal(202)))
    g = G(2.0)
    full = est.delta * float(np.sum(g.g(est.a_hat)))
    assert psi_n(est, g, t) + lambda_n(est, g, t) == pytest.approx(full, rel=1e-12)


def test_functionals_validate_horizon(short_path):
    est = estimate_trawl(short_path)
    g = G(2.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be non-negative"):
            psi_n(est, g, t)
    with pytest.raises(ValueError):
        psi_n(est, g, (est.n + 2) * est.delta)
    with pytest.raises(ValueError):
        lambda_n(est, g, (est.n + 1) * est.delta)
    with pytest.raises(ValueError):
        lambda_bar_n(est, g, 1.0, est.n + 1)
    with pytest.raises(ValueError):
        lambda_bar_n(est, g, 1.0, int(1.0 / est.delta))  # window must exceed head


def test_functionals_refuse_lags_beyond_the_estimate(short_path):
    est = estimate_trawl(short_path, lags=5)
    g = G(2.0)
    assert psi_n(est, g, 5 * est.delta) == pytest.approx(est.delta * np.sum(est.a_hat**2))
    with pytest.raises(ValueError, match="psi_n reads 6 lags but the estimate holds 5"):
        psi_n(est, g, 6 * est.delta)
    with pytest.raises(ValueError, match=f"lambda_n reads {est.n} lags but the estimate holds 5"):
        lambda_n(est, g, 0.0)
    with pytest.raises(ValueError, match="lambda_bar_n reads 6 lags but the estimate holds 5"):
        lambda_bar_n(est, g, 0.0, 6)


def test_trawl_estimate_validation():
    """1 to n lags are accepted; none, more than n and non-finite values are
    not."""
    est = TrawlEstimate(delta=0.1, n=3, a_hat=np.zeros(2))
    assert est.lags == 2
    np.testing.assert_allclose(est.lag_times, [0.0, 0.1])
    for values in (np.zeros(0), np.zeros(4)):
        with pytest.raises(ValueError, match="a_hat must hold 1 to n = 3 lags"):
            TrawlEstimate(delta=0.1, n=3, a_hat=values)
    with pytest.raises(ValueError, match="non-finite"):
        TrawlEstimate(delta=0.1, n=2, a_hat=np.array([np.inf, 0.0]))


# -- test functions ------------------------------------------------------


def test_power_function_metadata():
    g = G(4.0)
    assert g.exponent == 4.0
    x = np.array([-2.0, 0.5])
    np.testing.assert_allclose(g.g(x), [16.0, 0.0625])
    np.testing.assert_allclose(g.dg(x), [-32.0, 0.5])
    assert G(3.5).exponent == 3.5
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="exponent"):
            G(bad)


# -- window choice -------------------------------------------------------


def test_window_exponent_bounds_limits():
    lower, upper = window_exponent_bounds(2.0, math.inf, 0.0)
    assert lower == pytest.approx(0.5)
    assert upper == pytest.approx(0.75)
    # finite alpha pushes the lower bound up, approaching 1/varpi from above
    lo_fin, _ = window_exponent_bounds(2.0, 2.5, 0.0)
    assert lo_fin > 0.5
    lo_big, _ = window_exponent_bounds(2.0, 1e8, 0.0)
    assert lo_big == pytest.approx(0.5, abs=1e-6)
    # larger p widens the interval back toward the alpha = inf case
    lo_p, _ = window_exponent_bounds(2.0, 2.5, 2.0)
    assert 0.5 < lo_p < lo_fin


def test_window_exponent_bounds_validation():
    with pytest.raises(ValueError):
        window_exponent_bounds(1.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        window_exponent_bounds(3.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        window_exponent_bounds(2.0, 0.9, 0.0)
    with pytest.raises(ValueError):
        window_exponent_bounds(2.0, math.inf, -1.0)


def test_choose_window():
    n = 2**14
    # midpoint default: kappa = 0.625 for varpi = 2, alpha = inf
    assert choose_window(n, 2.0) == round(n**0.625)
    assert choose_window(n, 2.0, theta=2.0) == round(2.0 * n**0.625)
    assert choose_window(4, 2.0, theta=1e-9) == 1  # clamped below
    assert choose_window(4, 2.0, theta=1e9) == 4  # clamped above
    with pytest.raises(ValueError):
        choose_window(n, 2.0, kappa=0.9)  # outside admissible interval
    with pytest.raises(ValueError):
        choose_window(n, 2.0, theta=0.0)
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta"):
            choose_window(n, 2.0, theta=theta)


@settings(max_examples=25, deadline=None)
@given(
    varpi=st.floats(1.1, 2.9),
    n=st.integers(16, 2**16),
    theta=st.floats(0.1, 10.0),
)
def test_choose_window_in_range(varpi, n, theta):
    window = choose_window(n, varpi, theta)
    assert 1 <= window <= n
