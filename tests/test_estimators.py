"""Trawl-function estimator and plug-in functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trawlkit import (
    ExponentialTrawl,
    GaussianSeed,
    GridScheme,
    SampledPath,
    TrawlEstimate,
    choose_window,
    estimate_trawl,
    lambda_bar_n,
    lambda_n,
    power_function,
    psi_n,
    simulate_slices,
    square_function,
    window_exponent_bounds,
)


def _naive_reference(values, delta):
    """Direct transcription of the defining sum, kept dumb on purpose."""
    x = np.asarray(values, dtype=float)
    n = len(x) - 1
    xbar = np.mean(x[:n])
    out = np.empty(n)
    for lag in range(n):
        acc = 0.0
        for k in range(lag, n):
            acc += (x[k - lag] - xbar) * (x[k + 1] - x[k])
        out[lag] = -acc / (n * delta)
    return out


def test_hand_worked_example():
    # x = (0, 1, 0): n = 2, xbar = 1/2, increments (1, -1).
    # lag 0: (0-1/2)*1 + (1-1/2)*(-1) = -1  -> a_hat(0) = 1/(2*delta*... ) etc.
    path = SampledPath(1.0, np.array([0.0, 1.0, 0.0]))
    est = estimate_trawl(path, method="naive")
    np.testing.assert_allclose(est.a_hat, [0.5, -0.25])
    assert est.x_bar == 0.5


# Powers of two give an FFT length of exactly 2n, where lag n wraps around;
# the other sizes pad further.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 257])
def test_fft_and_naive_match_reference(n):
    rng = np.random.default_rng(n)
    path = SampledPath(0.3, rng.standard_normal(n + 1))
    x = path.values
    ref = _naive_reference(x, path.delta)
    last = -(x[0] - np.mean(x[:n])) * (x[n] - x[n - 1]) / (n * path.delta)
    for method in ("naive", "fft"):
        est = estimate_trawl(path, method=method)
        np.testing.assert_allclose(est.a_hat, ref, atol=1e-12)
        assert est.a_hat[-1] == pytest.approx(last, rel=1e-12, abs=1e-14)


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
    naive = estimate_trawl(path, method="naive").a_hat
    np.testing.assert_allclose(fft, naive, rtol=0, atol=1e-10)


def test_estimator_consistency():
    """On a long path, a_hat should approach the true trawl function."""
    trawl = ExponentialTrawl(1.0)
    path = simulate_slices(
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
    with pytest.raises(ValueError):
        estimate_trawl(SampledPath(0.1, np.zeros(5)), method="bogus")


# -- functionals ---------------------------------------------------------


def test_functional_riemann_sums(short_path):
    est = estimate_trawl(short_path)
    g = square_function()
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
    g = square_function()
    full = est.delta * float(np.sum(g.g(est.a_hat)))
    assert psi_n(est, g, t) + lambda_n(est, g, t) == pytest.approx(full, rel=1e-12)


def test_functionals_validate_horizon(short_path):
    est = estimate_trawl(short_path)
    g = square_function()
    with pytest.raises(ValueError):
        psi_n(est, g, -1.0)
    with pytest.raises(ValueError):
        psi_n(est, g, (est.n + 2) * est.delta)
    with pytest.raises(ValueError):
        lambda_n(est, g, (est.n + 1) * est.delta)
    with pytest.raises(ValueError):
        lambda_bar_n(est, g, 1.0, est.n + 1)
    with pytest.raises(ValueError):
        lambda_bar_n(est, g, 1.0, int(1.0 / est.delta))  # window must exceed head


def test_trawl_estimate_validation():
    with pytest.raises(ValueError):
        TrawlEstimate(delta=0.1, n=3, a_hat=np.zeros(2), x_bar=0.0)
    with pytest.raises(ValueError):
        TrawlEstimate(delta=0.1, n=2, a_hat=np.array([np.inf, 0.0]), x_bar=0.0)


# -- test functions ------------------------------------------------------


def test_power_function_metadata():
    g = power_function(4.0)
    assert g.exponent == 4.0
    x = np.array([-2.0, 0.5])
    np.testing.assert_allclose(g.g(x), [16.0, 0.0625])
    np.testing.assert_allclose(g.dg(x), [-32.0, 0.5])
    assert power_function(3.5).exponent == 3.5
    with pytest.raises(ValueError):
        power_function(0.0)


def test_square_function_matches_power():
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(square_function().g(x), power_function(2.0).g(x))
    np.testing.assert_allclose(square_function().dg(x), power_function(2.0).dg(x))


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


@settings(max_examples=25, deadline=None)
@given(
    varpi=st.floats(1.1, 2.9),
    n=st.integers(16, 2**16),
    theta=st.floats(0.1, 10.0),
)
def test_choose_window_in_range(varpi, n, theta):
    window = choose_window(n, varpi, theta)
    assert 1 <= window <= n
