"""T-dependence ratio test."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trawlkit import TestFunction as G  # aliased: pytest would try to collect a Test* class
from trawlkit.estimators import functional_lags
from trawlkit import (
    CompactTriangleTrawl,
    ExponentialTrawl,
    GridScheme,
    PoissonSeed,
    SampledPath,
    estimate_trawl,
    lambda_n,
    psi_n,
    simulate_points,
    tau_test,
)


def _poisson_path(trawl, n=4096, master_seed=0):
    delta = n**-0.5
    return simulate_points(trawl, PoissonSeed(1.0), GridScheme(n=n, delta=delta, master_seed=master_seed))


def test_report_fields_and_json():
    path = _poisson_path(ExponentialTrawl(1.0))
    report = tau_test(path, T=1.0)
    assert report.T == 1.0 and report.p == 4.0
    assert report.scaled == pytest.approx(math.sqrt(path.n * path.delta) * report.tau)
    assert not report.p_below_clt_threshold
    payload = json.loads(report.to_json())
    for key in ("tau", "scaled", "T", "p", "numerator", "denominator", "n", "delta"):
        assert key in payload


def test_tau_is_tail_to_head_ratio():
    """tau = full / head - 1, bit for bit, for the sums delta * sum g(a_hat)
    over the ceil(T/delta) head lags and over all n lags.  With T/delta an
    integer the head and tail are psi_n and lambda_n."""
    path = _poisson_path(ExponentialTrawl(1.0))  # delta = 1/64
    est = estimate_trawl(path)
    for T, p in ((1.0, 4.0), (0.5, 3.5)):
        report = tau_test(path, T=T, p=p)
        g = G(p)
        powers = g.g(est.a_hat)
        head = float(path.delta * np.sum(powers[: math.ceil(T / path.delta)]))
        full = float(path.delta * np.sum(powers))
        assert (report.denominator, report.numerator, report.tau) == (head, full - head, full / head - 1.0)
        assert report.tau == pytest.approx(report.numerator / report.denominator, rel=1e-12)
        assert report.tau >= 0.0 or report.numerator < 0.0
        assert report.numerator + report.denominator == pytest.approx(lambda_n(est, g, 0.0), rel=1e-9)
        assert report.denominator == pytest.approx(psi_n(est, g, T), rel=1e-9)
        assert report.numerator == pytest.approx(lambda_n(est, g, T), rel=1e-9)


def test_tau_reads_its_lags_from_functional_lags():
    """tau's tail starts at lag ceil(T/delta), so an off-grid T leaves one
    lag more in the head than psi_n's floor(t/delta), and the tail reads to
    lag n - 1; T may reach (n-1)*delta, and one step more is refused with the
    horizon named."""
    path = _poisson_path(ExponentialTrawl(1.0), n=256)  # delta = 1/16
    n, delta = path.n, path.delta
    assert functional_lags("tau", n, delta, 1.0) == (16, n)
    assert functional_lags("tau", n, delta, 0.3) == (5, n)
    assert functional_lags("tau", n, 0.1, 0.3) == (3, n)  # 0.3 / 0.1 = 2.9999999999999996
    est = estimate_trawl(path)
    report = tau_test(path, T=0.3)
    assert report.denominator == pytest.approx(delta * np.sum(est.a_hat[:5] ** 4), rel=1e-12)
    assert functional_lags("tau", n, delta, (n - 1) * delta) == (n - 1, n)
    tau_test(path, T=(n - 1) * delta)
    for reader in (lambda T: functional_lags("tau", n, delta, T), lambda T: tau_test(path, T=T)):
        with pytest.raises(ValueError, match=r"T exceeds the observed horizon \(n-1\)\*delta = 15.9375 at n = 256"):
            reader(n * delta)


def test_small_p_advisory_flag():
    path = _poisson_path(ExponentialTrawl(1.0))
    assert tau_test(path, T=1.0, p=2.0).p_below_clt_threshold
    assert not tau_test(path, T=1.0, p=3.5).p_below_clt_threshold


def test_null_vs_alternative_tendency():
    """tau is near 0 when a vanishes beyond T and visibly positive when not."""
    null_scaled = [
        abs(tau_test(_poisson_path(CompactTriangleTrawl(1.0), n=2**14, master_seed=k), T=1.0).scaled)
        for k in range(20)
    ]
    alt_scaled = [
        abs(tau_test(_poisson_path(ExponentialTrawl(1.0), n=2**14, master_seed=k), T=1.0).scaled)
        for k in range(20)
    ]
    assert np.median(alt_scaled) > 2 * np.median(null_scaled)
    assert np.median(alt_scaled) > np.quantile(null_scaled, 0.95)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.2, 5.0), shift=st.floats(-3.0, 3.0))
def test_tau_affine_invariant(c, shift):
    """The ratio statistic ignores affine rescalings of the path."""
    rng = np.random.default_rng(8)
    values = rng.standard_normal(300)
    base = tau_test(SampledPath(0.1, values), T=1.0).tau
    transformed = tau_test(SampledPath(0.1, c * values + shift), T=1.0).tau
    assert transformed == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_validation():
    path = _poisson_path(ExponentialTrawl(1.0), n=64)
    with pytest.raises(ValueError):
        tau_test(path, T=0.0)
    with pytest.raises(ValueError):
        tau_test(path, T=1.0, p=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be positive"):
            tau_test(path, T=bad)
        with pytest.raises(ValueError, match="p must be positive"):
            tau_test(path, T=1.0, p=bad)
    with pytest.raises(ValueError):
        tau_test(path, T=(path.n + 5) * path.delta)
    flat = SampledPath(0.1, np.zeros(50))
    with pytest.raises(ValueError):
        tau_test(flat, T=1.0)
