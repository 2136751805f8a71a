"""Exact simulation schemes: partition geometry, laws, determinism, I/O."""

import hashlib
import json
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trawlkit import (
    CompactTriangleTrawl,
    ExponentialTrawl,
    GammaSeed,
    GaussianSeed,
    GridScheme,
    PoissonSeed,
    PowerLawTrawl,
    SampledPath,
    export_csv,
    ingest_csv,
    residual_area,
    simulate_circulant,
    simulate_points,
    simulate_slices,
    slice_area,
    truncation_horizon,
)
from trawlkit import TestFunction as G  # aliased: pytest would try to collect a Test* class
from trawlkit import estimate_trawl, models, psi_n
from trawlkit import simulate as simulate_module
from trawlkit.simulate import CIRCULANT_TOL, EPS_TRUNC, _substream, _sum_marks, simulate

from conftest import ALL_TRAWLS


# -- partition geometry --------------------------------------------------


def test_slice_areas_nonnegative(trawl):
    delta = 0.07
    for i in range(4):
        for j in range(i, 12):
            assert slice_area(trawl, delta, i, j) >= -1e-15


def test_area_conservation(trawl):
    """Per grid time, slice + residual areas recover Leb(A) exactly.

    X_{t_k} collects slice (i, j) for i <= k <= j and residual i <= k, so
    the total area feeding each observation must equal tail_integral(0).
    """
    n, delta = 64, 0.11
    total = np.zeros(n + 1)
    for i in range(n):
        for j in range(i, n):
            total[i : j + 1] += slice_area(trawl, delta, i, j)
    for i in range(n + 1):
        total[i:] += residual_area(trawl, delta, n, i)
    assert np.max(np.abs(total - trawl.leb_A)) < 1e-12
    # The array forms return exactly the scalar areas.
    for i in (0, 1, 37):
        scalar = [slice_area(trawl, delta, i, j) for j in range(i, n)]
        np.testing.assert_array_equal(slice_area(trawl, delta, i, np.arange(i, n)), scalar)
    scalar = [residual_area(trawl, delta, n, i) for i in range(n + 1)]
    np.testing.assert_array_equal(residual_area(trawl, delta, n, np.arange(n + 1)), scalar)


def test_residual_area_is_remaining_mass(trawl):
    n, delta = 32, 0.09
    for i in [1, 5, 31]:
        sliced = sum(slice_area(trawl, delta, i, j) for j in range(i, n))
        # row i's full mass is the cell interval mass B(0) = A(0) - A(delta)
        row_mass = float(trawl.tail_integral(0.0) - trawl.tail_integral(delta))
        assert sliced + residual_area(trawl, delta, n, i) == pytest.approx(row_mass, abs=1e-12)


def test_truncation_horizon(trawl):
    """J meets the bound and J - 1 does not; PowerLawTrawl(1.8, 0.7) needs J of about 1.4e11."""
    delta = 0.05
    j = truncation_horizon(trawl, delta)
    assert isinstance(j, int)
    assert float(trawl.tail_integral(j * delta)) <= EPS_TRUNC * trawl.leb_A
    if j > 1 and trawl.support_end == math.inf:
        assert float(trawl.tail_integral((j - 1) * delta)) > EPS_TRUNC * trawl.leb_A


def test_truncation_horizon_near_alpha_one():
    """At alpha = 1.05 the closed form still meets the bound; at 1.02 the tail
    inverse overflows, and J is the cap 2^1024 without a RuntimeWarning."""
    trawl, delta = PowerLawTrawl(1.05, 1.0), 0.05
    assert float(trawl.tail_integral(truncation_horizon(trawl, delta) * delta)) <= EPS_TRUNC * trawl.leb_A
    assert truncation_horizon(PowerLawTrawl(1.02, 1.0), delta) == 2**1024


def test_slice_area_validation():
    trawl = ExponentialTrawl(1.0)
    with pytest.raises(ValueError):
        slice_area(trawl, 0.1, 2, 1)
    with pytest.raises(ValueError):
        residual_area(trawl, 0.1, 8, 9)
    with pytest.raises(ValueError):
        slice_area(trawl, 0.1, 2, np.array([2, 3, 1]))
    with pytest.raises(ValueError):
        residual_area(trawl, 0.1, 8, np.array([0, 8, 9]))


# -- simulated law -------------------------------------------------------


def _marginal_check(values, trawl, seed, tol_sd):
    mean, var = float(np.mean(values)), float(np.var(values))
    assert mean == pytest.approx(seed.kappa1 * trawl.leb_A, abs=tol_sd)
    assert var == pytest.approx(seed.kappa2 * trawl.leb_A, rel=0.2)


@pytest.mark.parametrize(
    "trawl",
    [ExponentialTrawl(1.0), PowerLawTrawl(2.5, 1.0), CompactTriangleTrawl(1.5)],
    ids=repr,
)
def test_marginal_moments(trawl, seed_spec):
    scheme = GridScheme(n=12000, delta=0.1, master_seed=7)
    path = simulate(trawl, seed_spec, scheme)
    _marginal_check(path.values, trawl, seed_spec, tol_sd=0.3)


def test_autocorrelation():
    trawl = ExponentialTrawl(1.0)
    scheme = GridScheme(n=60_000, delta=0.1, master_seed=3)
    path = simulate(trawl, GaussianSeed(0.0, 1.0), scheme)
    x = path.values - np.mean(path.values)
    for lag in [1, 5, 10]:
        acf = float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))
        assert acf == pytest.approx(float(trawl.tail_integral(lag * 0.1) / trawl.leb_A), abs=0.05)


def test_points_matches_slices_in_law():
    trawl, seed = ExponentialTrawl(1.0), PoissonSeed(1.0)
    means, variances = [], []
    for method in ("slices-exact", "points"):
        vals = np.concatenate(
            [
                simulate(trawl, seed, GridScheme(n=500, delta=0.2, master_seed=k), method).values
                for k in range(40)
            ]
        )
        means.append(np.mean(vals))
        variances.append(np.var(vals))
    assert means[0] == pytest.approx(means[1], abs=0.05)
    assert variances[0] == pytest.approx(variances[1], rel=0.1)


def test_points_keep_long_lived_points():
    """At alpha = 1.05 many points reach more than 2^63 grid steps past t_n;
    they count up to X_{t_n}, so the mean matches kappa1 * Leb(A) and the
    exact slice sampler within 4 SE."""
    trawl, seed = PowerLawTrawl(1.05, 1.0), PoissonSeed(1.0)

    def path_means(method, reps):
        schemes = (GridScheme(n=64, delta=0.1, master_seed=rep) for rep in range(reps))
        return np.array([np.mean(simulate(trawl, seed, scheme, method).values) for scheme in schemes])

    points, exact = path_means("points", 2000), path_means("slices-exact", 400)
    se_points = np.std(points, ddof=1) / math.sqrt(len(points))
    assert abs(np.mean(points) - seed.kappa1 * trawl.leb_A) < 4.0 * se_points
    se = math.sqrt(se_points**2 + np.var(exact, ddof=1) / len(exact))
    assert abs(np.mean(points) - np.mean(exact)) < 4.0 * se


@pytest.mark.parametrize("n,delta,rate", [(200, 0.1, 2.0), (2, 1e-9, 50.0)])
def test_points_integer_valued(n, delta, rate):
    """The second case puts every point in the time-zero set, so the sampler
    draws no forward offsets."""
    path = simulate_points(ExponentialTrawl(1.0), PoissonSeed(rate), GridScheme(n=n, delta=delta, master_seed=1))
    assert np.all(path.values == np.round(path.values))
    assert np.all(path.values >= 0)
    assert np.all(path.values <= path.provenance["points"])


def test_points_requires_poisson():
    with pytest.raises(ValueError, match="requires a Poisson or Gamma seed"):
        simulate_points(
            ExponentialTrawl(1.0), GaussianSeed(0.0, 1.0), GridScheme(n=10, delta=0.1)
        )


def test_circulant_requires_gaussian():
    for seed in (PoissonSeed(1.0), GammaSeed(2.0, 0.5)):
        with pytest.raises(ValueError, match="requires a Gaussian seed"):
            simulate_circulant(ExponentialTrawl(1.0), seed, GridScheme(n=10, delta=0.1))


def test_exact_mode_matches_truncated_in_law():
    trawl, seed = ExponentialTrawl(1.0), GaussianSeed(0.0, 1.0)
    exact = simulate_slices(trawl, seed, GridScheme(n=300, delta=0.3, master_seed=9), exact=True)
    trunc = simulate_slices(trawl, seed, GridScheme(n=300, delta=0.3, master_seed=9))
    assert np.var(exact.values) == pytest.approx(np.var(trunc.values), rel=0.2)


def test_exact_mode_cap():
    with pytest.raises(ValueError):
        simulate_slices(
            ExponentialTrawl(1.0),
            GaussianSeed(0.0, 1.0),
            GridScheme(n=5000, delta=0.1),
            exact=True,
        )


#: The trawls of acceptance gate 8's area-conservation check.
GATE8_TRAWLS = [ExponentialTrawl(1.0), PowerLawTrawl(2.5, 1.0), CompactTriangleTrawl(1.5)]


@pytest.mark.parametrize("trawl", GATE8_TRAWLS, ids=repr)
@pytest.mark.parametrize("exact,n", [(False, 4000), (True, 512)], ids=["truncated", "exact"])
def test_truncated_slices_keep_the_tail_mass_bound(trawl, exact, n):
    """With a near-deterministic seed X_k is the area the sampler assigns to
    the trawl set A_k; truncation may lose at most tail_mass = A(J delta) of
    Leb(A), at every k and not only near the start.  The exponential and
    triangle trawls are cut at J < n; the power law's J exceeds n.  Exact
    mode loses nothing: gate 8(a)'s area conservation, through the sampler."""
    path = simulate_slices(trawl, GaussianSeed(1.0, 1e-300), GridScheme(n=n, delta=0.1, master_seed=3), exact=exact)
    if not exact and not isinstance(trawl, PowerLawTrawl):
        assert path.provenance["horizon"] < 200  # rows are cut
    bound = 1e-10 if exact else path.provenance["tail_mass"]
    assert np.max(np.abs(path.values - trawl.leb_A)) <= bound


def test_slices_record_the_bias_bound():
    """bias_bound = |kappa1| * tail_mass bounds the mean bias of a truncated
    path: with a near-deterministic seed of mean -2, X_k stays within it of
    kappa1 * Leb(A)."""
    trawl, seed = ExponentialTrawl(1.0), GaussianSeed(-2.0, 1e-300)
    path = simulate_slices(trawl, seed, GridScheme(n=4000, delta=0.1, master_seed=3))
    prov = path.provenance
    assert prov["bias_bound"] == 2.0 * prov["tail_mass"] > 0
    assert np.max(np.abs(path.values - seed.kappa1 * trawl.leb_A)) <= prov["bias_bound"]


def test_points_record_expected_and_realised_counts():
    """expected_points = rate * (Leb(A) + n * (A(0) - A(delta))), and points
    is the Poisson count drawn first from the sampler's substream."""
    trawl, seed, scheme = PowerLawTrawl(2.5, 1.0), PoissonSeed(3.0), GridScheme(n=500, delta=0.2, master_seed=11)
    prov = simulate_points(trawl, seed, scheme).provenance
    cell = trawl.leb_A - float(trawl.tail_integral(scheme.delta))
    assert prov["expected_points"] == pytest.approx(3.0 * (trawl.leb_A + 500 * cell), rel=1e-15)
    assert prov["points"] == _substream(11, 3).poisson(prov["expected_points"])
    assert isinstance(prov["points"], int)


def test_gamma_points_record_the_jump_law():
    """A Gamma seed's point count has mean shape * E1(eps) * (Leb(A) +
    n * (A(0) - A(delta))), and the provenance gives the cutoff, the drift
    added to every X_k and the left-out cumulants per observation."""
    trawl, seed, scheme = PowerLawTrawl(2.5, 1.0), GammaSeed(2.0, 0.5), GridScheme(n=500, delta=0.2, master_seed=11)
    prov = simulate_points(trawl, seed, scheme).provenance
    law, leb, eps = seed.jump_law(), trawl.leb_A, models.JUMP_EPS
    cell = leb - float(trawl.tail_integral(scheme.delta))
    assert prov["expected_points"] == pytest.approx(law.rate * (leb + 500 * cell), rel=1e-15)
    assert prov["points"] == _substream(11, 3).poisson(prov["expected_points"])
    assert prov["cutoff"] == law.cutoff == eps * 0.5
    assert prov["drift"] == law.drift * leb
    assert prov["dropped_kappa4"] == law.dropped_kappa4 * leb
    # shape * scale^2 * (1 - e^-eps (1 + eps)) * Leb(A), to the rounding of its cancellation
    assert prov["dropped_variance"] == law.dropped_kappa2 * leb
    assert prov["dropped_variance"] == pytest.approx(0.5 * (1.0 - math.exp(-eps) * (1.0 + eps)) * leb, rel=1e-3)


def test_gamma_points_shortfall_is_bounded_at_a_coarse_cutoff(monkeypatch):
    """At eps = 0.5 the left-out jumps matter: Var X falls short of
    kappa2 * Leb(A) by the recorded dropped_variance (within 3 SE, so the
    bound is also tight), the fourth cumulant falls short by no more than
    dropped_kappa4 + 3 SE, and the drift keeps the mean at kappa1 * Leb(A).
    A triangle trawl with support delta makes the X_k independent."""
    monkeypatch.setattr(models, "JUMP_EPS", 0.5)
    trawl, seed = CompactTriangleTrawl(1.0), GammaSeed(1.0, 1.0)
    path = simulate_points(trawl, seed, GridScheme(n=10**6, delta=1.0, master_seed=8))
    prov, leb = path.provenance, trawl.leb_A
    assert prov["cutoff"] == 0.5 and prov["dropped_variance"] > 0.04
    batches = path.values[1:].reshape(100, -1)  # 100 batches of 10^4 independent draws
    centred = batches - np.mean(batches, axis=1, keepdims=True)
    m2, m4 = np.mean(centred**2, axis=1), np.mean(centred**4, axis=1)
    by_batch = {
        "mean": np.mean(batches, axis=1) - seed.kappa1 * leb,
        "variance": seed.kappa2 * leb - m2,
        "kappa4": seed.kappa4 * leb - (m4 - 3.0 * m2**2),
    }
    est = {k: np.mean(v) for k, v in by_batch.items()}
    se = {k: np.std(v, ddof=1) / math.sqrt(len(v)) for k, v in by_batch.items()}
    assert abs(est["mean"]) < 3.0 * se["mean"], (est, se)
    assert abs(est["variance"] - prov["dropped_variance"]) < 3.0 * se["variance"], (est, se, prov)
    assert est["kappa4"] < prov["dropped_kappa4"] + 3.0 * se["kappa4"], (est, se, prov)


# -- circulant embedding -------------------------------------------------


def _embedding(trawl, seed, n, delta):
    """First row of the minimal circulant embedding of the path covariance,
    kappa2 * A(h*delta) for h = 0..n mirrored for h > n, and the n + 1
    distinct eigenvalues of the embedding by the sampler's real FFT."""
    c = seed.kappa2 * trawl.tail_integral(delta * np.arange(n + 1))
    row = np.concatenate([c, c[n - 1 : 0 : -1]])
    return row, np.fft.rfft(row).real


@pytest.mark.parametrize("n,delta", [(3, 0.5), (100, 0.1), (2048, 0.02)])
def test_circulant_embedding_row_and_eigenvalues(trawl, n, delta):
    """Every eigenvalue of the minimal embedding is >= 0, the real FFT agrees
    with the full complex one, and the sampler records the same min/max
    eigenvalue ratio."""
    seed = GaussianSeed(0.3, 2.0)
    row, lam = _embedding(trawl, seed, n, delta)
    assert len(row) == 2 * n and len(lam) == n + 1 and np.min(lam) >= 0.0
    np.testing.assert_allclose(lam, np.fft.fft(row).real[: n + 1], rtol=0, atol=1e-12 * lam[0])
    path = simulate_circulant(trawl, seed, GridScheme(n=n, delta=delta, master_seed=1))
    assert path.provenance["min_eigenvalue_ratio"] == np.min(lam) / np.max(lam)


def _deviations_from_slices_exact(trawl, seed, method):
    """Gate 8's cross-simulator check against the untruncated slice sampler:
    200 paths each at n = 256, delta = 0.2; the distances in combined SE
    between the two samplers' means of the per-path mean, variance, lag-1
    autocorrelation and psi_n(x^2, 1)."""
    per_path = {}
    for name in (method, "slices-exact"):
        rows = []
        for rep in range(200):
            path = simulate(trawl, seed, GridScheme(n=256, delta=0.2, master_seed=1000 + rep), name)
            x = path.values
            xc = x - np.mean(x)
            acf1 = np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc)
            rows.append((np.mean(x), np.var(x), acf1, psi_n(estimate_trawl(path), G(2.0), 1.0)))
        per_path[name] = np.array(rows)
    a, b = per_path[method], per_path["slices-exact"]
    se = np.sqrt(np.var(a, axis=0, ddof=1) / len(a) + np.var(b, axis=0, ddof=1) / len(b))
    return np.abs(np.mean(a, axis=0) - np.mean(b, axis=0)) / se


GATE8_LAW_TRAWLS = [ExponentialTrawl(1.0), PowerLawTrawl(1.5, 1.0), CompactTriangleTrawl(1.5)]


@pytest.mark.parametrize("trawl", GATE8_LAW_TRAWLS, ids=repr)
def test_circulant_matches_slices_exact_in_law(trawl):
    deviations = _deviations_from_slices_exact(trawl, GaussianSeed(0.5, 1.0), "circulant")
    assert np.all(deviations < 3.0), deviations


@pytest.mark.parametrize("trawl", GATE8_LAW_TRAWLS, ids=repr)
def test_gamma_points_match_slices_exact_in_law(trawl):
    deviations = _deviations_from_slices_exact(trawl, GammaSeed(2.0, 0.5), "points")
    assert np.all(deviations < 3.0), deviations


def test_circulant_long_memory_moments():
    """PowerLawTrawl(1.2): A(h) ~ h^-0.2 is not integrable, and at n = 2^14,
    delta = 2^-7 the slice sampler's horizon J exceeds n (about n^2/2 draws).

    With the known mean kappa1 * Leb(A), each path gives unbiased estimates
    of the marginal variance kappa2 * Leb(A) and of the autocorrelation at
    lags 1, 10 and 100; their means over paths match within 3 SE.
    """
    trawl, seed = PowerLawTrawl(1.2, 1.0), GaussianSeed(1.0, 2.0)
    n, delta, lags = 2**14, 2.0**-7, (1, 10, 100)
    assert truncation_horizon(trawl, delta) > n
    mu, var = seed.kappa1 * trawl.leb_A, seed.kappa2 * trawl.leb_A
    rows = []
    for rep in range(200):
        x = simulate(trawl, seed, GridScheme(n=n, delta=delta, master_seed=70000 + rep)).values - mu
        rows.append([np.mean(x * x) / var] + [np.mean(x[:-h] * x[h:]) / var for h in lags])
    rows = np.array(rows)
    target = np.array([1.0] + [trawl.tail_integral(h * delta) / trawl.leb_A for h in lags])
    se = np.std(rows, axis=0, ddof=1) / math.sqrt(len(rows))
    assert np.all(np.abs(np.mean(rows, axis=0) - target) < 3.0 * se), (np.mean(rows, axis=0), target, se)


def test_circulant_rejects_a_non_convex_tail_integral():
    class ConcaveTail(ExponentialTrawl):
        """A(t) = 1 - t^2 on [0, 1]: concave, so no trawl function has it."""

        def tail_integral(self, t):
            return np.maximum(0.0, 1.0 - np.asarray(t, dtype=float) ** 2)

    trawl, scheme = ConcaveTail(1.0), GridScheme(n=64, delta=0.1)
    _, lam = _embedding(trawl, GaussianSeed(0.0, 1.0), scheme.n, scheme.delta)
    assert np.min(lam) < -CIRCULANT_TOL * np.max(lam)
    with pytest.raises(ValueError, match="not non-negative definite"):
        simulate_circulant(trawl, GaussianSeed(0.0, 1.0), scheme)


# -- dispatcher ----------------------------------------------------------


@pytest.mark.parametrize(
    "seed,sampler",
    [
        (PoissonSeed(1.0), simulate_points),
        (GaussianSeed(0.0, 1.0), simulate_circulant),
        (GammaSeed(2.0, 0.5), simulate_points),
    ],
    ids=["poisson", "gaussian", "gamma"],
)
def test_simulate_auto_picks_sampler_by_seed_family(seed, sampler):
    trawl, scheme = ExponentialTrawl(1.0), GridScheme(n=64, delta=0.2, master_seed=3)
    path = simulate(trawl, seed, scheme)
    np.testing.assert_array_equal(path.values, sampler(trawl, seed, scheme).values)
    assert path.provenance["simulator"] == sampler.__name__.removeprefix("simulate_")


def test_simulate_slices_exact_is_the_exact_horizon():
    trawl, seed = PowerLawTrawl(2.5, 1.0), GaussianSeed(0.0, 1.0)
    path = simulate(trawl, seed, GridScheme(n=100, delta=0.1, master_seed=4), "slices-exact")
    expect = simulate_slices(trawl, seed, GridScheme(n=100, delta=0.1, master_seed=4), exact=True)
    assert path.provenance["simulator"] == "slices-exact" and path.provenance["horizon"] == 100
    np.testing.assert_array_equal(path.values, expect.values)


def test_simulate_rejects_unknown_method():
    """No name selects the truncated slice sampler: ``slices`` is unknown."""
    for method in ("exact", "slices"):
        with pytest.raises(ValueError, match="unknown simulator .*'slices-exact'"):
            simulate(ExponentialTrawl(1.0), PoissonSeed(1.0), GridScheme(n=10, delta=0.1), method)


# -- determinism ---------------------------------------------------------


def test_slices_deterministic_from_master_seed(trawl, seed_spec):
    scheme = GridScheme(n=128, delta=0.1, master_seed=11)
    a = simulate_slices(trawl, seed_spec, scheme, exact=True)
    b = simulate_slices(trawl, seed_spec, scheme, exact=True)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_slices(trawl, seed_spec, GridScheme(n=128, delta=0.1, master_seed=12), exact=True)
    assert not np.array_equal(a.values, c.values)


def test_points_deterministic_from_master_seed():
    scheme = GridScheme(n=128, delta=0.1, master_seed=21)
    a = simulate_points(ExponentialTrawl(1.0), PoissonSeed(1.0), scheme)
    b = simulate_points(ExponentialTrawl(1.0), PoissonSeed(1.0), scheme)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.provenance["master_seed"] == 21


#: (seed, n, delta): few points for n, where only the cells at which a point
#: enters or leaves are summed, and many, where every cell is.
POINT_PATHS = [
    (PoissonSeed(1.0), 4096, 2**-7),
    (GammaSeed(1.0, 1.0), 2**15, 2**-9),
    (PoissonSeed(1.0), 256, 0.5),
    (GammaSeed(1.0, 1.0), 4096, 2**-7),
]


def _dense_sum_marks(n, starts, ends, mark):
    jumps = np.zeros(n + 2)
    np.add.at(jumps, starts, mark)
    np.subtract.at(jumps, ends, mark)
    return np.cumsum(jumps[: n + 1])


@pytest.mark.parametrize("seed_spec, n, delta", POINT_PATHS)
def test_points_paths_equal_a_dense_running_sum(monkeypatch, seed_spec, n, delta):
    """Whichever way the marks are summed, a point path has the bits of a
    running sum over a dense difference array of all n cells."""
    scheme = GridScheme(n=n, delta=delta, master_seed=11)
    path = simulate_points(PowerLawTrawl(1.5, 1.0), seed_spec, scheme)
    monkeypatch.setattr(simulate_module, "_sum_marks", _dense_sum_marks)
    dense = simulate_points(PowerLawTrawl(1.5, 1.0), seed_spec, scheme)
    assert path.values.tobytes() == dense.values.tobytes()


def _digests_recorded_here():
    """True on the platform the digests below were recorded on: numpy 2.4
    on x86-64 with AVX-512.  numpy picks its exp and log kernels by CPU, and
    a point path goes through them (the trawl inverses, the Gamma marks), so
    elsewhere its last bits may differ although the sampler is right."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return (np.__version__.startswith("2.4.") and platform.machine() == "x86_64"
            and bool(__cpu_features__.get("AVX512F")))


@pytest.mark.skipif(not _digests_recorded_here(), reason="digests recorded with numpy 2.4 on x86-64 with AVX-512")
@pytest.mark.parametrize(
    "case, digest",
    [
        (0, "3d37e4a5ffec9ce77faab98385ebef4fe5021b4647aee338551637a3f8abea10"),
        (1, "7ed9cf6038eabe3a16a760c357bb85e011f4e1f55f4127f9ddad4fcd8cd9688f"),
        (2, "adab7ba7df846665b601503ec73ef191702d0851026c26f458e39ae9d1b6c8e9"),
        (3, "0f3926f08ce0f9ac7aee5aa52fd699d572ef750bb87318d41dc2deebf90241f9"),
    ],
)
def test_points_paths_are_pinned(case, digest):
    """Point paths keep the bits they had before the marks were summed only
    at the cells that change.  The digests belong to the recorded platform;
    ``test_points_paths_equal_a_dense_running_sum`` checks the summation on
    any."""
    seed_spec, n, delta = POINT_PATHS[case]
    path = simulate_points(PowerLawTrawl(1.5, 1.0), seed_spec, GridScheme(n=n, delta=delta, master_seed=11))
    assert hashlib.sha256(path.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n, points", [(100_000, 300), (1000, 300)])
def test_sum_marks_matches_a_dense_running_sum(n, points):
    """Few points for n (the cells only) and many (every cell), crowded
    into a few cells so that the order in which marks meet matters: both
    give the bits of a running sum over a dense difference array."""
    rng = np.random.default_rng(points)
    starts = rng.integers(0, 40, points)
    ends = np.minimum(starts + rng.integers(0, 30, points), n) + 1
    marks = rng.gamma(0.5, 1.0, points)
    expected = _dense_sum_marks(n, starts, ends, marks)
    assert _sum_marks(n, starts, ends, marks).tobytes() == expected.tobytes()


def _replay(prov):
    """The path that ``simulate`` draws from a provenance's fields alone."""
    from trawlkit import seed_from_dict, trawl_from_dict

    return simulate(
        trawl_from_dict(prov["trawl"]),
        seed_from_dict(prov["seed_spec"]),
        GridScheme(n=prov["n"], delta=prov["delta"], master_seed=prov["master_seed"]),
        prov["simulator"],
    )


def test_provenance_reproduces_path(trawl, seed_spec):
    path = simulate(trawl, seed_spec, GridScheme(n=64, delta=0.2, master_seed=5), "slices-exact")
    np.testing.assert_array_equal(path.values, _replay(path.provenance).values)


def test_slices_exact_replays_through_its_recorded_name():
    """The exponential trawl's horizon J = 185 cuts the rows of a truncated
    path here, so only the recorded name ``slices-exact`` replays the path."""
    trawl, seed = ExponentialTrawl(1.0), GaussianSeed(0.0, 1.0)
    path = simulate(trawl, seed, GridScheme(n=300, delta=0.1, master_seed=9), "slices-exact")
    assert truncation_horizon(trawl, 0.1) < 300
    assert path.provenance["simulator"] == "slices-exact"
    assert path.values.tobytes() == _replay(path.provenance).values.tobytes()


def test_circulant_provenance_reproduces_path(trawl):
    path = simulate_circulant(trawl, GaussianSeed(0.3, 2.0), GridScheme(n=64, delta=0.2, master_seed=5))
    np.testing.assert_array_equal(path.values, _replay(path.provenance).values)


@pytest.mark.parametrize(
    "method,seed,diagnostics",
    [
        ("slices", GammaSeed(2.0, 0.5), {"horizon", "tail_mass", "bias_bound"}),
        ("slices-exact", GammaSeed(2.0, 0.5), {"horizon", "tail_mass", "bias_bound"}),
        ("points", PoissonSeed(1.0), {"expected_points", "points"}),
        ("circulant", GaussianSeed(0.0, 1.0), {"min_eigenvalue_ratio"}),
        ("points", GammaSeed(2.0, 0.5), {"expected_points", "points", "cutoff", "drift", "dropped_variance", "dropped_kappa4"}),
    ],
)
def test_provenance_schema(method, seed, diagnostics):
    """Every sampler records its name, the same replay keys and its own
    diagnostics, all JSON-serialisable.  ``slices`` is the truncated slice
    sampler, which only ``simulate_slices`` itself runs; the benchmark reads
    its ``horizon``."""
    trawl, scheme = PowerLawTrawl(2.5, 1.0), GridScheme(n=64, delta=0.2, master_seed=5)
    path = simulate_slices(trawl, seed, scheme) if method == "slices" else simulate(trawl, seed, scheme, method)
    prov = path.provenance
    assert prov["simulator"] == method
    assert set(prov) == {"simulator", "n", "delta", "master_seed", "trawl", "seed_spec"} | diagnostics
    assert json.loads(json.dumps(prov)) == prov
    if "tail_mass" in prov:
        assert prov["tail_mass"] == float(trawl.tail_integral(prov["horizon"] * scheme.delta))
    if "min_eigenvalue_ratio" in prov:
        _, lam = _embedding(trawl, seed, scheme.n, scheme.delta)
        assert prov["min_eigenvalue_ratio"] == np.min(lam) / np.max(lam) > 0


@pytest.mark.parametrize("method", ["slices-exact", "points"])
def test_provenance_records_master_seed(method):
    """Each sampler draws only from its master seed and records that seed."""
    trawl, seed = ExponentialTrawl(1.0), PoissonSeed(1.0)
    path = simulate(trawl, seed, GridScheme(n=64, delta=0.2, master_seed=5), method)
    assert path.provenance["master_seed"] == 5 and "rng" not in path.provenance
    other = simulate(trawl, seed, GridScheme(n=64, delta=0.2, master_seed=6), method)
    assert other.provenance["master_seed"] == 6
    assert not np.array_equal(path.values, other.values)


# -- scheme validation ---------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1, "delta": 0.1},
        {"n": 10, "delta": 0.0},
        {"n": 10, "delta": -1.0},
        {"n": 10, "delta": float("nan")},
        {"n": 10, "delta": float("inf")},
    ],
)
def test_grid_scheme_validation(kwargs):
    with pytest.raises(ValueError):
        GridScheme(**kwargs)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(0.1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampledPath(-0.1, np.zeros(10))
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be positive"):
            SampledPath(delta, np.zeros(10))
    p = SampledPath(0.5, np.arange(5.0))
    assert p.n == 4
    np.testing.assert_allclose(p.times, 0.5 * np.arange(5))


# -- CSV round trips -----------------------------------------------------


def test_csv_round_trip(tmp_path):
    path = simulate_slices(
        ExponentialTrawl(1.0), GaussianSeed(0.0, 1.0), GridScheme(n=50, delta=0.1, master_seed=2), exact=True
    )
    out = tmp_path / "path.csv"
    export_csv(path, out)
    back = ingest_csv(out)
    assert back.delta == path.delta
    np.testing.assert_array_equal(back.values, path.values)
    assert ingest_csv(out, delta=0.1 * (1 + 1e-12)).delta == 0.1 * (1 + 1e-12)  # within the grid tolerance
    with pytest.raises(ValueError, match="disagrees with the time step"):
        ingest_csv(out, delta=0.05)  # an explicit delta may not override the file's step


def test_ingest_single_column(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("x\n1.0\n2.0\n3.5\n")
    path = ingest_csv(f, delta=0.25)
    assert path.delta == 0.25
    np.testing.assert_array_equal(path.values, [1.0, 2.0, 3.5])
    with pytest.raises(ValueError):
        ingest_csv(f)  # delta required
    f.write_text("\nx\n1.0\n\n2.0\n \n3.5\n\n")  # blank rows are skipped wherever they fall
    np.testing.assert_array_equal(ingest_csv(f, delta=0.25).values, [1.0, 2.0, 3.5])


def test_ingest_rejects_non_uniform_grid(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,x\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    with pytest.raises(ValueError, match="not equidistant"):
        ingest_csv(f)
    f.write_text("t,x\n0.0,1.0\n0.1,2.0\nnan,3.0\n0.3,4.0\n")  # a NaN step compares false
    with pytest.raises(ValueError, match="not equidistant"):
        ingest_csv(f)


def test_ingest_rejects_garbage(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,x\n0.0,1.0\nfoo,bar\n")
    with pytest.raises(ValueError):
        ingest_csv(f)
    # Only the first row may be a header: corrupt rows after it are not
    # skipped as more header lines.
    f.write_text("t,x\nfoo,bar\nbaz,qux\n0,1\n0.1,2\n0.2,3\n0.3,4\n")
    with pytest.raises(ValueError, match="non-numeric row 2"):
        ingest_csv(f)
    # A row with a blank cell is neither skipped as blank nor taken as a header.
    for text, row in (("t,x\n0.0,1.0\n,7.0\n0.1,2.0\n0.2,3.0\n", 3), (",7.0\n0.0,1.0\n0.1,2.0\n", 1),
                      ("t,x\n0.0,1.0\n0.1,\n0.2,3.0\n", 3)):
        f.write_text(text)
        with pytest.raises(ValueError, match=f"non-numeric row {row}"):
            ingest_csv(f)
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x\n")
    with pytest.raises(ValueError):
        ingest_csv(empty)
    f.write_text("t,x,y\n0.0,1.0,2.0\n0.1,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"one \(x\) or two \(t, x\) columns"):
        ingest_csv(f)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 40), master=st.integers(0, 2**31))
def test_path_length_invariant(n, master):
    path = simulate_slices(
        ExponentialTrawl(1.0), GaussianSeed(0.0, 1.0), GridScheme(n=n, delta=0.1, master_seed=master), exact=True
    )
    assert len(path.values) == n + 1
    assert path.n == n
    assert np.all(np.isfinite(path.values))
