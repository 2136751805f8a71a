"""Trawl families and seed laws against quadrature and sampling oracles."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from trawlkit import (
    CompactTriangleTrawl,
    ExponentialTrawl,
    GammaSeed,
    GaussianSeed,
    PoissonSeed,
    PowerLawTrawl,
    seed_from_dict,
    trawl_from_dict,
)

from trawlkit import models
from trawlkit.models import _SEED_FAMILIES, _TRAWL_FAMILIES, JUMP_EPS, JumpLaw, _exp1

from conftest import ALL_TRAWLS, ALL_SEEDS


# -- closed forms vs quadrature ------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.7])
def test_tail_integral_matches_quadrature(trawl, t):
    hi = trawl.support_end if trawl.support_end < math.inf else np.inf
    expect, _ = integrate.quad(lambda s: float(trawl.a(s)), t, hi)
    assert float(trawl.tail_integral(t)) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.8])
def test_power_tail_integral_matches_quadrature(trawl, t, p):
    if p * trawl.tail_exponent <= 1:  # a^p ~ s^(-p alpha) is not integrable
        with pytest.raises(ValueError):
            trawl.power_tail_integral(t, p)
        return
    hi = trawl.support_end if trawl.support_end < math.inf else np.inf
    expect, _ = integrate.quad(lambda s: float(trawl.a(s)) ** p, t, hi)
    assert float(trawl.power_tail_integral(t, p)) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("t", [0.0, 0.8, 3.0])
def test_head_integral_is_the_difference_of_tails(trawl, t, p):
    """Every family but the power law takes the head from its two power
    tails, bit for bit; the power law's closed form agrees with them where
    they are finite, at q = p * alpha > 1."""
    head = trawl.head_integral(t, p)
    if p * trawl.tail_exponent <= 1:  # the tails are infinite; see the closed-form test
        return
    difference = trawl.power_tail_integral(0.0, p) - trawl.power_tail_integral(t, p)
    if isinstance(trawl, PowerLawTrawl):
        assert float(head) == pytest.approx(float(difference), rel=1e-13, abs=1e-15)
    else:
        assert head.tobytes() == difference.tobytes()


@pytest.mark.parametrize(
    "alpha, scale, p",
    [(1.5, 1.0, 0.6), (1.5, 0.7, 0.6), (2.0, 1.0, 0.5), (2.0, 0.7, 0.5), (2.5, 0.7, 2.0)],
    ids=["q=0.9", "q=0.9-scaled", "q=1", "q=1-scaled", "q=5"],
)
@pytest.mark.parametrize("t", [0.0, 1.0, 2.3])
def test_power_law_head_integral_closed_form(alpha, scale, p, t):
    """int_0^t (1 + s/c)^-q ds = c/(1 - q) ((1 + t/c)^(1-q) - 1), and
    c ln(1 + t/c) at q = 1, also at q <= 1 where both tails are infinite;
    at c = 1 and t = 1 it is (2^0.1 - 1)/0.1 for q = 0.9 and ln 2 for q = 1."""
    trawl, q, c = PowerLawTrawl(alpha, scale), alpha * p, scale
    expect = c * math.log1p(t / c) if q == 1 else c / (1 - q) * ((1 + t / c) ** (1 - q) - 1)
    assert float(trawl.head_integral(t, p)) == pytest.approx(expect, rel=1e-14, abs=1e-300)
    quad, _ = integrate.quad(lambda s: float(trawl.a(s)) ** p, 0.0, t)
    assert float(trawl.head_integral(t, p)) == pytest.approx(quad, abs=1e-12)
    if (scale, t) == (1.0, 1.0) and q <= 1:
        assert float(trawl.head_integral(t, p)) == pytest.approx(math.log(2) if q == 1 else (2**0.1 - 1) / 0.1,
                                                                 rel=1e-14)


def test_leb_A_is_integral_of_a(trawl):
    hi = trawl.support_end if trawl.support_end < math.inf else np.inf
    expect, _ = integrate.quad(lambda s: float(trawl.a(s)), 0.0, hi)
    assert trawl.leb_A == pytest.approx(expect, abs=1e-8)
    assert float(trawl.a(0.0)) == pytest.approx(1.0)


def test_a_is_a_power_of_the_tail_integral(trawl):
    """a = (A / A(0))^gamma with gamma = ``_log_slope``, which the limit
    theory's change of variables w = -log(A / A(0)) rests on."""
    s = np.array([0.0, 0.3, 0.9, 2.0, 7.5])
    expect = (trawl.tail_integral(s) / trawl.leb_A) ** trawl._log_slope
    np.testing.assert_allclose(trawl.a(s), expect, rtol=1e-12, atol=0.0)


def test_autocorrelation_normalized(trawl):
    """The process autocorrelation A(h) / Leb(A) starts at 1 and decays in [0, 1]."""
    h = np.array([0.0, 0.5, 1.5, 4.0])
    rho = trawl.tail_integral(h) / trawl.leb_A
    assert rho[0] == pytest.approx(1.0)
    assert np.all(np.diff(rho) <= 1e-15)
    assert np.all((0.0 <= rho) & (rho <= 1.0))


# -- invariants ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(0.0, 5.0), t2=st.floats(0.0, 5.0))
def test_tail_integral_monotone(t1, t2):
    for trawl in ALL_TRAWLS:
        lo, hi = sorted((t1, t2))
        assert float(trawl.tail_integral(lo)) >= float(trawl.tail_integral(hi)) - 1e-15


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 5.0))
def test_power_tail_integral_reduces_to_tail_integral(t):
    for trawl in ALL_TRAWLS:
        assert float(trawl.power_tail_integral(t, 1.0)) == pytest.approx(
            float(trawl.tail_integral(t)), rel=1e-12, abs=1e-300
        )


@settings(max_examples=50, deadline=None)
@given(y=st.floats(1e-6, 1.0))
def test_inverse_a_round_trip(y):
    for trawl in ALL_TRAWLS:
        s = float(trawl.inverse_a(y))
        assert float(trawl.a(s)) == pytest.approx(y, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(frac=st.floats(1e-6, 1.0 - 1e-9))
def test_tail_integral_inverse_round_trip(frac):
    for trawl in ALL_TRAWLS:
        m = frac * trawl.leb_A
        t = float(trawl.tail_integral_inverse(m))
        assert float(trawl.tail_integral(t)) == pytest.approx(m, rel=1e-10)


def test_a_non_increasing(trawl):
    s = np.linspace(0.0, 6.0, 200)
    vals = trawl.a(s)
    assert np.all(np.diff(vals) <= 1e-15)


def test_support_flags():
    assert CompactTriangleTrawl(2.0).support_end == 2.0
    assert math.isinf(ExponentialTrawl(1.0).support_end)
    assert PowerLawTrawl(2.5, 1.0).tail_exponent == 2.5
    assert math.isinf(ExponentialTrawl(1.0).tail_exponent)


# -- seed laws -----------------------------------------------------------


def test_seed_cumulants():
    g = GaussianSeed(0.3, 2.0)
    assert (g.kappa1, g.kappa2, g.kappa4) == (0.3, 2.0, 0.0)
    p = PoissonSeed(0.7)
    assert (p.kappa1, p.kappa2, p.kappa4) == (0.7,) * 3
    gam = GammaSeed(2.0, 0.5)
    assert gam.kappa1 == pytest.approx(1.0)
    assert gam.kappa2 == pytest.approx(0.5)
    assert gam.kappa4 == pytest.approx(0.75)


# -- jump laws -----------------------------------------------------------


def test_exp1_series_matches_scipy():
    for x in np.geomspace(1e-8, 1e-2, 61):
        assert _exp1(float(x)) == pytest.approx(special.exp1(x), rel=1e-14, abs=0)


def test_jump_laws_by_family():
    """A Poisson seed is unit jumps at its rate with nothing left out; a
    Gaussian seed has no jump law."""
    assert PoissonSeed(3.0).jump_law() == JumpLaw(3.0)
    assert GaussianSeed(0.0, 1.0).jump_law() is None


@pytest.mark.parametrize("eps", [JUMP_EPS, 1e-3, 0.5])
def test_gamma_jump_law_constants(monkeypatch, eps):
    """Rate shape * E1(eps); the left-out jumps' mean (the drift), variance
    and fourth cumulant are shape * scale^m * gamma(m, eps) at m = 1, 2, 4."""
    monkeypatch.setattr(models, "JUMP_EPS", eps)
    seed = GammaSeed(2.0, 0.5)
    law = seed.jump_law()
    assert law.rate == seed.rate == 2.0 * _exp1(eps)
    assert law.cutoff == eps * 0.5
    lower = {m: special.gammainc(m, eps) * special.gamma(m) for m in (1, 2, 4)}
    assert law.drift == pytest.approx(2.0 * 0.5 * -math.expm1(-eps), rel=1e-12)
    assert law.drift == pytest.approx(2.0 * 0.5 * lower[1], rel=1e-12)
    assert law.dropped_kappa2 == pytest.approx(2.0 * 0.5**2 * lower[2], rel=1e-12)
    assert law.dropped_kappa4 == pytest.approx(2.0 * 0.5**4 * lower[4], rel=1e-12)


def test_gamma_jump_law_needs_a_cutoff_below_one(monkeypatch):
    for eps in (0.0, 1.0, math.nan):
        monkeypatch.setattr(models, "JUMP_EPS", eps)
        with pytest.raises(ValueError, match="JUMP_EPS"):
            GammaSeed(1.0, 1.0).jump_law()


def test_gamma_marks_mean_and_law():
    """10^5 marks: all above the cutoff, mean scale * e^-eps / E1(eps)
    within 3 SE, and KS distance from the CDF 1 - E1(x/scale)/E1(eps) below
    1.63/sqrt(N)."""
    seed, size = GammaSeed(2.0, 0.5), 10**5
    law = seed.jump_law()
    x = law.marks(np.random.default_rng(5), size)
    assert x.shape == (size,) and np.all(x > law.cutoff)
    mean = 0.5 * math.exp(-JUMP_EPS) / _exp1(JUMP_EPS)
    assert abs(np.mean(x) - mean) < 3.0 * np.std(x, ddof=1) / math.sqrt(size)
    ks = stats.kstest(x, lambda v: 1.0 - special.exp1(v / 0.5) / special.exp1(JUMP_EPS)).statistic
    assert ks < 1.63 / math.sqrt(size)


def _draws(seed_spec, area, size, rng):
    """``size`` draws for one area, as a scalar area with ``size`` and as an array of areas."""
    return seed_spec.sample(area, rng, size), seed_spec.sample(np.full(size, area), rng)


def test_sample_moments(seed_spec):
    rng = np.random.default_rng(123)
    area = 1.7
    for draws in _draws(seed_spec, area, 200_000, rng):
        se_mean = math.sqrt(seed_spec.kappa2 * area / len(draws))
        assert np.mean(draws) == pytest.approx(seed_spec.kappa1 * area, abs=6 * se_mean)
        assert np.var(draws) == pytest.approx(seed_spec.kappa2 * area, rel=0.03)


def test_sample_additivity(seed_spec):
    """L(B1 u B2) =d L(B1) + L(B2): variance of split draws matches."""
    rng = np.random.default_rng(5)
    pieces = [_draws(seed_spec, area, 100_000, rng) for area in (0.6, 0.4, 1.0)]
    for part1, part2, whole in zip(*pieces):
        split = part1 + part2
        assert np.mean(split) == pytest.approx(np.mean(whole), abs=0.05 * max(1.0, seed_spec.kappa1))
        assert np.var(split) == pytest.approx(np.var(whole), rel=0.05)


def test_sample_scalar_and_array_areas_agree(seed_spec):
    """A scalar area with ``size`` gives the same draws as an array of areas."""
    scalar = seed_spec.sample(0.7, np.random.default_rng(9), 50)
    array = seed_spec.sample(np.full(50, 0.7), np.random.default_rng(9))
    np.testing.assert_array_equal(scalar, array)


def test_sample_seed_zero_area(seed_spec):
    rng = np.random.default_rng(0)
    assert seed_spec.sample(0.0, rng) == 0.0
    assert np.all(seed_spec.sample(0.0, rng, 4) == 0.0)
    out = seed_spec.sample(np.array([0.0, 1.0, 0.0]), rng)
    assert out[0] == 0.0 and out[2] == 0.0


def test_sample_seed_rejects_negative_area(seed_spec):
    rng = np.random.default_rng(0)
    bad = ((-0.1, None), (-0.1, 5), (np.array([0.5, -0.1]), None), (math.nan, None), (np.array([math.nan]), None))
    for area, size in bad:
        with pytest.raises(ValueError):
            seed_spec.sample(area, rng, size)


# -- dict round trips and validation -------------------------------------


#: The exact spec dicts, key order included: provenance sidecars hash them.
SPEC_DICTS = {
    ExponentialTrawl(1.0): [("family", "exponential"), ("rate", 1.0)],
    ExponentialTrawl(0.5): [("family", "exponential"), ("rate", 0.5)],
    PowerLawTrawl(2.5, 1.0): [("family", "powerlaw"), ("alpha", 2.5), ("scale", 1.0)],
    PowerLawTrawl(1.8, 0.7): [("family", "powerlaw"), ("alpha", 1.8), ("scale", 0.7)],
    CompactTriangleTrawl(1.0): [("family", "triangle"), ("support", 1.0)],
    CompactTriangleTrawl(2.3): [("family", "triangle"), ("support", 2.3)],
    GaussianSeed(0.0, 1.0): [("family", "gaussian"), ("mean", 0.0), ("var", 1.0)],
    GaussianSeed(0.3, 2.0): [("family", "gaussian"), ("mean", 0.3), ("var", 2.0)],
    PoissonSeed(1.0): [("family", "poisson"), ("rate", 1.0)],
    PoissonSeed(0.4): [("family", "poisson"), ("rate", 0.4)],
    GammaSeed(2.0, 0.5): [("family", "gamma"), ("shape", 2.0), ("scale", 0.5)],
}


def test_trawl_dict_round_trip(trawl):
    assert list(trawl.to_dict().items()) == SPEC_DICTS[trawl]
    assert trawl_from_dict(trawl.to_dict()) == trawl


def test_seed_dict_round_trip(seed_spec):
    assert list(seed_spec.to_dict().items()) == SPEC_DICTS[seed_spec]
    assert seed_from_dict(seed_spec.to_dict()) == seed_spec


@pytest.mark.parametrize(
    "cfg",
    [
        {"family": "nope"},
        {},
        {"family": "exponential", "rate": 1.0, "bogus": 2},
        {"family": "triangle", "rate": 1.0},
        {"family": "exponential", "rate": True},
    ],
)
def test_trawl_from_dict_rejects_bad_config(cfg):
    with pytest.raises(ValueError):
        trawl_from_dict(cfg)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExponentialTrawl(0.0),
        lambda: ExponentialTrawl(-1.0),
        lambda: PowerLawTrawl(1.0, 1.0),
        lambda: PowerLawTrawl(2.0, -1.0),
        lambda: CompactTriangleTrawl(0.0),
        lambda: GaussianSeed(0.0, 0.0),
        lambda: PoissonSeed(-1.0),
        lambda: GammaSeed(0.0, 1.0),
    ],
)
def test_parameter_validation(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "family,param",
    [(cls, f.name) for cls in (*_TRAWL_FAMILIES.values(), *_SEED_FAMILIES.values()) for f in fields(cls)],
    ids=lambda x: getattr(x, "__name__", x),
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameters_reject_nan_and_infinity(family, param, bad):
    """Every family parameter must be finite, so no spec can yield a NaN path."""
    with pytest.raises(ValueError, match=param):
        family(**{param: bad})


def test_power_tail_integral_rejects_small_p(trawl):
    """The domain is p > 0, and p * alpha > 1 for the power law."""
    for p in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            trawl.power_tail_integral(0.0, p)
    with pytest.raises(ValueError, match="t must be non-negative"):
        trawl.power_tail_integral(math.nan, 2.0)
    alpha = trawl.tail_exponent
    if alpha < math.inf:
        with pytest.raises(ValueError):
            trawl.power_tail_integral(0.0, 1.0 / alpha)
    assert math.isfinite(float(trawl.power_tail_integral(0.0, max(0.5, 1.01 / alpha))))


def test_inverse_a_domain(trawl):
    with pytest.raises(ValueError):
        trawl.inverse_a(0.0)
    with pytest.raises(ValueError):
        trawl.inverse_a(1.5)
