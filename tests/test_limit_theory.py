"""Asymptotic-variance kernels against closed forms and each other.

For the unit-rate exponential trawl every kernel has an elementary closed
form (derived by hand and cross-checked symbolically), which pins the
quadrature down hard:

    sigma2~(s, r) = (1 - d) exp(-d),           d = |s - r|
    sigma3~(s, r) = (s + r - 1) exp(-(s + r))
    Sigma_a(s, r) = k4 exp(-max(s,r)) + sigma2~ + sigma3~
    sigma_a^2(t)  = k4 exp(-t) + 1 + (2t - 1) exp(-2t)

    limit_cov_psi(x^2; t, t)       = (8 k4 e^t + 6 t + (4 k4 + 3) e^{4t}
                                      + 3 (2 t^2 - 4 t - 4 k4 - 1) e^{2t}) e^{-4t} / 3
    limit_cov_lambda(|x|^4; 0, 0)  = 8 k4 / 7 + 1/2
"""

import math

import numpy as np
import pytest
from scipy import integrate

from trawlkit import TestFunction as G  # aliased: pytest would try to collect a Test* class
from trawlkit import (
    AvarKernel,
    CompactTriangleTrawl,
    ExponentialTrawl,
    PowerLawTrawl,
    QuadratureError,
)
from trawlkit import limit_theory
from trawlkit.limit_theory import _ABS_TOL, _INNER_NODES

from oracles import AdaptiveKernel

EXP = ExponentialTrawl(1.0)
FAMILIES = [EXP, PowerLawTrawl(2.5, 1.0), CompactTriangleTrawl(1.5)]
ORACLE_FAMILIES = [PowerLawTrawl(2.5, 1.0), PowerLawTrawl(1.5, 1.0), CompactTriangleTrawl(1.5)]


# -- adaptive oracle of the limit covariances -----------------------------
#
# Iterated adaptive quadrature of dg(a(u)) Sigma_a(u, r) dg(a(r)), the inner
# integral split at the ridge r = u, with the inner tolerance 10 * _ABS_TOL;
# the outer integral is split at u = s, where the inner one has a kink.
# Each returns its value and the outer rule's error estimate, which a test
# reads before it compares.  It shares only Sigma_a with the product rule,
# and Sigma_a is checked against the adaptive sigma kernels of
# ``oracles.AdaptiveKernel`` below; one node count keeps the many scalar
# calls affordable.


def _scalar_sigma_a(kern):
    m = _INNER_NODES[-1]
    return lambda u, r: float(kern._sigma_a(np.array([u]), np.array([r]), m)[0])


def _inner_kernel(kern):
    return AdaptiveKernel(kern.trawl, kern.k4, abs_tol=10.0 * _ABS_TOL)


def _outer_quad(inner, lo, hi, kink):
    cuts = [lo, kink, hi] if lo < kink < hi else [lo, hi]
    parts = [integrate.quad(inner, a, b, epsabs=1e-10, epsrel=3e-7, limit=80) for a, b in zip(cuts, cuts[1:])]
    res, err = (sum(part[i] for part in parts) for i in (0, 1))
    if not math.isfinite(res):
        raise QuadratureError("outer quadrature diverged")
    return res, err


def adaptive_limit_cov_psi(kern, g, t, s):
    sigma, inner_kern = _scalar_sigma_a(kern), _inner_kernel(kern)

    def inner(u):
        du = float(g.dg(kern.trawl.a(u)))

        def f(r):
            return float(g.dg(kern.trawl.a(r))) * sigma(u, r)

        lo_part = inner_kern.quad(f, 0.0, min(u, s))
        hi_part = inner_kern.quad(f, min(u, s), s)
        return du * (lo_part + hi_part)

    return _outer_quad(inner, 0.0, t, s)


def adaptive_limit_cov_lambda(kern, g, t, s):
    sigma, inner_kern = _scalar_sigma_a(kern), _inner_kernel(kern)

    def inner(u):
        du = float(g.dg(kern.trawl.a(u)))
        if du == 0.0:
            return 0.0

        def f(r):
            return float(g.dg(kern.trawl.a(r))) * sigma(u, r)

        mid = max(u, s)
        lo_part = inner_kern.quad(f, s, mid)
        hi_part = inner_kern.quad(f, mid, math.inf)
        return du * (lo_part + hi_part)

    return _outer_quad(inner, t, kern.trawl.support_end, s)


def exp_sigma_a(s, r, k4):
    d = abs(s - r)
    return (
        k4 * math.exp(-max(s, r))
        + (1 - d) * math.exp(-d)
        + (s + r - 1) * math.exp(-(s + r))
    )


# -- sigma kernels vs exponential closed forms ---------------------------


@pytest.mark.parametrize("k4", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("s,r", [(0.0, 0.0), (1.0, 0.0), (0.3, 0.7), (2.1, 1.4)])
def test_sigma_a_matrix_exponential_closed_form(s, r, k4):
    kern = AvarKernel(EXP, k4=k4)
    assert kern.sigma_a_matrix(s, r) == pytest.approx(exp_sigma_a(s, r, k4), abs=1e-9)


def test_sigma_kernel_spot_values():
    kern = AdaptiveKernel(EXP, k4=1.0)
    assert kern.sigma1(1.0, 0.5) == pytest.approx(math.exp(-1.0))
    assert kern.sigma2(1.0, 0.0) == pytest.approx(math.exp(-1.0) * (0.5 - 1.0), abs=1e-10)
    assert kern.sigma3(0.0, 0.0) == pytest.approx(-0.5, abs=1e-10)
    assert kern.sigma3(1.0, 0.0) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)


@pytest.mark.parametrize("k4", [0.0, 1.3])
def test_sigma_a_sq_exponential_closed_form(k4):
    kern, oracle = AvarKernel(EXP, k4=k4), AdaptiveKernel(EXP, k4=k4)
    for t in [0.0, 0.4, 1.0, 3.0]:
        expect = k4 * math.exp(-t) + 1.0 + (2 * t - 1) * math.exp(-2 * t)
        assert oracle.sigma_a_sq(t) == pytest.approx(expect, abs=1e-9)
        assert kern.sigma_a_matrix(t, t) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("trawl", FAMILIES, ids=repr)
def test_sigma_a_sq_equals_matrix_diagonal(trawl):
    kern, oracle = AvarKernel(trawl, k4=0.8), AdaptiveKernel(trawl, k4=0.8)
    for t in np.linspace(0.0, 2.5, 20):
        assert abs(oracle.sigma_a_sq(t) - kern.sigma_a_matrix(t, t)) < 1e-8


@pytest.mark.parametrize("trawl", FAMILIES, ids=repr)
def test_sigma_a_matrix_symmetric(trawl):
    kern = AvarKernel(trawl, k4=0.5)
    rng = np.random.default_rng(2)
    for _ in range(10):
        s, r = rng.uniform(0.0, 2.0, 2)
        assert kern.sigma_a_matrix(s, r) == pytest.approx(kern.sigma_a_matrix(r, s), abs=1e-9)


@pytest.mark.parametrize("trawl", ORACLE_FAMILIES + [EXP, PowerLawTrawl(1.2, 1.0)], ids=repr)
def test_sigma_a_matrix_arrays_match_sigma_kernels(trawl):
    """The C/K identity on array input against the adaptive sigma kernels."""
    kern, oracle = AvarKernel(trawl, k4=0.6), AdaptiveKernel(trawl, k4=0.6)
    rng = np.random.default_rng(7)
    s = np.concatenate([[0.0, 0.9, 1.5], rng.uniform(0.0, 3.0, 12)])
    r = np.concatenate([[0.0, 0.9, 0.2], rng.uniform(0.0, 3.0, 12)])
    expect = [oracle.sigma_a(u, v) for u, v in zip(s, r)]
    got = kern.sigma_a_matrix(s.reshape(3, 5), r.reshape(3, 5))
    assert got.shape == (3, 5)
    np.testing.assert_allclose(got.ravel(), expect, rtol=0.0, atol=1e-9)
    assert isinstance(kern.sigma_a_matrix(0.4, 1.1), float)


@pytest.mark.parametrize("trawl", [PowerLawTrawl(1.02, 1.0), PowerLawTrawl(1.1, 1.0)], ids=repr)
@pytest.mark.parametrize("s,r", [(0.5, 0.3), (2.0, 0.0)])
def test_sigma_a_matrix_long_memory_matches_sigma_kernels(trawl, s, r):
    """As alpha nears 1, a decays too slowly for a fixed length scale."""
    kern, oracle = AvarKernel(trawl, k4=0.6), AdaptiveKernel(trawl, k4=0.6)
    assert kern.sigma_a_matrix(s, r) == pytest.approx(oracle.sigma_a(s, r), rel=1e-9)


def test_sigma2_via_raw_quadrature():
    """Independent transcription of the signed-overlap integral."""
    trawl = PowerLawTrawl(2.5, 1.0)
    kern = AdaptiveKernel(trawl)
    for s, r in [(0.6, 0.1), (0.1, 0.6), (1.5, 1.5)]:
        d = s - r
        expect, _ = integrate.quad(
            lambda u: float(trawl.a(u) * trawl.a(abs(u - d))) * np.sign(u - d),
            0.0,
            np.inf,
            points=None,
            limit=300,
        )
        assert kern.sigma2(s, r) == pytest.approx(expect, abs=1e-7)


def test_kernels_reject_negative_times():
    kern = AvarKernel(EXP)
    with pytest.raises(ValueError):
        kern.sigma_a_matrix(-0.1, 0.0)
    with pytest.raises(ValueError):
        kern.appendix_f(1, 3, 0.5, -1.0)
    with pytest.raises(ValueError, match="time arguments"):
        kern.sigma_a_matrix(np.array([0.5, math.nan]), 0.0)
    with pytest.raises(ValueError, match="time arguments"):
        kern.limit_cov_psi(G(2.0), math.nan, 1.0)
    # sigma_a_matrix(inf, 1) once ended in a QuadratureError, and the limit
    # covariance at t = inf in NaN node-count checks
    with pytest.raises(ValueError, match="time arguments must be non-negative and finite"):
        kern.sigma_a_matrix(math.inf, 1.0)
    with pytest.raises(ValueError, match="time arguments must be non-negative and finite"):
        kern.limit_cov_psi(G(2.0), math.inf, math.inf)
    for k4 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="k4"):
            AvarKernel(EXP, k4=k4)


# -- decomposition into the ten limit kernels ----------------------------


@pytest.mark.parametrize("trawl", FAMILIES, ids=repr)
def test_decomposition_residual(trawl):
    kern = AvarKernel(trawl, k4=1.0)
    rng = np.random.default_rng(4)
    for _ in range(15):
        s, r = rng.uniform(0.0, 2.0, 2)
        assert kern.decomposition_residual(s, r) < 1e-6


@pytest.mark.parametrize("trawl", FAMILIES + [PowerLawTrawl(1.5, 1.0)], ids=repr)
def test_appendix_f_matches_adaptive_oracle(trawl):
    """All ten block kernels, in both argument orders, against scalar quad."""
    kern, oracle = AvarKernel(trawl, k4=1.0), AdaptiveKernel(trawl, k4=1.0)
    rng = np.random.default_rng(8)
    points = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.2)] + [tuple(p) for p in rng.uniform(0.0, 2.5, (12, 2))]
    for s, r in points:
        for l1 in range(1, 5):
            for l2 in range(l1, 5):
                for u, v in ((s, r), (r, s)):
                    expect = oracle.appendix_f(l1, l2, u, v)
                    assert kern.appendix_f(l1, l2, u, v) == pytest.approx(expect, abs=1e-9, rel=0.0)


@pytest.mark.parametrize("trawl", FAMILIES, ids=repr)
def test_appendix_f_arrays_match_scalar_calls(trawl):
    """A 2-D (s, r) grid gives, bitwise, the per-element scalar calls."""
    kern = AvarKernel(trawl, k4=0.7)
    grid = np.linspace(0.0, 2.5, 7)
    s, r = np.meshgrid(grid, grid[::-1] * 0.9, indexing="ij")
    for l1 in range(1, 5):
        for l2 in range(l1, 5):
            got = kern.appendix_f(l1, l2, s, r)
            assert got.shape == s.shape
            expect = [[kern.appendix_f(l1, l2, u, v) for u, v in zip(su, ru)] for su, ru in zip(s, r)]
            np.testing.assert_array_equal(got, expect)
            assert isinstance(kern.appendix_f(l1, l2, 0.4, 1.1), float)


def test_diagonal_kernels_aggregate():
    """Sum of the four diagonal kernels = k4 a(M) + 2 a(0) A(|s-r|)."""
    kern = AvarKernel(EXP, k4=0.7)
    for s, r in [(0.2, 1.1), (1.3, 0.4), (0.9, 0.9)]:
        total = sum(kern.appendix_f(l, l, s, r) for l in range(1, 5))
        expect = 0.7 * math.exp(-max(s, r)) + 2.0 * math.exp(-abs(s - r))
        assert total == pytest.approx(expect, abs=1e-8)


def test_appendix_f_spot_values():
    kern = AvarKernel(EXP, k4=1.0)
    # (1,2) kernel for the exponential: s * exp(-(s+r))
    assert kern.appendix_f(1, 2, 0.3, 0.7) == pytest.approx(0.3 * math.exp(-1.0), abs=1e-10)
    # (2,3) kernel: -exp(-r) exp(-2s) / 2
    assert kern.appendix_f(2, 3, 0.3, 0.7) == pytest.approx(
        -math.exp(-0.7) * math.exp(-0.6) / 2, abs=1e-10
    )
    assert kern.appendix_f(3, 4, 1.0, 2.0) == 0.0


def test_appendix_f_validation():
    kern = AvarKernel(EXP)
    with pytest.raises(ValueError):
        kern.appendix_f(2, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        kern.appendix_f(0, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        kern.appendix_f(1, 5, 0.0, 0.0)


# -- limit covariances ---------------------------------------------------


def exp_limit_cov_psi(t, k4):
    """limit_cov_psi(x^2; t, t) of the unit exponential trawl, in the
    docstring's form multiplied out by e^{-4t}."""
    return (8 * k4 * math.exp(-3 * t) + 6 * t * math.exp(-4 * t) + 4 * k4 + 3
            + 3 * (2 * t * t - 4 * t - 4 * k4 - 1) * math.exp(-2 * t)) / 3


@pytest.mark.parametrize(
    "t,k4", [pytest.param(t, k4, id=str(k4) if t == 1.0 else f"t{t:g}-{k4}") for t in (1.0, 5.0, 50.0, 100.0) for k4 in (0.0, 1.0)]
)
def test_limit_cov_psi_exponential_closed_form(t, k4):
    """At large t the head spans many scales of a; as t grows the
    covariance tends to 4 k4 / 3 + 1."""
    kern = AvarKernel(EXP, k4=k4)
    assert kern.limit_cov_psi(G(2.0), t, t) == pytest.approx(exp_limit_cov_psi(t, k4), rel=1e-9)


@pytest.mark.parametrize("trawl", [ExponentialTrawl(3.5), PowerLawTrawl(1.5, 2.0), CompactTriangleTrawl(4.0)], ids=repr)
@pytest.mark.parametrize("t", [1e-10, 1e-20])
def test_limit_cov_psi_of_a_short_head(trawl, t):
    """On a head far shorter than A(0), Sigma_a = k4 + O(t) and dg(a) = 2 + O(t),
    so limit_cov_psi(x^2; t, t) = 4 k4 t^2 (1 + O(t)): the nodes near u = 0
    keep their relative precision."""
    kern = AvarKernel(trawl, k4=6.0)
    assert kern.limit_cov_psi(G(2.0), t, t) == pytest.approx(24.0 * t * t, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k4", [0.0, 1.0, 2.0])
def test_limit_cov_lambda_exponential_closed_form(k4):
    kern = AvarKernel(EXP, k4=k4)
    expect = 8.0 * k4 / 7.0 + 0.5
    assert kern.limit_cov_lambda(G(4.0), 0.0, 0.0) == pytest.approx(expect, rel=1e-5)


def _oracle_match(got, expect_and_err):
    """``got`` within 1e-6 relative of the oracle, whose own error
    estimate is checked first to be at most a quarter of that."""
    expect, err = expect_and_err
    assert err <= 2.5e-7 * abs(expect)
    assert got == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize(
    "trawl,g,t,s",
    [pytest.param(trawl, G(2.0), 1.0, 0.4, id=repr(trawl)) for trawl in ORACLE_FAMILIES]
    + [
        # a head over many scales of a; a slowly decaying trawl; g' steep near the end of a compact support
        pytest.param(PowerLawTrawl(2.5, 1.0), G(2.0), 20.0, 0.4, id="PowerLawTrawl(alpha=2.5)-t20"),
        pytest.param(PowerLawTrawl(1.02, 1.0), G(2.0), 1.0, 1.0, id="PowerLawTrawl(alpha=1.02)"),
        pytest.param(CompactTriangleTrawl(1.0), G(0.5), 0.4, 0.999, id="CompactTriangleTrawl(support=1)-root-s0.999"),
    ],
)
def test_limit_cov_psi_matches_adaptive_oracle(trawl, g, t, s):
    kern = AvarKernel(trawl, k4=1.0)
    _oracle_match(kern.limit_cov_psi(g, t, s), adaptive_limit_cov_psi(kern, g, t, s))


@pytest.mark.parametrize(
    "trawl,t,s",
    [pytest.param(trawl, 0.3, 0.8, id=repr(trawl)) for trawl in ORACLE_FAMILIES]
    + [pytest.param(CompactTriangleTrawl(1.5), 0.8, 1.1, id="CompactTriangleTrawl(support=1.5)-0.8-1.1")]
    + [pytest.param(PowerLawTrawl(alpha, 1.0), 0.0, 0.0, id=f"PowerLawTrawl(alpha={alpha})-0-0") for alpha in (1.02, 1.05, 1.1)],
)
def test_limit_cov_lambda_matches_adaptive_oracle(trawl, t, s):
    kern = AvarKernel(trawl, k4=1.0)
    g = G(4.0)
    _oracle_match(kern.limit_cov_lambda(g, t, s), adaptive_limit_cov_lambda(kern, g, t, s))


def test_limit_cov_psi_constant_beyond_support_end():
    """dg(a(u)) vanishes beyond the support end; the rule splits at the kinks there."""
    kern = AvarKernel(CompactTriangleTrawl(1.0), k4=1.0)
    g = G(2.0)
    inside = kern.limit_cov_psi(g, 1.0, 1.0)
    assert kern.limit_cov_psi(g, 2.0, 2.0) == pytest.approx(inside, rel=1e-12)
    assert kern.limit_cov_psi(g, 3.0, 1.2) == pytest.approx(inside, rel=1e-12)


def test_limit_cov_symmetric_in_times():
    kern = AvarKernel(PowerLawTrawl(2.5, 1.0), k4=1.0)
    g = G(4.0)
    assert kern.limit_cov_psi(g, 1.0, 0.4) == pytest.approx(kern.limit_cov_psi(g, 0.4, 1.0), rel=1e-12)
    assert kern.limit_cov_lambda(g, 0.3, 0.8) == pytest.approx(kern.limit_cov_lambda(g, 0.8, 0.3), rel=1e-12)


def test_under_resolved_integrand_raises(monkeypatch):
    """An integrand the fixed rules cannot resolve surfaces as an error: two
    outer nodes per panel leave the coarse rule far from the fine one."""
    monkeypatch.setattr(limit_theory, "_OUTER_NODES", (2, 28))
    kern = AvarKernel(EXP, k4=1.0)
    with pytest.raises(QuadratureError, match="limit covariance"):
        kern.limit_cov_psi(G(2.0), 1.0, 1.0)
    with pytest.raises(QuadratureError, match="limit covariance"):
        kern.limit_cov_lambda(G(4.0), 0.0, 0.0)


def test_limit_cov_psi_zero_time():
    kern = AvarKernel(EXP)
    assert kern.limit_cov_psi(G(2.0), 0.0, 1.0) == 0.0


def test_limit_cov_lambda_rejects_low_power():
    """The quadratic case has a non-central limit, not a CLT."""
    kern = AvarKernel(EXP)
    with pytest.raises(ValueError):
        kern.limit_cov_lambda(G(2.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        kern.limit_cov_lambda(G(3.0), 0.0, 0.0)


def test_limit_covs_reject_an_infinite_derivative_where_a_vanishes():
    """g = |x|^0.5 has g' infinite at 0: the limit covariances refuse a
    range on which a reaches 0, before any quadrature, and run where a > 0."""
    kern = AvarKernel(CompactTriangleTrawl(1.0), k4=1.0)
    for call in (lambda: kern.limit_cov_psi(G(0.5), 1.0, 0.5), lambda: kern.limit_cov_psi(G(0.5), 2.0, 2.0),
                 lambda: kern.limit_cov_lambda(G(0.5), 0.0, 0.0)):
        with pytest.raises(ValueError, match="exponent 0.5 < 1 makes g' infinite at 0, which a reaches at u = 1"):
            call()
    assert kern.limit_cov_psi(G(0.5), 0.5, 0.5) > 0
    assert kern.limit_cov_psi(G(0.5), 0.999, 0.999) > 0  # g' steep where a nears 0
    assert kern.limit_cov_psi(G(1.0), 1.0, 1.0) > 0


def test_limit_cov_lambda_compact_support():
    """Beyond the support end the tail covariance vanishes."""
    trawl = CompactTriangleTrawl(1.0)
    kern = AvarKernel(trawl, k4=1.0)
    assert kern.limit_cov_lambda(G(4.0), 2.0, 2.0) == 0.0
    inside = kern.limit_cov_lambda(G(4.0), 0.0, 0.0)
    assert inside > 0.0
