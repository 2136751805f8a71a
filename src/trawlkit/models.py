"""Parametric trawl functions and Levy seed laws.

A trawl process is built from two ingredients: a non-increasing, integrable
trawl function ``a`` whose graph bounds the trawl set, and a homogeneous Levy
basis whose seed law determines the marginal distribution.  Every trawl
family gives closed forms for the power tail integral ``int_t^inf a(s)^p ds``
and for the inverses of ``a`` and of the tail integral, so that all
downstream quadrature has an analytic cross-check; the tail integral ``A(t)``
is the power tail integral at p = 1.  Every seed law gives its per-unit-area
cumulants by one formula, and its kappa4 is the fourth moment of its Levy
measure.  A seed with jumps also gives its jump law (``jump_law``): the
compound Poisson points and drift that the point sampler draws.  A spec's dict
form (``to_dict``) and its parser (``trawl_from_dict``, ``seed_from_dict``)
both come from the family tables at the end of the module.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "TrawlSpec",
    "ExponentialTrawl",
    "PowerLawTrawl",
    "CompactTriangleTrawl",
    "LevySeedSpec",
    "GaussianSeed",
    "PoissonSeed",
    "GammaSeed",
    "JumpLaw",
    "trawl_from_dict",
    "seed_from_dict",
]


def _check_nonneg(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(arr >= 0):  # also rejects NaN
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return arr


def _check_number(name, value):
    """``value`` itself if it is a real number; a string, list or None is a
    config error that names ``name``."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _as_dict(what, cfg) -> dict:
    """A copy of the mapping ``cfg``; anything else is a config error that
    names ``what``."""
    if not isinstance(cfg, Mapping):
        raise ValueError(f"{what} must be a mapping (a JSON object), got {cfg!r}")
    return dict(cfg)


class TrawlSpec:
    """Base class for parametric trawl functions.

    Subclasses implement ``a`` and three private formulas: ``_power_tail``,
    ``_inverse_a`` (the generalized inverse ``sup{s : a(s) >= y}``) and
    ``_tail_inverse``.  The public methods check and convert their arguments
    once, here.  Every family has a(0) = 1.  All methods accept scalars or
    arrays and are vectorized.
    """

    #: Tail exponent alpha with phi(s) = O(s^{-alpha-1}); infinity for
    #: super-polynomially decaying families.
    tail_exponent = math.inf

    #: End of the support of a (infinity when a > 0 everywhere).
    support_end = math.inf

    def a(self, s):
        raise NotImplementedError

    def tail_integral(self, t):
        """``A(t) = int_t^inf a(s) ds``, the power tail integral at p = 1."""
        return self.power_tail_integral(t, 1.0)

    def power_tail_integral(self, t, p):
        """``int_t^inf a(s)^p ds`` for t >= 0 and p > 0."""
        t = _check_nonneg("t", t)
        if not 0 < p < math.inf:
            raise ValueError("p must be positive and finite")
        return self._power_tail(t, p)

    def inverse_a(self, y):
        """``sup{s : a(s) >= y}`` for 0 < y <= a(0) = 1."""
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0) or np.any(y > 1.0):
            raise ValueError("y must lie in (0, a(0)]")
        return self._inverse_a(y)

    def tail_integral_inverse(self, m):
        """Solve ``tail_integral(t) = m`` for t (used by the point sampler)."""
        return self._tail_inverse(np.asarray(m, dtype=float))

    @property
    def leb_A(self):
        """Lebesgue measure of the trawl set, ``int_0^inf a(s) ds``."""
        return float(self.tail_integral(0.0))

    def to_dict(self):
        """``{"family": ..., <params>}``, the mapping ``trawl_from_dict`` reads."""
        return _to_dict(_TRAWL_FAMILIES, self)


@dataclass(frozen=True)
class ExponentialTrawl(TrawlSpec):
    """Exponential trawl function ``a(s) = exp(-rate * s)``."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    def a(self, s):
        return np.exp(-self.rate * np.asarray(s, dtype=float))

    def _power_tail(self, t, p):
        return np.exp(-p * self.rate * t) / (p * self.rate)

    def _inverse_a(self, y):
        return -np.log(y) / self.rate

    def _tail_inverse(self, m):
        return -np.log(self.rate * m) / self.rate


@dataclass(frozen=True)
class PowerLawTrawl(TrawlSpec):
    """Power-law trawl function ``a(s) = (1 + s/scale)^(-alpha)``.

    Parameterized so that phi(s) ~ s^(-alpha-1), i.e. alpha is exactly the
    polynomial tail exponent; alpha > 1 is required for integrability.
    """

    alpha: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if not 1 < self.alpha < math.inf:
            raise ValueError("alpha must exceed 1 and be finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")

    @property
    def tail_exponent(self):
        return self.alpha

    def a(self, s):
        return (1.0 + np.asarray(s, dtype=float) / self.scale) ** (-self.alpha)

    def _power_tail(self, t, p):
        q = p * self.alpha
        if q <= 1:
            raise ValueError("need p * alpha > 1 for a finite integral")
        return self.scale / (q - 1) * (1.0 + t / self.scale) ** (1.0 - q)

    def _inverse_a(self, y):
        return self.scale * (y ** (-1.0 / self.alpha) - 1.0)

    def _tail_inverse(self, m):
        base = (self.alpha - 1) * m / self.scale
        return self.scale * (base ** (1.0 / (1.0 - self.alpha)) - 1.0)


@dataclass(frozen=True)
class CompactTriangleTrawl(TrawlSpec):
    """Triangular trawl function ``a(s) = max(0, 1 - s/support)``.

    The only family here with a compactly supported trawl function, hence
    the only one realizing exact T-dependence.  Its phi is not strictly
    positive on [0, inf), so CLT results do not apply; it exists to produce
    the null hypothesis of the T-dependence test.
    """

    support: float = 1.0

    def __post_init__(self):
        if not 0 < self.support < math.inf:
            raise ValueError("support must be positive and finite")

    @property
    def support_end(self):
        return self.support

    def a(self, s):
        s = np.asarray(s, dtype=float)
        return np.maximum(0.0, 1.0 - s / self.support)

    def _power_tail(self, t, p):
        inside = np.maximum(0.0, 1.0 - t / self.support)
        return self.support / (p + 1.0) * inside ** (p + 1.0)

    def _inverse_a(self, y):
        return self.support * (1.0 - y)

    def _tail_inverse(self, m):
        return self.support * (1.0 - np.sqrt(2.0 * m / self.support))


#: Cutoff of the Levy-Ito split of a Gamma seed, in units of its scale: the
#: point sampler draws the jumps above JUMP_EPS * scale as marked points and
#: adds the mean of the smaller ones as a drift.  It must lie in (0, 1).
JUMP_EPS = 1e-6

_EULER_GAMMA = 0.5772156649015329


def _exp1(x: float) -> float:
    """The exponential integral E1(x) = int_x^inf e^-t / t dt for 0 < x < 1,
    from its power series -gamma - ln x - sum_{k>=1} (-x)^k / (k k!)
    (Abramowitz & Stegun 5.1.11); the terms fall below 1e-18 within 20."""
    total, term, k = 0.0, 1.0, 0
    while abs(term) >= 1e-18:
        k += 1
        term *= -x / k  # (-x)^k / k!
        total += term / k
    return -_EULER_GAMMA - math.log(x) - total


def _lower_gamma(m: int, x: float) -> float:
    """The lower incomplete gamma function gamma(m, x) = int_0^x t^(m-1) e^-t dt
    for 0 < x < 1, from its series (m-1)! e^-x sum_{j>=m} x^j / j!, whose
    terms are all positive."""
    term = math.exp(-x) * x**m / math.factorial(m)
    total, j = 0.0, m
    while term > 1e-17 * total:
        total += term
        j += 1
        term *= x / j
    return math.factorial(m - 1) * total


def _gamma_marks(eps: float, scale: float, rng, size: int) -> np.ndarray:
    """``size`` jumps of a Gamma seed above eps * scale: draws of density
    proportional to x^-1 e^-x on (eps, inf), times scale.

    Rejection from an envelope mixture: x^-1 on (eps, 1], of mass ln(1/eps),
    drawn log-uniformly as eps^U and accepted with probability e^-x; and e^-x
    on (1, inf), of mass 1/e, drawn as 1 + Exp(1) and accepted with
    probability 1/x.  A proposal picks its component by envelope mass.  At
    eps = 1e-6 about 93% of proposals are accepted, so a few rounds fill the
    array; each round redraws only the missing marks.
    """
    log_inv = -math.log(eps)
    p_low = log_inv / (log_inv + math.exp(-1.0))
    out = np.empty(size)
    filled = 0
    while filled < size:
        m = size - filled
        low = rng.random(m) < p_low
        x = np.where(low, np.exp(-log_inv * rng.random(m)), 1.0 + rng.standard_exponential(m))
        got = x[rng.random(m) < np.where(low, np.exp(-x), 1.0 / x)]
        out[filled : filled + len(got)] = got
        filled += len(got)
    return scale * out


class JumpLaw(NamedTuple):
    """A seed's Levy basis as marked points plus a drift (Levy-Ito).

    Jumps arrive at ``rate`` per unit area, and ``marks(rng, size)`` draws
    their sizes; ``None`` means every jump is 1.  The jumps at or below
    ``cutoff`` are left out, and their mean, ``drift`` per unit area, is added
    instead.  ``dropped_kappa2`` and ``dropped_kappa4`` are the variance and
    the fourth cumulant per unit area of the left-out jumps: the amounts by
    which the sampled law falls short of the seed's.
    """

    rate: float
    marks: Optional[Callable] = None
    drift: float = 0.0
    cutoff: float = 0.0
    dropped_kappa2: float = 0.0
    dropped_kappa4: float = 0.0


class LevySeedSpec:
    """Base class for infinitely divisible Levy seed laws.

    Each family states its per-unit-area cumulants once, as ``_cumulant(m)``,
    and kappa1, kappa2 and kappa4 are read from it.  For m >= 3 the cumulant
    of an infinitely divisible law is the m-th moment of its Levy measure
    (Sato 1999), so kappa4 = int x^4 nu(dx) is the moment that drives the
    leading term of the asymptotic variance kernel.
    """

    def _cumulant(self, m):
        raise NotImplementedError

    @property
    def kappa1(self):
        return self._cumulant(1)

    @property
    def kappa2(self):
        return self._cumulant(2)

    @property
    def kappa4(self):
        return self._cumulant(4)

    def sample(self, area, rng, size=None):
        """Draw L(B) for regions of Lebesgue measure ``area`` (a scalar or an
        array, broadcast against ``size`` as numpy's samplers do)."""
        raise NotImplementedError

    def jump_law(self) -> Optional[JumpLaw]:
        """The seed as marked points plus a drift, which the point sampler
        draws; ``None`` for a seed without jumps."""
        return None

    def to_dict(self):
        """``{"family": ..., <params>}``, the mapping ``seed_from_dict`` reads."""
        return _to_dict(_SEED_FAMILIES, self)


@dataclass(frozen=True)
class GaussianSeed(LevySeedSpec):
    """Gaussian seed: L(B) ~ N(mean * Leb(B), var * Leb(B))."""

    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not 0 < self.var < math.inf:
            raise ValueError("var must be positive and finite")

    def _cumulant(self, m):
        return self.mean if m == 1 else self.var if m == 2 else 0.0

    def sample(self, area, rng, size=None):
        area = _check_nonneg("area", area)
        z = rng.standard_normal(np.shape(area) if size is None else size)
        return self.mean * area + np.sqrt(self.var * area) * z


@dataclass(frozen=True)
class PoissonSeed(LevySeedSpec):
    """Poisson seed: L(B) ~ Poisson(rate * Leb(B)); every cumulant is the rate."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    def _cumulant(self, m):
        return self.rate

    def sample(self, area, rng, size=None):
        area = _check_nonneg("area", area)
        return np.asarray(rng.poisson(self.rate * area, size), dtype=float)

    def jump_law(self) -> JumpLaw:
        """Unit jumps at ``rate`` per unit area, and nothing left out."""
        return JumpLaw(self.rate)


@dataclass(frozen=True)
class GammaSeed(LevySeedSpec):
    """Gamma seed: L(B) ~ Gamma(shape * Leb(B), scale).

    Per-unit-area cumulants are kappa_m = shape * (m-1)! * scale^m, so
    kappa4 = 6 * shape * scale^4 is generally distinct from both 0
    (Gaussian) and kappa2 (Poisson).
    """

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise ValueError("shape and scale must be positive and finite")

    def _cumulant(self, m):
        return self.shape * math.factorial(m - 1) * self.scale**m

    def sample(self, area, rng, size=None):
        area = _check_nonneg("area", area)
        return rng.gamma(self.shape * area, self.scale, size)

    @property
    def rate(self) -> float:
        """Jumps per unit area above the cutoff JUMP_EPS * scale,
        shape * E1(JUMP_EPS): the intensity of the point sampler's marks, as
        ``PoissonSeed.rate`` is (not the Gamma law's inverse scale)."""
        return self.shape * _exp1(JUMP_EPS)

    def jump_law(self) -> JumpLaw:
        """The Levy measure shape * x^-1 e^(-x/scale) dx split at
        eps * scale, eps = JUMP_EPS: the jumps above it as marked points, the
        ones below as their mean.  A left-out cumulant per unit area is
        int_0^(eps scale) x^m nu(dx) = shape * scale^m * gamma(m, eps); at
        m = 1 it is the drift shape * scale * (1 - e^-eps), and at m = 2 the
        variance shape * scale^2 * (1 - e^-eps (1 + eps))."""
        eps = JUMP_EPS
        if not 0 < eps < 1:
            raise ValueError(f"JUMP_EPS must lie in (0, 1), got {eps!r}")
        drift, kappa2, kappa4 = (self.shape * self.scale**m * _lower_gamma(m, eps) for m in (1, 2, 4))
        return JumpLaw(
            rate=self.rate, marks=partial(_gamma_marks, eps, self.scale), drift=drift,
            cutoff=eps * self.scale, dropped_kappa2=kappa2, dropped_kappa4=kappa4,
        )


#: Family name -> spec class; a spec's parameters are its dataclass fields.
_TRAWL_FAMILIES = {"exponential": ExponentialTrawl, "powerlaw": PowerLawTrawl, "triangle": CompactTriangleTrawl}
_SEED_FAMILIES = {"gaussian": GaussianSeed, "poisson": PoissonSeed, "gamma": GammaSeed}


def _to_dict(table, spec):
    family = next(name for name, cls in table.items() if isinstance(spec, cls))
    return {"family": family, **{f.name: getattr(spec, f.name) for f in fields(spec)}}


def _from_dict(table, cfg, what):
    cfg = _as_dict(f"{what} spec", cfg)
    family = cfg.pop("family", None)
    if not isinstance(family, str) or family not in table:
        raise ValueError(f"unknown {what} family {family!r}; choose from {sorted(table)}")
    cls = table[family]
    unknown = set(cfg) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} parameters {sorted(unknown)} for family {family!r}")
    for name, value in cfg.items():
        _check_number(f"{what} parameter {name!r}", value)
    return cls(**cfg)


def trawl_from_dict(cfg) -> TrawlSpec:
    """Build a trawl spec from a ``{"family": ..., <params>}`` mapping."""
    return _from_dict(_TRAWL_FAMILIES, cfg, "trawl")


def seed_from_dict(cfg) -> LevySeedSpec:
    """Build a Levy seed spec from a ``{"family": ..., <params>}`` mapping."""
    return _from_dict(_SEED_FAMILIES, cfg, "seed")
