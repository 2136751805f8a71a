"""Asymptotic-variance theory of the trawl-function estimator.

Everything here is deterministic: the symmetrized variance kernel Sigma_a,
the limit covariances of the head and tail functionals, and the ten block
kernels whose sum reproduces Sigma_a.  With C(h) = int_0^inf a(v) a(v + h) dv,
K(x, h) = int_0^x a(w) a(h - w) dw, D = |s - r| and S = s + r, and since
K(s, S) + K(r, S) = K(S, S),

    Sigma_a(s, r) = k4 a(max(s, r)) + 2 C(D) - 2 C(S) - K(D, D) + K(s, S) + K(r, S)
                  = k4 a(max(s, r)) + Phi(D) - Phi(S),   Phi(h) = 2 C(h) - K(h, h).

Every integral over u runs in one variable, w = -log(A(u)/A(0)) with A the
tail integral (``AvarKernel._nodes``).  Every family has a = e^(-gamma w)
(``TrawlSpec._log_slope``), so a panel of fixed width in w spans a fixed fall
of A and of a: in a long head [0, t], in a slowly decaying tail, and where a
compact trawl nears 0.  Each result is computed at two node counts, and a
disagreement beyond ``_ABS_TOL`` and ``_REL_TOL`` raises ``QuadratureError``.
The adaptive sigma kernels, sigma_a^2 and block kernels that the identity
was derived from live in the tests, as oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import TestFunction
from .models import TrawlSpec

__all__ = ["QuadratureError", "AvarKernel", "check_tail_clt", "check_finite_derivative"]

#: Nodes (coarse, fine) per Gauss-Legendre panel and Laguerre tail in w, of Phi and per covariance axis.
_INNER_NODES = (24, 32)
_OUTER_NODES = (20, 28)
#: Panels in w at most _PANEL / max(rate, gamma) wide for an integrand that
#: falls like e^(-rate w), ridge steps of _RIDGE / (gamma - 1), and the fall,
#: e^-_CUTOFF ~ 2e-16, past which an integrand's kinks no longer split panels.
_PANEL, _RIDGE, _CUTOFF = 12.0, 1.0, 36.0
#: Kernel points per block, which keeps the points x nodes arrays small.
_BLOCK = 512
#: How far the two node counts may differ: absolute, or relative to the result.
_ABS_TOL = 1e-9
_REL_TOL = 1e-7


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to converge."""


def _agree(coarse, fine, what):
    """``fine``, checked against ``coarse`` from fewer nodes."""
    gap = np.abs(fine - coarse)
    if not np.all(gap <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(fine))):
        raise QuadratureError(f"{what}: two node counts differ by up to {np.max(gap):.3g}")
    return fine


@dataclass(frozen=True)
class AvarKernel:
    """Asymptotic variance kernels for a trawl spec and seed fourth moment.

    ``k4`` is the seed's kappa4, the fourth moment of its Levy measure (0
    for a Gaussian seed, the rate for a Poisson seed).
    """

    trawl: TrawlSpec
    k4: float = 0.0

    def __post_init__(self):
        if not 0 <= self.k4 < math.inf:
            raise ValueError("k4 must be non-negative and finite")

    # -- Sigma_a -----------------------------------------------------------

    def sigma_a_matrix(self, s, r):
        """Sigma_a(s, r) elementwise over broadcast arrays; scalars give a float."""
        return _elementwise(self._sigma_a, s, r, "Sigma_a")

    def _sigma_a(self, s, r, m):
        """Sigma_a on 1-D arrays with ``m`` nodes per panel of Phi, unchecked."""
        phi = self._phi(np.concatenate([np.abs(s - r), s + r]), m)
        return self.k4 * self.trawl.a(np.maximum(s, r)) + phi[: s.size] - phi[s.size :]

    def _phi(self, h, m):
        """Phi(h) = 2 int_0^inf a(v) (a(v + h) - [v < h/2] a(h - v)) dv, whose
        second term is K(h, h), with an integrand symmetric about h/2."""
        a, end, h = self.trawl.a, self.trawl.support_end, h[:, None]

        def f(v):
            return a(v) * (a(v + h) - np.where(v < h / 2.0, a(np.abs(h - v)), 0.0))

        return 2.0 * self._segment(f, 0.0, math.inf, (h / 2.0, end - h, h - end), m)[:, 0]

    # -- limit covariances -------------------------------------------------

    def limit_cov_psi(self, g: TestFunction, t: float, s: float) -> float:
        """Limit covariance of the head-functional CLT at times (t, s).

        Product rule for dg(a(u)) Sigma_a(u, r) dg(a(r)) over [0, t] x [0, s].
        """
        _check_times(t, s)
        check_finite_derivative(self.trawl, g, max(t, s))
        return self._limit_cov(g, (0.0, t, 0.0, s))

    def limit_cov_lambda(self, g: TestFunction, t: float, s: float) -> float:
        """Limit covariance of the tail-functional CLT at times (t, s).

        Same kernel as the head functional but integrated over the tails
        [t, inf) x [s, inf); requires the dg(a(u)) factor to decay, i.e. an
        exponent p > 3 unless the trawl is compact.
        """
        _check_times(t, s)
        check_tail_clt(self.trawl, g)
        check_finite_derivative(self.trawl, g, math.inf)
        return self._limit_cov(g, (t, math.inf, s, math.inf))

    def _limit_cov(self, g, box):
        """int int dg(a(u)) Sigma_a(u, r) dg(a(r)) over box = (u0, u1, r0, r1),
        the symmetric integrand's part below the ridge r = u plus that of the
        swapped box.  A part's r axis is split at r = u - A(0), at the ridge
        steps and where a(r), Phi(u - r) or Phi(u + r) of a compact trawl
        kinks, its u axis where such a line meets an edge.  In w, dg(a(u)) du
        falls like e^(-rate w), rate = gamma (p - 2) + 1."""
        a, end, gamma, scale = self.trawl.a, self.trawl.support_end, self.trawl._log_slope, self.trawl.leb_A
        kinks = [(0.0, end), (1.0, -end), (1.0, -2 * end), (-1.0, end), (-1.0, 2 * end)] if end < math.inf else []
        lines = [(1.0, 0.0), (1.0, -scale)] + kinks
        rate = gamma * (g.exponent - 2.0) + 1.0

        def below_ridge(u0, u1, r0, r1, n, m):
            ucuts = [(rb - c) / sl for sl, c in lines if sl for rb in (r0, r1) if rb < math.inf]
            ucuts += [c / (1.0 - sl) for sl, c in kinks if sl != 1.0]
            u, du, fallen = (v.ravel() for v in self._nodes(u0, u1, ucuts, n, rate))
            # Where gamma > 1, panels of fixed width in w grow geometrically in u while Phi(u - r) keeps its
            # scale in u - r: steps of _RIDGE / (gamma - 1) in w(u - r) grade them towards the ridge.
            step = _RIDGE / (gamma - 1.0) if gamma > 1 else 0.0
            steps = self._u(np.arange(step, self._w(u.max(initial=r0) - r0), step))[0] if step else ()
            rcuts = [sl * u + c for sl, c in lines] + [u - d for d in steps]
            r, dr, _ = self._nodes(r0, np.minimum(u, r1), rcuts, n, rate, fallen)
            u, weight = np.broadcast_to(u[:, None], r.shape), (du * g.dg(a(u)))[:, None] * dr * g.dg(a(r))
            keep = weight != 0.0
            return float(np.dot(weight[keep], _blockwise(self._sigma_a, u[keep], r[keep], m)))

        u0, u1, r0, r1 = box
        parts = [(2.0, box)] if (u0, u1) == (r0, r1) else [(1.0, box), (1.0, (r0, r1, u0, u1))]
        coarse, fine = (sum(c * below_ridge(*b, n, m) for c, b in parts) for n, m in zip(_OUTER_NODES, _INNER_NODES))
        return _agree(coarse, fine, "limit covariance")

    # -- martingale-block limit kernels -----------------------------------

    def appendix_f(self, l1: int, l2: int, s, r):
        """Limit kernel of block pair (l1, l2), 1 <= l1 <= l2 <= 4, elementwise
        over broadcast arrays; scalars give a float.

        The ten kernels arise as limits of conditional-covariance sums of
        the four martingale blocks of the estimation error; their symmetrized
        sum equals Sigma_a, which ``decomposition_residual`` verifies.  Every
        infinite-range integral is a closed-form tail integral plus overlaps
        C(p, q) = int_0^inf a(v + p) a(v + q) dv.
        """
        if not 1 <= l1 <= l2 <= 4:
            raise ValueError("need 1 <= l1 <= l2 <= 4")
        return _elementwise(functools.partial(self._block, l1, l2), s, r, "block kernel")

    def _block(self, l1, l2, s, r, m):
        """Block kernel (l1, l2) on 1-D arrays with ``m`` nodes per panel, unchecked."""
        a, A, C, end = self.trawl.a, self.trawl.tail_integral, self._overlap, self.trawl.support_end
        s, r = s[:, None], r[:, None]
        hi, lo = np.maximum(s, r), np.minimum(s, r)
        gap = a(np.maximum(s - r, 0.0))
        if (l1, l2) == (1, 1):
            out = self.k4 * a(hi) + (A(hi - lo) - A(hi))
        elif (l1, l2) == (2, 2):
            out = A(hi)
        elif (l1, l2) == (3, 3):
            out = C(hi, 0.0, m) + (A(hi - lo) - A(hi))
        elif (l1, l2) == (4, 4):
            out = A(hi) - C(hi, 0.0, m)
        elif (l1, l2) == (1, 2):
            out = self._segment(lambda u: a(u) * a(s + r - u), r, s + r, (end, s + r - end), m)
        elif (l1, l2) == (1, 3):
            # int_hi^inf (a(u - s) - a(u)) (gap - a(u - r)) du
            part1 = gap * (A(hi - s) - A(hi)) - C(hi - s, hi - r, m) + C(hi, hi - r, m)
            part2 = self._segment(
                lambda u: a(u) * (a(np.maximum(s - r - u, 0.0)) - gap), 0.0, s, (end, s - r, s - r - end), m
            )
            out = -part1 - part2
        elif (l1, l2) == (1, 4):
            # -int_s^inf (a(u - s) - a(u)) a(u + r) du
            out = C(s, s + r, m) - C(0.0, s + r, m)
        elif (l1, l2) == (2, 3):
            out = -C(s, s + r, m)
        elif (l1, l2) == (2, 4):
            # int_hi^inf a(u) (gap - a(u - r)) du
            part2 = gap * A(hi) - C(hi, hi - r, m)
            out = -(1.0 - gap) * A(s) - part2
        else:  # (3, 4) vanishes identically.
            out = np.zeros_like(s)
        return out[:, 0]

    def _overlap(self, p, q, m):
        """C(p, q) = int_0^inf a(v + p) a(v + q) dv for columns p, q >= 0."""
        a, end = self.trawl.a, self.trawl.support_end
        return self._segment(lambda v: a(v + p) * a(v + q), 0.0, math.inf, (end - np.maximum(p, q),), m)

    def _segment(self, f, lo, hi, kinks, m):
        """int_lo^hi f(u) du for columns lo, hi (0 where hi <= lo), for an f that falls like a
        product of two values of a, at rate 1 + gamma.  Summed in order, so that the empty
        panels that pad a column leave its sum bitwise that of the column alone."""
        u, du, _ = self._nodes(lo, hi, kinks, m, 1.0 + self.trawl._log_slope)
        return np.cumsum(du * f(u), axis=1)[:, -1:]

    def _nodes(self, lo, hi, kinks, n, rate, fallen=0.0):
        """Nodes u, weights du and w - w(lo) of ``n``-point rules for int_lo^hi f(u) du per column,
        for an f that falls like e^(-rate w): Gauss-Legendre panels of equal width in w fill each
        gap between kinks, and Gauss-Laguerre at ``rate`` the rest of a range to w = inf.  Kinks
        past a fall of e^-_CUTOFF from w(lo), less ``fallen``, move back to it, and a finite range
        ends there."""
        lo, hi, *kinks = np.broadcast_arrays(*(np.reshape(k, (-1, 1)) for k in (lo, hi, *kinks)))
        w = self._w(np.clip([lo, hi, *kinks], lo, np.maximum(hi, lo))[..., 0])
        finite = np.isfinite(w)
        tail = finite[0] & ~finite[1]
        w = np.where(finite, w, np.max(w, axis=0, where=finite, initial=0.0))
        w = np.minimum(w, w[0] + np.maximum(_CUTOFF / rate - fallen, 0.0)) if rate > 0 else w
        cuts = _split(np.sort(w, axis=0), _PANEL / max(rate, self.trawl._log_slope))
        xg, wg, y, dy = _gauss(n)
        lo, width = cuts[:-1].T[:, :, None], np.diff(cuts, axis=0).T[:, :, None]
        x, dx = (lo + width * xg).reshape(len(lo), -1), (width * wg).reshape(len(lo), -1)
        if np.any(tail):  # in the columns without a tail, empty nodes at the last cut
            x = np.concatenate([x, cuts[-1][:, None] + np.where(tail[:, None], y / rate, 0.0)], axis=1)
            dx = np.concatenate([dx, np.where(tail[:, None], dy / rate, 0.0)], axis=1)
        u, du = self._u(x)
        return u, du * dx, x - w[0][:, None]

    def _w(self, u):
        """w = -log(A(u)/A(0)), inf from a compact support's end on.  As a = (A/A(0))^gamma makes
        du/dw = A(0) e^(kappa w), kappa = gamma - 1, w = log1p(kappa u/A(0))/kappa: exact near u = 0."""
        kappa, x = self.trawl._log_slope - 1.0, np.minimum(u, self.trawl.support_end) / self.trawl.leb_A
        with np.errstate(divide="ignore"):  # log1p(-1) at a compact support's end
            return np.log1p(kappa * x) / kappa if kappa else x

    def _u(self, w):
        """The inverse of ``_w``, u = A(0) expm1(kappa w)/kappa, and du/dw = A(u)/a(u) = A(0) e^(kappa w)."""
        kappa, scale = self.trawl._log_slope - 1.0, self.trawl.leb_A
        return scale * (np.expm1(kappa * w) / kappa if kappa else w), scale * np.exp(kappa * w)

    def decomposition_residual(self, s: float, r: float) -> float:
        """|sum of all (symmetrized) limit kernels - Sigma_a(s, r)|."""
        total = sum(self.appendix_f(l, l, s, r) for l in range(1, 5))
        for l1 in range(1, 4):
            for l2 in range(l1 + 1, 5):
                total += self.appendix_f(l1, l2, s, r) + self.appendix_f(l1, l2, r, s)
        return abs(total - self.sigma_a_matrix(s, r))


def check_tail_clt(trawl: TrawlSpec, g: TestFunction) -> None:
    """Refuse a tail CLT whose dg(a(u)) factor does not decay: an exponent
    p <= 3 on a trawl that is not compact.  It reads only p and the trawl's
    support, so configs are checked by it without any quadrature."""
    if g.exponent <= 3.0 and not trawl.support_end < math.inf:
        raise ValueError(
            "tail CLT needs a test function of power order > 3 (quadratic g has a "
            "non-central limit instead); got exponent {:g}".format(g.exponent)
        )


def _check_nonzero_limit(trawl: TrawlSpec, t: float, tail: bool) -> None:
    """Refuse a CLT whose limit variance is 0 by construction: the head
    functional at t = 0, and the tail functional from a compact support's
    end on, where dg(a(u)) vanishes.  A closed form, like ``check_tail_clt``."""
    if t >= trawl.support_end if tail else t == 0.0:
        why = f"a vanishes from u = {trawl.support_end:g} on" if tail else "the head [0, t] is empty"
        raise ValueError(f"the limit variance is 0 by construction: {why}")


def check_finite_derivative(trawl: TrawlSpec, g: TestFunction, end: float) -> None:
    """Refuse a CLT whose dg(a(u)) factor is infinite on the range of a it
    integrates, u in [0, end] for the head and [t, end = inf) for the tail.
    g'(x) = p |x|^(p-1) sign(x) is finite at 0 only for p >= 1, and a falls
    to 0 exactly from u = support_end on, so an exponent below 1 needs
    end < support_end: a head time short of a compact trawl's support, or a
    trawl that is not compact.  A closed form, like ``check_tail_clt``."""
    if g.exponent < 1.0 and end >= trawl.support_end:
        raise ValueError(
            f"CLT needs g'(a(u)) finite up to u = {end:g}; exponent {g.exponent:g} < 1 makes g' infinite "
            f"at 0, which a reaches at u = {trawl.support_end:g}"
        )


def _elementwise(rule, s, r, what):
    """rule(s, r, m) elementwise over broadcast arrays, at both node counts
    and checked by ``_agree``; scalars give a float."""
    s, r = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(r, dtype=float))
    _check_times(s, r)
    out = _agree(*(_blockwise(rule, s.ravel(), r.ravel(), m) for m in _INNER_NODES), what).reshape(s.shape)
    return float(out) if s.ndim == 0 else out


def _blockwise(rule, s, r, m):
    """rule(s, r, m) on 1-D arrays, ``_BLOCK`` points at a time."""
    out = np.empty_like(s)
    for i in range(0, s.size, _BLOCK):
        out[i : i + _BLOCK] = rule(s[i : i + _BLOCK], r[i : i + _BLOCK], m)
    return out


def _check_times(*values):
    v = np.asarray(values)
    if not np.all((v >= 0) & (v < math.inf)):  # also rejects NaN
        raise ValueError("time arguments must be non-negative and finite")


@functools.lru_cache(maxsize=None)
def _gauss(n):
    """Gauss-Legendre nodes and weights on [0, 1], and Gauss-Laguerre nodes y
    and weights e^y w for int_0^inf f(y) dy; read-only, as every caller shares them."""
    from numpy.polynomial import laguerre, legendre

    (x, w), (y, v) = legendre.leggauss(n), laguerre.laggauss(n)
    rules = ((x + 1.0) / 2.0, w / 2.0, y, v * np.exp(y))
    for rule in rules:
        rule.flags.writeable = False
    return rules


def _split(cuts, width):
    """The sorted rows of ``cuts``, each gap of each column split into the
    fewest equal parts no wider than ``width`` and padded with empty ones to
    the most any column needs; gaps empty in every column are dropped."""
    rows = [cuts[:1]]
    for lo, hi in [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if np.any(hi > lo)] or [(cuts[0], cuts[-1])]:
        parts = np.maximum(np.ceil((hi - lo) / width), 1.0)
        j = np.arange(1.0, np.max(parts) + 1.0)[:, None]
        rows.append(np.where(j < parts, lo + (hi - lo) * (j / parts), hi))
    return np.vstack(rows)
