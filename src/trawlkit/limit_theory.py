"""Asymptotic-variance theory of the trawl-function estimator.

Everything here is deterministic: the symmetrized variance kernel Sigma_a,
the limit covariances of the head and tail functionals, and the ten block
kernels whose sum reproduces Sigma_a.  With C(h) = int_0^inf a(v) a(v + h) dv,
K(x, h) = int_0^x a(w) a(h - w) dw, D = |s - r| and S = s + r, and since
K(s, S) + K(r, S) = K(S, S),

    Sigma_a(s, r) = k4 a(max(s, r)) + 2 C(D) - 2 C(S) - K(D, D) + K(s, S) + K(r, S)
                  = k4 a(max(s, r)) + Phi(D) - Phi(S),   Phi(h) = 2 C(h) - K(h, h).

Every integral is an array evaluation on fixed Gauss panels split at every
kink, with infinite ranges mapped onto [0, 1) by the length scale A(0) and
a Gauss-Jacobi weight for the power-law decay of the mapped integrand.
Each is computed at two node counts, and a disagreement beyond ``_ABS_TOL``
and ``_REL_TOL`` raises ``QuadratureError``.  The adaptive sigma kernels,
sigma_a^2 and block kernels that the identity was derived from live in the
tests, as oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import TestFunction
from .models import TrawlSpec

__all__ = ["QuadratureError", "AvarKernel", "check_tail_clt", "check_finite_derivative"]

#: Gauss nodes per panel (coarse, fine): of Phi, and per axis of a covariance.
_INNER_NODES = (24, 32)
_OUTER_NODES = (20, 28)
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
        sigma1 = self.k4 * self.trawl.a(np.maximum(s, r))
        return sigma1 + self._phi(np.abs(s - r), m) - self._phi(s + r, m)

    def _phi(self, h, m):
        """Phi(h) = 2 int_0^inf a(w) (a(w + h) - [w < h/2] a(h - w)) dw.

        The second term is K(h, h), whose integrand is symmetric about h/2.
        """
        a, end = self.trawl.a, self.trawl.support_end
        if end < math.inf:  # panels between the kinks, on [0, end] where a > 0
            cuts = np.clip([0 * h, end - h, h - end, h / 2, 0 * h + end], 0.0, end)
            w, dw = _panels(np.sort(cuts, axis=0), m)
        else:  # geometric grid on [0, h/2]; [h/2, inf) mapped onto [0, 1)
            scale, alpha = self.trawl.leb_A, self.trawl.tail_exponent
            x, xw = _gauss(m)
            y, yw = _gauss(m, 2.0 * alpha - 2.0 if alpha < math.inf else 0.0)
            half = h[:, None] / 2.0
            growth = np.log1p(half / scale)
            grid = scale * np.exp(growth * x)
            w = np.hstack([grid - scale, half + (half + scale) * y / (1.0 - y)])
            dw = np.hstack([growth * grid * xw, (half + scale) * yw / (1.0 - y) ** 2])
        h = h[:, None]
        head = np.where(w < h / 2.0, a(np.abs(h - w)), 0.0)
        return 2.0 * np.sum(dw * a(w) * (a(w + h) - head), axis=1)

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
        end = self.trawl.support_end
        if end < math.inf:
            return self._limit_cov(g, (min(t, end), end, min(s, end), end))
        scale = self.trawl.leb_A
        return self._limit_cov(g, (t / (t + scale), 1.0, s / (s + scale), 1.0), scale)

    def _limit_cov(self, g, box, scale=None):
        """int int dg(a(u)) Sigma_a(u, r) dg(a(r)) over box = (u0, u1, r0, r1).

        Iterated Gauss panels split at the ridge r = u and, for a compact
        trawl, at the kinks of a and Phi; all are lines r = slope u + c.  With
        ``scale``, both axes are x = u / (u + scale), which makes them finite.
        """
        a, end = self.trawl.a, self.trawl.support_end
        u0, u1, r0, r1 = box
        lines = [(1.0, 0.0)]
        if end < math.inf:
            kinks = (end, -end, 2 * end, -2 * end)
            lines += [(0.0, end), (-1.0, end), (-1.0, 2 * end)] + [(1.0, c) for c in kinks]
        ucuts = {u0, u1, end} | {(rb - c) / sl for sl, c in lines if sl for rb in (r0, r1)}
        ucuts = np.array(sorted(c for c in ucuts if u0 <= c <= u1))[:, None]

        def rule(n, m):
            u, du = (v.ravel() for v in _panels(ucuts, n))
            rcuts = np.clip([0 * u + r0, 0 * u + r1] + [sl * u + c for sl, c in lines], r0, r1)
            r, dr = _panels(np.sort(rcuts, axis=0), n)
            u, weight = np.broadcast_to(u[:, None], r.shape), du[:, None] * dr
            if scale is not None:
                weight = weight * scale**2 / ((1.0 - u) * (1.0 - r)) ** 2
                u, r = scale * u / (1.0 - u), scale * r / (1.0 - r)
            weight = weight * g.dg(a(u)) * g.dg(a(r))
            keep = weight != 0.0
            return float(np.dot(weight[keep], _blockwise(self._sigma_a, u[keep], r[keep], m)))

        coarse, fine = (rule(n, m) for n, m in zip(_OUTER_NODES, _INNER_NODES))
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
            out = _segment(lambda u: a(u) * a(s + r - u), r, s + r, (end, s + r - end), m)
        elif (l1, l2) == (1, 3):
            # int_hi^inf (a(u - s) - a(u)) (gap - a(u - r)) du
            part1 = gap * (A(hi - s) - A(hi)) - C(hi - s, hi - r, m) + C(hi, hi - r, m)
            part2 = _segment(
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
        """C(p, q) = int_0^inf a(v + p) a(v + q) dv for columns p, q >= 0.

        A compact trawl needs one panel, up to end - max(p, q), where the
        product vanishes.  Otherwise [0, inf) is mapped onto [0, 1) by
        v = L x / (1 - x) with L = min(p, q) + A(0), as in ``_phi``.
        """
        a, end = self.trawl.a, self.trawl.support_end
        if end < math.inf:
            return _segment(lambda v: a(v + p) * a(v + q), 0.0, end - np.maximum(p, q), (), m)
        alpha = self.trawl.tail_exponent
        length = np.minimum(p, q) + self.trawl.leb_A
        x, w = _gauss(m, 2.0 * alpha - 2.0 if alpha < math.inf else 0.0)
        v = length * x / (1.0 - x)
        return np.sum((w * length / (1.0 - x) ** 2) * (a(v + p) * a(v + q)), axis=1, keepdims=True)

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


def _segment(f, lo, hi, kinks, m):
    """int_lo^hi f(u) du for columns lo, hi (0 where hi <= lo), on Gauss
    panels of ``m`` nodes between the ``kinks`` clipped into [lo, hi]."""
    lo, hi, *kinks = np.broadcast_arrays(lo, np.maximum(hi, lo), *kinks)
    u, du = _panels(np.sort(np.clip([lo, hi, *kinks], lo, hi), axis=0)[..., 0], m)
    return np.sum(du * f(u), axis=1, keepdims=True)


def _check_times(*values):
    for v in values:
        v = np.asarray(v)
        if not np.all((v >= 0) & (v < math.inf)):  # also rejects NaN
            raise ValueError("time arguments must be non-negative and finite")


@functools.lru_cache(maxsize=None)
def _gauss(n, beta=0.0):
    """Gauss nodes on [0, 1] for integrands (1 - x)^beta times a smooth function.

    Legendre for beta = 0, else Jacobi, with 1/(1 - x)^beta in the weights:
    where a ~ v^-alpha, the mapped tail of Phi goes like (1 - x)^(2 alpha - 2).
    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight (1 - x)^beta, and each weight is
    the reciprocal of sum_k p_k(x)^2 over the orthonormal polynomials, which
    keeps the small weights near the ends accurate to rounding.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.append(-beta / (beta + 2.0), -(beta**2) / (s * (s + 2.0)))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # p_k / p_0 by the three-term recurrence; sum_k p_k^2 = total / mu0.
    prev, cur, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        prev, cur = cur, ((x - diag[j]) * cur - (off[j - 1] * prev if j else 0.0)) / off[j]
        total += cur * cur
    x = (x + 1.0) / 2.0
    # mu0 = 2^(beta + 1) / (beta + 1); mapping onto [0, 1] divides it by 2^(beta + 1).
    w = 1.0 / ((beta + 1.0) * total * (1.0 - x) ** beta)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller of the cache
    return x, w


def _panels(cuts, n):
    """Gauss nodes and weights on the panels between the sorted rows of ``cuts``.

    ``cuts`` has shape (panels + 1, columns); both results (columns, panels * n).
    """
    x, w = _gauss(n)
    lo, width = cuts[:-1, :, None], np.diff(cuts, axis=0)[:, :, None]
    shape = (cuts.shape[1], (len(cuts) - 1) * n)
    return np.moveaxis(lo + width * x, 0, 1).reshape(shape), np.moveaxis(width * w, 0, 1).reshape(shape)
