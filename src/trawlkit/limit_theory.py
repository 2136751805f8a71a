"""Asymptotic-variance theory of the trawl-function estimator.

Everything here is deterministic: the symmetrized variance kernel Sigma_a,
the limit covariances of the head and tail functionals, and the ten block
kernels whose sum reproduces Sigma_a.  With C(h) = int_0^inf a(v) a(v + h) dv,
K(x, h) = int_0^x a(w) a(h - w) dw, D = |s - r| and S = s + r, and since
K(s, S) + K(r, S) = K(S, S),

    Sigma_a(s, r) = k4 a(max(s, r)) + 2 C(D) - 2 C(S) - K(D, D) + K(s, S) + K(r, S)
                  = k4 a(max(s, r)) + Phi(D) - Phi(S),   Phi(h) = 2 C(h) - K(h, h).

Every integral is an array evaluation on fixed Gauss panels split at every
kink, with infinite ranges mapped onto [0, 1) by the length scale A(0)/a(0)
and a Gauss-Jacobi weight for the power-law decay of the mapped integrand.
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

__all__ = ["QuadratureError", "AvarKernel"]

#: Gauss nodes per panel (coarse, fine): of Phi, and per axis of a covariance.
_INNER_NODES = (24, 32)
_OUTER_NODES = (20, 28)
#: Sigma_a points per block, which keeps the points x nodes arrays small.
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
        if self.k4 < 0:
            raise ValueError("k4 must be non-negative")

    # -- Sigma_a -----------------------------------------------------------

    def sigma_a_matrix(self, s, r):
        """Sigma_a(s, r) elementwise over broadcast arrays; scalars give a float."""
        s, r = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(r, dtype=float))
        _check_times(s, r)
        out = _agree(*(self._sigma_a(s.ravel(), r.ravel(), m) for m in _INNER_NODES), "Sigma_a")
        return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)

    def _sigma_a(self, s, r, m):
        """Sigma_a on 1-D arrays with ``m`` nodes per panel of Phi, unchecked."""
        out = np.empty_like(s)
        for i in range(0, s.size, _BLOCK):
            u, v = s[i : i + _BLOCK], r[i : i + _BLOCK]
            sigma1 = self.k4 * self.trawl.a(np.maximum(u, v))
            out[i : i + _BLOCK] = sigma1 + self._phi(np.abs(u - v), m) - self._phi(u + v, m)
        return out

    def _phi(self, h, m):
        """Phi(h) = 2 int_0^inf a(w) (a(w + h) - [w < h/2] a(h - w)) dw.

        The second term is K(h, h), whose integrand is symmetric about h/2.
        """
        a, end = self.trawl.a, self.trawl.support_end
        if end < math.inf:  # panels between the kinks, on [0, end] where a > 0
            cuts = np.clip([0 * h, end - h, h - end, h / 2, 0 * h + end], 0.0, end)
            w, dw = _panels(np.sort(cuts, axis=0), m)
        else:  # geometric grid on [0, h/2]; [h/2, inf) mapped onto [0, 1)
            scale, alpha = self.trawl.leb_A / float(a(0.0)), self.trawl.tail_exponent
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
        _require_dg(g)
        return self._limit_cov(g, (0.0, t, 0.0, s))

    def limit_cov_lambda(self, g: TestFunction, t: float, s: float) -> float:
        """Limit covariance of the tail-functional CLT at times (t, s).

        Same kernel as the head functional but integrated over the tails
        [t, inf) x [s, inf); requires the dg(a(u)) factor to decay, i.e. a
        test function vanishing fast enough at 0.
        """
        _check_times(t, s)
        _require_dg(g)
        if g.exponent is None:
            raise ValueError("tail covariance needs a power test function (exponent)")
        if g.exponent <= 3.0 and not self.trawl.support_end < math.inf:
            raise ValueError(
                "tail CLT needs a test function of power order > 3 (quadratic g has a "
                "non-central limit instead); got exponent {:g}".format(g.exponent)
            )
        end = self.trawl.support_end
        if end < math.inf:
            return self._limit_cov(g, (min(t, end), end, min(s, end), end))
        scale = self.trawl.leb_A / float(self.trawl.a(0.0))
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
            return float(np.dot(weight[keep], self._sigma_a(u[keep], r[keep], m)))

        coarse, fine = (rule(n, m) for n, m in zip(_OUTER_NODES, _INNER_NODES))
        return _agree(coarse, fine, "limit covariance")

    # -- martingale-block limit kernels -----------------------------------

    def appendix_f(self, l1: int, l2: int, s: float, r: float) -> float:
        """Limit kernel of block pair (l1, l2), 1 <= l1 <= l2 <= 4.

        The ten kernels arise as limits of conditional-covariance sums of
        the four martingale blocks of the estimation error; their symmetrized
        sum equals Sigma_a, which ``decomposition_residual`` verifies.  Every
        infinite-range integral is a closed-form tail integral plus overlaps
        C(p, q) = int_0^inf a(v + p) a(v + q) dv.
        """
        if not 1 <= l1 <= l2 <= 4:
            raise ValueError("need 1 <= l1 <= l2 <= 4")
        _check_times(s, r)
        a, A, C = self.trawl.a, self.trawl.tail_integral, self._overlap
        a0 = float(a(0.0))
        hi, lo = max(s, r), min(s, r)
        gap = float(a(max(s - r, 0.0)))
        end = self.trawl.support_end

        if (l1, l2) == (1, 1):
            return self.k4 * float(a(hi)) + a0 * float(A(hi - lo) - A(hi))
        if (l1, l2) == (2, 2):
            return a0 * float(A(hi))
        if (l1, l2) == (3, 3):
            return C(hi, 0.0) + a0 * float(A(hi - lo) - A(hi))
        if (l1, l2) == (4, 4):
            return a0 * float(A(hi)) - C(hi, 0.0)
        if (l1, l2) == (1, 2):
            return self._segment(lambda u: a(u) * a(s + r - u), r, s + r, (end, s + r - end))
        if (l1, l2) == (1, 3):
            # int_hi^inf (a(u - s) - a(u)) (gap - a(u - r)) du
            part1 = gap * float(A(hi - s) - A(hi)) - C(hi - s, hi - r) + C(hi, hi - r)
            part2 = self._segment(
                lambda u: a(u) * (a(np.maximum(s - r - u, 0.0)) - gap), 0.0, s, (end, s - r, s - r - end)
            )
            return -part1 - part2
        if (l1, l2) == (1, 4):
            # -int_s^inf (a(u - s) - a(u)) a(u + r) du
            return C(s, s + r) - C(0.0, s + r)
        if (l1, l2) == (2, 3):
            return -C(s, s + r)
        if (l1, l2) == (2, 4):
            # int_hi^inf a(u) (gap - a(u - r)) du
            part2 = gap * float(A(hi)) - C(hi, hi - r)
            return -(a0 - gap) * float(A(s)) - part2
        # (3, 4) vanishes identically.
        return 0.0

    def _overlap(self, p: float, q: float) -> float:
        """C(p, q) = int_0^inf a(v + p) a(v + q) dv for p, q >= 0.

        A compact trawl needs one panel, up to end - max(p, q), where the
        product vanishes.  Otherwise [0, inf) is mapped onto [0, 1) by
        v = L x / (1 - x) with L = min(p, q) + A(0)/a(0), as in ``_phi``.
        """
        a, end = self.trawl.a, self.trawl.support_end
        if end < math.inf:
            return self._segment(lambda v: a(v + p) * a(v + q), 0.0, end - max(p, q))
        scale, alpha = self.trawl.leb_A / float(a(0.0)), self.trawl.tail_exponent
        length = min(p, q) + scale

        def rule(m):
            x, w = _gauss(m, 2.0 * alpha - 2.0 if alpha < math.inf else 0.0)
            v = length * x / (1.0 - x)
            return float(np.dot(w * length / (1.0 - x) ** 2, a(v + p) * a(v + q)))

        return _agree(*(rule(m) for m in _INNER_NODES), "block kernel")

    def _segment(self, f, lo: float, hi: float, kinks=()) -> float:
        """int_lo^hi f(u) du for an array function f, on Gauss panels
        between the ``kinks`` inside (lo, hi)."""
        if lo >= hi:
            return 0.0
        cuts = np.array(sorted({lo, hi} | {c for c in kinks if lo < c < hi}))[:, None]

        def rule(m):
            u, du = _panels(cuts, m)
            return float(np.dot(du[0], f(u[0])))

        return _agree(*(rule(m) for m in _INNER_NODES), "block kernel")

    def decomposition_residual(self, s: float, r: float) -> float:
        """|sum of all (symmetrized) limit kernels - Sigma_a(s, r)|."""
        total = sum(self.appendix_f(l, l, s, r) for l in range(1, 5))
        for l1 in range(1, 4):
            for l2 in range(l1 + 1, 5):
                total += self.appendix_f(l1, l2, s, r) + self.appendix_f(l1, l2, r, s)
        return abs(total - self.sigma_a_matrix(s, r))


def _check_times(*values):
    for v in values:
        if np.any(np.asarray(v) < 0):
            raise ValueError("time arguments must be non-negative")


def _require_dg(g: TestFunction):
    if g.dg is None:
        raise ValueError("limit covariances need the derivative dg of the test function")


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
