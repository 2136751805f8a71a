"""Asymptotic-variance theory of the trawl-function estimator.

Everything here is deterministic: the sigma kernels, their symmetrized sum
Sigma_a, the pointwise variance sigma_a^2(t), the limit covariances of the
head and tail functionals, and the ten block kernels whose sum reproduces
Sigma_a.  With C(h) = int_0^inf a(v) a(v + h) dv, K(x, h) = int_0^x a(w) a(h - w) dw,
D = |s - r| and S = s + r, and since K(s, S) + K(r, S) = K(S, S),

    Sigma_a(s, r) = k4 a(max(s, r)) + 2 C(D) - 2 C(S) - K(D, D) + K(s, S) + K(r, S)
                  = k4 a(max(s, r)) + Phi(D) - Phi(S),   Phi(h) = 2 C(h) - K(h, h).

Phi and the limit covariances are array evaluations on fixed Gauss panels
split at every kink, with infinite ranges mapped onto [0, 1) by the length
scale A(0)/a(0).  Each is computed at two node counts, and a disagreement
beyond ``abs_tol``/``rel_tol`` raises ``QuadratureError``.  The adaptive
sigma kernels, sigma_a^2 and block kernels are the oracles of the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .estimators import TestFunction
from .models import TrawlSpec

__all__ = ["QuadratureError", "AvarKernel"]

#: Gauss nodes per panel (coarse, fine): of Phi, and per axis of a covariance.
_INNER_NODES = (24, 32)
_OUTER_NODES = (20, 28)
#: Sigma_a points per block, which keeps the points x nodes arrays small.
_BLOCK = 512


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to converge."""


@dataclass(frozen=True)
class AvarKernel:
    """Asymptotic variance kernels for a trawl spec and seed fourth moment.

    ``k4`` is the fourth moment of the Levy measure of the seed (0 for a
    Gaussian seed, the rate for a Poisson seed).
    """

    trawl: TrawlSpec
    k4: float = 0.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def __post_init__(self):
        if self.k4 < 0:
            raise ValueError("k4 must be non-negative")

    # -- plumbing ---------------------------------------------------------

    def _quad(self, f, lo, hi, kinks=()):
        """Adaptive quadrature with the trawl support end as a hard cutoff.

        ``kinks`` lists points where the integrand loses smoothness; those
        inside the (finite) range are handed to the rule as breakpoints.
        """
        hi = min(hi, self.trawl.support_end) if hi == math.inf else hi
        if lo >= hi:
            return 0.0
        points = sorted({p for p in kinks if lo < p < hi}) if hi < math.inf else None
        res, err = integrate.quad(
            f,
            lo,
            hi,
            epsabs=self.abs_tol,
            epsrel=self.rel_tol,
            limit=200,
            points=points or None,
        )
        if not math.isfinite(res):
            raise QuadratureError(f"quadrature diverged on [{lo}, {hi}]")
        if err > max(self.abs_tol, self.rel_tol * abs(res)) * 50:
            raise QuadratureError(f"quadrature failed to converge on [{lo}, {hi}]")
        return res

    def _agree(self, coarse, fine, what):
        """``fine``, checked against ``coarse`` from fewer nodes."""
        gap = np.abs(fine - coarse)
        if not np.all(gap <= np.maximum(self.abs_tol, self.rel_tol * np.abs(fine))):
            raise QuadratureError(f"{what}: two node counts differ by up to {np.max(gap):.3g}")
        return fine

    def _cross(self, shift_a: float, shift_b: float, lo: float, hi: float = math.inf):
        """int_lo^hi a(u + shift_a) a(u + shift_b) du with shifts >= -lo."""
        a = self.trawl.a
        end = self.trawl.support_end
        return self._quad(
            lambda u: float(a(u + shift_a) * a(u + shift_b)),
            lo,
            hi,
            kinks=(end - shift_a, end - shift_b),
        )

    # -- sigma kernels ----------------------------------------------------

    def sigma1(self, s: float, r: float) -> float:
        """k4 * a(max(s, r))."""
        _check_times(s, r)
        return self.k4 * float(self.trawl.a(max(s, r)))

    def sigma2(self, s: float, r: float) -> float:
        """int_0^inf a(u) a(|u - (s-r)|) sgn(u - (s-r)) du, sgn(0) := 0."""
        _check_times(s, r)
        d = s - r
        if d <= 0:
            return self._cross(0.0, -d, 0.0)
        end = self.trawl.support_end
        head = self._quad(
            lambda u: float(self.trawl.a(u) * self.trawl.a(d - u)),
            0.0,
            d,
            kinks=(end, d - end),
        )
        return self._cross(0.0, -d, d) - head

    def sigma3(self, s: float, r: float) -> float:
        """int_0^inf a(u + r) a(|s - u|) sgn(s - u) du, sgn(0) := 0."""
        _check_times(s, r)
        end = self.trawl.support_end
        head = self._quad(
            lambda u: float(self.trawl.a(u + r) * self.trawl.a(s - u)),
            0.0,
            s,
            kinks=(end - r, s - end),
        )
        return head - self._cross(r, -s, s)

    def sigma_a_matrix(self, s, r):
        """Sigma_a(s, r) elementwise over broadcast arrays; scalars give a float."""
        s, r = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(r, dtype=float))
        _check_times(s, r)
        out = self._agree(*(self._sigma_a(s.ravel(), r.ravel(), m) for m in _INNER_NODES), "Sigma_a")
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

    def sigma_a_sq(self, t: float) -> float:
        """Pointwise asymptotic variance of the trawl-function estimator.

        Independent four-term form; agrees with ``sigma_a_matrix(t, t)`` and
        serves as its cross-check.
        """
        _check_times(t)
        a = self.trawl.a
        term1 = self.k4 * float(a(t))
        term2 = 2.0 * self._cross(0.0, 0.0, 0.0)
        end = self.trawl.support_end
        term3 = 2.0 * self._quad(
            lambda u: float(a(t - u) * a(t + u)), 0.0, t, kinks=(t - end, end - t)
        )
        term4 = 2.0 * self._cross(-t, t, t)
        return term1 + term2 + term3 - term4

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
        return self._agree(coarse, fine, "limit covariance")

    # -- martingale-block limit kernels -----------------------------------

    def appendix_f(self, l1: int, l2: int, s: float, r: float) -> float:
        """Limit kernel of block pair (l1, l2), 1 <= l1 <= l2 <= 4.

        The ten kernels arise as limits of conditional-covariance sums of
        the four martingale blocks of the estimation error; their symmetrized
        sum equals Sigma_a, which ``decomposition_residual`` verifies.
        """
        if not 1 <= l1 <= l2 <= 4:
            raise ValueError("need 1 <= l1 <= l2 <= 4")
        _check_times(s, r)
        a = self.trawl.a
        A = self.trawl.tail_integral
        a0 = float(a(0.0))
        hi, lo = max(s, r), min(s, r)

        if (l1, l2) == (1, 1):
            return self.k4 * float(a(hi)) + a0 * float(A(hi - lo) - A(hi))
        if (l1, l2) == (2, 2):
            return a0 * float(A(hi))
        if (l1, l2) == (3, 3):
            return self._cross(0.0, -hi, hi) + a0 * float(A(hi - lo) - A(hi))
        if (l1, l2) == (4, 4):
            return a0 * float(A(hi)) - self._cross(0.0, -hi, hi)
        end = self.trawl.support_end
        if (l1, l2) == (1, 2):
            return self._quad(
                lambda u: float(a(u) * a(s + r - u)), r, s + r, kinks=(end, s + r - end)
            )
        if (l1, l2) == (1, 3):
            gap = float(a(max(s - r, 0.0)))
            part1 = self._quad(
                lambda u: (float(a(u - s)) - float(a(u))) * (gap - float(a(u - r))),
                hi,
                math.inf if end == math.inf else end + s,
                kinks=(end, end + r, end + s),
            )
            part2 = self._quad(
                lambda u: float(a(u)) * (float(a(max(s - r - u, 0.0))) - gap),
                0.0,
                s,
                kinks=(end, s - r, s - r - end),
            )
            return -part1 - part2
        if (l1, l2) == (1, 4):
            return -self._quad(
                lambda u: (float(a(u - s)) - float(a(u))) * float(a(u + r)),
                s,
                math.inf if end == math.inf else end + s,
                kinks=(end, end - r, end + s),
            )
        if (l1, l2) == (2, 3):
            return -self._cross(0.0, r, s)
        if (l1, l2) == (2, 4):
            gap = float(a(max(s - r, 0.0)))
            part1 = (a0 - gap) * float(A(s))
            part2 = self._quad(
                lambda u: float(a(u)) * (gap - float(a(u - r))),
                hi,
                math.inf if end == math.inf else end + r,
                kinks=(end, end + r),
            )
            return -part1 - part2
        # (3, 4) vanishes identically.
        return 0.0

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
    """
    x, w = special.roots_jacobi(n, beta, 0.0)
    x = (x + 1.0) / 2.0
    w = w / 2.0 ** (beta + 1.0) / (1.0 - x) ** beta
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
