"""Independent oracles for the tests.

``naive_trawl_estimate`` evaluates the trawl-function estimator's defining
sum lag by lag, the O(n^2) check on ``trawlkit.estimate_trawl``'s FFT.

``AdaptiveKernel`` transcribes the paper's sigma kernels, the pointwise
variance sigma_a^2 and the ten martingale-block kernels as scalar integrands
under ``scipy.integrate.quad``.  It shares no quadrature with
``trawlkit.limit_theory``, whose Gauss panels it checks.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from trawlkit import QuadratureError, TrawlSpec


def naive_trawl_estimate(values, delta):
    """a_hat(l * delta) = -(1 / (n * delta)) * sum_{k=l}^{n-1}
    (x_{k-l} - xbar) * (x_{k+1} - x_k) for l = 0..n-1, one dot product per
    lag, with xbar the mean of x_0..x_{n-1}."""
    x = np.asarray(values, dtype=float)
    n = len(x) - 1
    y = x[:n] - np.mean(x[:n])
    dx = np.diff(x)
    return np.array([-np.dot(y[: n - lag], dx[lag:]) for lag in range(n)]) / (n * delta)


def _check_times(*values):
    if any(v < 0 for v in values):
        raise ValueError("time arguments must be non-negative")


@dataclass(frozen=True)
class AdaptiveKernel:
    trawl: TrawlSpec
    k4: float = 0.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def quad(self, f, lo, hi, kinks=()):
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

    def cross(self, shift_a, shift_b, lo, hi=math.inf):
        """int_lo^hi a(u + shift_a) a(u + shift_b) du with shifts >= -lo."""
        a = self.trawl.a
        end = self.trawl.support_end
        return self.quad(
            lambda u: float(a(u + shift_a) * a(u + shift_b)),
            lo,
            hi,
            kinks=(end - shift_a, end - shift_b),
        )

    # -- sigma kernels ----------------------------------------------------

    def sigma1(self, s, r):
        """k4 * a(max(s, r))."""
        _check_times(s, r)
        return self.k4 * float(self.trawl.a(max(s, r)))

    def sigma2(self, s, r):
        """int_0^inf a(u) a(|u - (s-r)|) sgn(u - (s-r)) du, sgn(0) := 0."""
        _check_times(s, r)
        d = s - r
        if d <= 0:
            return self.cross(0.0, -d, 0.0)
        end = self.trawl.support_end
        head = self.quad(
            lambda u: float(self.trawl.a(u) * self.trawl.a(d - u)),
            0.0,
            d,
            kinks=(end, d - end),
        )
        return self.cross(0.0, -d, d) - head

    def sigma3(self, s, r):
        """int_0^inf a(u + r) a(|s - u|) sgn(s - u) du, sgn(0) := 0."""
        _check_times(s, r)
        end = self.trawl.support_end
        head = self.quad(
            lambda u: float(self.trawl.a(u + r) * self.trawl.a(s - u)),
            0.0,
            s,
            kinks=(end - r, s - end),
        )
        return head - self.cross(r, -s, s)

    def sigma_a(self, s, r):
        """Sigma_a(s, r) as the symmetrized sum of the three sigma kernels."""
        return self.sigma1(s, r) + self.sigma2(s, r) + self.sigma2(r, s) + self.sigma3(s, r) + self.sigma3(r, s)

    def sigma_a_sq(self, t):
        """Pointwise asymptotic variance of the trawl-function estimator,
        in its own four-term form."""
        _check_times(t)
        a = self.trawl.a
        term1 = self.k4 * float(a(t))
        term2 = 2.0 * self.cross(0.0, 0.0, 0.0)
        end = self.trawl.support_end
        term3 = 2.0 * self.quad(lambda u: float(a(t - u) * a(t + u)), 0.0, t, kinks=(t - end, end - t))
        term4 = 2.0 * self.cross(-t, t, t)
        return term1 + term2 + term3 - term4

    # -- martingale-block limit kernels -----------------------------------

    def appendix_f(self, l1, l2, s, r):
        """Limit kernel of block pair (l1, l2), 1 <= l1 <= l2 <= 4."""
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
            return self.cross(0.0, -hi, hi) + a0 * float(A(hi - lo) - A(hi))
        if (l1, l2) == (4, 4):
            return a0 * float(A(hi)) - self.cross(0.0, -hi, hi)
        end = self.trawl.support_end
        if (l1, l2) == (1, 2):
            return self.quad(lambda u: float(a(u) * a(s + r - u)), r, s + r, kinks=(end, s + r - end))
        if (l1, l2) == (1, 3):
            gap = float(a(max(s - r, 0.0)))
            part1 = self.quad(
                lambda u: (float(a(u - s)) - float(a(u))) * (gap - float(a(u - r))),
                hi,
                math.inf if end == math.inf else end + s,
                kinks=(end, end + r, end + s),
            )
            part2 = self.quad(
                lambda u: float(a(u)) * (float(a(max(s - r - u, 0.0))) - gap),
                0.0,
                s,
                kinks=(end, s - r, s - r - end),
            )
            return -part1 - part2
        if (l1, l2) == (1, 4):
            return -self.quad(
                lambda u: (float(a(u - s)) - float(a(u))) * float(a(u + r)),
                s,
                math.inf if end == math.inf else end + s,
                kinks=(end, end - r, end + s),
            )
        if (l1, l2) == (2, 3):
            return -self.cross(0.0, r, s)
        if (l1, l2) == (2, 4):
            gap = float(a(max(s - r, 0.0)))
            part1 = (a0 - gap) * float(A(s))
            part2 = self.quad(
                lambda u: float(a(u)) * (gap - float(a(u - r))),
                hi,
                math.inf if end == math.inf else end + r,
                kinks=(end, end + r),
            )
            return -part1 - part2
        # (3, 4) vanishes identically.
        return 0.0
