"""Grid simulation of trawl processes.

Three independent schemes are provided.  The slice scheme partitions
the union of all observed trawl sets into grid-indexed slices; slice (i, j)
lies in A_{t_k} exactly for i <= k <= j, so sampling one independent
infinitely divisible draw per slice and accumulating over index ranges
reproduces the joint law of (X_{t_0}, ..., X_{t_n}) for any seed.  The point
scheme, valid for Poisson and Gamma seeds, throws a Poisson number of marked
points over the same region and sums, per grid time, the marks of the
points whose cell lies below the trawl function.  A Poisson seed's marks are
all 1, and the scheme is exact.  A Gamma seed is split at a small jump size
(Levy-Ito; Asmussen & Rosinski 2001): its jumps above it are the marks, and
the mean of the ones below is added as a drift, so each X_k misses only
their fluctuation, about 5e-13 of the seed's variance.  The circulant
scheme, valid for Gaussian seeds only, draws the path as a stationary
Gaussian sequence with autocovariance kappa2 * A(h*delta) by circulant
embedding: A is non-negative, non-increasing and convex, so the minimal
embedding is non-negative definite (Craigmile 2003) and two real FFTs give
an exact path (Wood & Chan 1994).

``check_simulator`` states which sampler can draw which seed, for the
dispatcher, the samplers and ``ExperimentConfig`` alike.

The slice and point schemes stream through a difference array, never
materializing the O(n^2) slice matrix.  ``slice_area`` and ``residual_area``
are the slice scheme's geometry: the sampler draws its slices with exactly
the areas they return, so checking those two functions checks the sampler.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import GaussianSeed, LevySeedSpec, TrawlSpec

__all__ = [
    "SIMULATORS",
    "GridScheme",
    "SampledPath",
    "slice_area",
    "residual_area",
    "truncation_horizon",
    "check_simulator",
    "simulate_slices",
    "simulate_points",
    "simulate_circulant",
    "simulate",
    "ingest_csv",
    "export_csv",
]

#: Names accepted by :func:`simulate`, each an exact sampler; ``auto`` picks
#: ``circulant`` for a Gaussian seed and ``points`` for a Poisson or Gamma
#: seed.  ``slices-exact`` samples any seed and is reached only by name.
SIMULATORS = ("auto", "slices-exact", "points", "circulant")

#: Exact mode draws O(n^2/2) slices; refuse silently quadratic work above this.
EXACT_CAP = 4096

#: Relative tail mass below which the slice sampler truncates its horizon.
EPS_TRUNC = 1e-8

# The point sampler's jump cutoff for Gamma seeds is models.JUMP_EPS, beside
# the jump law that reads it.

#: Circulant eigenvalues down to -CIRCULANT_TOL * (largest eigenvalue) are
#: FFT rounding and clip to 0; a more negative one means the embedding is not
#: non-negative definite, and the sampler raises.
CIRCULANT_TOL = 1e-10


@dataclass(frozen=True)
class GridScheme:
    """Equidistant sampling design: n+1 observations at step ``delta``."""

    n: int
    delta: float
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0 < self.delta < math.inf:  # also rejects NaN
            raise ValueError("delta must be positive and finite")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass
class SampledPath:
    """Observations X_0, X_delta, ..., X_{n*delta} plus grid metadata."""

    delta: float
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 3:
            raise ValueError("a path needs at least 3 equidistant observations")
        if not 0 < self.delta < math.inf:  # also rejects NaN
            raise ValueError("delta must be positive and finite")

    @property
    def n(self):
        """Number of increments; the path holds n+1 points."""
        return len(self.values) - 1

    @property
    def times(self):
        return self.delta * np.arange(len(self.values))


def _interval_mass(trawl: TrawlSpec, delta: float, m):
    """B(m) = tail_integral(m*delta) - tail_integral((m+1)*delta)."""
    m = np.asarray(m, dtype=float)
    return trawl.tail_integral(m * delta) - trawl.tail_integral((m + 1.0) * delta)


def slice_area(trawl: TrawlSpec, delta: float, i: int, j):
    """Lebesgue measure of slice (i, j) of the grid partition.

    Row 0 extends to s = -inf, so its slices carry the full interval mass
    B(j); rows i >= 1 live on a single grid cell and carry the second
    difference B(j-i) - B(j-i+1).  ``j`` may be an array of column indices; a
    scalar ``j`` gives a float, computed by the same array arithmetic.
    """
    cols = np.atleast_1d(j)
    if i < 0 or np.any(cols < i):
        raise ValueError("need 0 <= i <= j")
    if i == 0:
        area = _interval_mass(trawl, delta, cols)
    else:
        area = _interval_mass(trawl, delta, cols - i) - _interval_mass(trawl, delta, cols - i + 1)
    return area if np.ndim(j) else float(area[0])


def residual_area(trawl: TrawlSpec, delta: float, n: int, i):
    """Lebesgue measure of the union of slices (i, j) over j >= n.

    ``i`` may be an array of row indices; a scalar ``i`` gives a float.
    """
    rows = np.atleast_1d(i)
    if np.any(rows < 0) or np.any(rows > n):
        raise ValueError("need 0 <= i <= n")
    area = _interval_mass(trawl, delta, n - rows)
    if np.any(rows == 0):  # row 0 extends to s = -inf: its residual is A(n delta)
        area[rows == 0] = trawl.tail_integral(np.array([n * delta]))
    return area if np.ndim(i) else float(area[0])


def truncation_horizon(trawl: TrawlSpec, delta: float) -> int:
    """Smallest J >= 1 with tail_integral(J*delta) <= EPS_TRUNC * tail_integral(0).

    A compact trawl's J covers its support.  Otherwise J = max(1,
    ceil(A^-1(EPS_TRUNC * Leb(A)) / delta)) from the closed-form tail inverse,
    a Python int of any size; past J of about 1e12 rounding can leave
    A(J*delta) a few ulps above the bound.  Where the quotient overflows a
    float (a power law with alpha below about 1.026), J is the cap 2^1024.
    """
    if trawl.support_end < math.inf:
        return max(1, math.ceil(trawl.support_end / delta))
    with np.errstate(over="ignore"):
        steps = float(trawl.tail_integral_inverse(EPS_TRUNC * trawl.leb_A)) / delta
    return max(1, math.ceil(steps)) if math.isfinite(steps) else 2**1024


def _substream(master_seed: int, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=key)))


def _path(name, trawl, seed, scheme, values, **diagnostics) -> SampledPath:
    """A sampled path whose provenance holds the simulator's name, its own
    diagnostics and everything needed to replay it."""
    provenance = {
        "simulator": name,
        **diagnostics,
        "n": scheme.n,
        "delta": scheme.delta,
        "master_seed": scheme.master_seed,
        "trawl": trawl.to_dict(),
        "seed_spec": seed.to_dict(),
    }
    return SampledPath(scheme.delta, values, provenance)


def check_simulator(method: str, seed: LevySeedSpec, n: int) -> str:
    """The sampler that ``simulate(..., method)`` runs for ``seed`` on n
    steps, with ``auto`` resolved by the seed family.

    Raises ``ValueError``, naming the simulator, for a name outside
    SIMULATORS, a seed the sampler cannot draw (``points`` needs a seed
    family that defines a jump law, ``circulant`` a Gaussian seed) and
    ``slices-exact`` above n = EXACT_CAP.  The rules read only types and n
    and build no jump law, because the samplers check every path.
    """
    if method == "auto":
        return "circulant" if isinstance(seed, GaussianSeed) else "points"
    if method not in SIMULATORS:
        raise ValueError(f"unknown simulator {method!r}; choose from {SIMULATORS}")
    if method == "points" and type(seed).jump_law is LevySeedSpec.jump_law:
        raise ValueError(f"simulator 'points' requires a Poisson or Gamma seed, got {seed!r}")
    if method == "circulant" and not isinstance(seed, GaussianSeed):
        raise ValueError(f"simulator 'circulant' requires a Gaussian seed, got {seed!r}")
    if method == "slices-exact" and n > EXACT_CAP:
        raise ValueError(f"simulator 'slices-exact' draws O(n^2) slices; n={n} exceeds cap {EXACT_CAP}")
    return method


def simulate_slices(
    trawl: TrawlSpec,
    seed: LevySeedSpec,
    scheme: GridScheme,
    exact: bool = False,
) -> SampledPath:
    """Sample a path by drawing one seed variate per grid slice.

    Works for any seed family.  ``exact=True`` keeps every slice (up to
    n = EXACT_CAP): the exact sampler named ``slices-exact``.  By default
    slices with j - i > J, for J = min(truncation_horizon(trawl, delta), n),
    fold into the row residual, giving a per-point mean bias of at most
    kappa1 * tail_integral(J*delta) and the analogous variance error.  No
    simulator name selects this truncated mode; its paths record ``slices``
    and replay through this function.  It stays only for the benchmark's
    check of J against ``truncation_horizon``, and goes when that check
    moves to the sampler that ``auto`` picks.

    Every slice is drawn from one counter-based substream, in the order row
    0, the diagonals m = 0, 1, ... in turn, then the row residuals, so paths
    replay bit-for-bit from ``scheme.master_seed`` alone.  The provenance
    records J as ``horizon``, tail_integral(J*delta) as ``tail_mass`` and
    the mean-bias bound |kappa1| * tail_mass as ``bias_bound``.
    """
    n, delta = scheme.n, scheme.delta
    if exact:
        check_simulator("slices-exact", seed, n)
    horizon = n if exact else min(truncation_horizon(trawl, delta), n)

    # diff[k] accumulates contributions starting at index k and diff[k'+1]
    # removes them; the path is the prefix sum.
    diff = np.zeros(n + 2)

    # Row 0 (the infinite past): slices j = 0..J-1, residual
    # tail_integral(J*delta) active for every k.  This residual is drawn with
    # exactly the tail_mass that the provenance records: it and the cut-row
    # area B(J + 1) below stay 0-d, since numpy's scalar pow can differ from
    # its array pow in the last bit.
    tail_mass = float(trawl.tail_integral(horizon * delta))
    g = _substream(scheme.master_seed, 0)
    row0 = seed.sample(slice_area(trawl, delta, 0, np.arange(horizon)), g)
    diff[0] += np.sum(row0) + seed.sample(tail_mass, g)
    diff[1 : horizon + 1] -= row0

    # Rows i >= 1, grouped by offset m = j - i: every slice at offset m has
    # the area of slice (1, 1 + m), so one vectorized draw covers a whole
    # diagonal of rows i = 1..n-m-1 (so that j = i + m <= n - 1).
    diagonals = slice_area(trawl, delta, 1, np.arange(1, min(horizon, n - 2) + 2))
    for m, area in enumerate(diagonals.tolist()):
        count = n - m - 1
        vals = seed.sample(area, g, count) if area > 0 else np.zeros(count)
        diff[1 : count + 1] += vals  # start at k = i
        diff[m + 2 : m + 2 + count] -= vals  # end after k = i + m

    # Residuals for rows i >= 1: the slices j >= n, active for every k >= i.
    # A row cut at the horizon (n - i > J) instead folds all its slices
    # j > i + J, of area B(J + 1), into one draw that acts as slice
    # (i, i + J + 1): it ends after k = i + J + 1, so X_k misses at most the
    # slices that outlive k by more than J, of area A((J + 2) delta).
    i = np.arange(1, n + 1)
    cut = n - i > horizon  # never in exact mode, where J = n
    res_areas = np.where(cut, _interval_mass(trawl, delta, float(horizon + 1)), residual_area(trawl, delta, n, i))
    res_vals = seed.sample(res_areas, g)
    diff[1 : n + 1] += res_vals
    diff[i[cut] + horizon + 2] -= res_vals[cut]

    return _path(
        "slices-exact" if exact else "slices", trawl, seed, scheme, np.cumsum(diff[: n + 1]),
        horizon=horizon, tail_mass=tail_mass, bias_bound=abs(seed.kappa1) * tail_mass,
    )


def _sum_marks(n: int, starts, ends, mark) -> np.ndarray:
    """X_k = the sum of the marks of the points with starts <= k < ends, for
    k = 0..n: each cell's marks accumulate in the order of the arrays (all
    entries, then all exits), and the cells' jumps are summed from k = 0 up.

    A path with fewer than n / 32 points accumulates only the cells where a
    point enters or leaves and repeats each running sum over its run.  Adding
    the zero jumps of the other cells changes no bit, so both ways give the
    same path; sorting the 2 * points cell numbers costs less than a running
    sum over all n cells (about 3 ns each) only when the points are that few
    (measured at n = 2^12 to 2^18 on a 2-vCPU Intel Xeon: at n = 2^18 with
    n / 64 points 0.36 instead of 0.87 ms, with n / 4 points 3.9 instead of
    1.2 ms).  Both sides run in the benchmark: the sparse Poisson paths of
    ``clt`` and ``tdep`` (n / 65 to n / 190 points) take the cells, and
    the Gamma paths of ``slices`` (about n / 5 and n / 6 points) the
    running sum, which costs them 0.28 instead of 0.37 ms a path at
    n = 2^12.
    """
    if 32 * len(starts) >= n:
        jumps = np.zeros(n + 2)
        np.add.at(jumps, starts, mark)
        np.subtract.at(jumps, ends, mark)
        return np.cumsum(jumps[: n + 1])
    cells = np.concatenate([starts, ends])
    cells.sort()
    cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
    where = np.empty(n + 2, dtype=np.intp)  # read only at the cells
    where[cells] = np.arange(1, len(cells) + 1)
    jumps = np.zeros(len(cells) + 1)  # jumps[0] = 0 is X before the first cell
    np.add.at(jumps, where[starts], mark)
    np.subtract.at(jumps, where[ends], mark)
    # cell n + 1, if present, ends the last run and repeats 0 times
    return np.repeat(np.cumsum(jumps), np.diff(cells, prepend=0, append=n + 1))


def simulate_points(trawl: TrawlSpec, seed: LevySeedSpec, scheme: GridScheme) -> SampledPath:
    """Sample a path of a trawl process with a Poisson or Gamma seed via its
    marked points.

    The seed's jump law (``seed.jump_law()``) gives the rate of its points
    and the law of their marks.  The union of the observed trawl sets splits
    into the time-zero set (area Leb(A)) and n forward cells, each of area
    A(0) - A(delta).  A Poisson number of points falls on the region; a point
    at (s, y) adds its mark to X_{t_k} exactly for ceil(s/delta) <= k <=
    floor((s + a^{-1}(y))/delta).  A Poisson seed's marks are all 1 and no
    mark is drawn.  A Gamma seed's marks are its jumps above the cutoff
    JUMP_EPS * scale, drawn from their own substream, and every X_k gains
    the mean of the smaller jumps, drift * Leb(A).

    Exact in distribution for a Poisson seed.  For a Gamma seed the only
    error is that the left-out small jumps enter by their mean: each X_k
    falls short of the seed's variance and fourth cumulant by exactly
    ``dropped_variance`` and ``dropped_kappa4`` (about 5e-13 * shape * scale^2
    * Leb(A) for the variance).  The provenance records the expected count
    rate * (Leb(A) + n * (A(0) - A(delta))) as ``expected_points``, the
    realised Poisson count as ``points`` and, for a Gamma seed, the jump-size
    ``cutoff``, the ``drift`` added to every X_k and those two shortfalls.
    """
    check_simulator("points", seed, scheme.n)
    law = seed.jump_law()
    n, delta = scheme.n, scheme.delta
    rng = _substream(scheme.master_seed, 3)

    a0 = trawl.leb_A
    tail_delta = float(trawl.tail_integral(delta))
    cell = a0 - tail_delta
    total_area = a0 + n * cell
    expected_points = law.rate * total_area
    count = rng.poisson(expected_points)

    if count > 0:
        u = rng.random(count) * total_area
        # A time-zero point lies in cell k = -1, a forward point in cell
        # k >= 0; either way it sits a horizontal offset v >= 0 left of grid
        # time (k + 1) delta.  v is drawn by inverting the tail integral, so
        # it has density proportional to a on its range: the mass is a0 - u
        # for a time-zero point, and uniform w.r.t. area within one cell,
        # A(v) in (A(delta), A(0)), for a forward point.
        forward = u >= a0
        k = np.full(count, -1, dtype=np.int64)
        k[forward] = np.minimum((u[forward] - a0) // cell, n - 1)
        mass = a0 - u
        mass[forward] = tail_delta + rng.random(np.count_nonzero(forward)) * cell
        v = trawl.tail_integral_inverse(mass)
        s = (k + 1) * delta - v
        kmin = k + 1
        y = rng.random(count) * trawl.a(v)
        y = np.maximum(y, np.finfo(float).tiny)  # keep inside (0, a(0)]
        reach = s + trawl.inverse_a(y)
        kmax = np.minimum(np.floor(reach / delta + 1e-12), n).astype(np.int64)
        keep = kmax >= kmin
        mark = 1.0 if law.marks is None else law.marks(_substream(scheme.master_seed, 5), count)[keep]
        values = _sum_marks(n, kmin[keep], kmax[keep] + 1, mark)
    else:
        values = np.zeros(n + 1)
    diagnostics = {"expected_points": expected_points, "points": int(count)}
    if law.marks is not None:
        values += law.drift * a0
        diagnostics.update(
            cutoff=law.cutoff, drift=law.drift * a0,
            dropped_variance=law.dropped_kappa2 * a0, dropped_kappa4=law.dropped_kappa4 * a0,
        )
    return _path("points", trawl, seed, scheme, values, **diagnostics)


def simulate_circulant(trawl: TrawlSpec, seed: LevySeedSpec, scheme: GridScheme) -> SampledPath:
    """Sample a path of a Gaussian-seeded trawl process by circulant embedding.

    X is then a stationary Gaussian sequence with mean kappa1 * Leb(A) and
    autocovariance c_h = kappa2 * tail_integral(h*delta).  The minimal
    circulant embedding has first row c_0, ..., c_n, c_{n-1}, ..., c_1; it is
    real and symmetric, so its eigenvalues lam are the real part of one rfft
    (n + 1 distinct values).  With w ~ N(0, I_{2n}), the first n + 1 entries
    of irfft(sqrt(lam) * rfft(w)) have exactly that covariance: O(n log n)
    work and exact in distribution for every trawl, long memory included.
    """
    check_simulator("circulant", seed, scheme.n)
    n, delta = scheme.n, scheme.delta
    c = seed.kappa2 * trawl.tail_integral(delta * np.arange(n + 1))
    lam = np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real
    ratio = float(np.min(lam) / np.max(lam))
    if ratio < -CIRCULANT_TOL:
        raise ValueError(
            f"circulant embedding is not non-negative definite: smallest eigenvalue "
            f"is {ratio:.3g} times the largest (is tail_integral convex?)"
        )
    w = _substream(scheme.master_seed, 4).standard_normal(2 * n)
    noise = np.fft.irfft(np.sqrt(np.maximum(lam, 0.0)) * np.fft.rfft(w), 2 * n)
    values = seed.kappa1 * trawl.leb_A + noise[: n + 1]
    return _path("circulant", trawl, seed, scheme, values, min_eigenvalue_ratio=ratio)


def simulate(
    trawl: TrawlSpec,
    seed: LevySeedSpec,
    scheme: GridScheme,
    method: str = "auto",
) -> SampledPath:
    """Sample a path with the simulator named by ``method`` (see SIMULATORS);
    ``simulate(..., path.provenance["simulator"])`` replays the path."""
    method = check_simulator(method, seed, scheme.n)
    if method == "points":
        return simulate_points(trawl, seed, scheme)
    if method == "circulant":
        return simulate_circulant(trawl, seed, scheme)
    return simulate_slices(trawl, seed, scheme, exact=True)


def ingest_csv(path, delta: Optional[float] = None) -> SampledPath:
    """Read a path from a one-column (x) or two-column (t, x) CSV file.

    Rows whose every cell is blank are skipped and the first other row may
    be a header; any later non-numeric row, and any row with a blank cell,
    raises ``ValueError``.  A two-column file must have a uniformly spaced
    time column (relative deviation at most 1e-9), and a ``delta`` given
    with it must match the column's step to the same tolerance; a
    one-column file requires ``delta``.
    """
    rows, seen = [], 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for rec in reader:
            cells = [c.strip() for c in rec]
            if not any(cells):
                continue
            seen += 1
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                # Only the first non-blank row may be a header, and never one with a blank cell.
                if seen > 1 or not all(cells):
                    raise ValueError(f"non-numeric row {reader.line_num} of {path}: {rec!r}") from exc
    if not rows:
        raise ValueError(f"no numeric data in {path}")
    data = np.asarray(rows)
    if data.shape[1] == 1:
        if delta is None:
            raise ValueError("single-column input needs an explicit delta")
        values = data[:, 0]
    elif data.shape[1] == 2:
        if len(data) < 2:
            raise ValueError(f"a two-column file needs at least two rows for its time step; {path} has one")
        t, values = data[:, 0], data[:, 1]
        steps = np.diff(t)
        step = steps[0]
        tol = 1e-9 * max(abs(step), 1.0)
        if not step > 0 or not np.all(np.abs(steps - step) <= tol):  # a NaN step fails both comparisons
            raise ValueError(f"time column of {path} is not equidistant")
        if delta is None:
            delta = float(step)
        elif abs(delta - step) > tol:
            raise ValueError(f"delta={delta!r} disagrees with the time step {float(step)!r} of {path}")
    else:
        raise ValueError("expected one (x) or two (t, x) columns")
    return SampledPath(delta, values, {"simulator": "external", "source": str(path)})


def export_csv(path_obj: SampledPath, path) -> None:
    """Write a path as a ``t,x`` CSV at full precision."""
    _write_csv(path, ["t", "x"], zip(path_obj.times, path_obj.values))


def _write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows`` at full precision: an int cell as
    it is, any other cell as ``repr(float(cell))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, int) else repr(float(c)) for c in row] for row in rows)
