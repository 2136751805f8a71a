"""The benchmark's workloads: experiment configs built from a seed, and checks.

Every workload is a list of ``trawlkit mc`` invocations.  Each invocation's
config is generated here from the workload seed, which becomes its
``master_seed``; the program never reads ``experiments/``.  Why each
workload exists is recorded in ``bench/README.md``.

Checks come in two kinds.  Exact checks compare analytic outputs with
closed forms at the relative tolerance of ``tests/test_limit_theory.py``.
Statistical checks use tolerances at least as wide as the acceptance gates',
sized so that a correct program fails any of a run's statistical checks with
probability at most 1e-3; their calibration is in ``bench/README.md``.
"""

from __future__ import annotations

import math
import statistics

EXP = {"family": "exponential", "rate": 1.0}
TRIANGLE = {"family": "triangle", "support": 1.0}
POISSON = {"family": "poisson", "rate": 1.0}
GAUSSIAN = {"family": "gaussian", "mean": 0.0, "var": 1.0}
GAMMA = {"family": "gamma", "shape": 1.0, "scale": 1.0}

#: Closed forms for the unit-rate exponential trawl with a unit-rate Poisson
#: seed (k4 = 1); see tests/test_limit_theory.py.
K4 = 1.0
PSI_T1 = (1.0 - math.exp(-2.0)) / 2.0  # int_0^1 a(s)^2 ds
LIMIT_COV_PSI = (8 * math.e * K4 - 3 * (4 * K4 + 3) * math.e**2 + (4 * K4 + 3) * math.e**4 + 6) * math.e**-4 / 3
LIMIT_COV_LAMBDA = 8 * K4 / 7 + 0.5
EXACT_REL = 1e-5

#: A correct program fails one of a run's statistical checks with probability
#: at most FALSE_FAILURE.  The budget is split evenly (Bonferroni) over the
#: workload's statistical checks, counted in STAT_CHECKS; the sessions of a
#: run share their configs and so their statistics, and count once.
FALSE_FAILURE = 1e-3
STAT_CHECKS = {"clt": 4, "slices": 2}  # tdep: see README's Checks section
#: Calibration at master seed 99991 (README's Checks section).  Variance
#: ratio: (centre, bootstrap SD * sqrt(R), replications in the pool); its
#: window is centre +/- z SD, where the SD counts the pool's own error too,
#: widened to at least the acceptance gate's [0.8, 1.25].  KS distance: below
#: the pool's distance from normality plus the Kolmogorov quantile c/sqrt(R).
RATIO_GATE = (0.8, 1.25)
RATIO_CAL = {"T5": (1.122, 2.008, 3000), "T6": (1.062, 1.776, 2000)}
KS_SYSTEMATIC = {"T5": 0.035, "T6": 0.049}
#: T1 head functional, pooled over both n: (centre, per-replication SD,
#: replications in the pool, z of the upper side).  The statistic is skewed to
#: the right, so the upper z is the bootstrap quantile of the standardised
#: mean at a tenth of the side's budget; the lower side uses the normal z.
T1_CAL = {"gaussian": (0.4451, 0.0964, 240, 5.3), "gamma": (0.5047, 0.3769, 240, 5.8)}


def _z(workload):
    """Two-sided normal quantile for one of the workload's statistical checks."""
    return statistics.NormalDist().inv_cdf(1 - FALSE_FAILURE / (2 * STAT_CHECKS[workload]))


def _ks_quantile(workload):
    """c with P(sqrt(R) * KS > c) = 2 exp(-2 c^2) equal to one check's budget."""
    return math.sqrt(-math.log(FALSE_FAILURE / STAT_CHECKS[workload] / 2) / 2)


def _config(seed, **fields):
    return {"master_seed": seed, **fields}


def configs(workload, seed, tiny=False):
    """Return ``[(label, config dict), ...]`` for one workload.

    ``tiny`` shrinks n and the replication counts for the self-test; the
    limit variances of ``clt`` cost the same at any size.
    """
    if workload == "clt":
        n5, r5, n6, r6 = (2**10, 20, 2**15, 20) if tiny else (2**14, 500, 2**15, 320)
        return [
            ("T5", _config(seed, trawl=EXP, seed_spec=POISSON, theorem="T5", t=1.0,
                           test_function={"kind": "square"}, n_grid=[n5], replications=r5,
                           varpi=2.0, c=1.0, simulator="points", threads=1)),
            ("T6", _config(seed, trawl=EXP, seed_spec=POISSON, theorem="T6", t=0.0,
                           test_function={"kind": "power", "exponent": 4.0}, n_grid=[n6],
                           replications=r6, varpi=2.5, c=0.9, simulator="points", threads=1)),
        ]
    if workload == "slices":
        grid, reps = ([2**8, 2**9], 2) if tiny else ([2**12, 2**13], 5)
        return [
            (f"T1-{law['family']}", _config(seed, trawl=EXP, seed_spec=law, theorem="T1", t=1.0,
                                            test_function={"kind": "square"}, n_grid=grid,
                                            replications=reps, varpi=2.0, c=1.0, threads=1))
            for law in (GAUSSIAN, GAMMA)
        ]
    if workload == "tdep":
        # tiny: enough replications for 100 spans, so every p90 is reported
        grid, reps = ([2**14, 2**15], 32) if tiny else ([2**16, 2**18], 80)
        return [
            (f"C1-{label}", _config(seed, trawl=trawl, seed_spec=POISSON, theorem="C1", tdep_T=1.0,
                                    tdep_p=4.0, n_grid=grid, replications=reps, varpi=2.2, c=1.5,
                                    simulator="points", threads=2))
            for label, trawl in (("null", TRIANGLE), ("alt", EXP))
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("clt", "slices", "tdep")


def _close(value, target):
    return value is not None and abs(value - target) <= EXACT_REL * abs(target)


def check(workload, cfgs, summaries, tiny=False):
    """Check one session's outputs.

    ``cfgs`` maps label -> config dict and ``summaries`` maps label -> the
    summary JSON that ``trawlkit mc`` wrote.  Returns label -> list of
    (check name, passed, detail); a label with a failed check is a failed
    invocation.
    """
    out = {label: [] for label in cfgs}

    def add(label, name, ok, detail):
        out[label].append((name, bool(ok), detail))

    for label, cfg in cfgs.items():
        summary = summaries[label]
        theory = summary["theory"]
        per_n = {int(n): s for n, s in summary["summaries"].items()}
        theorem = cfg["theorem"]
        if theorem in ("T1", "T5"):
            add(label, "psi_closed_form", _close(theory.get("psi"), PSI_T1),
                f"theory.psi = {theory.get('psi')!r} vs (1-e^-2)/2 = {PSI_T1!r}")
        if theorem == "T5":
            add(label, "limit_cov_psi_closed_form", _close(theory.get("limit_variance"), LIMIT_COV_PSI),
                f"{theory.get('limit_variance')!r} vs {LIMIT_COV_PSI!r}")
        if theorem == "T6":
            add(label, "limit_cov_lambda_closed_form", _close(theory.get("limit_variance"), LIMIT_COV_LAMBDA),
                f"{theory.get('limit_variance')!r} vs 8k4/7 + 1/2 = {LIMIT_COV_LAMBDA!r}")
        if tiny:
            continue
        reps = cfg["replications"]
        if theorem in ("T5", "T6"):
            centre, sd, pool = RATIO_CAL[theorem]
            half = _z(workload) * sd * math.sqrt(1 / reps + 1 / pool)
            lo = min(RATIO_GATE[0], centre - half)
            hi = max(RATIO_GATE[1], centre + half)
            ks_max = KS_SYSTEMATIC[theorem] + _ks_quantile(workload) / math.sqrt(reps)
            for n, s in per_n.items():
                ratio, ks = s.get("variance_ratio"), s.get("ks_distance")
                add(label, "variance_ratio", ratio is not None and lo <= ratio <= hi,
                    f"n={n}: {ratio} in [{lo:.3f}, {hi:.3f}]")
                add(label, "ks_distance", ks is not None and ks < ks_max,
                    f"n={n}: {ks} < {ks_max:.4f}")
        if theorem == "T1":
            centre, sd, pool, z_hi = T1_CAL[cfg["seed_spec"]["family"]]
            count = sum(s["replications"] for s in per_n.values())
            mean = sum(s["mean"] * s["replications"] for s in per_n.values()) / count
            se = sd * math.sqrt(1 / count + 1 / pool)
            lo, hi = centre - _z(workload) * se, centre + z_hi * se
            add(label, "t1_mean", lo <= mean <= hi,
                f"mean over n={sorted(per_n)}: {mean:.4f} in [{lo:.4f}, {hi:.4f}] (psi = {PSI_T1:.4f})")
    if workload == "tdep" and not tiny:
        per = {label: {int(n): s for n, s in summaries[label]["summaries"].items()} for label in cfgs}
        null, alt = per["C1-null"], per["C1-alt"]
        lo_n, hi_n = min(null), max(null)
        null_lo, null_hi = null[lo_n]["median_abs_scaled"], null[hi_n]["median_abs_scaled"]
        alt_lo, alt_hi = alt[lo_n]["median_abs_scaled"], alt[hi_n]["median_abs_scaled"]
        q95 = null[hi_n]["q95_abs_scaled"]
        add("C1-null", "null_median_falls", null_hi < null_lo, f"{null_lo:.4f} -> {null_hi:.4f}")
        add("C1-alt", "alt_median_rises", alt_hi > alt_lo, f"{alt_lo:.4f} -> {alt_hi:.4f}")
        add("C1-alt", "alt_beats_null_q95", alt_hi > q95, f"{alt_hi:.4f} > null q95 {q95:.4f}")
    return out


def horizon_checks(trawlkit, cfgs):
    """For slice-sampled configs, the provenance horizon J of a simulated
    path must equal ``truncation_horizon`` (capped at n).  Returns label ->
    list of checks, like ``check``; a config the slice sampler does not run
    gets none."""
    out = {}
    for label, cfg in cfgs.items():
        if cfg["seed_spec"]["family"] == "poisson":
            continue
        trawl = trawlkit.trawl_from_dict(cfg["trawl"])
        seed = trawlkit.seed_from_dict(cfg["seed_spec"])
        for n in cfg["n_grid"]:
            delta = trawlkit.ExperimentConfig.from_dict(cfg).delta_for(n)
            path = trawlkit.simulate_slices(trawl, seed, trawlkit.GridScheme(n=n, delta=delta, master_seed=cfg["master_seed"]))
            expect = min(trawlkit.truncation_horizon(trawl, delta), n)
            got = path.provenance.get("horizon")
            out.setdefault(label, []).append(("horizon", got == expect, f"n={n}: provenance horizon {got} vs truncation_horizon {expect}"))
    return out
