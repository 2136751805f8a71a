"""Benchmark of ``trawlkit mc``: end-to-end metrics, correctness checks and a
per-layer trace.

    python3 bench/run.py --workload {clt,slices,tdep} --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; the program is imported from ``src/``.  The
workload's experiment configs are generated from ``--seed`` (see
``workloads.py``) into ``.bench_out/``, where each run also leaves its record
and, when traced, its spans.

``--trace 0`` starts measured sessions (``session.py``), each a fresh
interpreter, until ``--seconds`` would be exceeded, then set-up probes until
there are three set-up samples.  Every set-up and invocation time is scaled to
reference speed (``speed.py``).  It reports each invocation's median wall and
CPU time over the sessions, summed over the invocations, the median set-up
time and the largest peak memory.  ``--trace 1``
runs untraced and span-recording sessions in the order A B B A, then one
call-counting session, forcing one worker in the traced ones, and reports
the per-layer metrics.  Every
invocation is checked; the last line of standard output is the JSON result.
``--tiny`` shrinks the workloads for the self-test and skips the statistical
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Whole-run limit; a session still running at this point is killed and its
#: invocations count as failed.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3

#: Metric name -> unit, as BENCHMARK.json lists them; the run reports exactly these.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# -- environment ---------------------------------------------------------------


def _l2_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "trawlkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _l2_bytes(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
    }


# -- sessions -------------------------------------------------------------------


class Runner:
    """Starts sessions in fresh interpreters and keeps them inside the run limit."""

    def __init__(self, work, config_paths, deadline):
        self.work = work
        self.config_paths = config_paths
        self.deadline = deadline
        self.count = 0

    def session(self, mode="plain", threads=None, setup_only=False, horizon_check=False):
        """Run one session; return (result or None, seconds it took, set-up seconds or None)."""
        self.count += 1
        outdir = self.work / f"s{self.count}"
        outdir.mkdir()
        result_path = outdir / "result.json"
        cmd = [sys.executable, str(BENCH / "session.py"), "--src", str(SRC), "--outdir", str(outdir),
               "--result", str(result_path), "--mode", mode, *map(str, self.config_paths)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if setup_only:
            cmd.append("--setup-only")
        if horizon_check:
            cmd.append("--horizon-check")
        start = time.monotonic()
        # Its own process group, so that killing it also kills its pool workers.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"session {self.count} ({mode}) killed at the run limit", flush=True)
            return None, time.monotonic() - start, None
        except BaseException:  # interrupted: take the session down with us
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        took = time.monotonic() - start
        if proc.returncode != 0 or not result_path.exists():
            print(f"session {self.count} ({mode}) exited {proc.returncode}: {err.strip()[-2000:]}", flush=True)
            return None, took, None
        result = json.loads(result_path.read_text())
        return result, took, result["ready"] - start


# -- checks -----------------------------------------------------------------------


def judge(workload, cfgs, sessions, tiny):
    """Check every invocation of every session.

    An invocation fails if its session died, it exited non-zero, its
    statistics digest differs from the first session's, or a check fails.
    Returns (attempted, failed, list of check lines).
    """
    attempted = failed = 0
    lines = []
    reference = {}
    for tag, result in sessions:
        attempted += len(cfgs)
        if result is None:
            failed += len(cfgs)
            lines.append(f"FAIL {tag}: session produced no result")
            continue
        invs = {inv["label"]: inv for inv in result["invocations"]}
        ok_runs = {label: inv for label, inv in invs.items() if inv["rc"] == 0}
        verdicts = {label: [] for label in cfgs}
        if len(ok_runs) == len(cfgs):
            summaries = {label: inv["summary"] for label, inv in ok_runs.items()}
            for label, checks in workloads.check(workload, cfgs, summaries, tiny).items():
                verdicts[label] += checks
        for label, checks in result.get("horizon_checks", {}).items():
            verdicts[label] += [tuple(c) for c in checks]
        for label in cfgs:
            inv = invs.get(label)
            if inv is None or inv["rc"] != 0:
                verdicts[label].append(("exit_code", False, f"rc={None if inv is None else inv['rc']}"))
            else:
                ref = reference.setdefault(label, inv["digest"])
                verdicts[label].append(("digest", inv["digest"] == ref, inv["digest"][:16]))
            bad = [c for c in verdicts[label] if not c[1]]
            failed += bool(bad)
            for name, ok, detail in verdicts[label]:
                if not ok or tag == sessions[0][0]:
                    lines.append(f"{'PASS' if ok else 'FAIL'} {tag} {label} {name}: {detail}")
    return attempted, failed, lines


# -- per-layer metrics ----------------------------------------------------------------


def per_layer(spans_run, count_run, workers, untraced_wall, traced_wall):
    """The metrics BENCHMARK.json lists under per_layer.  A span or counter
    the workload never reaches, and a p90 from fewer than 100 spans, reads 0."""
    m = {}
    for span, g in tracing.span_stats(spans_run["spans"]).items():
        for key, value in g.items():
            if value is not None:
                m[f"{span}.{key}"] = value
    # Counter totals, and their split by innermost enclosing span.
    for counter, where, calls, elems in count_run["counters"]:
        for stat, value in (("calls", calls), ("elems", elems)):
            for name in (f"{counter}.{stat}", f"{counter}.{stat}.{where}"):
                m[name] = m.get(name, 0) + value
    computed = [span[5] or {} for span in spans_run["spans"]]
    for name, key in (("simulate.slice_draws", "slice_draws"), ("simulate.expected_points", "expected_points"),
                      ("estimators.fft_bytes_computed", "fft_bytes")):
        m[name] = sum(c.get(key, 0) for c in computed)
    m["simulate.horizon_J"] = max((c.get("horizon", 0) for c in computed), default=0)
    slices_self = m.get("simulate.simulate_slices.self_s", 0)
    m["simulate.slice_draws_per_s"] = m["simulate.slice_draws"] / slices_self if slices_self > 0 else 0
    m["mc.workers"] = workers
    m["mc.parallel_efficiency"] = m["mc.replication.total_s"] / (workers * untraced_wall)
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: m.get(name, 0) for name in PER_LAYER}


def _attribution(count_run):
    """Human-readable split of every counter by enclosing span."""
    return [
        f"counter {counter} in {where}: {calls} calls, {elems} elements"
        for counter, where, calls, elems in sorted(count_run["counters"])
    ]


# -- main ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--tiny", action="store_true", help="shrunken workloads for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "trawlkit" / "__init__.py").is_file():
        print(f"error: no trawlkit package under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so a running session is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    t0 = time.monotonic()
    env = environment()
    print("env " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        cfg_list = workloads.configs(args.workload, args.seed, tiny=args.tiny)
        cfgs = dict(cfg_list)
        paths = []
        (work / "configs").mkdir()
        for label, cfg in cfg_list:
            path = work / "configs" / f"{label}.json"
            path.write_text(json.dumps(cfg, indent=1))
            paths.append(path)
        runner = Runner(work, paths, t0 + RUN_LIMIT_S)
        record = {"args": vars(args), "env": env, "configs": cfgs}
        if args.trace == 0:
            code = _untraced(args, runner, cfgs, record)
        else:
            code = _traced(args, runner, cfgs, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


def _emit(args, record, attempted, failed, lines, metrics, units):
    for line in lines:
        print(line)
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g} ratio")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    record["checks"] = lines
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)


def _at_reference_speed(seconds, ref_s):
    return seconds * speed.NOMINAL_S / ref_s


def _untraced(args, runner, cfgs, record):
    sessions, setups, durations = [], [], []
    start = time.monotonic()
    while True:
        result, took, setup = runner.session(horizon_check=not sessions)
        sessions.append((f"session{len(sessions) + 1}", result))
        if result is None:
            break
        setups.append(_at_reference_speed(setup, result["setup_ref_s"]))
        durations.append(took)
        print(f"session {len(sessions)}: wall_s {result['wall_s']:.4f} cpu_s {result['cpu_s']:.4f} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f} setup_s {setup:.4f} (raw; took {took:.2f} s); "
              f"reference kernel {result['setup_ref_s']:.4f} s, then "
              + ", ".join(f"{inv['ref_s']:.4f} s around {inv['label']}" for inv in result["invocations"]),
              flush=True)
        # Stop before the next session, and the set-up probes still owed,
        # would run past --seconds.
        probes = max(0, SETUP_SAMPLES - len(setups) - 1)
        if time.monotonic() - start + statistics.median(durations) + probes * setup > args.seconds:
            break
    while sessions[-1][1] is not None and len(setups) < SETUP_SAMPLES:
        result, _, setup = runner.session(setup_only=True)
        if result is None:
            break
        setups.append(_at_reference_speed(setup, result["setup_ref_s"]))
    good = [r for _, r in sessions if r is not None]
    if not good or len(setups) < SETUP_SAMPLES:
        print("error: a session or set-up probe did not complete", file=sys.stderr)
        return 1
    attempted, failed, lines = judge(args.workload, cfgs, sessions, args.tiny)
    # Each invocation's time at reference speed, median over the sessions,
    # summed over the invocations.
    metrics = {}
    for name in ("wall_s", "cpu_s"):
        metrics[name] = sum(
            statistics.median(_at_reference_speed(inv[name], inv["ref_s"])
                              for r in good for inv in r["invocations"] if inv["label"] == label)
            for label in cfgs
        )
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in good)
    record["sessions"] = [r for _, r in sessions]
    record["setup_samples"] = setups
    _emit(args, record, attempted, failed, lines, metrics, END_TO_END)
    return 0


def _traced(args, runner, cfgs, record):
    # Untraced and span sessions run in the order A B B A, so that a drift in
    # the machine's speed cancels out of the overhead to first order.
    sessions = [
        ("untraced", runner.session(horizon_check=True)[0]),
        ("spans", runner.session(mode="spans", threads=1)[0]),
        ("spans2", runner.session(mode="spans", threads=1)[0]),
        ("untraced2", runner.session()[0]),
        ("count", runner.session(mode="count", threads=1)[0]),
    ]
    if any(r is None for _, r in sessions):
        print("error: a traced session did not complete", file=sys.stderr)
        return 1
    attempted, failed, lines = judge(args.workload, cfgs, sessions, args.tiny)
    runs = dict(sessions)
    spans_run, count_run = runs["spans"], runs["count"]
    for name in set(spans_run["missing"]) | set(count_run["missing"]):
        lines.append(f"WARN trace target not found: {name}")
    lines += _attribution(count_run)
    workers = max(cfg.get("threads", 1) for cfg in cfgs.values())
    untraced_wall = statistics.mean(runs[k]["wall_s"] for k in ("untraced", "untraced2"))
    traced_wall = statistics.mean(runs[k]["wall_s"] for k in ("spans", "spans2"))
    metrics = per_layer(spans_run, count_run, workers, untraced_wall, traced_wall)
    spans_path = OUT / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.spans.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "replication", "computed"],
                                      "spans": spans_run["spans"]}))
    record["sessions"] = [{k: v for k, v in r.items() if k != "spans"} for _, r in sessions]
    record["spans_file"] = spans_path.name
    _emit(args, record, attempted, failed, lines, metrics, PER_LAYER)
    return 0


if __name__ == "__main__":
    sys.exit(main())
