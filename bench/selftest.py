"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For each workload, runs ``bench/run.py --tiny`` once untraced and once
traced with the same seed and checks that

* every metric named in ``BENCHMARK.json`` is printed, with its unit, and
  no other;
* every invocation passed its checks;
* the raw-statistics digests agree between the two runs, and between the
  untraced, span-recording and call-counting sessions of the traced run.

Across the workloads it then checks that no per-layer metric reads 0 on
every one of them, which would mean that its name matches no span or
counter.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run
import workloads

SEED = 7


def _run(workload, trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text())
    return result, record


def _digests(record):
    return [{inv["label"]: inv.get("digest") for inv in s["invocations"]} for s in record["sessions"]]


def check_workload(workload, spec):
    """Return (problems, per-layer metric values) for one workload."""
    problems, digests = [], []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record = _run(workload, trace)
        digests += _digests(record)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                            f"units {[n for n in want if n in got and got[n] != want[n]]}")
        bad = [n for n, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
        if bad:
            problems.append(f"trace {trace}: non-numeric values {bad}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} invocations failed")
    if any(d != digests[0] or None in d.values() for d in digests):
        problems.append(f"digests differ between runs or sessions: {digests}")
    return problems, {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.WORKLOADS")
    nonzero = set()
    for workload in workloads.WORKLOADS:
        found, values = check_workload(workload, spec)
        nonzero |= {name for name, value in values.items() if value}
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += [f"{workload}: {text}" for text in found]
    zero = [m["name"] for m in spec["per_layer"] if m["name"] not in nonzero]
    if zero:
        problems.append(f"per-layer metrics that read 0 on every workload: {zero}")
    for text in problems:
        print("FAIL " + text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
