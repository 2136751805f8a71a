"""One benchmark session: a fresh interpreter that runs ``trawlkit mc``.

``bench/run.py`` starts one of these per measured sample, so every sample
pays the import a command-line user pays, and the run's peak memory and CPU
include only this process and its pool workers.  The session imports
``trawlkit.cli`` from the checkout's ``src/``, loads the configs, notes the
time (the end of set-up), then calls ``trawlkit.cli.main(["mc", ...])`` once
per config and writes what it measured to ``--result`` as JSON.

Modes: ``plain`` runs untraced; ``spans`` records layer spans (see
``tracing.py``); ``count`` records spans and counts the hot calls, and its
timings are not used.  ``--setup-only`` stops once set-up is done.

Right after set-up and after each invocation the session times the
reference kernel of ``speed.py``, so that ``run.py`` can scale set-up and
every invocation to reference speed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import struct
import sys
import time
from pathlib import Path


def _cpu_s():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def stats_digest(raw_csv):
    """SHA-256 of the raw per-replication statistics (columns n, rep, stat),
    in file order."""
    h = hashlib.sha256()
    with open(raw_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            h.update(struct.pack("<qqd", int(row["n"]), int(row["rep"]), float(row["stat"])))
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("configs", nargs="+", help="experiment config JSON files")
    p.add_argument("--src", required=True, help="directory holding the trawlkit package")
    p.add_argument("--outdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--mode", choices=["plain", "spans", "count"], default="plain")
    p.add_argument("--threads", type=int, help="override every config's worker count")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--horizon-check", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    import trawlkit
    import trawlkit.cli as cli

    cfgs = {}
    for path in args.configs:
        with open(path) as fh:
            cfg = json.load(fh)
        trawlkit.ExperimentConfig.from_dict(cfg)
        cfgs[Path(path).stem] = (path, cfg)
    ready = time.monotonic()

    import speed
    import tracing
    import workloads

    refs = [speed.kernel_seconds()]
    result = {"ready": ready, "setup_ref_s": refs[0]}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode != "plain":
        tracer = tracing.Tracer()
        tracer.install(trawlkit, counting=args.mode == "count")
    outdir = Path(args.outdir)
    invocations = []
    try:
        for index, (label, (path, _)) in enumerate(cfgs.items()):
            out = outdir / f"{label}.json"
            raw = outdir / f"{label}.raw.csv"
            argv_mc = ["mc", "--experiment", path, "--out", str(out), "--raw-out", str(raw)]
            if args.threads is not None:
                argv_mc += ["--threads", str(args.threads)]
            if tracer is not None:
                tracer.invocation = index
            cpu_start = _cpu_s()
            start = time.perf_counter()
            rc = cli.main(argv_mc)
            wall = time.perf_counter() - start
            cpu_inv = _cpu_s() - cpu_start
            refs.append(speed.kernel_seconds())
            invocations.append({"label": label, "rc": rc, "wall_s": wall, "cpu_s": cpu_inv,
                                "ref_s": (refs[-2] + refs[-1]) / 2})
    finally:
        if tracer is not None:
            tracer.restore()
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    for inv in invocations:
        if inv["rc"] == 0:
            inv["digest"] = stats_digest(outdir / f"{inv['label']}.raw.csv")
            inv["summary"] = json.loads((outdir / f"{inv['label']}.json").read_text())
    result.update(
        wall_s=sum(inv["wall_s"] for inv in invocations),
        cpu_s=sum(inv["cpu_s"] for inv in invocations),
        peak_rss_mb=peak_kib / 1024.0,
        invocations=invocations,
    )
    if args.horizon_check:
        checks = workloads.horizon_checks(trawlkit, {label: cfg for label, (_, cfg) in cfgs.items()})
        result["horizon_checks"] = checks
    if tracer is not None:
        result["spans"] = tracing.export_spans(tracer.spans)
        result["counters"] = [[c, where, calls, elems] for (c, where), (calls, elems) in tracer.counters.items()]
        result["missing"] = tracer.missing
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
