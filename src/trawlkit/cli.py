"""Command-line front door.

Subcommands: ``simulate`` writes a path CSV, ``estimate`` turns a path CSV
into trawl-function and functional estimates, ``tdep`` runs the
T-dependence test, ``mc`` executes a Monte Carlo experiment file, and
``kernels`` dumps asymptotic-variance kernel grids.

Exit codes: 0 success, 2 usage/config error, 3 runtime error.  Every output
file gets a JSON provenance sidecar (config hash, master seed, version) from
which the run can be reproduced bitwise, except the raw CSV of ``mc``: the
summary JSON's sidecar covers it, since the same experiment writes both.

Heap policy: on glibc, ``main`` first sets ``M_MMAP_THRESHOLD`` to 32 MiB
and ``M_TRIM_THRESHOLD`` to 64 MiB, the values glibc's own dynamic policy
reaches at its 64-bit ceiling, so that freed heap is kept for reuse.
Otherwise every estimate that transforms hands its buffers back to the
kernel when it frees them and faults them in again on the next call: the
padded paths (8 * m bytes each) and the O(m) working copy of each
``np.fft.fft``/``ifft``.  An all-lag estimate of one path takes 192 minor
faults at m = 2^15, 672 at m = 2^16 and 5537 at m = 2^19; a stacked pair,
as the Monte Carlo harness runs at m <= 2^17, takes 448 at m = 2^15, 960
at 2^16 and 1984 at 2^17; and a T6 replication at n = 2^15 takes about 740
(0.1 with the policy).  Both values are set because setting either one
alone switches off glibc's adjustment of the other, and every estimate
still faults: at m = 2^15 and 2^16, with the trim threshold alone one path
takes 130 and 708 faults and a pair 645 and 1736; with the mmap threshold
alone, 192 and 544, and 448 and 1312.  Only the command line sets the
policy: it is process-wide, and a library caller of ``run_experiment``
keeps its own.  The policy changes no arithmetic and no random stream.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .estimators import (
    choose_window,
    estimate_trawl,
    lambda_bar_n,
    lambda_n,
    psi_n,
)
from .inference import tau_test
from .limit_theory import AvarKernel, _check_times
from .mc import ExperimentConfig, run_experiment, test_function_from_dict
from .models import _as_dict, _check_number, _whole, seed_from_dict, trawl_from_dict
from .simulate import SIMULATORS, GridScheme, _write_csv, export_csv, ingest_csv, simulate

USAGE_ERROR = 2
RUNTIME_ERROR = 3

#: The keys a ``simulate --spec`` file may hold; any other key is an error.
SIMULATE_SPEC_KEYS = ("trawl", "seed_spec", "n", "delta", "seed", "simulator")

#: glibc ``mallopt`` parameters (M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1)
#: and the values of the module docstring's heap policy.
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))


def _keep_freed_heap():
    """Set the heap policy of the module docstring; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, name or mallopt
        return
    for param, value in _HEAP_POLICY:
        mallopt(param, value)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _sidecar(path, payload):
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_hash"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    with open(str(path) + ".provenance.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def cmd_simulate(args) -> int:
    spec = _as_dict("simulate spec", _load_json(args.spec)) if args.spec else {}
    unknown = set(spec) - set(SIMULATE_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown simulate spec keys {sorted(unknown)}; allowed: {SIMULATE_SPEC_KEYS}")
    for key, val in (("n", args.n), ("delta", args.delta), ("seed", args.seed)):
        if val is not None:
            spec[key] = val
    spec["simulator"] = args.method or spec.get("simulator", "auto")
    trawl = trawl_from_dict(spec["trawl"])
    seed_spec = seed_from_dict(spec["seed_spec"])
    scheme = GridScheme(
        n=_whole("n", spec["n"]),
        delta=float(_check_number("delta", spec["delta"])),
        master_seed=_whole("seed", spec.get("seed", 0)),
    )
    path = simulate(trawl, seed_spec, scheme, spec["simulator"])
    export_csv(path, args.out)
    _sidecar(args.out, {"command": "simulate", "spec": {**spec, "trawl": trawl.to_dict(), "seed_spec": seed_spec.to_dict()}})
    return 0


def cmd_estimate(args) -> int:
    path = ingest_csv(args.input, delta=args.delta)
    est = estimate_trawl(path)
    _write_csv(args.out, ["lag_time", "a_hat"], zip(est.lag_times, est.a_hat))
    _sidecar(args.out, {"command": "estimate", "input": args.input, "delta": args.delta})
    if args.functionals_out:
        g = test_function_from_dict(_parse_g(args.g))
        window = choose_window(est.n, args.varpi, args.theta, args.kappa)
        t_grid = [float(t) for t in args.t_grid.split(",")]
        rows = []
        for t in t_grid:
            try:
                bar = lambda_bar_n(est, g, t, window)
            except ValueError:  # lambda_bar_n's lag rule refuses t
                bar = float("nan")
            rows.append((t, psi_n(est, g, t), lambda_n(est, g, t), bar))
        _write_csv(args.functionals_out, ["t", "psi_n", "lambda_n", "lambda_bar_n"], rows)
        _sidecar(
            args.functionals_out,
            {
                "command": "estimate-functionals",
                "input": args.input,
                "delta": args.delta,
                "g": args.g,
                "t_grid": t_grid,
                "varpi": args.varpi,
                "theta": args.theta,
                "kappa": args.kappa,
            },
        )
    return 0


def cmd_tdep(args) -> int:
    path = ingest_csv(args.input, delta=args.delta)
    report = tau_test(path, T=args.T, p=args.p)
    text = report.to_json(indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _sidecar(args.out, {"command": "tdep", "input": args.input, "delta": args.delta, "T": args.T, "p": args.p})
    else:
        print(text)
    return 0


def cmd_mc(args) -> int:
    cfg_dict = _as_dict("experiment", _load_json(args.experiment))
    if args.seed is not None:
        cfg_dict["master_seed"] = args.seed
    if args.threads is not None:
        cfg_dict["threads"] = args.threads
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = run_experiment(cfg)
    result.write_json(args.out)
    result.write_csv(args.raw_out or (str(args.out) + ".raw.csv"))
    _sidecar(args.out, {"command": "mc", "experiment": cfg.to_dict()})
    return 0


def cmd_kernels(args) -> int:
    pair = _parse_what(args.what)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    trawl = trawl_from_dict(_load_json(args.trawl) if args.trawl.endswith(".json") else json.loads(args.trawl))
    kern = AvarKernel(trawl, k4=args.k4)
    _check_times(args.lo, args.hi)  # before linspace, which warns on an infinite end
    grid = np.linspace(args.lo, args.hi, args.points)
    if args.what == "sigma_a_sq":
        header, rows = ["t", "value"], zip(grid, kern.sigma_a_matrix(grid, grid))
    else:
        s, r = (m.ravel() for m in np.meshgrid(grid, grid, indexing="ij"))
        values = kern.sigma_a_matrix(s, r) if pair is None else kern.appendix_f(*pair, s, r)
        header, rows = ["s", "r", "value"], zip(s, r, values)
    _write_csv(args.out, header, rows)
    _sidecar(args.out, {"command": "kernels", "trawl": trawl.to_dict(), "k4": args.k4, "what": args.what,
                        "lo": args.lo, "hi": args.hi, "points": args.points})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="trawlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a trawl-process path to CSV")
    p.add_argument("--spec", help="JSON file with trawl, seed_spec, n, delta")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--method", choices=SIMULATORS, help="simulator (default: auto)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the trawl function from a path CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, help="grid step for single-column input")
    p.add_argument("--out", required=True, help="lag_time,a_hat CSV")
    p.add_argument("--functionals-out", help="optional t,psi_n,lambda_n,lambda_bar_n CSV")
    p.add_argument("--g", default="square", help="'square' or 'power:<exponent>'")
    p.add_argument("--t-grid", default="0.5,1.0")
    p.add_argument("--varpi", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tdep", help="run the T-dependence ratio test")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--out", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=cmd_tdep)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment file")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True, help="summary JSON path")
    p.add_argument("--raw-out", help="raw n,rep,stat CSV path")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--threads", type=int, help="threads that run replications side by side")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("kernels", help="dump asymptotic-variance kernel grids")
    p.add_argument("--trawl", required=True, help="JSON file or inline JSON")
    p.add_argument("--k4", type=float, default=0.0)
    p.add_argument("--what", default="sigma_a", help="sigma_a | sigma_a_sq | f:l1,l2")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=2.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernels)

    return parser


def _parse_g(text: str) -> dict:
    if text == "square":
        return {"kind": "square"}
    if text.startswith("power:"):
        return {"kind": "power", "exponent": float(text.split(":", 1)[1])}
    raise ValueError(f"cannot parse test function {text!r}")


def _parse_what(text: str):
    """The block pair (l1, l2) of ``f:l1,l2``; None for ``sigma_a`` and
    ``sigma_a_sq``.  Anything else is an error naming the accepted forms."""
    if text in ("sigma_a", "sigma_a_sq"):
        return None
    kind, _, pair = text.partition(":")
    try:
        l1, l2 = (int(x) for x in pair.split(","))
    except ValueError:
        l1 = l2 = 0
    if kind != "f" or not 1 <= l1 <= l2 <= 4:
        raise ValueError(
            f"cannot parse --what {text!r}; expected sigma_a, sigma_a_sq or f:l1,l2 "
            "with integers 1 <= l1 <= l2 <= 4"
        )
    return l1, l2


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing required field {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
