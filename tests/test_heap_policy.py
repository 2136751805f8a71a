"""The command line's heap policy: freed heap is kept, and nothing else moves.

``cli.main`` sets the policy for its whole process, and the other tests
call ``main`` in this process, so the tests that compare a process with and
without the policy run each side in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import types

import pytest

import trawlkit.cli as cli

EXP = {"family": "exponential", "rate": 1.0}
POISSON = {"family": "poisson", "rate": 1.0}
T6 = {
    "trawl": EXP, "seed_spec": POISSON, "theorem": "T6", "t": 0.0,
    "test_function": {"kind": "power", "exponent": 4.0}, "n_grid": [2**15], "replications": 23,
    "varpi": 2.5, "c": 0.9, "simulator": "points", "master_seed": 5,
}
C1 = {
    "trawl": {"family": "triangle", "support": 1.0}, "seed_spec": POISSON, "theorem": "C1",
    "n_grid": [2**14, 2**15], "replications": 10, "varpi": 2.2, "c": 1.5, "simulator": "points",
    "master_seed": 6, "threads": 2,
}


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


def _python(*argv):
    """Standard output of a fresh interpreter run with ``argv``."""
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Minor page faults per replication of the experiment in argv[1], under the
#: policy, after three warm-up blocks of replications per thread.  With
#: ``threads > 1`` the blocks run on a thread pool, each thread in its own
#: glibc arena.
_FAULTS = """
import json, resource, sys
from concurrent.futures import ThreadPoolExecutor
import trawlkit.cli as cli
from trawlkit.mc import ExperimentConfig, _block_size, _one_replication
cli._keep_freed_heap()
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
n, warm = cfg.n_grid[0], 3 * cfg.threads
starts = range(0, cfg.replications, _block_size(cfg, n))
run = ThreadPoolExecutor(cfg.threads).map if cfg.threads > 1 else map
list(run(_one_replication, [cfg] * warm, [n] * warm, starts[:warm]))
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rest = starts[warm:]
list(run(_one_replication, [cfg] * len(rest), [n] * len(rest), rest))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / (cfg.replications - rest[0]))
"""

#: C1 at n = 2^16 on two threads: the estimator's buffers come from each
#: thread's arena.
C1_THREADS = {**C1, "n_grid": [2**16], "replications": 26}


@pytest.mark.skipif(not _glibc(), reason="the heap policy is glibc's")
@pytest.mark.parametrize("config", [T6, C1_THREADS], ids=["T6", "C1-threads"])
def test_policy_stops_the_fft_scratch_faults(config):
    """Without the policy every replication faults in its FFT buffers again
    (hundreds of faults for T6, over a thousand for C1); with it the freed
    buffers are reused.  Both configs pair their replications."""
    per_rep = float(_python("-c", _FAULTS, json.dumps(config)))
    assert per_rep < 10


#: Runs one experiment file through ``run_experiment`` in a process that
#: never calls ``cli.main``, so it has glibc's default heap policy.
_LIBRARY_RUN = """
import json, sys
from trawlkit.mc import ExperimentConfig, run_experiment
with open(sys.argv[1]) as fh:
    result = run_experiment(ExperimentConfig.from_dict(json.load(fh)))
result.write_json(sys.argv[2])
result.write_csv(sys.argv[3])
"""


@pytest.mark.parametrize("config", [T6, C1], ids=["T6", "C1"])
def test_policy_leaves_every_output_bit(tmp_path, config):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(config))
    _python("-m", "trawlkit.cli", "mc", "--experiment", exp, "--out", tmp_path / "cli.json",
            "--raw-out", tmp_path / "cli.csv")
    _python("-c", _LIBRARY_RUN, exp, tmp_path / "lib.json", tmp_path / "lib.csv")
    for suffix in ("json", "csv"):
        assert (tmp_path / f"cli.{suffix}").read_bytes() == (tmp_path / f"lib.{suffix}").read_bytes()


def _record_mallopt(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    return calls


@pytest.mark.skipif(not _glibc(), reason="the heap policy is glibc's")
def test_policy_sets_both_thresholds(monkeypatch):
    """Either threshold alone turns off glibc's adjustment of the other, and
    every transform still faults."""
    calls = _record_mallopt(monkeypatch)
    cli._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _raise(*args):
    raise OSError("no such configuration name")


@pytest.mark.parametrize(
    "attr,replacement",
    [("confstr", _raise), ("confstr", lambda name: None), ("CDLL", lambda name: types.SimpleNamespace())],
    ids=["confstr-raises", "not-glibc", "no-mallopt"],
)
def test_policy_falls_back_to_nothing(tmp_path, monkeypatch, attr, replacement):
    """Off glibc, or without ``mallopt``, the helper sets nothing and the
    command runs as before."""
    calls = _record_mallopt(monkeypatch)
    monkeypatch.setattr(cli.os if attr == "confstr" else cli.ctypes, attr, replacement)
    out = tmp_path / "grid.csv"
    assert cli.main(["kernels", "--trawl", '{"family": "exponential", "rate": 1.0}', "--points", "2",
                     "--out", str(out)]) == 0
    assert out.exists()
    assert calls == []
