"""The benchmark's tracer still finds every name it wraps, still sees the
spans of a run, and the program still keeps what the benchmark's checks
call.

``bench/tracing.py`` patches the package from outside, by name; a renamed or
moved entry point would make its per-layer metrics read 0 without failing.
``bench/workloads.py`` checks the truncated slice sampler's horizon, which
no simulator name reaches any more.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import trawlkit
import trawlkit.cli  # noqa: F401  (imports every module the tracer patches)
from trawlkit import ExperimentConfig, ExponentialTrawl, PoissonSeed, mc
from trawlkit.models import LevySeedSpec, TrawlSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    """The module ``bench/<name>.py``, loaded without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_finds_every_target_and_counts_the_hot_calls():
    tracer = _load_bench("tracing").Tracer()
    tracer.install(trawlkit, counting=True)
    try:
        assert tracer.missing == []
        ExponentialTrawl(1.0).a(np.zeros(3))
        PoissonSeed(1.0).sample(1.0, np.random.default_rng(0))
        assert tracer.counters == {("models.a", "-"): [1, 3], ("models.seed_draws", "-"): [1, 1]}
    finally:
        tracer.restore()
    assert "wrapper" not in repr(ExponentialTrawl.__dict__["a"])


def test_families_define_the_traced_methods():
    """The counting pass wraps ``a`` and ``sample`` in each family's own
    ``__dict__``: one inherited from a base class would go uncounted."""
    for base, method in ((TrawlSpec, "a"), (LevySeedSpec, "sample")):
        families = base.__subclasses__()
        assert families
        for cls in families:
            assert method in cls.__dict__, f"{cls.__name__} does not define {method}"


def test_slices_workload_horizon_checks_pass():
    """The tiny ``slices`` configs simulate each Gaussian and Gamma grid point
    with ``simulate_slices`` and compare its horizon with
    ``truncation_horizon``; at n = 512 the horizon J = 417 cuts the rows."""
    workloads = _load_bench("workloads")
    cfgs = dict(workloads.configs("slices", 21001, tiny=True))
    checks = workloads.horizon_checks(trawlkit, cfgs)
    assert sorted(checks) == sorted(cfgs)
    assert all(ok for results in checks.values() for _, ok, _ in results), checks
    delta = trawlkit.ExperimentConfig.from_dict(cfgs["T1-gaussian"]).delta_for(512)
    assert trawlkit.truncation_horizon(ExponentialTrawl(1.0), delta) == 417


def test_tracer_spans_cover_the_tiny_clt_and_tdep_runs(tmp_path):
    """The tiny ``clt`` and ``tdep`` configs run in this process under the
    tracer on one worker, as a traced bench session runs them, with each
    replication count made odd so that every paired n ends with a block of
    one.  Every invocation exits 0; the replication spans start the blocks
    that cover every replication; a block of one path shows exactly one
    ``estimate_trawl`` span, C1 included, and a pair, which estimates in the
    replication's own time, shows none.  No replication runs ``tau_test``:
    C1 applies the ratio to its estimates as the other theorems apply their
    functionals."""
    tracing, workloads = _load_bench("tracing"), _load_bench("workloads")
    cfgs = workloads.configs("clt", 23001, tiny=True) + workloads.configs("tdep", 23001, tiny=True)
    tracer = tracing.Tracer()
    tracer.install(trawlkit)
    try:
        assert tracer.missing == []
        for index, (label, cfg) in enumerate(cfgs):
            if cfg["replications"] % 2 == 0:
                cfg["replications"] -= 1  # an odd count ends each paired n with a block of one
            exp = tmp_path / f"{label}.json"
            exp.write_text(json.dumps(cfg))
            tracer.invocation = index
            argv = ["mc", "--experiment", str(exp), "--out", str(tmp_path / f"{label}.out.json"), "--threads", "1"]
            assert trawlkit.cli.main(argv) == 0, label
    finally:
        tracer.restore()
    spans = tracer.spans
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    paired = Counter()
    for index, (label, cfg) in enumerate(cfgs):
        config = ExperimentConfig.from_dict(cfg)
        tau = config.theorem == "C1"
        reps = config.replications
        blocks = {}
        for i, span in enumerate(spans):
            if span[0] == "mc.replication" and span[4].startswith(f"{index}/"):
                _, n, start = map(int, span[4].split("/"))
                blocks[n, start] = i
        for n in config.n_grid:
            size = mc._block_size(config, n)
            assert sorted(start for m, start in blocks if m == n) == list(range(0, reps, size)), (label, n)
            for start in range(0, reps, size):
                block = min(size, reps - start)
                paired[label] += block == 2
                kids = Counter(spans[c][0] for c in children.get(blocks[n, start], []))
                assert kids["simulate.simulate_points"] == block
                assert kids["estimators.estimate_trawl"] == (block == 1)
                assert kids["estimators.functionals"] == (0 if tau else block)
    assert not any(span[0] == "inference.tau_test" for span in spans)
    # T6 and both C1 configs pair; T5's head statistic does not
    assert paired["T5"] == 0 and min(paired["T6"], paired["C1-null"], paired["C1-alt"]) > 0
