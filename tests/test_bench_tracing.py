"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` patches the package from outside, by name; a renamed or
moved entry point would make its per-layer metrics read 0 without failing.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import trawlkit
import trawlkit.cli  # noqa: F401  (imports every module the tracer patches)
from trawlkit import ExponentialTrawl, PoissonSeed
from trawlkit.models import LevySeedSpec, TrawlSpec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_finds_every_target_and_counts_the_hot_calls():
    tracer = _load_tracing().Tracer()
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
