import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis keeps its example database and cached state under ./.hypothesis
# by default; keep the checkout clean and the runs independent of each other.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "trawlkit-hypothesis")
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")

from trawlkit import (
    CompactTriangleTrawl,
    ExponentialTrawl,
    GammaSeed,
    GaussianSeed,
    GridScheme,
    PoissonSeed,
    PowerLawTrawl,
    simulate_slices,
)

ALL_TRAWLS = [
    ExponentialTrawl(1.0),
    ExponentialTrawl(0.5),
    PowerLawTrawl(2.5, 1.0),
    PowerLawTrawl(1.8, 0.7),
    CompactTriangleTrawl(1.0),
    CompactTriangleTrawl(2.3),
]

ALL_SEEDS = [
    GaussianSeed(0.0, 1.0),
    GaussianSeed(0.3, 2.0),
    PoissonSeed(1.0),
    PoissonSeed(0.4),
    GammaSeed(2.0, 0.5),
]


@pytest.fixture(params=ALL_TRAWLS, ids=lambda t: repr(t))
def trawl(request):
    return request.param


@pytest.fixture(params=ALL_SEEDS, ids=lambda s: repr(s))
def seed_spec(request):
    return request.param


@pytest.fixture
def short_path():
    """A small deterministic path for estimator plumbing tests."""
    return simulate_slices(
        ExponentialTrawl(1.0),
        GaussianSeed(0.0, 1.0),
        GridScheme(n=256, delta=0.1, master_seed=42),
        exact=True,
    )


def rng(seed=0):
    return np.random.default_rng(seed)
