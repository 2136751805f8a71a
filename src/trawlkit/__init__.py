"""trawlkit: exact simulation and nonparametric inference for trawl processes."""

__version__ = "0.1.0"

from .estimators import (
    TestFunction,
    TrawlEstimate,
    choose_window,
    estimate_trawl,
    lambda_bar_n,
    lambda_n,
    psi_n,
    window_exponent_bounds,
)
from .inference import DegeneratePathError, TestReport, tau_test
from .limit_theory import AvarKernel, QuadratureError
from .mc import (
    DegenerateDrawError,
    ExperimentConfig,
    McResult,
    convergence_slope,
    ks_distance,
    run_experiment,
    true_lambda,
    true_psi,
)
from .models import (
    CompactTriangleTrawl,
    ExponentialTrawl,
    GammaSeed,
    GaussianSeed,
    LevySeedSpec,
    PoissonSeed,
    PowerLawTrawl,
    TrawlSpec,
    seed_from_dict,
    trawl_from_dict,
)
from .simulate import (
    GridScheme,
    SampledPath,
    export_csv,
    ingest_csv,
    residual_area,
    simulate_circulant,
    simulate_points,
    simulate_slices,
    slice_area,
    truncation_horizon,
)

__all__ = [name for name in dir() if not name.startswith("_")]
