"""Self-oscillatory echo state reservoirs.

Input-free leaky-tanh reservoirs that settle into sustained oscillation,
tools to detect and characterize that oscillation, a ridge-trained linear
readout for reproducing target waveforms, and a deterministic experiment
harness plus CLI around it all.
"""

__version__ = "0.4.0"

from .errors import (
    CannotScaleError,
    ConfigError,
    DimensionError,
    InputError,
    NumericError,
    UndefinedMetricError,
)
from .experiments import (
    InjectConfig,
    PopulationComparison,
    ReproduceConfig,
    SubCountDistribution,
    SweepConfig,
    TargetSignal,
    TrialOutcome,
    distribution_from_outcomes,
    gen_lorenz,
    gen_sinusoid,
    gen_square,
    injection_ratio_experiment,
    reproduce_trials,
    reproduce_waveform,
    subreservoir_count_outcomes,
    sweep_heatmap,
)
from .numerics import PowerSpectrum, periodogram, scale_to_spectral_radius, spectral_radius
from .oscillation import (
    OscillationReport,
    UnitClassification,
    classify_trajectory,
    classify_unit,
    dominant_frequency_hz,
)
from .readout import ReadoutModel, nrmse, predict, train_ridge
from .reservoir import Reservoir, StateTrajectory, init_state, run_batch
from .seeding import derive_seed
from .topology import (
    TWO_NEURON_ENSEMBLE,
    TopologySpec,
    build_dense,
    build_sparse,
    build_weakly_coupled,
    build_weights,
    inject_ensemble,
    sample_leak_vector,
)
