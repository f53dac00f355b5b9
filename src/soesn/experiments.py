"""Experiment harness: oscillation-ratio sweeps over leak and spectral
radius, ensemble-injection comparisons, target-signal generation, and
waveform-reproduction trials.

Every experiment is a deterministic function of its parameters plus a base
seed. Per-trial seeds come from seeding.derive_seed, so any individual trial
can be reproduced in isolation and results never depend on worker
scheduling: with jobs > 1 the trials are farmed out to a process pool but
aggregated by trial index, giving bit-identical output at any parallelism.
"""

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby, product

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .numerics import _blas_threads, _radius_factors, _set_blas_threads, spectral_radius
from .oscillation import WINDOW, classify_states, classify_trajectory
from .readout import predict, train_ridge
from .reservoir import Reservoir, init_state, run_batch
from .seeding import ROLE_LEAK, ROLE_STATE, ROLE_WEIGHTS, SEED_HELP, Seed, derive_seed
from .topology import (
    ConfigFields,
    TopologySpec,
    build_dense,
    build_weights,
    option,
    sample_leak_vector,
)


def _worker_count(jobs: int) -> int:
    """The workers `jobs` asks for, never more than the CPUs (unknown: one)."""
    return min(jobs, os.cpu_count() or 1)


def _map_trials(worker, tasks, jobs):
    # a forking pool starts every worker at once: never more than the tasks
    # or the CPUs can use; each worker runs BLAS on the caller's thread
    # count (a forkserver or spawned worker would not inherit it), so it
    # computes the serial map's bits
    workers = min(_worker_count(jobs), len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only here: keeps `--version` fast

    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads,
                             initargs=(_blas_threads(),)) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# Experiment configs: defaults and valid values, checked once when built
# ---------------------------------------------------------------------------

# A run of `tau` steps records tau + 1 rows, and the classifier needs one
# full window of them.
MIN_TAU = WINDOW - 1


@dataclass(frozen=True)
class SweepConfig(ConfigFields):
    """The leak x spectral-radius sweep: `trials` dense reservoirs of `n`
    units per (leak, rho) cell, each run `tau` steps; `cells` caps the grid
    for smoke runs. The cap trims the grid when the config is built, and a
    trimmed grid trims to itself, so the echo of a capped sweep is the grid
    that ran and its rerun builds the same config."""

    leak_values: tuple[float, ...] = option(tuple(round(0.05 * i, 10) for i in range(1, 21)),
                                            "comma-separated leak grid", above=0.0, high=1.0)
    rho_values: tuple[float, ...] = option(tuple(round(0.1 * i, 10) for i in range(1, 31)),
                                           "comma-separated rho grid", above=0.0)
    trials: int = option(20, "reservoirs per cell", low=1)
    n: int = option(100, low=1)
    tau: int = option(1000, low=MIN_TAU)
    cells: int | None = option(None, "cap the grid to about this many cells (smoke runs)", low=1)
    seed: Seed = option(0, SEED_HELP)

    def __post_init__(self):
        super().__post_init__()
        if self.cells is not None:
            cols = min(self.cells, len(self.rho_values))
            rows = max(1, min(len(self.leak_values), self.cells // cols))
            object.__setattr__(self, "leak_values", self.leak_values[:rows])
            object.__setattr__(self, "rho_values", self.rho_values[:cols])


@dataclass(frozen=True)
class InjectConfig(ConfigFields):
    """The ensemble-injection comparison: per population, `trials` paired
    dense reservoirs with and without the two-neuron ensemble, at radius
    `rho` and constant `leak`, run `tau` steps."""

    populations: tuple[int, ...] = option((4, 10, 25, 50, 100), "comma-separated population sizes",
                                          low=2)
    trials: int = option(200, low=1)
    tau: int = option(1000, low=MIN_TAU)
    rho: float = option(1.25, above=0.0)
    leak: float = option(0.5, above=0.0, high=1.0)
    seed: Seed = option(0, SEED_HELP)


_TARGET_DT = {"sine": 1.0, "square": 0.01, "lorenz": 0.01}
_TARGET_TAU = {"sine": 1000, "square": 1000, "lorenz": 2000}
_SINE_MODES = ("pure_sine", "literal_ode")


@dataclass(frozen=True)
class ReproduceConfig(ConfigFields):
    """Waveform reproduction: the readout of weakly coupled reservoirs of `n`
    units fitted to a `target` waveform (`dt` and `tau` default per
    target). Trials run at `sub_count` blocks or, with `sub_counts`,
    `trials` trials run per count (the boxplot sweep).

    Leak rates are drawn per unit from N(leak_mu, leak_sigma); each block is
    scaled to spectral radius `rho`; up to `max_attempts` reservoirs are
    tried until one is self-oscillatory; the ridge readout drops `washout`
    leading steps. `standardize` rescales each target dimension to zero mean
    and unit variance before the fit (pure conditioning; NRMSE is
    scale-free either way).
    """

    leak_mu: float = 0.6
    leak_sigma: float = option(0.1, low=0.0)
    rho: float = option(1.25, above=0.0)
    ridge_lambda: float = option(1e-8, low=0.0)
    washout: int = option(100, low=0)
    max_attempts: int = option(10, low=0)
    standardize: bool = option(False, "standardize target dimensions before the fit")
    target: str = option("sine", choices=tuple(_TARGET_DT))
    mode: str = option("pure_sine", "sine flavour", _SINE_MODES)
    freq: float = option(0.05, "pure sine frequency (cycles per step)")
    dt: float | None = option(None, "target sample spacing", above=0.0)
    tau: int | None = option(None, "target steps (samples - 1)", low=MIN_TAU)
    n: int = option(500, low=1)
    sub_count: int = option(8, "sub-reservoir count (single run)", low=1)
    coupling_scale: float = option(TopologySpec.coupling_scale, low=0.0)
    coupling_density: float = option(TopologySpec.coupling_density, low=0.0, high=1.0)
    sub_counts: tuple[int, ...] | None = option(
        None, "comma-separated counts: run the boxplot sweep instead", low=1)
    trials: int = option(30, "trials per count in sweep mode", low=1)
    seed: Seed = option(0, SEED_HELP)

    def __post_init__(self):
        super().__post_init__()
        if self.target_tau <= self.washout:
            raise InputError(f"tau must exceed the washout {self.washout}, got {self.target_tau}")
        for m in self.sub_counts or (self.sub_count,):
            self.topology(m)

    @property
    def target_tau(self) -> int:
        """The target's steps: `tau`, or the target's default."""
        return _TARGET_TAU[self.target] if self.tau is None else self.tau

    def target_signal(self) -> "TargetSignal":
        """The `target` waveform, `target_tau` steps at spacing `dt`."""
        dt = _TARGET_DT[self.target] if self.dt is None else self.dt
        if self.target == "sine":
            return gen_sinusoid(self.target_tau, dt, self.mode, self.freq)
        if self.target == "square":
            return gen_square(self.target_tau, dt)
        return gen_lorenz(self.target_tau, dt)

    def topology(self, sub_count: int) -> TopologySpec:
        return TopologySpec(
            kind="weakly_coupled", n=self.n, sub_count=sub_count,
            coupling_scale=self.coupling_scale, coupling_density=self.coupling_density,
        )


# ---------------------------------------------------------------------------
# Dense trials under a shared plan table, and the batched runner
# ---------------------------------------------------------------------------

# The most states one matrix product advances, whether one trial's or a
# stack's. Chunks are cut from a plan table in order, so a state's bits
# depend on the config alone (a gemm row's bits depend on the batch width
# and on the row's place in it), never on --jobs or on the stack. At n=100
# and 1000 steps a state costs 13 ms alone, 2.3 ms in a chunk of 32 and
# 1.7 ms in one of 64 (one BLAS thread); the kept 100-row tail of a full
# chunk takes 51 KB per unit (5 MB at n=100).
BATCH_WIDTH = 64

# The most weight-matrix bytes one stack advances. Stacking pays while the
# matrices stay in cache: 8 width-2 trials of 1000 steps, run G at a time
# (2 vCPUs, one BLAS thread), against one at a time, ran at n=100 2.24x
# faster for G=4 (0.3 MB); at n=200 1.23x for G=4 (1.3 MB) but 0.86x for
# G=8 (2.6 MB); at n=300 1.08x for G=2 (1.4 MB) but 0.66x for G=4; and at
# n=500 0.70x for G=2 (4 MB). 1 MiB stays below that crossover.
STACK_BYTES = 1 << 20


def _cut_stacks(tasks, width: int, workers: int) -> list[list]:
    """The trials `tasks`, each running `width` plans, cut, in order, into
    stacks for run_plans, to share among `workers` pool workers. Each run
    of consecutive trials that share n takes the fewest stacks of at most
    max(1, min(BATCH_WIDTH // width, STACK_BYTES // (8 n^2))) trials, that
    count rounded up to a multiple of `workers` (so each worker gets an
    equal share) but never above the run's trial count, with sizes that
    differ by at most one. A trial's bits do not depend on its stack, so
    the bytes still come from the config alone."""
    stacks = []
    for n, run in groupby(tasks, key=lambda task: task[0]):
        run = list(run)
        most = max(1, min(BATCH_WIDTH // max(1, width), STACK_BYTES // (8 * n * n)))
        fewest = -(-len(run) // most)
        count = min(len(run), -(-fewest // workers) * workers)
        size, extra = divmod(len(run), count)
        start = 0
        for i in range(count):
            stop = start + size + (i < extra)
            stacks.append(run[start:stop])
            start = stop
    return stacks


def run_plans(stack, rho, leak, injected, tau: int):
    """Run a stack of G trials `(n, matrix_seed, state_seed, label)`, which
    share n, under one table of B plans `(rho[j], leak[j], injected[j])`,
    as batches, yielding each chunk's kept states: a (min(WINDOW, tau + 1),
    G, B', n) array, the classifier window of the chunk's B' plans of every
    trial, in plan order. A single trial is a stack of one.

    A trial's base matrix W0 = build_dense(n, matrix_seed) is built, and
    its radius taken, once; plan j runs from init_state(n, state_seed)
    under c_j * W0 with c_j = rho_j / radius(W0), which is build_weights of
    the dense spec at rho_j factored out of the product, with the
    ensemble's weights in its leading block when injected_j. Chunks hold at
    most BATCH_WIDTH plans of each trial, and _cut_stacks keeps G * B'
    within BATCH_WIDTH. A NumericError names the failing plan: its trial's
    `label` formatted with the plan's rho, leak and injected. A matrix that
    cannot be scaled names the plan of largest rho, whose factor overflows
    first (a radius too small fails every plan alike).
    """
    rhos = np.array(rho, dtype=float)

    def failed(label, j, exc):
        plan = label.format(rho=rho[j], leak=leak[j], injected=injected[j])
        return NumericError(f"{plan} failed: {exc}")

    bases, factors, states = [], [], []
    for n, matrix_seed, state_seed, label in stack:
        try:
            W0 = build_dense(n, matrix_seed)
            factors.append(_radius_factors(spectral_radius(W0), rhos))
        except NumericError as exc:
            raise failed(label, int(np.argmax(rhos)), exc) from exc
        bases.append(W0)
        states.append(init_state(n, state_seed))
    W, factors = np.array(bases), np.array(factors)
    del bases  # the stack holds the matrices from here on
    x = np.repeat(np.array(states)[:, None], len(rhos), axis=1)
    leak_rows = np.array([leak] * len(stack), dtype=float)
    injected_rows = np.array([injected] * len(stack), dtype=bool)
    keep = min(WINDOW, tau + 1)
    for start in range(0, len(rhos), BATCH_WIDTH):
        cut = slice(start, start + BATCH_WIDTH)
        try:
            yield run_batch(W, x[:, cut], leak_rows[:, cut], factors[:, cut], tau, keep,
                            injected_rows[:, cut])
        except NumericError as exc:
            raise failed(stack[exc.stack][3], start + exc.row, exc) from exc


def classify_stack(stack, rho, leak, injected, tau: int) -> np.ndarray:
    """Each trial's self-oscillatory verdicts, a (G, B) bool array in plan
    order, for a stack of run_plans."""
    return np.concatenate([
        classify_states(tail.reshape(tail.shape[0], -1, tail.shape[-1])).reshape(tail.shape[1:3])
        for tail in run_plans(stack, rho, leak, injected, tau)
    ], axis=1)


def _self_oscillatory(tasks, rho, leak, injected, tau: int, jobs: int) -> np.ndarray:
    """The verdicts of the trials `tasks` of run_plans under the plan table
    `(rho, leak, injected)`, a (T, B) bool array in task order, one stack
    of _cut_stacks per pool task."""
    stacks = _cut_stacks(tasks, len(rho), _worker_count(jobs))
    classify = partial(classify_stack, rho=rho, leak=leak, injected=injected, tau=tau)
    return np.concatenate(_map_trials(classify, stacks, jobs))


# ---------------------------------------------------------------------------
# Leak x spectral-radius sweep
# ---------------------------------------------------------------------------


def sweep_heatmap(config: SweepConfig, jobs: int = 1) -> np.ndarray:
    """Monte-Carlo oscillation ratio over the (leak, spectral radius) grid
    of `config`: the fraction of self-oscillatory reservoirs per cell, a
    (len(leak_values), len(rho_values)) array.

    Common random numbers: trial t draws one dense base matrix and one
    initial state (from derive_seed(seed, t)), and every cell runs them,
    scaled to its radius at its leak, for `tau` steps. A cell's ratio is
    the fraction of its `trials` runs classified self-oscillatory, so cells
    differ only by their (leak, rho), never by the draw. Each trial runs
    all of the grid's cells, one plan table, as batches, stacked with other
    trials (see run_plans).
    """
    leaks, rhos = config.leak_values, config.rho_values
    tasks = []
    for t in range(config.trials):
        seed = derive_seed(config.seed, t)
        tasks.append((config.n, derive_seed(seed, ROLE_WEIGHTS), derive_seed(seed, ROLE_STATE),
                      f"sweep cell (leak={{leak}}, rho={{rho}}) trial {t}"))
    leak, rho = zip(*product(leaks, rhos))
    flags = _self_oscillatory(tasks, rho, leak, (False,) * len(rho), config.tau, jobs)
    # the mean of 0/1 flags is exact, so it equals count / trials bit for bit
    return flags.mean(axis=0).reshape(len(leaks), len(rhos))


# ---------------------------------------------------------------------------
# Ensemble-injection comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationComparison:
    population: int
    ratio_without: float
    ratio_with: float

    @property
    def gap(self) -> float:
        return self.ratio_with - self.ratio_without


def injection_ratio_experiment(
    config: InjectConfig, jobs: int = 1
) -> list[PopulationComparison]:
    """Oscillation ratio with and without the calibrated two-neuron ensemble
    spliced into the reservoir, over `config.populations`.

    The arms are paired: each trial uses the same scaled weight matrix and
    the same initial state, differing only in the injected leading block,
    and both run in one batch. The matrix is scaled before injection, so
    the ensemble keeps its own calibrated weights.
    """
    tasks = []
    for pi, p in enumerate(config.populations):
        for t in range(config.trials):
            seed = derive_seed(config.seed, pi, t)
            tasks.append((p, derive_seed(seed, ROLE_WEIGHTS), derive_seed(seed, ROLE_STATE),
                          f"injection cell (population={p}) trial {t}"))
    flags = _self_oscillatory(tasks, (config.rho,) * 2, (config.leak,) * 2, (False, True),
                              config.tau, jobs)
    ratios = flags.reshape(len(config.populations), config.trials, 2).mean(axis=1)
    return [
        PopulationComparison(p, float(without), float(with_))
        for p, (without, with_) in zip(config.populations, ratios)
    ]


# ---------------------------------------------------------------------------
# Target signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSignal:
    """A named waveform sampled on a fixed grid; values are (T, L), finite,
    and small enough that each dimension's standard deviation is finite."""

    name: str
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 2:
            raise InputError("target needs a (T, L) array with T >= 2")
        if not np.all(np.isfinite(values)):
            raise InputError("target values must be finite")
        # finite values can still be too large to square: then the spread,
        # and with it every NRMSE, overflows
        with np.errstate(over="ignore", invalid="ignore"):
            spread = values.std(axis=0)
        if not np.all(np.isfinite(spread)):
            raise InputError("target values are too large: their standard deviation overflows")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def gen_sinusoid(
    tau: int, dt: float = 1.0, mode: str = "pure_sine", freq: float = 0.05
) -> TargetSignal:
    """Sinusoid target with tau+1 samples at t = k*dt.

    `pure_sine` is sin(2*pi*freq*t). `literal_ode` integrates
    x' = 2*(1 + cos t) exactly, giving the ramp-plus-sine x = 2t + 2 sin t
    with x(0) = 0; it is monotone and unbounded, kept for fidelity rather
    than as a practical target for a bounded readout. An extreme `dt` or
    `freq` that overflows is rejected by TargetSignal.
    """
    if tau < 2:
        raise InputError("tau must be at least 2")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(tau + 1) * dt
        if mode == "literal_ode":
            values = 2.0 * t + 2.0 * np.sin(t)
            name = "sinusoid_ode"
        elif mode == "pure_sine":
            values = np.sin(2.0 * np.pi * freq * t)
            name = "sine"
        else:
            raise InputError(f"unknown sinusoid mode {mode!r}")
    return TargetSignal(name=name, dt=dt, values=values)


def gen_square(tau: int, dt: float = 0.01) -> TargetSignal:
    """Square wave sgn(sin(10*pi*t)) with tau+1 samples at t = k*dt.

    Samples landing on an exact half-period give sgn(0) = 0; the sine is
    snapped to zero below 1e-9 so those lattice points survive floating-
    point rounding of pi.
    """
    if tau < 2:
        raise InputError("tau must be at least 2")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(tau + 1) * dt
        s = np.sin(10.0 * np.pi * t)
        values = np.sign(s)
        values[np.abs(s) < 1e-9] = 0.0
    return TargetSignal(name="square", dt=dt, values=values)


def gen_lorenz(
    tau: int,
    dt: float = 0.01,
    x0=(0.0, 1.0, 1.05),
    sigma: float = 10.0,
    alpha: float = 28.0,
    beta: float = 2.667,
) -> TargetSignal:
    """Lorenz system integrated with fixed-step classical RK4; returns tau+1
    samples of (x, y, z)."""
    if tau < 2:
        raise InputError("tau must be at least 2")
    if not 0 < dt < math.inf:
        raise InputError(f"dt must be finite and positive, got {dt}")
    state = np.asarray(x0, dtype=float)
    if state.shape != (3,):
        raise InputError("x0 must have three components")

    def deriv(s):
        x, y, z = s
        return np.array([sigma * (y - x), x * (alpha - z) - y, x * y - beta * z])

    out = np.empty((tau + 1, 3))
    out[0] = state
    # divergence shows up as inf/nan and is reported explicitly below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tau):
            k1 = deriv(state)
            k2 = deriv(state + 0.5 * dt * k1)
            k3 = deriv(state + 0.5 * dt * k2)
            k4 = deriv(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                raise NumericError(f"Lorenz integration diverged at step {k + 1}")
            out[k + 1] = state
    return TargetSignal(name="lorenz", dt=dt, values=out)


# ---------------------------------------------------------------------------
# Waveform reproduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one reproduction trial; train_nrmse is present only when an
    oscillatory reservoir was found within the attempt budget."""

    attempt_count: int
    oscillatory: bool
    train_nrmse: tuple[float, ...] | None
    seed: int

    def mean_nrmse(self) -> float:
        if self.train_nrmse is None:
            return math.nan
        return float(np.mean(self.train_nrmse))


def _attempt_reservoir(config: ReproduceConfig, attempt_seed: int) -> Reservoir:
    """The reservoir a reproduction attempt runs: the weakly coupled
    layout's blocks scaled to `rho`, per-unit leak rates and an initial
    state, each drawn from the attempt seed."""
    spec = config.topology(config.sub_count)
    W = build_weights(replace(spec, seed=derive_seed(attempt_seed, ROLE_WEIGHTS)), config.rho)
    leak = sample_leak_vector(
        spec.n, config.leak_mu, config.leak_sigma, derive_seed(attempt_seed, ROLE_LEAK)
    )
    return Reservoir(W, leak, init_state(spec.n, derive_seed(attempt_seed, ROLE_STATE)))


def _fit(trajectory, target, config: ReproduceConfig):
    """The readout trained on the target (standardized when asked), with
    the per-dimension mean and scale that map its output back."""
    values, mean, sd = target.values, 0.0, 1.0
    if config.standardize:
        mean = values.mean(axis=0)
        sd = values.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        values = (values - mean) / sd
    model = train_ridge(trajectory.rows, values, config.ridge_lambda, config.washout)
    return model, mean, sd


def _search(config: ReproduceConfig, target: TargetSignal):
    """The trial's outcome, plus the oscillatory attempt's trajectory and
    fitted readout `(trajectory, model, mean, sd)`, or None when the attempt
    budget ran out."""
    if target.length < config.washout + 2:
        raise InputError(
            f"target length {target.length} too short for washout {config.washout}"
        )
    tau = target.length - 1
    last_seed = config.seed
    for attempt in range(config.max_attempts):
        attempt_seed = derive_seed(config.seed, attempt)
        last_seed = attempt_seed
        trajectory = _attempt_reservoir(config, attempt_seed).run(tau)
        if classify_trajectory(trajectory).reservoir_is_self_oscillatory:
            model, mean, sd = _fit(trajectory, target, config)
            outcome = TrialOutcome(
                attempt_count=attempt + 1,
                oscillatory=True,
                train_nrmse=tuple(float(v) for v in model.train_nrmse),
                seed=attempt_seed,
            )
            return outcome, (trajectory, model, mean, sd)
        del trajectory  # freed before the next attempt's states are allocated
    outcome = TrialOutcome(
        attempt_count=config.max_attempts, oscillatory=False, train_nrmse=None,
        seed=last_seed,
    )
    return outcome, None


def _prediction(trajectory, model, mean, sd, config: ReproduceConfig) -> np.ndarray:
    """The readout's full-length output in target units."""
    prediction = predict(model, trajectory.rows)
    if config.standardize:
        prediction = prediction * sd + mean
    return prediction


def reproduce_waveform(config: ReproduceConfig, target: TargetSignal) -> TrialOutcome:
    """One trial at `config.sub_count` blocks from base seed `config.seed`:
    build reservoirs until one is self-oscillatory (or the attempt budget
    runs out), then train the readout on the recorded states against the
    target and report per-dimension training NRMSE.

    Exhausting the attempts is a result, not an error: the outcome comes
    back with oscillatory=False.
    """
    return _search(config, target)[0]


def reproduce_with_prediction(
    config: ReproduceConfig, target: TargetSignal
) -> tuple[TrialOutcome, np.ndarray | None]:
    """reproduce_waveform plus the scored readout's full-length prediction in
    target units (None when no attempt oscillated), taken from the attempt
    already simulated (used for target-versus-output plots)."""
    outcome, winner = _search(config, target)
    if winner is None:
        return outcome, None
    return outcome, _prediction(*winner, config)


def reproduce_trials(
    config: ReproduceConfig, target: TargetSignal, jobs: int = 1
) -> list[TrialOutcome]:
    """`config.trials` independent reproduction trials at `config.sub_count`,
    trial t from base seed derive_seed(config.seed, t)."""
    return _map_trials(partial(reproduce_waveform, target=target), _trials(config), jobs)


def _trials(config: ReproduceConfig) -> list[ReproduceConfig]:
    """The config of each of reproduce_trials' trials, in trial order."""
    return [replace(config, seed=derive_seed(config.seed, t)) for t in range(config.trials)]


@dataclass(frozen=True)
class SubCountDistribution:
    """NRMSE distribution (mean over target dimensions per trial) among the
    oscillatory trials at one sub-reservoir count."""

    sub_count: int
    nrmse_values: tuple[float, ...]
    non_oscillatory_count: int

    def quartiles(self) -> tuple[float, float, float]:
        if not self.nrmse_values:
            return (math.nan, math.nan, math.nan)
        q1, q2, q3 = np.percentile(self.nrmse_values, [25.0, 50.0, 75.0])
        return (float(q1), float(q2), float(q3))

    @property
    def median(self) -> float:
        return self.quartiles()[1]


def distribution_from_outcomes(sub_count: int, outcomes) -> SubCountDistribution:
    return SubCountDistribution(
        sub_count=sub_count,
        nrmse_values=tuple(o.mean_nrmse() for o in outcomes if o.oscillatory),
        non_oscillatory_count=sum(1 for o in outcomes if not o.oscillatory),
    )


def subreservoir_count_outcomes(
    config: ReproduceConfig, target: TargetSignal, jobs: int = 1
) -> list[tuple[int, list[TrialOutcome]]]:
    """Raw reproduction outcomes per count in `config.sub_counts`, the
    count's trials from base seed derive_seed(config.seed, count index) (a
    single block is the dense baseline of the weakly coupled layout): each
    count's reproduce_trials, all run in one pool. Summarize each count
    with distribution_from_outcomes."""
    if config.sub_counts is None:
        raise ConfigError("subreservoir_count_outcomes needs sub_counts")
    counts, k = config.sub_counts, config.trials
    trials = [trial for mi, m in enumerate(counts) for trial in
              _trials(replace(config, sub_count=m, seed=derive_seed(config.seed, mi)))]
    outcomes = _map_trials(partial(reproduce_waveform, target=target), trials, jobs)
    return [(m, outcomes[mi * k:(mi + 1) * k]) for mi, m in enumerate(counts)]
