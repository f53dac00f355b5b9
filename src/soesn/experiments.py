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

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .numerics import _radius_factors, spectral_radius
from .oscillation import WINDOW, classify_states, classify_trajectory
from .readout import ReadoutModel, predict, train_ridge
from .reservoir import Reservoir, StateTrajectory, init_state, run_batch
from .seeding import ROLE_LEAK, ROLE_STATE, ROLE_WEIGHTS, check_seed, derive_seed
from .topology import (
    ConfigFields,
    TopologySpec,
    build_dense,
    build_weights,
    sample_leak_vector,
    two_neuron_ensemble,
)


def _map_trials(worker, tasks, jobs):
    # a forking pool starts every worker at once: never more than the tasks
    # or the CPUs can use
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only here: keeps `--version` fast

    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# Experiment configs: defaults and range checks, made once when built
# ---------------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _require_window(tau: int) -> None:
    """A run of `tau` steps records tau + 1 rows, and the classifier needs
    one full window of them."""
    _require(tau + 1 >= WINDOW,
             f"tau must be at least {WINDOW - 1} (tau + 1 samples fill the "
             f"classifier window), got {tau}")


@dataclass(frozen=True)
class SweepConfig(ConfigFields):
    """The leak x spectral-radius sweep: `trials` dense reservoirs of `n`
    units per (leak, rho) cell, each run `tau` steps; `cells` caps the grid
    for smoke runs."""

    leak_values: tuple[float, ...] = tuple(round(0.05 * i, 10) for i in range(1, 21))
    rho_values: tuple[float, ...] = tuple(round(0.1 * i, 10) for i in range(1, 31))
    trials: int = 20
    n: int = 100
    tau: int = 1000
    cells: int | None = None
    seed: int = 0

    def __post_init__(self):
        _require(len(self.leak_values) > 0 and all(0 < a <= 1 for a in self.leak_values),
                 f"leak values must be a non-empty list in (0, 1], got {self.leak_values}")
        _require(len(self.rho_values) > 0 and all(r > 0 for r in self.rho_values),
                 f"rho values must be a non-empty list of positives, got {self.rho_values}")
        _require(self.trials >= 1, "trials must be at least 1")
        _require(self.n >= 1, "n must be at least 1")
        _require_window(self.tau)
        _require(self.cells is None or self.cells >= 1, "cells must be at least 1")
        check_seed(self.seed)

    def capped(self) -> "SweepConfig":
        """The grid trimmed to about `cells` cells; the echo records the
        trimmed grid, which trims to itself again on a rerun."""
        if self.cells is None:
            return self
        cols = min(self.cells, len(self.rho_values))
        rows = max(1, min(len(self.leak_values), self.cells // cols))
        return replace(self, leak_values=self.leak_values[:rows],
                       rho_values=self.rho_values[:cols])


@dataclass(frozen=True)
class InjectConfig(ConfigFields):
    """The ensemble-injection comparison: per population, `trials` paired
    dense reservoirs with and without the two-neuron ensemble, at radius
    `rho` and constant `leak`, run `tau` steps."""

    populations: tuple[int, ...] = (4, 10, 25, 50, 100)
    trials: int = 200
    tau: int = 1000
    rho: float = 1.25
    leak: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _require(len(self.populations) > 0 and all(p >= 2 for p in self.populations),
                 f"populations must be a non-empty list of sizes >= 2, got {self.populations}")
        _require(self.trials >= 1, "trials must be at least 1")
        _require(self.rho > 0, f"rho must be positive, got {self.rho}")
        _require(0 < self.leak <= 1, f"leak must lie in (0, 1], got {self.leak}")
        _require_window(self.tau)
        check_seed(self.seed)


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
    leak_sigma: float = 0.1
    rho: float = 1.25
    ridge_lambda: float = 1e-8
    washout: int = 100
    max_attempts: int = 10
    standardize: bool = False
    target: str = "sine"
    mode: str = "pure_sine"
    freq: float = 0.05
    dt: float | None = None
    tau: int | None = None
    n: int = 500
    sub_count: int = 8
    coupling_scale: float = TopologySpec.coupling_scale
    coupling_density: float = TopologySpec.coupling_density
    sub_counts: tuple[int, ...] | None = None
    trials: int = 30
    seed: int = 0

    def __post_init__(self):
        _require(self.leak_sigma >= 0, f"leak_sigma must be non-negative, got {self.leak_sigma}")
        _require(self.rho > 0, f"rho must be positive, got {self.rho}")
        _require(self.ridge_lambda >= 0,
                 f"ridge_lambda must be non-negative, got {self.ridge_lambda}")
        _require(self.washout >= 0, f"washout must be non-negative, got {self.washout}")
        _require(self.max_attempts >= 0,
                 f"max_attempts must be non-negative, got {self.max_attempts}")
        _require(self.target in _TARGET_DT,
                 f"unknown target {self.target!r}; choose from {sorted(_TARGET_DT)}")
        _require(self.mode in _SINE_MODES,
                 f"unknown sine mode {self.mode!r}; choose from {_SINE_MODES}")
        _require(self.dt is None or self.dt > 0, f"dt must be positive, got {self.dt}")
        _require_window(self.target_tau)
        _require(self.target_tau > self.washout,
                 f"tau must exceed the washout {self.washout}, got {self.target_tau}")
        _require(self.sub_counts is None or len(self.sub_counts) > 0,
                 f"sub_counts must be a non-empty list, got {self.sub_counts}")
        _require(self.trials >= 1, "trials must be at least 1")
        check_seed(self.seed)
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
# Trial plans and the batched runner
# ---------------------------------------------------------------------------

# The most states one matrix product advances. Chunks are cut from a plan
# list in order, so a state's bits depend on the config alone (a gemm row's
# bits depend on the batch width and on the row's place in it), never on
# --jobs. At n=100 and 1000 steps a state costs 13 ms alone, 2.3 ms in a
# chunk of 32 and 1.7 ms in one of 64 (one BLAS thread); the kept 100-row
# tail of a full chunk takes 51 KB per unit (5 MB at n=100).
BATCH_WIDTH = 64


@dataclass(frozen=True)
class TrialPlan:
    """One state that run_plans advances on its shared dense matrix, scaled
    to radius `rho` (with the two-neuron ensemble spliced in when
    `injected`), at the constant `leak`, from `init_state(n, state_seed)`.
    `label` names the run in errors."""

    rho: float
    leak: float
    state_seed: int
    injected: bool = False
    label: str = ""


def run_plans(n: int, matrix_seed: int, plans, tau: int):
    """Run plans on the dense matrix of `n` units drawn from `matrix_seed`
    as batches, yielding each chunk's kept states: a
    (min(WINDOW, tau + 1), B, n) stack, the classifier window of B plans in
    plan order.

    The base matrix W0 = build_dense(n, matrix_seed) is built, and its
    radius taken, once; plan j runs under c_j * W0 with
    c_j = rho_j / radius(W0), which is build_weights of the dense spec at
    rho_j factored out of the product, and with the ensemble's weights in
    its leading block when it is injected. Chunks hold at most BATCH_WIDTH
    plans. A NumericError names the failing plan's label.
    """
    try:
        W0 = build_dense(n, matrix_seed)
        factors = _radius_factors(spectral_radius(W0), np.array([p.rho for p in plans]))
        states = {s: init_state(n, s) for s in dict.fromkeys(p.state_seed for p in plans)}
    except NumericError as exc:
        raise NumericError(f"{plans[0].label} failed: {exc}") from exc
    keep = min(WINDOW, tau + 1)
    for start in range(0, len(plans), BATCH_WIDTH):
        chunk = plans[start : start + BATCH_WIDTH]
        seeded = np.flatnonzero([p.injected for p in chunk])
        try:
            yield run_batch(
                W0, [states[p.state_seed] for p in chunk], [p.leak for p in chunk],
                factors[start : start + len(chunk)], tau, keep,
                lead=(seeded, two_neuron_ensemble().weights) if seeded.size else None,
            )
        except NumericError as exc:
            raise NumericError(f"{chunk[exc.row].label} failed: {exc}") from exc


def _self_oscillatory(task, tau: int) -> list[bool]:
    """Each plan's self-oscillatory verdict, in plan order, for a task
    `(n, matrix_seed, plans)` of run_plans."""
    return [bool(v) for tail in run_plans(*task, tau) for v in classify_states(tail)]


# ---------------------------------------------------------------------------
# Leak x spectral-radius sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Fraction of self-oscillatory reservoirs per (leak, rho) cell of the
    swept config's grid."""

    grid: np.ndarray
    config: SweepConfig

    def ratio(self, leak_index: int, rho_index: int) -> float:
        return float(self.grid[leak_index, rho_index])


def sweep_heatmap(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Monte-Carlo oscillation ratio over the (leak, spectral radius) grid
    of `config.capped()`.

    Common random numbers: trial t draws one dense base matrix and one
    initial state (from derive_seed(seed, t)), and every cell runs them,
    scaled to its radius at its leak, for `tau` steps. A cell's ratio is
    the fraction of its `trials` runs classified self-oscillatory, so cells
    differ only by their (leak, rho), never by the draw. One task per trial
    index runs all of its cells as batches (see run_plans).
    """
    config = config.capped()
    leaks, rhos = config.leak_values, config.rho_values
    tasks = []
    for t in range(config.trials):
        seed = derive_seed(config.seed, t)
        tasks.append((config.n, derive_seed(seed, ROLE_WEIGHTS), [
            TrialPlan(r, a, derive_seed(seed, ROLE_STATE),
                      label=f"sweep cell (leak={a}, rho={r}) trial {t}")
            for a in leaks
            for r in rhos
        ]))
    verdicts = _map_trials(partial(_self_oscillatory, tau=config.tau), tasks, jobs)
    flags = np.array(verdicts, dtype=float)
    # the mean of 0/1 flags is exact, so it equals count / trials bit for bit
    return SweepResult(flags.mean(axis=0).reshape(len(leaks), len(rhos)), config)


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
            label = f"injection cell (population={p}) trial {t}"
            tasks.append((p, derive_seed(seed, ROLE_WEIGHTS), [
                TrialPlan(config.rho, config.leak, derive_seed(seed, ROLE_STATE), arm, label)
                for arm in (False, True)
            ]))
    verdicts = _map_trials(partial(_self_oscillatory, tau=config.tau), tasks, jobs)
    flags = np.array(verdicts, dtype=float)
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
    if dt <= 0:
        raise InputError("dt must be positive")
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


def rebuild_trial(
    config: ReproduceConfig, target: TargetSignal, attempt_seed: int
) -> tuple[StateTrajectory, ReadoutModel, np.ndarray]:
    """Reconstruct a reproduction attempt from its seed (say, one recorded in
    trials.jsonl), returning the trajectory, the trained model that was
    scored, and its full-length prediction in target units."""
    trajectory = _attempt_reservoir(config, attempt_seed).run(target.length - 1)
    model, mean, sd = _fit(trajectory, target, config)
    return trajectory, model, _prediction(trajectory, model, mean, sd, config)


def reproduce_trials(
    config: ReproduceConfig, target: TargetSignal, jobs: int = 1
) -> list[TrialOutcome]:
    """`config.trials` independent reproduction trials at `config.sub_count`,
    trial t from base seed derive_seed(config.seed, t)."""
    trials = [replace(config, seed=derive_seed(config.seed, t)) for t in range(config.trials)]
    return _map_trials(partial(reproduce_waveform, target=target), trials, jobs)


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
    single block is the dense baseline of the weakly coupled layout).
    Summarize each count with distribution_from_outcomes."""
    _require(config.sub_counts is not None, "subreservoir_count_outcomes needs sub_counts")
    return [
        (m, reproduce_trials(replace(config, sub_count=m, seed=derive_seed(config.seed, mi)),
                             target, jobs))
        for mi, m in enumerate(config.sub_counts)
    ]
