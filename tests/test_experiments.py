import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from soesn import (
    InjectConfig,
    ReproduceConfig,
    SweepConfig,
    TargetSignal,
    build_dense,
    derive_seed,
    distribution_from_outcomes,
    gen_lorenz,
    gen_sinusoid,
    gen_square,
    injection_ratio_experiment,
    reproduce_trials,
    reproduce_waveform,
    scale_to_spectral_radius,
    spectral_radius,
    subreservoir_count_outcomes,
    sweep_heatmap,
)
from soesn.errors import DimensionError, InputError, NumericError
from soesn.experiments import (
    BATCH_WIDTH,
    STACK_BYTES,
    _cut_stacks,
    _map_trials,
    run_plans,
)
from soesn.numerics import _blas_threads, _set_blas_threads
from soesn.cli import EXIT_OK, main

from conftest import (
    plan_reference,
    reference_injection_rows,
    reference_sweep_grid,
    rk4_lorenz_oracle_step,
)


@pytest.mark.parametrize("jobs,tasks,cpus,pool", [
    (5000, 2, 8, (2, 1)),      # never more workers than tasks
    (5000, 100, 8, (8, 3)),    # nor than CPUs; chunks are sized for the capped count
    (3, 100, 8, (3, 8)),
    (2, 100, 2, (2, 12)),
    (4, 100, None, None),      # unknown CPU count: serial
    (1, 100, 8, None),
])
def test_worker_count_is_capped(monkeypatch, jobs, tasks, cpus, pool):
    # a recording stand-in for the process pool: maps serially, starts nothing
    import concurrent.futures

    made = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            assert initializer is _set_blas_threads and initargs == (_blas_threads(),)
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            made.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _map_trials(abs, list(range(-tasks, 0)), jobs) == list(range(tasks, 0, -1))
    assert made == ([] if pool is None else [pool])


def _task_blas_threads(task):
    return _blas_threads()


@pytest.mark.parametrize("start", ["fork", "spawn"])
@pytest.mark.parametrize("count", [1, 2])
def test_pool_workers_run_the_callers_blas_threads(monkeypatch, blas_threads, count, start):
    # a spawned worker starts from the environment's count, as a forkserver
    # worker (Python 3.14's default) would; the pool hands it the caller's
    import concurrent.futures
    import multiprocessing
    from functools import partial

    blas_threads(count)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        partial(concurrent.futures.ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context(start)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _map_trials(_task_blas_threads, [0, 1], 2) == [count, count]
    assert _blas_threads() == count


def test_serial_map_keeps_the_callers_blas_threads(two_blas_threads):
    assert _map_trials(_task_blas_threads, [0, 1], 1) == [2, 2]
    assert _blas_threads() == 2


def _trajectories(n, matrix_seed, state_seed, rho, leak, injected, tau):
    """Each plan's kept states, run as a stack of one trial."""
    return [rows for tail in run_plans([(n, matrix_seed, state_seed, "")], rho, leak, injected, tau)
            for rows in tail[:, 0].transpose(1, 0, 2)]


class TestTrialPlans:
    """The batched runner against the float32 update of each plan on its
    factor of the seeded matrix: over 30 steps (the whole run is kept)
    every state agrees to 1e-12. The factor times the matrix is the weight
    matrix one Reservoir.run per state would take."""

    def _check(self, n, matrix_seed, state_seed, rho, leak, injected):
        got = _trajectories(n, matrix_seed, state_seed, rho, leak, injected, 30)
        assert len(got) == len(rho)
        expected = plan_reference(n, matrix_seed, state_seed, rho, leak, injected, 30)
        W = build_dense(n, matrix_seed)
        for j, rows in enumerate(got):
            assert np.max(np.abs(rows - expected[j])) <= 1e-12
            assert np.array_equal(rho[j] / spectral_radius(W) * W,
                                  scale_to_spectral_radius(W, rho[j]))

    def test_sweep_rows(self):
        leak, rho = zip(*[(a, r) for a in (0.2, 0.5, 0.8) for r in (0.6, 0.9, 1.2, 1.5)])
        self._check(100, derive_seed(4, 0), 77, rho, leak, (False,) * len(rho))

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_injection_arms(self, n):
        self._check(n, derive_seed(5, n), 78, (1.25, 1.25), (0.5, 0.5), (False, True))

    def test_chunks_cover_every_plan_in_order(self):
        rho = [0.5 + 0.01 * j for j in range(2 * BATCH_WIDTH + 3)]
        got = _trajectories(12, 1, 7, rho, [0.5] * len(rho), [False] * len(rho), 30)
        assert len(got) == len(rho)
        expected = plan_reference(12, 1, 7, rho, [0.5] * len(rho), [False] * len(rho), 30)
        for j in (0, BATCH_WIDTH, len(rho) - 1):
            assert np.max(np.abs(got[j] - expected[j])) <= 1e-12

    def test_per_unit_leak_rejected(self):
        with pytest.raises(DimensionError):
            next(run_plans([(12, 1, 0, "")], [1.0], [np.full(12, 0.5)], [False], 200))

    def test_no_plans_give_no_batches(self):
        assert list(run_plans([(4, 0, 0, "")], [], [], [], 100)) == []


def _stack_sizes(monkeypatch, experiment, config, jobs=1):
    """The trial count of each stack `experiment(config, jobs)` classifies,
    with stand-ins that run nothing and start no pool, on 8 CPUs."""
    import soesn.experiments as module

    sizes = []

    def record(stack, rho, leak, injected, tau):
        assert len({n for n, *_ in stack}) == 1
        assert len(rho) == len(leak) == len(injected)
        sizes.append(len(stack))
        return np.zeros((len(stack), len(rho)), dtype=bool)

    def serial(worker, tasks, jobs):
        return list(map(worker, tasks))

    monkeypatch.setattr(module, "classify_stack", record)
    monkeypatch.setattr(module, "_map_trials", serial)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    experiment(config, jobs)
    return sizes


class TestStackCut:
    """Trials that share n run as stacks of at most BATCH_WIDTH states and
    STACK_BYTES of weights, as few as fit and a multiple of the worker
    count, with sizes that differ by at most one."""

    SWEEP = SweepConfig(leak_values=(0.2, 0.5, 0.8), rho_values=(0.6, 0.9, 1.2, 1.5),
                        trials=12, n=100, tau=1000)

    def test_sweep_benchmark_config_gives_three_stacks_of_four(self, monkeypatch):
        assert _stack_sizes(monkeypatch, sweep_heatmap, self.SWEEP) == [4, 4, 4]

    def test_sweep_benchmark_config_at_two_workers_gives_four_stacks_of_three(self, monkeypatch):
        assert _stack_sizes(monkeypatch, sweep_heatmap, self.SWEEP, jobs=2) == [3, 3, 3, 3]

    def test_injection_stacks_by_population(self, monkeypatch):
        # n=10: 32 width-2 trials fill BATCH_WIDTH; n=500: one 2 MB matrix
        # is over STACK_BYTES, so no trial shares its stack
        config = InjectConfig(populations=(10, 500), trials=64, tau=200)
        assert _stack_sizes(monkeypatch, injection_ratio_experiment, config) == \
            [32, 32] + [1] * 64

    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch):
        # 5 width-2 trials per run fit one stack: 1, 2 and 3 workers cut
        # each run into 1, 2 and 3 stacks, and 3 CPUs let jobs=3 start 3
        import soesn.experiments as module

        counts = []

        def counted(tasks, width, workers):
            stacks = _cut_stacks(tasks, width, workers)
            counts.append(len(stacks))
            return stacks

        monkeypatch.setattr(module, "_cut_stacks", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        sweep = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 1.5), trials=5, n=30, tau=200,
                            seed=2)
        inject = InjectConfig(populations=(4, 12), trials=5, tau=200, seed=2)
        grids = [sweep_heatmap(sweep, jobs).tobytes() for jobs in (1, 2, 3)]
        ratios = [repr(injection_ratio_experiment(inject, jobs)) for jobs in (1, 2, 3)]
        assert counts == [1, 2, 3] + [2, 4, 6]
        assert grids[0] == grids[1] == grids[2]
        assert ratios[0] == ratios[1] == ratios[2]

    @pytest.mark.parametrize("n", [2, 100, 200, 500])
    @pytest.mark.parametrize("width", [1, 2, 12, 65])
    @pytest.mark.parametrize("trials", [1, 7, 200])
    def test_stacks_keep_their_budgets(self, n, width, trials):
        tasks = [(n, t, 0, "") for t in range(trials)]
        most = max(1, min(BATCH_WIDTH // width, STACK_BYTES // (8 * n * n)))
        fewest = -(-trials // most)
        for workers in (1, 2, 3):
            stacks = _cut_stacks(tasks, width, workers)
            assert [task for stack in stacks for task in stack] == tasks
            sizes = [len(stack) for stack in stacks]
            assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
            assert len(stacks) == min(trials, -(-fewest // workers) * workers)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_order_and_value_sensitivity(self):
        seeds = {
            derive_seed(0), derive_seed(1), derive_seed(0, 0), derive_seed(0, 1),
            derive_seed(1, 0), derive_seed(0, 0, 0), derive_seed(0, 1, 0),
            derive_seed(0, 0, 1),
        }
        assert len(seeds) == 8


class TestSinusoid:
    def test_literal_ode_antiderivative(self):
        dt = np.pi / 10.0
        target = gen_sinusoid(20, dt=dt, mode="literal_ode")
        assert target.values[0, 0] == 0.0
        assert target.values[10, 0] == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_literal_ode_monotone(self):
        target = gen_sinusoid(500, dt=0.1, mode="literal_ode")
        assert np.all(np.diff(target.values[:, 0]) >= -1e-12)

    def test_pure_sine_sample(self):
        target = gen_sinusoid(10, dt=0.25, mode="pure_sine", freq=1.0)
        assert target.values[1, 0] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            gen_sinusoid(10, 0.1, mode="triangle")

    def test_target_spread_must_be_finite(self):
        # finite samples too large to square
        with pytest.raises(InputError, match="standard deviation"):
            TargetSignal("wide", 1.0, np.array([-1e300, 1e300]))


class TestSquare:
    def test_sample_values(self):
        target = gen_square(10, dt=0.05)
        assert target.values[1, 0] == 1.0   # t=0.05: sin(pi/2)
        assert target.values[3, 0] == -1.0  # t=0.15: sin(3pi/2)
        assert target.values[2, 0] == 0.0   # t=0.10: sin(pi) -> sgn(0)

    def test_value_set(self):
        target = gen_square(1000, dt=0.01)
        assert set(np.unique(target.values)) <= {-1.0, 0.0, 1.0}


class TestLorenz:
    def test_first_step_matches_tableau_oracle(self):
        target = gen_lorenz(2, dt=0.01)
        oracle = rk4_lorenz_oracle_step((0.0, 1.0, 1.05), 0.01)
        assert np.max(np.abs(target.values[1] - oracle)) <= 1e-12

    def test_origin_is_fixed_point(self):
        target = gen_lorenz(50, dt=0.01, x0=(0.0, 0.0, 0.0))
        assert np.all(target.values == 0.0)

    def test_subcritical_alpha_decays(self):
        target = gen_lorenz(5000, dt=0.01, x0=(0.1, 0.1, 0.1), alpha=0.5)
        assert np.linalg.norm(target.values[-1]) < 1e-3

    def test_divergence_raises_with_step_index(self):
        with pytest.raises(NumericError, match="step"):
            gen_lorenz(1000, dt=1.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, dt):
        # a NaN or infinite step used to pass and "diverge" at step 1
        with pytest.raises(InputError, match="dt must be finite and positive"):
            gen_lorenz(10, dt=dt)

    def test_default_parameters_match_paper_setup(self):
        target = gen_lorenz(2)
        assert np.array_equal(target.values[0], [0.0, 1.0, 1.05])


class TestSweepHeatmap:
    def test_single_trial_ratio_is_binary(self):
        config = SweepConfig(leak_values=(0.5,), rho_values=(1.25,), trials=1, n=40, tau=300,
                             seed=5)
        grid = sweep_heatmap(config)
        assert grid[0, 0] in (0.0, 1.0)

    def test_deterministic_across_calls(self):
        config = SweepConfig(leak_values=(0.3, 0.7), rho_values=(0.8, 1.5), trials=3, n=40,
                             tau=300, seed=11)
        a = sweep_heatmap(config)
        b = sweep_heatmap(config)
        assert np.array_equal(a, b)

    def test_jobs_do_not_change_results(self):
        config = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 1.5), trials=4, n=40,
                             tau=300, seed=13)
        serial = sweep_heatmap(config, jobs=1)
        parallel = sweep_heatmap(config, jobs=2)
        assert np.array_equal(serial, parallel)

    def test_csv_shape(self, tmp_path):
        assert main(["sweep", "--leak-values", "0.3,0.7", "--rho-values", "0.8,1.5,2.0",
                     "--trials", "2", "--n", "30", "--tau", "200", "--seed", "1",
                     "--out", str(tmp_path), "--deterministic"]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "leak,rho,ratio,trials"
        assert len(data) - 1 == 2 * 3

    @pytest.mark.parametrize("cells,rows,cols", [
        (1, 1, 1), (2, 1, 2), (6, 2, 3), (7, 2, 3), (100, 3, 3),
    ])
    def test_cells_trim_the_grid_when_built(self, cells, rows, cols):
        grid = dict(trials=1, n=20, tau=200, seed=4, cells=cells)
        leaks, rhos = (0.1, 0.3, 0.5), (0.8, 1.2, 1.5)
        capped = SweepConfig(leak_values=leaks, rho_values=rhos, **grid)
        assert capped == SweepConfig(leak_values=leaks[:rows], rho_values=rhos[:cols], **grid)
        # the trim is idempotent: a variant or a rerun from the echo keeps it
        for config in (capped, replace(capped, seed=5)):
            assert (config.leak_values, config.rho_values) == (leaks[:rows], rhos[:cols])
        assert SweepConfig.from_dict(json.loads(json.dumps(capped.to_dict()))) == capped
        assert sweep_heatmap(capped).shape == (rows, cols)

    def test_validation(self):
        with pytest.raises(InputError):
            SweepConfig(leak_values=(1.5,), rho_values=(1.0,), trials=1, n=10)
        with pytest.raises(InputError):
            SweepConfig(leak_values=(0.5,), rho_values=(-1.0,), trials=1, n=10)
        with pytest.raises(InputError):
            SweepConfig(leak_values=(0.5,), rho_values=(1.0,), trials=0, n=10)

    def test_trial_errors_carry_cell_context(self, monkeypatch):
        import soesn.experiments as module

        def boom(n, seed):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(module, "build_dense", boom)
        with pytest.raises(NumericError, match=r"cell \(leak=0.5, rho=1.5\)"):
            sweep_heatmap(SweepConfig(leak_values=(0.5,), rho_values=(1.5,), trials=1, n=10,
                                      tau=200))

    def test_failing_run_names_its_cell_and_trial(self, monkeypatch):
        import soesn.experiments as module

        real = module.run_batch

        def poisoned(W, states, leak, scale, tau, keep, injected=None):
            # NaN weights in batch row 1 alone, of every trial in the stack
            scale = np.array(scale)
            scale[..., 1] = np.nan
            return real(W, states, leak, scale, tau, keep, injected)

        monkeypatch.setattr(module, "run_batch", poisoned)
        config = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 1.5), trials=1, n=10, tau=200)
        with pytest.raises(NumericError, match=r"cell \(leak=0.5, rho=1.5\) trial 0 failed"):
            sweep_heatmap(config)

    def test_unscalable_cell_is_named(self):
        # the factor to 1e308 overflows; the first cell's factor would not
        config = SweepConfig(leak_values=(0.5,), rho_values=(0.5, 1e308, 2.0), trials=1, n=1,
                             tau=200)
        with pytest.raises(NumericError, match=r"^sweep cell \(leak=0.5, rho=1e\+308\) trial 0 "
                                               r"failed: the scale factor to radius 1e\+308"):
            sweep_heatmap(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_matches_trial_by_trial_reference(self, jobs):
        leaks, rhos = (0.3, 0.8), (0.8, 1.5, 2.5)
        config = SweepConfig(leak_values=leaks, rho_values=rhos, trials=4, n=30, tau=200, seed=21)
        grid = sweep_heatmap(config, jobs=jobs)
        reference = reference_sweep_grid(leaks, rhos, 4, 30, 200, 21)
        assert grid.tobytes() == reference.tobytes()
        assert 0.0 < grid.mean() < 1.0


class TestInjectionExperiment:
    def test_population_two_always_oscillates_with_injection(self):
        rows = injection_ratio_experiment(InjectConfig(populations=(2,), trials=20, tau=1000,
                                                       seed=3))
        assert rows[0].ratio_with == 1.0

    def test_deterministic(self):
        config = InjectConfig(populations=(4, 10), trials=5, tau=300, seed=9)
        a = injection_ratio_experiment(config)
        b = injection_ratio_experiment(config)
        assert [(r.ratio_without, r.ratio_with) for r in a] == [
            (r.ratio_without, r.ratio_with) for r in b
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ratios_match_trial_by_trial_reference(self, jobs):
        config = InjectConfig(populations=(4, 12, 30), trials=6, tau=200, rho=1.25, leak=0.5,
                              seed=4)
        rows = injection_ratio_experiment(config, jobs=jobs)
        reference = reference_injection_rows([4, 12, 30], 6, 200, 1.25, 0.5, 4)
        got = [(r.population, r.ratio_without, r.ratio_with) for r in rows]
        assert repr(got) == repr(reference)
        assert len({(w, i) for _, w, i in reference}) > 1

    def test_trial_errors_carry_cell_context(self, monkeypatch):
        import soesn.experiments as module

        def boom(n, seed):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(module, "build_dense", boom)
        with pytest.raises(NumericError, match=r"cell \(population=4\) trial 0"):
            injection_ratio_experiment(InjectConfig(populations=(4,), trials=1, tau=200))

    def test_failing_run_names_its_cell_and_trial(self, monkeypatch):
        import soesn.experiments as module

        real = module.run_batch

        def poisoned(W, states, leak, scale, tau, keep, injected=None):
            # NaN weights in the injected arm of the stack's last trial alone
            scale = np.array(scale)
            scale[-1, 1] = np.nan
            return real(W, states, leak, scale, tau, keep, injected)

        monkeypatch.setattr(module, "run_batch", poisoned)
        config = InjectConfig(populations=(4,), trials=3, tau=200)
        with pytest.raises(NumericError, match=r"cell \(population=4\) trial 2 failed"):
            injection_ratio_experiment(config)

    def test_population_below_two_rejected(self):
        with pytest.raises(InputError):
            InjectConfig(populations=(1,), trials=2, tau=200)

    def test_csv_schema(self, tmp_path):
        assert main(["inject-experiment", "--populations", "4", "--trials", "2", "--tau", "200",
                     "--seed", "1", "--out", str(tmp_path), "--deterministic"]) == EXIT_OK
        lines = (tmp_path / "injection.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "population,ratio_without,ratio_with"
        assert len(data) == 2


CONFIG = ReproduceConfig(n=60, sub_count=3)


class TestReproduceWaveform:
    def test_realizable_target_fits_exactly(self):
        # a pre-trained model's own prediction is exactly representable; the
        # unregularized (lambda -> 0) refit must reach numerically zero error.
        # Ridge shrinkage at lambda = 1e-8 cannot get below ~1e-8 on these
        # collinear state matrices, so representability is checked at the
        # least-squares limit.
        from soesn import predict, train_ridge
        from soesn.experiments import _attempt_reservoir

        sine = gen_sinusoid(400, dt=1.0)
        probe = reproduce_waveform(replace(CONFIG, max_attempts=5, seed=17), sine)
        assert probe.oscillatory
        trajectory = _attempt_reservoir(CONFIG, probe.seed).run(sine.length - 1)
        pre_trained = train_ridge(trajectory.rows, sine.values, 1.0, 100)
        realizable = TargetSignal("realizable", 1.0, predict(pre_trained, trajectory.rows))
        with pytest.warns(UserWarning, match="least squares"):
            outcome = reproduce_waveform(
                replace(CONFIG, ridge_lambda=0.0, max_attempts=5, seed=17), realizable
            )
        assert outcome.oscillatory
        assert outcome.train_nrmse[0] <= 1e-10

    def test_zero_attempts_exhausts_immediately(self):
        sine = gen_sinusoid(300, dt=1.0)
        outcome = reproduce_waveform(replace(CONFIG, max_attempts=0, seed=1), sine)
        assert not outcome.oscillatory
        assert outcome.attempt_count == 0
        assert outcome.train_nrmse is None

    def test_target_shorter_than_washout_rejected(self):
        sine = gen_sinusoid(50, dt=1.0)
        with pytest.raises(InputError):
            reproduce_waveform(replace(CONFIG, washout=100), sine)

    def test_outcome_json_shape(self):
        sine = gen_sinusoid(300, dt=1.0)
        outcome = reproduce_waveform(replace(CONFIG, max_attempts=5, seed=2), sine)
        payload = asdict(outcome)
        assert set(payload) == {"attempt_count", "oscillatory", "train_nrmse", "seed"}

    def test_trials_are_deterministic_and_job_independent(self):
        sine = gen_sinusoid(300, dt=1.0)
        config = replace(CONFIG, trials=3, seed=8)
        serial = reproduce_trials(config, sine, jobs=1)
        parallel = reproduce_trials(config, sine, jobs=2)
        assert serial == parallel


def sub_count_distributions(sub_counts, target, trials, base_seed):
    config = ReproduceConfig(n=48, sub_counts=tuple(sub_counts), trials=trials, seed=base_seed)
    return [
        distribution_from_outcomes(m, outcomes)
        for m, outcomes in subreservoir_count_outcomes(config, target)
    ]


class TestSubCountSweep:
    def test_includes_single_block_baseline_and_determinism(self):
        sine = gen_sinusoid(300, dt=1.0)
        a = sub_count_distributions([1, 4], sine, trials=3, base_seed=5)
        b = sub_count_distributions([1, 4], sine, trials=3, base_seed=5)
        assert [d.sub_count for d in a] == [1, 4]
        assert a == b

    def test_counts_share_one_pool(self, monkeypatch):
        import soesn.experiments as module

        pools = []

        def counted(worker, tasks, jobs):
            pools.append(len(tasks))
            return _map_trials(worker, tasks, jobs)

        sine = gen_sinusoid(300, dt=1.0)
        config = ReproduceConfig(n=48, sub_counts=(1, 4), trials=3, seed=5)
        monkeypatch.setattr(module, "_map_trials", counted)
        parallel = subreservoir_count_outcomes(config, sine, jobs=2)
        assert pools == [6]
        assert subreservoir_count_outcomes(config, sine, jobs=1) == parallel
        assert [m for m, _ in parallel] == [1, 4]
        for mi, (m, outcomes) in enumerate(parallel):
            count = replace(config, sub_count=m, seed=derive_seed(config.seed, mi))
            assert outcomes == reproduce_trials(count, sine)

    def test_boxplot_csv_rows(self, tmp_path):
        assert main(["reproduce", "--n", "48", "--sub-counts", "1,4", "--trials", "3",
                     "--tau", "300", "--seed", "5", "--out", str(tmp_path),
                     "--deterministic"]) == EXIT_OK
        lines = (tmp_path / "boxplot.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "sub_count,trial,oscillatory,nrmse"
        assert len(data) == 1 + 2 * 3

    def test_quartiles_of_empty_distribution_are_nan(self):
        from soesn.experiments import SubCountDistribution
        empty = SubCountDistribution(4, (), 3)
        assert all(math.isnan(q) for q in empty.quartiles())
