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
    derive_seed,
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
from soesn import two_neuron_ensemble
from soesn.errors import DimensionError, InputError, NumericError
from soesn.experiments import (
    BATCH_WIDTH,
    TrialPlan,
    _map_trials,
    run_plans,
)
from soesn.cli import EXIT_OK, main

from conftest import (
    reference_injection_rows,
    reference_run,
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
        def __init__(self, max_workers):
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


def _trajectories(n, matrix_seed, plans, tau):
    return [rows for tail in run_plans(n, matrix_seed, plans, tau)
            for rows in tail.transpose(1, 0, 2)]


class TestTrialPlans:
    """The batched runner against one Reservoir.run per state: over 30
    steps (the whole run is kept) every state agrees to 1e-12."""

    def _check(self, n, matrix_seed, plans):
        got = _trajectories(n, matrix_seed, plans, 30)
        for plan, rows in zip(plans, got):
            reference = reference_run(n, matrix_seed, plan.rho, plan.leak, plan.state_seed, 30,
                                      two_neuron_ensemble() if plan.injected else None)
            assert np.max(np.abs(rows - reference.rows)) <= 1e-12

    def test_sweep_rows(self):
        self._check(100, derive_seed(4, 0), [TrialPlan(r, a, 77) for a in (0.2, 0.5, 0.8)
                                             for r in (0.6, 0.9, 1.2, 1.5)])

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_injection_arms(self, n):
        self._check(n, derive_seed(5, n), [TrialPlan(1.25, 0.5, 78, arm)
                                           for arm in (False, True)])

    def test_state_pair(self):
        self._check(100, derive_seed(6, 0), [TrialPlan(1.25, 0.5, s) for s in (1, 2)])

    def test_chunks_cover_every_plan_in_order(self):
        plans = [TrialPlan(0.5 + 0.01 * j, 0.5, j) for j in range(2 * BATCH_WIDTH + 3)]
        got = _trajectories(12, 1, plans, 30)
        assert len(got) == len(plans)
        for j in (0, BATCH_WIDTH, len(plans) - 1):
            reference = reference_run(12, 1, plans[j].rho, 0.5, j, 30)
            assert np.max(np.abs(got[j] - reference.rows)) <= 1e-12

    def test_per_unit_leak_rejected(self):
        with pytest.raises(DimensionError):
            next(run_plans(12, 1, [TrialPlan(1.0, np.full(12, 0.5), 0)], 200))


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

    def test_default_parameters_match_paper_setup(self):
        target = gen_lorenz(2)
        assert np.array_equal(target.values[0], [0.0, 1.0, 1.05])


class TestSweepHeatmap:
    def test_single_trial_ratio_is_binary(self):
        config = SweepConfig(leak_values=(0.5,), rho_values=(1.25,), trials=1, n=40, tau=300,
                             seed=5)
        result = sweep_heatmap(config)
        assert result.grid[0, 0] in (0.0, 1.0)

    def test_deterministic_across_calls(self):
        config = SweepConfig(leak_values=(0.3, 0.7), rho_values=(0.8, 1.5), trials=3, n=40,
                             tau=300, seed=11)
        a = sweep_heatmap(config)
        b = sweep_heatmap(config)
        assert np.array_equal(a.grid, b.grid)

    def test_jobs_do_not_change_results(self):
        config = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 1.5), trials=4, n=40,
                             tau=300, seed=13)
        serial = sweep_heatmap(config, jobs=1)
        parallel = sweep_heatmap(config, jobs=2)
        assert np.array_equal(serial.grid, parallel.grid)

    def test_csv_shape(self, tmp_path):
        assert main(["sweep", "--leak-values", "0.3,0.7", "--rho-values", "0.8,1.5,2.0",
                     "--trials", "2", "--n", "30", "--tau", "200", "--seed", "1",
                     "--out", str(tmp_path), "--deterministic"]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "leak,rho,ratio,trials"
        assert len(data) - 1 == 2 * 3

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

        def poisoned(W, states, leak, scale, tau, keep, lead=None):
            # a NaN weight in the leading block of batch row 1 alone
            return real(W, states, leak, scale, tau, keep, lead=([1], [[np.nan]]))

        monkeypatch.setattr(module, "run_batch", poisoned)
        config = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 1.5), trials=1, n=10, tau=200)
        with pytest.raises(NumericError, match=r"cell \(leak=0.5, rho=1.5\) trial 0 failed"):
            sweep_heatmap(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_matches_trial_by_trial_reference(self, jobs):
        leaks, rhos = (0.3, 0.8), (0.8, 1.5, 2.5)
        config = SweepConfig(leak_values=leaks, rho_values=rhos, trials=4, n=30, tau=200, seed=21)
        result = sweep_heatmap(config, jobs=jobs)
        reference = reference_sweep_grid(leaks, rhos, 4, 30, 200, 21)
        assert result.grid.tobytes() == reference.tobytes()
        assert 0.0 < result.grid.mean() < 1.0


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
        from soesn.experiments import rebuild_trial

        sine = gen_sinusoid(400, dt=1.0)
        probe = reproduce_waveform(replace(CONFIG, max_attempts=5, seed=17), sine)
        assert probe.oscillatory
        trajectory, _, _ = rebuild_trial(CONFIG, sine, probe.seed)
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
