import io
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soesn import (
    Reservoir,
    StateTrajectory,
    classify_trajectory,
    init_state,
    run_batch,
    scale_to_spectral_radius,
    spectral_radius,
)
from soesn.errors import DimensionError, InputError, NumericError
from soesn.oscillation import classify_states
from soesn.reservoir import STATE_FLOOR
from soesn._csv17g import fast_lines
from soesn.topology import TWO_NEURON_ENSEMBLE, build_dense, inject_ensemble

from conftest import float32_update, fstring_write_csv


class FakeRng:
    """Stub generator: first draw is all zeros, then it delegates."""

    def __init__(self, seed=0):
        self.calls = 0
        self.real = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        self.calls += 1
        if self.calls == 1:
            return np.zeros(size)
        return self.real.uniform(low, high, size=size)


class TestInitState:
    def test_deterministic(self):
        assert np.array_equal(init_state(5, seed=42), init_state(5, seed=42))

    def test_uniform_bounds_and_mean(self):
        state = init_state(1000, seed=3)
        assert state.min() >= -0.5 and state.max() <= 0.5
        assert -0.05 <= state.mean() <= 0.05

    def test_zero_units_rejected(self):
        with pytest.raises(InputError):
            init_state(0, seed=1)

    def test_all_zero_draw_is_redrawn(self):
        fake = FakeRng()
        state = init_state(3, rng=fake)
        assert fake.calls == 2
        assert np.max(np.abs(state)) >= 1e-6


f32 = np.float32


def two_unit_reservoir(leak=0.5, state=(0.3, -0.2)):
    W = scale_to_spectral_radius(np.array([[1.0, 1.0], [-1.0, 1.0]]), 1.25)
    return Reservoir(W, leak, np.array(state))


class TestStep:
    def test_leak_half_no_weights(self):
        r = Reservoir(np.zeros((1, 1)), 0.5, np.array([1.0]))
        r.run(1)
        assert r.state[0] == pytest.approx(0.5, abs=1e-15)

    def test_full_leak_erases_state(self):
        r = Reservoir(np.zeros((1, 1)), 1.0, np.array([0.8]))
        r.run(1)
        assert r.state[0] == 0.0

    def test_scalar_arithmetic_oracle(self):
        # hand-rolled elementwise evaluation of the update rule, in float32
        r = two_unit_reservoir()
        s, half, x0, x1 = f32(1.25 / math.sqrt(2.0)), f32(0.5), f32(0.3), f32(-0.2)
        expected0 = half * x0 + half * np.tanh(s * x0 + s * x1)
        expected1 = half * x1 + half * np.tanh(-s * x0 + s * x1)
        r.run(1)
        assert r.state[0] == pytest.approx(expected0, abs=1e-15)
        assert r.state[1] == pytest.approx(expected1, abs=1e-15)

    def test_weights_and_leak_untouched(self):
        r = two_unit_reservoir()
        W_before, leak_before = r.W.copy(), r.leak.copy()
        r.run(1)
        assert np.array_equal(r.W, W_before)
        assert np.array_equal(r.leak, leak_before)
        assert r.step_count == 1

    def test_non_finite_names_unit(self):
        r = two_unit_reservoir()
        r.W = r.W.copy()
        r.W[1, 0] = np.nan
        with pytest.raises(NumericError, match="unit 1"):
            r.run(1)

    def test_leak_one_reduces_to_tanh(self, rng):
        W = rng.uniform(-0.5, 0.5, (20, 20))
        state = rng.uniform(-0.5, 0.5, 20)
        r = Reservoir(W, 1.0, state)
        r.run(1)
        assert np.array_equal(r.state, np.tanh(W.astype(f32) @ state.astype(f32)))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            Reservoir(np.ones((2, 3)), 0.5, np.zeros(2))

    def test_rejects_zero_units(self):
        with pytest.raises(DimensionError):
            Reservoir(np.zeros((0, 0)), 0.5, np.zeros(0))

    def test_rejects_out_of_range_leak(self):
        with pytest.raises(InputError):
            Reservoir(np.zeros((2, 2)), 1.5, np.zeros(2))
        with pytest.raises(InputError):
            Reservoir(np.zeros((2, 2)), np.array([0.5, 0.0]), np.zeros(2))

    def test_rejects_state_outside_unit_interval(self):
        with pytest.raises(InputError):
            Reservoir(np.zeros((2, 2)), 0.5, np.array([1.5, 0.0]))

    def test_scalar_leak_broadcasts(self):
        r = Reservoir(np.zeros((3, 3)), 0.25, np.zeros(3))
        assert np.array_equal(r.leak, np.full(3, 0.25))


class TestRun:
    def test_single_step_matches_manual(self):
        r1, r2 = two_unit_reservoir(), two_unit_reservoir()
        trajectory = r1.run(1)
        r2.run(1)
        assert trajectory.steps == 2
        assert np.array_equal(trajectory.rows[1], r2.state)

    def test_run_composition(self):
        r1, r2 = two_unit_reservoir(), two_unit_reservoir()
        full = r1.run(100)
        first = r2.run(60)
        second = r2.run(40)
        assert np.array_equal(full.rows[:61], first.rows)
        assert np.array_equal(full.rows[60:], second.rows)

    def test_damped_reservoir_settles(self):
        W = scale_to_spectral_radius(build_dense(100, seed=5), 0.5)
        r = Reservoir(W, 0.5, init_state(100, seed=6))
        trajectory = r.run(1000)
        tail = trajectory.rows[-100:]
        assert np.all(tail.std(axis=0) < 1e-4)
        assert not classify_trajectory(trajectory).reservoir_is_self_oscillatory

    def test_tau_zero_rejected(self):
        with pytest.raises(InputError):
            two_unit_reservoir().run(0)

    def test_run_reports_failing_timestep(self):
        r = two_unit_reservoir()
        r.W = r.W.copy()
        r.W[0, 0] = np.nan
        with pytest.raises(NumericError, match="step 1"):
            r.run(5)

    def test_overflowing_drive_saturates(self):
        # the weights round to inf in float32, so W @ x is inf on every
        # step; tanh takes it to 1, quietly, and each step is x / 2 + 1 / 2
        W, state = np.full((2, 2), 1e308), [0.9, 0.95]
        rows = Reservoir(W, 0.5, state).run(5).rows
        expected = np.array(state, f32)
        for _ in range(5):
            expected = f32(0.5) * expected + f32(0.5)
        assert np.allclose(rows[-1], expected, rtol=0, atol=1e-15)
        stepped = Reservoir(W, 0.5, state)
        assert np.array_equal([stepped.run(1).rows[-1] for _ in range(5)], rows[1:])

    def test_weights_beyond_float32_round_to_inf(self):
        # 1e39 is finite in float64 and inf in float32, quietly: against a
        # zero state it gives inf * 0, a NaN drive, on the first step
        r = Reservoir(np.full((2, 2), 1e39), 0.5, [0.0, 0.5])
        with pytest.raises(NumericError, match="unit 0 on step 1"):
            r.run(5)
        assert r.step_count == 0 and r.state.tolist() == [0.0, 0.5]

    def test_failed_run_stops_at_last_finite_state(self):
        # unit 1's drive becomes inf - inf once the two states differ in sign,
        # which first happens on step 3
        W = np.array([[0.9, -1.5], [np.inf, np.inf]])
        stepped, r = Reservoir(np.eye(2), 0.5, [0.3, 0.2]), Reservoir(np.eye(2), 0.5, [0.3, 0.2])
        stepped.W = r.W = W
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError) as expected:
                while True:
                    stepped.run(1)
            with pytest.raises(NumericError, match="unit 1 on step 3") as raised:
                r.run(50)
        assert str(raised.value) == str(expected.value)
        assert r.step_count == stepped.step_count == 2
        assert np.array_equal(r.state, stepped.state)

    @pytest.mark.parametrize("n", [2, 64, 200])
    @pytest.mark.parametrize("vector_leak", [False, True])
    def test_run_is_repeated_step_bit_for_bit(self, n, vector_leak):
        rng = np.random.default_rng(n)
        W = scale_to_spectral_radius(build_dense(n, seed=n), 1.3)
        leak = rng.uniform(0.05, 1.0, n) if vector_leak else 0.4
        state = init_state(n, seed=n)
        trajectory = Reservoir(W, leak, state).run(300)
        stepped = Reservoir(W, leak, state)
        rows = [stepped.state] + [stepped.run(1).rows[-1] for _ in range(300)]
        assert trajectory.rows.tobytes() == np.array(rows).tobytes()

    def test_determinism_bit_exact(self):
        t1 = two_unit_reservoir().run(500)
        t2 = two_unit_reservoir().run(500)
        assert np.array_equal(t1.rows, t2.rows)

    def test_state_boundedness(self, rng):
        for rho in (0.5, 1.25, 2.5):
            W = scale_to_spectral_radius(rng.uniform(-0.5, 0.5, (50, 50)), rho)
            trajectory = Reservoir(W, 0.7, init_state(50, seed=9)).run(300)
            assert np.max(np.abs(trajectory.rows)) <= 1.0

    def test_washout_frequency_invariance(self):
        # fixed self-oscillatory reservoir, two unrelated initial states:
        # every oscillating unit keeps its dominant bin within one
        W = scale_to_spectral_radius(build_dense(100, seed=0), 1.25)
        reports = []
        for seed in (21, 22):
            trajectory = Reservoir(W, 0.5, init_state(100, seed=seed)).run(1000)
            reports.append(classify_trajectory(trajectory))
        assert all(r.reservoir_is_self_oscillatory for r in reports)
        for u1, u2 in zip(reports[0].per_unit, reports[1].per_unit):
            if u1.is_oscillating and u2.is_oscillating:
                assert abs(u1.dominant_bin - u2.dominant_bin) <= 1


class TestRunBatch:
    def _rows(self, n=40, batch=5):
        W = build_dense(n, seed=3)
        states = np.array([init_state(n, seed=s) for s in range(batch)])
        scale = np.linspace(0.05, 0.3, batch)
        leak = np.linspace(0.2, 1.0, batch)
        return W, states, leak, scale

    def test_rows_match_reservoir_runs(self):
        # each row runs the update at its own scale and leak on the batch's
        # one float32 product; a power-of-two scale factors out of the
        # product exactly, so a width-1 batch then runs as Reservoir does on
        # the scaled weights
        W, states, leak, scale = self._rows()
        tail = run_batch(W, states, leak, scale, 30, 31)
        expected = float32_update(W, states, leak, scale, 30)
        for j in range(len(states)):
            assert np.max(np.abs(tail[:, j] - expected[:, j])) <= 1e-12
            row = run_batch(W, states[j:j + 1], leak[j:j + 1], [2.0 ** -j], 30, 31)[:, 0]
            alone = Reservoir(2.0 ** -j * W, leak[j], states[j]).run(30).rows
            assert np.max(np.abs(row - alone)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 100, 512])
    def test_width_one_row_is_reservoir_run_bit_for_bit(self, n):
        W = scale_to_spectral_radius(build_dense(n, seed=n), 1.3)
        state = init_state(n, seed=n)
        tail = run_batch(W, state[None], [0.4], [1.0], 300, 301)
        assert tail[:, 0].tobytes() == Reservoir(W, 0.4, state).run(300).rows.tobytes()

    def test_keeps_the_last_states(self):
        W, states, leak, scale = self._rows()
        whole = run_batch(W, states, leak, scale, 150, 151)
        for keep in (1, 2, 100):
            assert np.array_equal(run_batch(W, states, leak, scale, 150, keep),
                                  whole[-keep:])

    def test_injected_rows_run_the_ensemble(self):
        # the injected rows' corrected leading drives are those of
        # inject_ensemble's weights, in float64 before they are rounded, and
        # the rows run the float32 update with that correction
        W, states, leak, scale = self._rows()
        injected = np.isin(np.arange(len(states)), [1, 3])
        tail = run_batch(W, states, leak, scale, 30, 31, injected)
        expected = float32_update(W, states, leak, scale, 30, injected)
        for j in range(len(states)):
            assert np.max(np.abs(tail[:, j] - expected[:, j])) <= 1e-12
            weights = inject_ensemble(scale[j] * W) if injected[j] else scale[j] * W
            corrected = scale[j] * W
            if injected[j]:
                corrected[:2, :2] += TWO_NEURON_ENSEMBLE - scale[j] * W[:2, :2]
            assert np.max(np.abs(corrected - weights)) <= 1e-12

    def test_overflowing_drive_saturates(self):
        tail = run_batch(np.ones((2, 2)), [[0.9, 0.95]], [0.5], [1e308], 5, 6)
        alone = Reservoir(np.full((2, 2), 1e308), 0.5, [0.9, 0.95]).run(5).rows
        assert np.array_equal(tail[:, 0], alone)

    def test_scale_beyond_float32_rounds_to_inf(self):
        # each row's scale is rounded to float32 once: row 1's 1e39 is inf,
        # and its zero drive times inf is NaN
        states = np.array([[0.9, 0.95], [0.0, 0.0]])
        with pytest.raises(NumericError, match="batch row 1") as caught:
            run_batch(np.ones((2, 2)), states, [0.5, 0.5], [0.5, 1e39], 5, 6)
        assert caught.value.row == 1

    def test_damped_stack_keeps_no_subnormal_state(self):
        # float32 arithmetic on subnormals runs many times slower, and a
        # damped state decays into them unless it is flushed to 0 below
        # STATE_FLOOR, which leaves room for its products with the weights
        n, stack, batch = 100, 2, 6
        W = np.array([build_dense(n, seed=g) for g in range(stack)])
        scale = np.array([[0.6 / spectral_radius(w)] * batch for w in W])
        states = np.array([[init_state(n, seed=g * batch + j) for j in range(batch)]
                           for g in range(stack)])
        tail = run_batch(W, states, np.full((stack, batch), 0.2), scale, 1000, 1000)
        size = np.abs(tail)
        assert not np.any((size > 0.0) & (size < STATE_FLOOR))
        assert STATE_FLOOR > 2.0 ** 16 * np.finfo(f32).tiny
        assert np.all(tail[-1] == 0.0)  # every state decayed through the floor

    def test_non_finite_state_names_its_row(self):
        W, states, leak, scale = self._rows()
        scale[[2, 4]] = np.nan  # rows 2 and 4 run NaN weights
        with pytest.raises(NumericError, match="batch row 2") as caught:
            run_batch(W, states, leak, scale, 200, 100)
        assert caught.value.row == 2

    def test_bad_arguments_rejected(self):
        W, states, leak, scale = self._rows()
        with pytest.raises(InputError):
            run_batch(W, states, leak, scale, 10, 12)
        with pytest.raises(InputError):
            run_batch(W, states, leak, scale, 0, 1)
        with pytest.raises(DimensionError):
            run_batch(W[:-1, :-1], states, leak, scale, 10, 5)
        with pytest.raises(DimensionError):
            run_batch(W, states[0], leak[:1], scale[:1], 10, 5)
        with pytest.raises(DimensionError):  # one leak per unit, not per row
            run_batch(W, states, np.full(len(W), 0.5), scale, 10, 5)
        with pytest.raises(DimensionError):
            run_batch(W, states, leak, scale[:-1], 10, 5)
        flags = [False, True, False, False, False]
        for bad in (flags[:-1], [0, 1, 0, 0, 0]):  # one per row, and bools
            with pytest.raises(DimensionError, match="injected"):
                run_batch(W, states, leak, scale, 10, 5, bad)
        with pytest.raises(DimensionError, match="injected"):  # no 2 x 2 block at n = 1
            run_batch(np.eye(1), states[:, :1], leak, scale, 10, 5, flags)
        for bad in (0.0, 1.5, np.nan):
            with pytest.raises(InputError, match="leak"):
                run_batch(W, states, np.where(leak == leak[2], bad, leak), scale, 10, 5)
        for bad in (1.5, np.nan):
            outside = states.copy()
            outside[3, 1] = bad
            with pytest.raises(InputError, match="state"):
                run_batch(W, outside, leak, scale, 10, 5)

    @pytest.mark.parametrize("n", [2, 4, 30, 100])
    @pytest.mark.parametrize("batch", [1, 2, 12])
    @pytest.mark.parametrize("stack", [1, 2, 5])
    def test_stack_is_one_call_per_batch_bit_for_bit(self, n, batch, stack):
        # a state's bits do not depend on the batches it is stacked with,
        # injected rows (every other one, from the second) included
        W = np.array([build_dense(n, seed=10 * n + g) for g in range(stack)])
        states = np.array([[init_state(n, seed=g * batch + j) for j in range(batch)]
                           for g in range(stack)])
        scale = np.linspace(0.5, 2.0, stack * batch).reshape(stack, batch) / np.sqrt(n)
        leak = np.linspace(0.3, 1.0, stack * batch).reshape(stack, batch)
        injected = (np.arange(stack * batch) % 2 == 1).reshape(stack, batch)
        tail = run_batch(W, states, leak, scale, 60, 40, injected)
        assert tail.shape == (40, stack, batch, n)
        for g in range(stack):
            alone = run_batch(W[g], states[g], leak[g], scale[g], 60, 40, injected[g])
            assert tail[:, g].tobytes() == alone.tobytes()

    def test_stack_matches_a_broadcasting_loop_bit_for_bit(self):
        # the plain float32 update with each row's leak and scale broadcast
        # over its units, and the injected rows' two leading drives corrected
        # to the ensemble; leak and scale are read-only, so a write would raise
        stack, batch, n, tau = 3, 4, 30, 50
        W = np.array([build_dense(n, seed=g) for g in range(stack)])
        x = np.array([[init_state(n, seed=g * batch + j) for j in range(batch)]
                      for g in range(stack)])
        scale = np.linspace(0.5, 2.0, stack * batch).reshape(stack, batch) / np.sqrt(n)
        leak = np.linspace(0.3, 1.0, stack * batch).reshape(stack, batch)
        injected = np.zeros((stack, batch), bool)
        injected[[0, 2, 2], [1, 0, 3]] = True
        scale.setflags(write=False)
        leak.setflags(write=False)
        tail = run_batch(W, x, leak, scale, tau, tau + 1, injected)
        assert tail.tobytes() == float32_update(W, x, leak, scale, tau, injected).tobytes()

    def test_non_finite_state_names_its_stack_entry(self):
        W, states, leak, scale = self._rows()
        stacked = [np.stack([a, a]) for a in (W, states, leak, scale)]
        stacked[3][1, 3] = np.nan  # row 3 of the second batch runs NaN weights
        with pytest.raises(NumericError, match="batch row 3 of stack entry 1") as caught:
            run_batch(*stacked, 200, 100)
        assert (caught.value.stack, caught.value.row) == (1, 3)

    def test_bad_stacks_rejected(self):
        W, states, leak, scale = self._rows()
        W2, x2, leak2, scale2 = (np.stack([a, a]) for a in (W, states, leak, scale))
        with pytest.raises(DimensionError, match="weight"):  # one matrix per batch
            run_batch(W, x2, leak2, scale2, 10, 5)
        with pytest.raises(DimensionError, match="weight"):
            run_batch(W2[:1], x2, leak2, scale2, 10, 5)
        with pytest.raises(DimensionError, match="per row"):  # one scale per row, not per batch
            run_batch(W2, x2, leak2, scale2[:, 0], 10, 5)
        with pytest.raises(DimensionError, match="states"):
            run_batch(W2[None], x2[None], leak2[None], scale2[None], 10, 5)

    def test_stacked_verdicts_match_per_trajectory_reports(self):
        W, states, leak, scale = self._rows(batch=8)
        scale = np.linspace(0.2, 1.2, 8)  # radius 0.37 to 2.2: damped and oscillating rows
        tail = run_batch(W, states, leak, scale, 400, 100)
        kept = tail.copy()
        verdicts = classify_states(tail)
        reports = [classify_trajectory(StateTrajectory(tail[:, j])).reservoir_is_self_oscillatory
                   for j in range(8)]
        assert verdicts.tolist() == reports
        assert np.array_equal(tail, kept)  # the stack is left as it was
        assert 0 < sum(reports) < 8


class TestTrajectoryCsv:
    def test_round_trip_exact(self, rng):
        trajectory = two_unit_reservoir().run(50)
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        restored = StateTrajectory.read_csv(buffer.getvalue())
        assert np.array_equal(restored.rows, trajectory.rows)

    def test_file_round_trip_keeps_every_bit(self, rng, tmp_path):
        # oscillating rows take the vectorized writer, the rest the row template
        rows = np.vstack([rng.uniform(-1.0, 1.0, (20, 3)),
                          rng.uniform(-1.0, 1.0, (20, 3)) * 1e-9,
                          [[0.0, -0.0, 1.0], [-1.0, 5e-324, 1e-5]]])
        path = tmp_path / "trajectory.csv"
        StateTrajectory(rows).to_csv(path)
        assert StateTrajectory.from_csv(path).rows.tobytes() == rows.tobytes()

    def test_header_format(self):
        trajectory = two_unit_reservoir().run(3)
        buffer = io.StringIO()
        trajectory.write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "t,x0,x1"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "0"

    def test_bad_header_rejected(self):
        with pytest.raises(InputError):
            StateTrajectory.read_csv("a,b\n1,2\n")

    def test_non_numeric_field_names_its_line(self):
        with pytest.raises(InputError, match="line 3: could not convert string to float: 'abc'"):
            StateTrajectory.read_csv("t,x0,x1\n0,0.1,0.2\n1,0.3,abc\n")

    @pytest.mark.parametrize("body, line", [
        ("1,0.1\n0,0.2\n", 2),   # shuffled
        ("0,0.1\n2,0.2\n", 3),   # a row missing
        ("0,0.1\n0,0.2\n", 3),   # a row repeated
        ("0,0.1\n1.0,0.2\n", 3), # not an integer count
    ])
    def test_t_column_must_count_rows_in_order(self, body, line):
        with pytest.raises(InputError, match=f"line {line}: t is"):
            StateTrajectory.read_csv("t,x0\n" + body)

    def test_blank_line_is_skipped(self):
        restored = StateTrajectory.read_csv("t,x0\n0,0.5\n\n1,0.25\n")
        assert restored.rows.tolist() == [[0.5], [0.25]]

    def test_header_only_file_has_no_rows(self):
        with pytest.raises(InputError, match="no rows"):
            StateTrajectory.read_csv("t,x0,x1\n")

    def test_wrong_field_count_names_its_line(self):
        with pytest.raises(InputError, match="line 2: 2 fields, expected 3"):
            StateTrajectory.read_csv("t,x0,x1\n0,0.1\n")

    @pytest.mark.parametrize("value", [
        -0.0, 1.0, -1.0, 5e-324, 2.2250738585072014e-308,
        # the two sides of %g's switch to exponent form
        9.9999999999999991e-05, 1e-4, 0.1,
    ])
    def test_writer_matches_fstring_oracle_at_edge_values(self, value):
        trajectory = StateTrajectory([[value, -value, 0.5], [0.25, value, -value]])
        ours, oracle = io.StringIO(), io.StringIO()
        trajectory.write_csv(ours)
        fstring_write_csv(trajectory, oracle)
        assert ours.getvalue() == oracle.getvalue()

    def test_writer_memory_stays_about_one_row(self):
        # a 2001 x 200 trajectory is about 8.5 MB of text; writing it row
        # by row holds one row, while listing every value at once or joining
        # the whole body holds well over 4 MB
        trajectory = StateTrajectory(np.random.default_rng(3).uniform(-1, 1, (2001, 200)))

        class CharCounter:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = CharCounter()
        tracemalloc.start()
        try:
            trajectory.write_csv(sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 2001 * 200 * 17
        assert peak < 4 * 2**20

    def test_rows_immutable(self):
        trajectory = two_unit_reservoir().run(5)
        with pytest.raises(ValueError):
            trajectory.rows[0, 0] = 9.9


def ulps_around(value, count=8):
    """`value` and its `count` nearest doubles on each side."""
    return (np.float64(value).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


def assert_written_as_17g(values, width=7):
    """The fast kernel writes each of `values` and its negation with
    1e-5 <= |x| <= 1 as '%.17g' does, and the whole writer, which sends
    every other row to the row template, matches the f-string oracle."""
    values = np.concatenate([values, np.negative(values)])
    in_range = values[(np.abs(values) >= 1e-5) & (np.abs(values) <= 1.0)]
    if in_range.size:
        rows = np.resize(in_range, (-(-in_range.size // width), width))
        expected = "".join(f"{t}," + ",".join("%.17g" % v for v in row) + "\n"
                           for t, row in enumerate(rows.tolist()))
        assert fast_lines(rows, 0) == expected
    trajectory = StateTrajectory(np.resize(values, (-(-values.size // width), width)))
    ours, oracle = io.StringIO(), io.StringIO()
    trajectory.write_csv(ours)
    fstring_write_csv(trajectory, oracle)
    assert ours.getvalue() == oracle.getvalue()


class TestFastCsvKernel:
    """The vectorized '%.17g' path of the trajectory writer, value by value
    against Python's own formatting, where exact digits are hardest."""

    @pytest.mark.parametrize("j", range(8))
    def test_neighbours_of_powers_of_ten(self, j):
        # the two spellings can be different doubles; a value just below a
        # power of ten may round up to it, moving the exponent
        assert_written_as_17g(np.concatenate([ulps_around(10.0 ** -j),
                                              ulps_around(float(f"1e-{j}"))]))

    def test_dyadic_ties(self):
        # m / 2**s is exact in binary, and for s near 24 its decimal
        # expansion ends 18 significant digits in with a 5: a true tie,
        # which '%.17g' rounds half to even
        rng = np.random.default_rng(11)
        s = np.repeat(np.arange(1, 61), 40)
        m = rng.integers(1, 2.0 ** np.minimum(s, 53), dtype=np.int64) | 1
        values = m / 2.0 ** s
        assert any(len(str(Decimal(v).normalize()).lstrip("0.").replace(".", "")) == 18
                   for v in values.tolist())
        assert_written_as_17g(values)

    @pytest.mark.parametrize("length", [17, 18])
    def test_decimals_ending_in_five(self, length):
        # an 18-digit one is a tie at 17 digits before it becomes a double
        rng = np.random.default_rng(length)
        values = [float(f"{digits}5e{exponent}")
                  for exponent in range(-length - 5, -length + 1)
                  for digits in rng.integers(10 ** (length - 2), 10 ** (length - 1), 200).tolist()]
        assert_written_as_17g(np.array(values))

    def test_just_below_one(self):
        below = np.float64(1.0).view(np.int64) - np.arange(1, 65)
        assert_written_as_17g(np.append(below.view(np.float64), 1.0))

    @pytest.mark.parametrize("edge", [1e-4, 1e-5, 1e-6])
    def test_edges_of_the_fast_range(self, edge):
        assert_written_as_17g(ulps_around(edge, 64))

    def test_one_digit_mantissas_in_exponent_form(self):
        # the doubles nearest d e-05 print with up to 16 more digits, and
        # those nearest 1.1e-05 with one
        assert_written_as_17g(np.concatenate([ulps_around(d * 1e-5, 16) for d in range(1, 10)]
                                             + [ulps_around(1.1e-5)]))

    def test_just_above_one_takes_the_row_template(self):
        above = np.float64(1.0).view(np.int64) + np.arange(1, 9)
        assert_written_as_17g(np.append(above.view(np.float64), [1 + 1e-13, 1 + 1e-12]))

    def test_interleaved_fast_and_template_rows_keep_row_order(self):
        # 64 units write up to 64 rows per kernel call; single template
        # rows, runs of them and runs of fast rows fall on and across those
        # block edges
        rng = np.random.default_rng(13)
        rows = rng.uniform(-1, 1, (1200, 64))
        rows[np.abs(rows) < 1e-5] = 0.5
        slow = np.flatnonzero(rng.random(len(rows)) < 0.2)
        slow = np.concatenate([slow, np.arange(120, 140), [127, 128, 255, 256, 999, 1199]])
        odd = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.9999999999999991e-06, 1e-9,
               1 + 1e-12]
        rows[slow, rng.integers(0, 64, len(slow))] = rng.choice(odd, len(slow))
        trajectory = StateTrajectory(rows)
        ours, oracle = io.StringIO(), io.StringIO()
        trajectory.write_csv(ours)
        fstring_write_csv(trajectory, oracle)
        assert ours.getvalue() == oracle.getvalue()


# Reservoir contracts over generated inputs: any finite weights (entries up
# to 1e6 in magnitude), a scalar or per-unit leak in (0, 1], any state in
# [-1, 1]
unit_floats = st.floats(-1.0, 1.0)
leaks = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def reservoir_parts(draw):
    n = draw(st.integers(1, 8))
    W = draw(arrays(float, (n, n), elements=st.floats(-1e6, 1e6)))
    leak = draw(st.one_of(leaks, arrays(float, n, elements=leaks)))
    return W, leak, draw(arrays(float, n, elements=unit_floats))


class TestContracts:
    @given(reservoir_parts(), st.integers(1, 60))
    def test_states_stay_in_unit_interval(self, parts, tau):
        trajectory = Reservoir(*parts).run(tau)
        assert np.max(np.abs(trajectory.rows)) <= 1.0

    @given(reservoir_parts(), st.integers(1, 30), st.integers(1, 30))
    def test_consecutive_runs_concatenate_bit_for_bit(self, parts, a, b):
        split = Reservoir(*parts)
        first, second = split.run(a), split.run(b)
        whole = Reservoir(*parts).run(a + b)
        assert np.concatenate([first.rows, second.rows[1:]]).tobytes() == whole.rows.tobytes()

    @given(st.integers(1, 20).flatmap(
        lambda n: arrays(float, (n, n % 6 + 1), elements=unit_floats)))
    def test_csv_round_trip_keeps_every_bit(self, rows):
        buffer = io.StringIO()
        StateTrajectory(rows).write_csv(buffer)
        assert StateTrajectory.read_csv(buffer.getvalue()).rows.tobytes() == rows.tobytes()

    @given(st.tuples(st.integers(1, 30), st.integers(1, 12)).flatmap(
        lambda shape: arrays(float, shape, elements=unit_floats)))
    def test_csv_writer_matches_fstring_oracle(self, rows):
        trajectory = StateTrajectory(rows)
        ours, oracle = io.StringIO(), io.StringIO()
        trajectory.write_csv(ours)
        fstring_write_csv(trajectory, oracle)
        assert ours.getvalue() == oracle.getvalue()
