import dataclasses

import numpy as np
import pytest

from soesn import (
    TWO_NEURON_ENSEMBLE,
    Reservoir,
    TopologySpec,
    build_dense,
    build_sparse,
    build_weakly_coupled,
    build_weights,
    classify_trajectory,
    init_state,
    inject_ensemble,
    sample_leak_vector,
    scale_to_spectral_radius,
    spectral_radius,
    topology,
)
from soesn.errors import CannotScaleError, ConfigError, InputError
from soesn.topology import block_sizes

from conftest import pair_loop_weakly_coupled


class TestDense:
    def test_deterministic(self):
        assert np.array_equal(build_dense(100, seed=7), build_dense(100, seed=7))

    def test_bounds_and_mean(self):
        W = build_dense(1000, seed=1)
        assert W.min() >= -0.5 and W.max() <= 0.5
        assert abs(W.mean()) <= 0.01

    def test_shape(self):
        assert build_dense(2, seed=0).shape == (2, 2)

    def test_zero_units_rejected(self):
        with pytest.raises(InputError):
            build_dense(0, seed=0)


class TestSparse:
    def test_full_density_keeps_everything(self):
        W = build_sparse(50, 1.0, seed=3)
        assert np.count_nonzero(W) == 2500
        assert W.min() >= -0.5 and W.max() <= 0.5

    def test_nonzero_fraction(self):
        W = build_sparse(100, 0.1, seed=4)
        fraction = np.count_nonzero(W) / W.size
        assert 0.07 <= fraction <= 0.13

    def test_degenerate_all_zero_cannot_scale(self):
        for seed in range(200):
            W = build_sparse(10, 0.001, seed=seed)
            if not np.any(W):
                with pytest.raises(CannotScaleError):
                    scale_to_spectral_radius(W, 1.25)
                return
        pytest.fail("no all-zero draw found in 200 seeds")

    def test_density_out_of_range(self):
        with pytest.raises(InputError):
            build_sparse(10, 0.0, seed=0)
        with pytest.raises(InputError):
            build_sparse(10, 1.1, seed=0)


class TestBlockDiagonal:
    """The block-diagonal layout is the weakly coupled build with no coupling."""

    def test_off_blocks_zero(self):
        W = build_weakly_coupled(4, 2, 0.0, 0.0, seed=0)
        assert np.all(W[:2, 2:] == 0.0)
        assert np.all(W[2:, :2] == 0.0)

    def test_single_block_equals_dense(self):
        assert np.array_equal(
            build_weakly_coupled(100, 1, 0.0, 0.0, seed=9), build_dense(100, seed=9)
        )

    def test_block_entry_count(self):
        W = build_weakly_coupled(100, 4, 0.0, 0.0, seed=2)
        mask = np.zeros((100, 100), dtype=bool)
        for start in (0, 25, 50, 75):
            mask[start : start + 25, start : start + 25] = True
        assert np.all(W[~mask] == 0.0)
        assert np.count_nonzero(W) <= 4 * 25 * 25

    def test_near_equal_partition(self):
        sizes = block_sizes(1000, 16)
        assert sum(sizes) == 1000
        assert set(sizes) == {62, 63}
        W = build_weakly_coupled(1000, 16, 0.0, 0.0, seed=0)
        assert W.shape == (1000, 1000)

    def test_sub_count_bounds(self):
        with pytest.raises(InputError):
            block_sizes(4, 0)
        with pytest.raises(InputError):
            block_sizes(4, 5)


class TestWeaklyCoupled:
    def test_zero_scale_matches_block_diagonal(self):
        blocks = build_weakly_coupled(60, 3, 0.0, 0.0, seed=11)
        coupled = build_weakly_coupled(60, 3, 0.0, 0.5, seed=11)
        assert np.array_equal(coupled, blocks)

    def test_zero_density_matches_block_diagonal(self):
        blocks = build_weakly_coupled(60, 3, 0.0, 0.0, seed=11)
        coupled = build_weakly_coupled(60, 3, 0.05, 0.0, seed=11)
        assert np.array_equal(coupled, blocks)

    @pytest.mark.parametrize(
        "n, m", [(103, 7), (103, 1), (103, 2), (103, 10), (103, 103), (100, 4), (64, 8),
                 (17, 5), (10, 9)],
    )
    def test_matches_pair_loop_oracle_bit_for_bit(self, n, m):
        # uneven blocks, one block, one unit per block; zero scale, zero and
        # full density
        for scale, density in [(0.05, 0.05), (0.0, 0.3), (0.05, 0.0), (0.2, 1.0)]:
            for seed in (0, 5, 11):
                expected = pair_loop_weakly_coupled(n, m, scale, density, seed)
                W = build_weakly_coupled(n, m, scale, density, seed)
                assert W.tobytes() == expected.tobytes(), (scale, density, seed)

    @pytest.mark.parametrize("scale", [-0.1, np.inf, np.nan])
    def test_coupling_scale_outside_its_range_rejected(self, scale):
        with pytest.raises(InputError, match="coupling_scale"):
            build_weakly_coupled(8, 2, scale, 0.5, seed=0)

    def test_coupling_bounds_and_fraction(self):
        W = build_weakly_coupled(100, 4, 0.05, 0.05, seed=5)
        mask = np.zeros((100, 100), dtype=bool)
        for start in (0, 25, 50, 75):
            mask[start : start + 25, start : start + 25] = True
        off = W[~mask]
        fraction = np.count_nonzero(off) / off.size
        assert 0.02 <= fraction <= 0.09
        assert np.max(np.abs(off)) <= 0.025

    def test_oscillation_spreads_through_coupling(self):
        # block 0 is the calibrated oscillator pair, block 1 a damped random
        # block; weak links let the oscillation recruit the damped side
        damped = scale_to_spectral_radius(build_dense(30, seed=21), 0.5)
        n = 32
        W = np.zeros((n, n))
        W[:2, :2] = TWO_NEURON_ENSEMBLE
        W[2:, 2:] = damped
        links = np.random.default_rng(3)
        W[2:, :2] = links.uniform(-0.25, 0.25, (30, 2))
        trajectory = Reservoir(W, 0.5, init_state(n, seed=8)).run(1000)
        report = classify_trajectory(trajectory)
        assert report.reservoir_is_self_oscillatory
        assert sum(u.is_oscillating for u in report.per_unit[2:]) >= 15


class TestEnsemble:
    def test_sign_pattern(self):
        assert int(np.sum(TWO_NEURON_ENSEMBLE > 0)) == 3
        assert int(np.sum(TWO_NEURON_ENSEMBLE < 0)) == 1

    def test_eigenvalues_form_complex_pair(self):
        eigenvalues = np.linalg.eigvals(np.array([[1.0, 1.0], [-1.0, 1.0]]))
        assert sorted(np.round(ev, 12) for ev in eigenvalues) == [1 - 1j, 1 + 1j]

    def test_standalone_sustained_oscillation(self):
        trajectory = Reservoir(TWO_NEURON_ENSEMBLE, 0.5, init_state(2, seed=4)).run(1000)
        report = classify_trajectory(trajectory)
        assert report.reservoir_is_self_oscillatory
        bins = report.oscillating_bins()
        assert len(bins) == 2 and abs(bins[0] - bins[1]) <= 1
        assert all(u.tail_stddev > 0.01 for u in report.per_unit)
        assert report.phase_locked
        # a second start, at seed 1912, oscillates too
        trajectory = Reservoir(TWO_NEURON_ENSEMBLE, 0.5, init_state(2, seed=1912)).run(1000)
        assert classify_trajectory(trajectory).reservoir_is_self_oscillatory

    def test_canonical_pair_is_built_once_and_read_only(self):
        with pytest.raises(ValueError):
            TWO_NEURON_ENSEMBLE[0, 0] = 0.0

    def test_closed_form_has_the_scaled_bits(self):
        # the generate --inject and inject-experiment golden digests rest on
        # these bits
        base = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert TWO_NEURON_ENSEMBLE.dtype == np.float64
        assert TWO_NEURON_ENSEMBLE.tobytes() == scale_to_spectral_radius(base, 1.25).tobytes()


class TestInjectEnsemble:
    def test_full_replacement_at_matching_size(self):
        W = build_dense(2, seed=1)
        assert np.array_equal(inject_ensemble(W), TWO_NEURON_ENSEMBLE)

    def test_edit_is_local(self):
        W = build_dense(100, seed=2)
        out = inject_ensemble(W)
        differs = out != W
        assert differs[:2, :2].all()
        assert np.count_nonzero(differs) == 4

    def test_idempotent(self):
        W = build_dense(10, seed=3)
        once = inject_ensemble(W)
        twice = inject_ensemble(once)
        assert np.array_equal(once, twice)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(InputError):
            inject_ensemble(np.zeros((1, 1)))


class TestSampleLeakVector:
    def test_zero_sigma_constant(self):
        assert np.array_equal(sample_leak_vector(5, 0.6, 0.0, seed=1), np.full(5, 0.6))

    def test_paper_parameters_statistics(self):
        leak = sample_leak_vector(10000, 0.6, 0.1, seed=2)
        assert 0.59 <= leak.mean() <= 0.61
        assert leak.min() >= 0.05 and leak.max() <= 1.0

    def test_clipping_boundary(self):
        assert np.all(sample_leak_vector(100, 1.5, 0.1, seed=3) == 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError):
            sample_leak_vector(5, 0.6, -0.1, seed=0)

    @pytest.mark.parametrize("mu,sigma", [(0.5, np.nan), (0.5, np.inf), (np.nan, 0.1),
                                          (-np.inf, 0.1)])
    def test_non_finite_sigma_or_mu_rejected(self, mu, sigma):
        # a NaN sigma used to give NaN leaks, outside the promised [0.05, 1]
        with pytest.raises(InputError):
            sample_leak_vector(5, mu, sigma, seed=0)


class TestBuildWeights:
    def test_dense_whole_matrix_scaled(self):
        spec = TopologySpec(kind="dense", n=80, seed=17)
        W = build_weights(spec, 1.25)
        measured = float(np.max(np.abs(np.linalg.eigvals(W))))
        assert measured == pytest.approx(1.25, rel=1e-5)

    def test_block_kinds_scale_each_block(self):
        spec = TopologySpec(kind="block_diagonal", n=100, sub_count=4, seed=23)
        W = build_weights(spec, 1.25)
        for start in (0, 25, 50, 75):
            block = W[start : start + 25, start : start + 25]
            measured = float(np.max(np.abs(np.linalg.eigvals(block))))
            assert measured == pytest.approx(1.25, rel=1e-5)

    def test_weak_coupling_left_unscaled(self):
        spec = TopologySpec(
            kind="weakly_coupled", n=100, sub_count=4,
            coupling_scale=0.05, coupling_density=0.2, seed=29,
        )
        W = build_weights(spec, 1.25)
        raw = build_weakly_coupled(100, 4, 0.05, 0.2, seed=29)
        mask = np.zeros((100, 100), dtype=bool)
        for start in (0, 25, 50, 75):
            mask[start : start + 25, start : start + 25] = True
        assert np.array_equal(W[~mask], raw[~mask])

    def test_injection_flag(self):
        spec = TopologySpec(kind="dense", n=50, inject_ensemble=True, seed=31)
        W = build_weights(spec, 1.25)
        assert np.array_equal(W[:2, :2], TWO_NEURON_ENSEMBLE)

    @pytest.mark.parametrize("kind", ["dense", "sparse", "block_diagonal", "weakly_coupled"])
    def test_one_radius_call_per_block(self, kind, monkeypatch):
        # a dense or sparse matrix is one block; an uneven split's blocks
        # take their radius at their own sides, 8 and 7 rows
        sides = []

        def counted(W):
            sides.append(np.shape(W))
            return spectral_radius(W)

        monkeypatch.setattr(topology, "spectral_radius", counted)
        spec = TopologySpec(kind=kind, n=30, sub_count=4, seed=3)
        build_weights(spec, 1.25)
        assert sides == ([(30, 30)] if kind in ("dense", "sparse") else [(8, 8)] * 2 + [(7, 7)] * 2)

    def test_uneven_population_accepted(self):
        spec = TopologySpec(kind="weakly_coupled", n=500, sub_count=8, seed=1)
        assert build_weights(spec, 1.25).shape == (500, 500)

    @pytest.mark.parametrize("kind", ["dense", "weakly_coupled"])
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
    def test_non_positive_rho_rejected(self, kind, rho):
        # whole-matrix and per-block scaling share one target check
        spec = TopologySpec(kind=kind, n=20, sub_count=2, coupling_scale=0.05,
                            coupling_density=0.2, seed=5)
        with pytest.raises(InputError, match="must be positive"):
            build_weights(spec, rho)


class TestTopologySpec:
    def test_validation(self):
        with pytest.raises(InputError):
            TopologySpec(kind="ring")
        with pytest.raises(InputError):
            TopologySpec(density=0.0)
        with pytest.raises(InputError):
            TopologySpec(n=4, sub_count=5)
        with pytest.raises(InputError):
            TopologySpec(coupling_scale=-1.0)

    def test_frozen_and_rechecked_on_replace(self):
        spec = TopologySpec(kind="weakly_coupled", n=12, sub_count=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sub_count = 20
        assert dataclasses.replace(spec, seed=5).seed == 5
        with pytest.raises(InputError):
            dataclasses.replace(spec, sub_count=20)

    def test_round_trip(self):
        spec = TopologySpec(kind="sparse", n=64, density=0.2, seed=12)
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            TopologySpec.from_dict({"kind": "dense", "n": 10, "wires": 3})

    def test_from_dict_rejects_wrong_types_and_ranges(self):
        for bad in ({"n": True}, {"n": "10"}, {"density": float("inf")}, {"n": 0},
                    {"kind": "ring"}):
            with pytest.raises(ConfigError):
                TopologySpec.from_dict(bad)
        assert TopologySpec.from_dict({"n": 10, "density": 1}).density == 1
