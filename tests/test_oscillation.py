import json

import numpy as np
import pytest

from soesn import (
    TWO_NEURON_ENSEMBLE,
    Reservoir,
    StateTrajectory,
    UnitClassification,
    build_dense,
    classify_trajectory,
    classify_unit,
    dominant_frequency_hz,
    init_state,
    periodogram,
    scale_to_spectral_radius,
)
from soesn.errors import InputError
from soesn.oscillation import AMPLITUDE_FLOOR, WINDOW

from conftest import classifier_corpus, naive_dft_power


class TestClassifyUnit:
    def test_damped_sinusoid_is_not_oscillating(self):
        t = np.arange(1000, dtype=float)
        unit = classify_unit(np.exp(-t / 50.0) * np.sin(0.3 * t))
        assert not unit.is_oscillating
        assert unit.dominant_bin is None
        assert unit.tail_stddev < 1e-3

    def test_constant_is_not_oscillating(self):
        unit = classify_unit(np.full(200, 0.7))
        assert not unit.is_oscillating
        assert unit.tail_stddev == pytest.approx(0.0, abs=1e-12)

    def test_sustained_tone_bin(self):
        t = np.arange(1000)
        unit = classify_unit(np.sin(2 * np.pi * 10 * t / 100.0))
        assert unit.is_oscillating
        assert unit.dominant_bin == 10

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(InputError):
            classify_unit(np.ones(50))

    def test_amplitude_scale_invariance(self):
        t = np.arange(500)
        base = 0.1 * np.sin(2 * np.pi * 7 * t / 100.0) + 0.02 * np.sin(2 * np.pi * 23 * t / 100.0)
        reference = classify_unit(base)
        for c in (0.1, 0.5, 2.0, 10.0):
            scaled = classify_unit(c * base)
            assert scaled.is_oscillating == reference.is_oscillating
            assert scaled.dominant_bin == reference.dominant_bin

    def test_tiny_trailing_range_never_oscillates(self):
        # range < 2e-3 forces stddev under the amplitude floor
        t = np.arange(1000)
        unit = classify_unit(0.5 + 4e-4 * np.sin(2 * np.pi * 10 * t / 100.0))
        assert not unit.is_oscillating

    def test_amplitude_floor_itself_is_not_oscillating(self):
        # a window alternating +/-AMPLITUDE_FLOOR has a tail stddev of
        # exactly the floor, which does not count; one ulp more does (all
        # its power is in one bin)
        at = classify_unit(AMPLITUDE_FLOOR * (-1.0) ** np.arange(WINDOW))
        assert at.tail_stddev == AMPLITUDE_FLOOR and not at.is_oscillating
        above = classify_unit(np.nextafter(AMPLITUDE_FLOOR, 1.0) * (-1.0) ** np.arange(WINDOW))
        assert above.tail_stddev > AMPLITUDE_FLOOR and above.is_oscillating

    def test_corpus_is_classified_perfectly(self):
        for name, signal, expected in classifier_corpus():
            unit = classify_unit(signal)
            assert unit.is_oscillating == expected, name


class TestClassifyTrajectory:
    def test_damped_dense_reservoir(self):
        W = scale_to_spectral_radius(build_dense(100, seed=5), 0.5)
        trajectory = Reservoir(W, 0.5, init_state(100, seed=6)).run(1000)
        report = classify_trajectory(trajectory)
        assert not report.reservoir_is_self_oscillatory
        assert report.phase_locked is None

    def test_single_oscillating_column_sets_reservoir_flag(self):
        t = np.arange(300)
        rows = np.zeros((300, 3))
        rows[:, 1] = 0.5 * np.sin(2 * np.pi * 9 * t / 100.0)
        report = classify_trajectory(StateTrajectory(rows))
        assert report.reservoir_is_self_oscillatory
        assert report.per_unit[1].is_oscillating
        assert not report.per_unit[0].is_oscillating
        assert report.phase_locked is None  # fewer than two oscillating units

    def test_canonical_ensemble_is_phase_locked(self):
        trajectory = Reservoir(TWO_NEURON_ENSEMBLE, 0.5, init_state(2, seed=3)).run(1000)
        report = classify_trajectory(trajectory)
        assert report.reservoir_is_self_oscillatory
        assert report.phase_locked is True
        bins = report.oscillating_bins()
        assert bins[0] == bins[1]

    def test_batch_path_matches_unit_path(self, rng):
        # both paths against the rule written out over the direct DFT
        noise = np.clip(rng.normal(0.0, 0.3, (400, 12)), -1.0, 1.0)
        ripple = 0.5 + 4e-4 * np.sin(2 * np.pi * 10 * np.arange(400) / 100.0)
        rows = np.column_stack([noise, np.full(400, 0.2), ripple])
        report = classify_trajectory(StateTrajectory(rows))
        for i, unit in enumerate(report.per_unit):
            reference = _oracle_unit(rows[-100:, i])
            for path in (unit, classify_unit(rows[:, i])):
                assert path.is_oscillating == reference.is_oscillating
                assert path.dominant_bin == reference.dominant_bin
                assert path.tail_stddev == pytest.approx(reference.tail_stddev, abs=1e-12)
        assert any(u.is_oscillating for u in report.per_unit)
        assert not all(u.is_oscillating for u in report.per_unit)

    def test_short_trajectory_rejected(self):
        rows = np.zeros((50, 2))
        with pytest.raises(InputError):
            classify_trajectory(StateTrajectory(rows))


def _oracle_unit(tail, amplitude_floor=1e-3, peak_share=0.05):
    """The classifier rule from its definition: the tail moves (population
    stddev above the floor) and one non-DC bin of the direct DFT holds more
    than `peak_share` of the non-DC power."""
    values = [float(v) for v in tail]
    mean = sum(values) / len(values)
    stddev = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
    non_dc = list(naive_dft_power(values)[1:])
    total = sum(non_dc)
    oscillating = stddev > amplitude_floor and total > 0.0 and max(non_dc) / total > peak_share
    dominant = non_dc.index(max(non_dc)) + 1 if oscillating else None
    return UnitClassification(oscillating, dominant, stddev)


def _locked(bins):
    """phase_locked of 300 steps of sinusoids, one column per entry of
    `bins`: a dominant bin, or None for a flat column."""
    t = np.arange(300)
    rows = np.zeros((300, len(bins)))
    for i, b in enumerate(bins):
        if b is not None:
            rows[:, i] = 0.5 * np.sin(2 * np.pi * b * t / 100.0 + 0.4 * i)
    report = classify_trajectory(StateTrajectory(rows))
    assert report.oscillating_bins() == [b for b in bins if b is not None]
    return report.phase_locked


class TestPhaseLock:
    def test_agreeing_bins(self):
        assert _locked([7, 7, 7]) is True

    def test_adjacent_bins_tolerated(self):
        assert _locked([7, 8]) is True

    def test_distant_bins_rejected(self):
        assert _locked([5, 12]) is False

    def test_requires_two_oscillating_units(self):
        assert _locked([7, None]) is None


class TestDominantFrequency:
    def test_simple_conversion(self):
        assert dominant_frequency_hz(10, 1.0) == pytest.approx(0.1)

    def test_dt_scaling(self):
        assert dominant_frequency_hz(1, 0.01) == pytest.approx(1.0)

    def test_nyquist_boundary(self):
        assert dominant_frequency_hz(50, 1.0) == pytest.approx(0.5)

    def test_dc_rejected(self):
        with pytest.raises(InputError):
            dominant_frequency_hz(0, 1.0)

    def test_beyond_nyquist_rejected(self):
        with pytest.raises(InputError):
            dominant_frequency_hz(51, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_dt_outside_its_range_rejected(self, dt):
        # NaN used to give a NaN frequency and inf a frequency of 0.0
        with pytest.raises(InputError, match="dt"):
            dominant_frequency_hz(10, dt)


class TestLeakFrequencyRelation:
    def test_higher_leak_oscillates_faster(self):
        # periodogram peak of the trailing window; at leak 0.2 the pair's
        # activity decays, but the decaying spiral still shows its rotation
        bins = {}
        for leak in (0.2, 0.8):
            trajectory = Reservoir(TWO_NEURON_ENSEMBLE, leak, init_state(2, seed=7)).run(1000)
            bins[leak] = periodogram(trajectory.unit(0)[-100:]).dominant_bin()
        assert bins[0.2] < bins[0.8]


class TestReportJson:
    def test_exact_field_names(self):
        t = np.arange(300)
        rows = np.zeros((300, 2))
        rows[:, 0] = 0.5 * np.sin(2 * np.pi * 9 * t / 100.0)
        rows[:, 1] = 0.5 * np.sin(2 * np.pi * 9 * t / 100.0 + 0.3)
        report = classify_trajectory(StateTrajectory(rows))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {
            "per_unit", "reservoir_is_self_oscillatory", "phase_locked",
            "window", "thresholds",
        }
        assert set(payload["per_unit"][0]) == {"is_oscillating", "dominant_bin", "tail_stddev"}
        assert payload["reservoir_is_self_oscillatory"] is True
        assert payload["phase_locked"] is True
        assert payload["window"] == 100
