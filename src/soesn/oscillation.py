"""Damped-versus-sustained classification of unit trajectories.

A unit counts as oscillating when its trailing analysis window still moves
(standard deviation above an amplitude floor) AND some single non-DC
periodogram bin carries a meaningful share of the total non-DC power. The
amplitude floor rejects fixed points whose residual ripple is numerical
noise; the peak-share rule rejects flat noise spectra while still accepting
chaotic but sustained activity, whose power is broad but far from flat.
Both thresholds are parameters and are recorded in every report.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import _centered_power
from .reservoir import StateTrajectory

DEFAULT_WINDOW = 100
DEFAULT_AMPLITUDE_FLOOR = 1e-3
DEFAULT_PEAK_SHARE = 0.05


@dataclass(frozen=True)
class UnitClassification:
    is_oscillating: bool
    dominant_bin: int | None
    tail_stddev: float


@dataclass(frozen=True)
class OscillationReport:
    """Per-unit and whole-reservoir classification of one trajectory.

    `phase_locked` is None when fewer than two units oscillate (undefined).
    """

    per_unit: tuple[UnitClassification, ...]
    reservoir_is_self_oscillatory: bool
    phase_locked: bool | None
    window: int
    amplitude_floor: float
    peak_share: float

    def oscillating_bins(self) -> list[int]:
        return [u.dominant_bin for u in self.per_unit if u.is_oscillating]

    def to_json_dict(self) -> dict:
        return {
            "per_unit": [
                {
                    "is_oscillating": u.is_oscillating,
                    "dominant_bin": u.dominant_bin,
                    "tail_stddev": u.tail_stddev,
                }
                for u in self.per_unit
            ],
            "reservoir_is_self_oscillatory": self.reservoir_is_self_oscillatory,
            "phase_locked": self.phase_locked,
            "window": self.window,
            "thresholds": {
                "amplitude_floor": self.amplitude_floor,
                "peak_share": self.peak_share,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def classify_unit(
    signal,
    window: int = DEFAULT_WINDOW,
    amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR,
    peak_share: float = DEFAULT_PEAK_SHARE,
) -> UnitClassification:
    """Classify one unit's series from its trailing `window` samples."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise InputError(f"signal must be one-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("signal values must be finite")
    return _classify_columns(x[:, None], window, amplitude_floor, peak_share)[0]


def _check_window(samples: int, window: int) -> None:
    if window < 16:
        raise InputError(f"analysis window must be at least 16 samples, got {window}")
    if samples < window:
        raise InputError(f"series has {samples} samples, needs at least {window}")


def _oscillating_columns(tail, amplitude_floor, peak_share):
    # the classifier's arithmetic, one verdict per column of `tail`, plus
    # the non-DC periodogram and the standard deviations it rests on. It
    # centers and squares `tail` in place (callers pass a copy), so only the
    # spectrum is allocated; the steps are np.std's and periodogram's, bit
    # for bit.
    tail -= tail.mean(axis=0)
    non_dc = _centered_power(tail)[1:]
    tail *= tail
    stddev = np.sqrt(tail.sum(axis=0) / len(tail))
    total = non_dc.sum(axis=0)
    peak = non_dc.max(axis=0)
    share = peak / np.where(total > 0.0, total, 1.0)
    oscillating = (stddev > amplitude_floor) & (total > 0.0) & (share > peak_share)
    return oscillating, non_dc, stddev


def _classify_columns(rows, window, amplitude_floor, peak_share):
    # one classification per column, from its trailing `window` rows
    _check_window(rows.shape[0], window)
    oscillating, non_dc, stddev = _oscillating_columns(
        np.array(rows[-window:]), amplitude_floor, peak_share)
    dominant = non_dc.argmax(axis=0) + 1
    return tuple(
        UnitClassification(
            bool(oscillating[i]),
            int(dominant[i]) if oscillating[i] else None,
            float(stddev[i]),
        )
        for i in range(len(oscillating))
    )


def classify_states(tail: np.ndarray) -> np.ndarray:
    """The reservoir verdict of classify_trajectory, at the default window
    and thresholds, for each of B states recorded together: from the
    trailing DEFAULT_WINDOW rows of a (T, B, n) stack such as run_batch
    returns, one bool per state.

    Each state is classified from a copy of its own window, with the same
    arithmetic as classify_trajectory, so the stack is left as it is and a
    wide batch never holds more than one state's spectrum.
    """
    if tail.ndim != 3:
        raise InputError(f"expected a (T, B, n) stack of states, got shape {tail.shape}")
    _check_window(tail.shape[0], DEFAULT_WINDOW)
    window = tail[-DEFAULT_WINDOW:]
    return np.array([
        _oscillating_columns(np.array(window[:, j], dtype=float), DEFAULT_AMPLITUDE_FLOOR,
                             DEFAULT_PEAK_SHARE)[0].any()
        for j in range(tail.shape[1])
    ], dtype=bool)


def classify_trajectory(
    trajectory: StateTrajectory,
    window: int = DEFAULT_WINDOW,
    amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR,
    peak_share: float = DEFAULT_PEAK_SHARE,
) -> OscillationReport:
    """Classify every unit of a trajectory and roll up the reservoir verdict.

    The reservoir counts as self-oscillatory when any unit oscillates:
    oscillation seeded in a few units is still oscillation, whether or not it
    has spread to the rest.
    """
    units = _classify_columns(trajectory.rows, window, amplitude_floor, peak_share)
    bins = [u.dominant_bin for u in units if u.is_oscillating]
    locked = (max(bins) - min(bins) <= 1) if len(bins) >= 2 else None
    return OscillationReport(
        per_unit=units,
        reservoir_is_self_oscillatory=bool(bins),
        phase_locked=locked,
        window=window,
        amplitude_floor=amplitude_floor,
        peak_share=peak_share,
    )


def dominant_frequency_hz(dominant_bin: int, window: int, dt: float) -> float:
    """Convert a periodogram bin index to a frequency in Hz."""
    if dt <= 0:
        raise InputError("dt must be positive")
    if dominant_bin == 0:
        raise InputError("bin 0 is the DC component, not a frequency")
    if not 0 < dominant_bin <= window / 2:
        raise InputError(f"bin {dominant_bin} outside (0, {window / 2}]")
    return dominant_bin / (window * dt)
