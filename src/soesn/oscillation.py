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
from .numerics import _column_periodogram
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


def _classify_columns(rows, window, amplitude_floor, peak_share):
    # one classification per column, from its trailing `window` rows
    if window < 16:
        raise InputError(f"analysis window must be at least 16 samples, got {window}")
    if rows.shape[0] < window:
        raise InputError(f"series has {rows.shape[0]} samples, needs at least {window}")
    tail = rows[-window:]
    stddev = tail.std(axis=0)
    non_dc = _column_periodogram(tail)[1:]
    total = non_dc.sum(axis=0)
    peak = non_dc.max(axis=0)
    share = peak / np.where(total > 0.0, total, 1.0)
    oscillating = (stddev > amplitude_floor) & (total > 0.0) & (share > peak_share)
    dominant = non_dc.argmax(axis=0) + 1
    return tuple(
        UnitClassification(
            bool(oscillating[i]),
            int(dominant[i]) if oscillating[i] else None,
            float(stddev[i]),
        )
        for i in range(tail.shape[1])
    )


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
