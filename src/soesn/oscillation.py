"""Damped-versus-sustained classification of unit trajectories.

A unit counts as oscillating when its trailing analysis window still moves
(standard deviation above an amplitude floor) AND some single non-DC
periodogram bin carries a meaningful share of the total non-DC power. The
amplitude floor rejects fixed points whose residual ripple is numerical
noise; the peak-share rule rejects flat noise spectra while still accepting
chaotic but sustained activity, whose power is broad but far from flat.
The rule is fixed (WINDOW, AMPLITUDE_FLOOR, PEAK_SHARE) and every report
records it.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .numerics import _centered_power
from .reservoir import StateTrajectory

WINDOW = 100
AMPLITUDE_FLOOR = 1e-3
PEAK_SHARE = 0.05


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

    def oscillating_bins(self) -> list[int]:
        return [u.dominant_bin for u in self.per_unit if u.is_oscillating]

    def to_json_dict(self) -> dict:
        """The report's fields, each tuple as a list, plus the rule applied."""
        report = asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value for key, value in items})
        thresholds = {"amplitude_floor": AMPLITUDE_FLOOR, "peak_share": PEAK_SHARE}
        return report | {"window": WINDOW, "thresholds": thresholds}


def classify_unit(signal) -> UnitClassification:
    """Classify one unit's series from its trailing WINDOW samples."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise InputError(f"signal must be one-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("signal values must be finite")
    return _classify_columns(x[:, None])[0]


def _check_window(samples: int) -> None:
    if samples < WINDOW:
        raise InputError(f"series has {samples} samples, needs at least {WINDOW}")


def _oscillating_columns(tail):
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
    oscillating = (stddev > AMPLITUDE_FLOOR) & (total > 0.0) & (share > PEAK_SHARE)
    return oscillating, non_dc, stddev


def _classify_columns(rows):
    # one classification per column, from its trailing WINDOW rows
    _check_window(rows.shape[0])
    oscillating, non_dc, stddev = _oscillating_columns(np.array(rows[-WINDOW:]))
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
    """The reservoir verdict of classify_trajectory for each of B states
    recorded together: from the trailing WINDOW rows of a (T, B, n) stack
    such as run_batch returns, one bool per state.

    Each state is classified from a copy of its own window, with the same
    arithmetic as classify_trajectory, so the stack is left as it is and a
    wide batch never holds more than one state's spectrum.
    """
    if tail.ndim != 3:
        raise InputError(f"expected a (T, B, n) stack of states, got shape {tail.shape}")
    _check_window(tail.shape[0])
    window = tail[-WINDOW:]
    return np.array([
        _oscillating_columns(np.array(window[:, j], dtype=float))[0].any()
        for j in range(tail.shape[1])
    ], dtype=bool)


def classify_trajectory(trajectory: StateTrajectory) -> OscillationReport:
    """Classify every unit of a trajectory and roll up the reservoir verdict.

    The reservoir counts as self-oscillatory when any unit oscillates:
    oscillation seeded in a few units is still oscillation, whether or not it
    has spread to the rest.
    """
    units = _classify_columns(trajectory.rows)
    bins = [u.dominant_bin for u in units if u.is_oscillating]
    locked = (max(bins) - min(bins) <= 1) if len(bins) >= 2 else None
    return OscillationReport(
        per_unit=units,
        reservoir_is_self_oscillatory=bool(bins),
        phase_locked=locked,
    )


def dominant_frequency_hz(dominant_bin: int, dt: float) -> float:
    """Convert a bin of the WINDOW-sample periodogram to a frequency in Hz."""
    if not 0 < dt < np.inf:
        raise InputError(f"dt must be finite and positive, got {dt}")
    if dominant_bin == 0:
        raise InputError("bin 0 is the DC component, not a frequency")
    if not 0 < dominant_bin <= WINDOW / 2:
        raise InputError(f"bin {dominant_bin} outside (0, {WINDOW / 2}]")
    return dominant_bin / (WINDOW * dt)
