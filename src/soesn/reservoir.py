"""The autonomous dynamical core: a leaky-tanh recurrent network driven only
by its own state.

Per step, elementwise over units:

    x'_i = (1 - leak_i) * x_i + leak_i * tanh((W @ x)_i)

There is no input layer and no output feedback. Whether activity damps out
or settles into sustained oscillation is decided entirely by the weight
matrix and the leak vector. Because each update is a convex mix of a value
already in [-1, 1] with a tanh output, states stay in [-1, 1] forever once
started inside it.
"""

import io

import numpy as np

from .errors import DimensionError, InputError, NumericError

_REDRAW_CAP = 64


def init_state(n: int, seed: int = 0, rng=None) -> np.ndarray:
    """Initial unit states, i.i.d. uniform on [-0.5, 0.5].

    An all-(near-)zero draw is rejected and redrawn: zero is a fixed point of
    the update, so such a state could never kick-start oscillation. Pass
    `rng` to draw from an existing generator instead of building one from
    `seed` (tests use this to force the redraw path).
    """
    if n < 1:
        raise InputError("need at least one unit")
    if rng is None:
        rng = np.random.default_rng(seed)
    for _ in range(_REDRAW_CAP):
        state = rng.uniform(-0.5, 0.5, size=n)
        if np.max(np.abs(state)) >= 1e-6:
            return state
    raise NumericError("initial state kept drawing as (near) zero")


class Reservoir:
    """Mutable state machine; single writer, but distinct instances are
    independent and can be advanced in parallel."""

    def __init__(self, W, leak, state):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionError(f"weight matrix must be square, got shape {W.shape}")
        if not np.all(np.isfinite(W)):
            raise InputError("weight matrix entries must be finite")
        n = W.shape[0]

        if np.isscalar(leak):
            leak = np.full(n, float(leak))
        leak = np.asarray(leak, dtype=float)
        if leak.shape != (n,):
            raise DimensionError(f"leak vector must have shape ({n},), got {leak.shape}")
        if not np.all((leak > 0.0) & (leak <= 1.0)):
            raise InputError("every leak value must lie in (0, 1]")

        state = np.asarray(state, dtype=float)
        if state.shape != (n,):
            raise DimensionError(f"state must have shape ({n},), got {state.shape}")
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > 1.0:
            raise InputError("state values must be finite and within [-1, 1]")

        self.W = W
        self.leak = leak
        self.state = state.copy()
        self.step_count = 0

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def step(self) -> "Reservoir":
        """Advance the state one tick."""
        x = self.state
        new = (1.0 - self.leak) * x + self.leak * np.tanh(self.W @ x)
        if not np.all(np.isfinite(new)):
            unit = int(np.flatnonzero(~np.isfinite(new))[0])
            raise NumericError(
                f"non-finite state at unit {unit} on step {self.step_count + 1}"
            )
        self.state = new
        self.step_count += 1
        return self

    def run(self, tau: int) -> "StateTrajectory":
        """Advance `tau` ticks, recording every state including the initial one.

        The reservoir is left at the final state, so consecutive runs
        concatenate: run(a) then run(b) visits the same states as run(a+b),
        and both give the same bits as `tau` calls of step(). Finiteness is
        checked once, after the last tick: a non-finite state raises the
        NumericError step() would raise, naming the first failing step and
        unit, and leaves the reservoir at the last finite state.
        """
        if tau < 1:
            raise InputError("tau must be at least 1")
        W, leak, keep = self.W, self.leak, 1.0 - self.leak
        rows = np.empty((tau + 1, self.n))
        rows[0] = self.state
        drive = np.empty(self.n)
        for t in range(tau):
            x, new = rows[t], rows[t + 1]
            np.matmul(W, x, out=drive)
            np.tanh(drive, out=drive)
            drive *= leak
            np.multiply(keep, x, out=new)
            new += drive
        # finite states stay in [-1, 1], so the sum is finite unless one is not
        if not np.isfinite(rows.sum()):
            step, unit = np.argwhere(~np.isfinite(rows[1:]))[0]
            self.state = rows[step].copy()
            self.step_count += int(step)
            raise NumericError(
                f"non-finite state at unit {unit} on step {self.step_count + 1}"
            )
        self.state = rows[-1].copy()
        self.step_count += tau
        return StateTrajectory._adopt(rows)


def run_batch(W, states, leak, scale, tau: int, keep: int, lead=None) -> np.ndarray:
    """Advance the rows of `states` (B, n) together for `tau` ticks, one
    matrix product per tick for the whole batch, and return the last `keep`
    recorded states shaped (keep, B, n) (the initial state counts as
    recorded).

    Row j follows Reservoir's update with the weights `scale[j] * W`,
    computed as `scale[j] * (W @ x)`, at leak `leak[j]`:

        x' = (1 - leak_j) * x + leak_j * tanh(scale_j * (W @ x))

    `scale` and `leak` hold one value per row, each leak in (0, 1], and the
    states lie within [-1, 1], as Reservoir requires. `lead = (rows, block)`
    replaces the leading k x k block of the listed rows' weights by `block`,
    as inject_ensemble does, by correcting those rows' k leading drives.

    Results agree with Reservoir.run to rounding, not bit for bit, and a
    row's bits depend on the batch width and on its position in the batch.
    A non-finite state stays non-finite, so finiteness (non-finite weights
    included) is checked once, on the kept states: a NumericError names the
    first failing row as `exc.row`.
    """
    if tau < 1 or not 1 <= keep <= tau + 1:
        raise InputError(f"need tau >= 1 and 1 <= keep <= tau + 1, got {tau} and {keep}")
    W = np.asarray(W, dtype=float)
    x = np.array(states, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise DimensionError(f"states must be a non-empty (B, n) array, got shape {x.shape}")
    batch, n = x.shape
    if W.shape != (n, n):
        raise DimensionError(f"weight matrix must be ({n}, {n}), got shape {W.shape}")
    scale = np.asarray(scale, dtype=float)
    leak = np.asarray(leak, dtype=float)
    if scale.shape != (batch,) or leak.shape != (batch,):
        raise DimensionError(f"need one scale and one leak per row, shape ({batch},), "
                             f"got {scale.shape} and {leak.shape}")
    if not np.all((leak > 0.0) & (leak <= 1.0)):
        raise InputError("every leak value must lie in (0, 1]")
    if not np.all(np.abs(x) <= 1.0):
        raise InputError("state values must be finite and within [-1, 1]")
    scale, leak = scale[:, None], leak[:, None]
    remain = 1.0 - leak
    if lead is not None:
        rows, block = lead
        k = len(block)
        fix = np.asarray(block, dtype=float) - scale[rows, :, None] * W[:k, :k]
    Wt = W.T
    tail = np.empty((keep, batch, n))
    first = tau + 1 - keep  # the tick whose state is kept first
    spare = np.empty_like(x)
    drive = np.empty_like(x)
    if first == 0:
        tail[0] = x
    for t in range(1, tau + 1):
        new = tail[t - first] if t >= first else spare
        np.matmul(x, Wt, out=drive)
        drive *= scale
        if lead is not None:
            drive[rows, :k] += np.matmul(fix, x[rows, :k, None])[..., 0]
        np.tanh(drive, out=drive)
        drive *= leak
        np.multiply(remain, x, out=new)
        new += drive
        if t < first:
            x, spare = new, x
        else:
            x = new
    # finite states stay in [-1, 1], so the sum is finite unless one is not
    if not np.isfinite(tail.sum()):
        _, row, unit = np.argwhere(~np.isfinite(tail))[0]
        exc = NumericError(f"non-finite state at unit {unit} of batch row {row} "
                           f"within {tau} steps")
        exc.row = int(row)
        raise exc
    return tail


class StateTrajectory:
    """Time-major, immutable record of unit states; row t is the state after
    t steps (row 0 is the initial state)."""

    def __init__(self, rows):
        self._hold(np.array(rows, dtype=float))

    @classmethod
    def _adopt(cls, rows: np.ndarray) -> "StateTrajectory":
        """A trajectory over the float array `rows` itself, not a copy: the
        caller hands it over and never writes it again."""
        trajectory = cls.__new__(cls)
        trajectory._hold(rows)
        return trajectory

    def _hold(self, rows: np.ndarray) -> None:
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionError(f"trajectory must be 2-D and non-empty, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise InputError("trajectory values must be finite")
        if max(rows.max(), -rows.min()) > 1.0 + 1e-12:
            raise InputError("trajectory values must lie within [-1, 1]")
        rows.setflags(write=False)
        self.rows = rows

    @property
    def steps(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def unit(self, i: int) -> np.ndarray:
        """The full time series of one unit."""
        return self.rows[:, i]

    def to_csv(self, path) -> None:
        """Write `t,x0,x1,...` rows with 17-significant-digit floats
        (lossless round trip), a block of rows at a time."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            self.write_csv(f)

    def write_csv(self, f) -> None:
        """Write the CSV to the text stream `f`: each value as '%.17g'
        writes it, through the vectorized path where a row allows."""
        from ._csv17g import write_rows  # compiled only where a CSV is written

        f.write("t," + ",".join(f"x{i}" for i in range(self.n)) + "\n")
        write_rows(f, self.rows)

    @classmethod
    def from_csv(cls, path) -> "StateTrajectory":
        with open(path, "r", encoding="utf-8") as f:
            return cls.read_csv(f)

    @classmethod
    def read_csv(cls, f) -> "StateTrajectory":
        if isinstance(f, str):
            f = io.StringIO(f)
        header = f.readline().strip().split(",")
        if not header or header[0] != "t" or len(header) < 2:
            raise InputError("not a trajectory CSV: header must be t,x0,x1,...")
        rows = []
        for lineno, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(header):
                raise InputError(f"line {lineno}: {len(parts)} fields, expected {len(header)}")
            if parts[0] != str(len(rows)):
                raise InputError(f"line {lineno}: t is {parts[0]!r}, expected {len(rows)}")
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
        if not rows:
            raise InputError("trajectory CSV has a header but no rows")
        return cls(np.array(rows))
