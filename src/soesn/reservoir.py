"""The autonomous dynamical core: a leaky-tanh recurrent network driven only
by its own state.

Per step, elementwise over units:

    x'_i = (1 - leak_i) * x_i + leak_i * tanh((W @ x)_i)

There is no input layer and no output feedback. Whether activity damps out
or settles into sustained oscillation is decided entirely by the weight
matrix and the leak vector. Because each update is a convex mix of a value
already in [-1, 1] with a tanh output, states stay in [-1, 1] forever once
started inside it. The update runs in float32; the states it records are
float64, each the exact double of a float32 state.
"""

import io

import numpy as np

from .errors import DimensionError, InputError, NumericError
from .topology import TWO_NEURON_ENSEMBLE

_REDRAW_CAP = 64

# A float32 state below this in magnitude is flushed to 0 on every step.
# Below float32's smallest normal value (2^-126) arithmetic on subnormals is
# many times slower, and a damped state decays into them: a stack of 48
# states at n=100, rho 0.6 and leak 0.2 ran 1000 steps in 380 ms unflushed,
# 130 ms flushed at 2^-126 (its products with the weights are still
# subnormal), 38 ms at 2^-120 and 29 ms at 2^-116 or above, against 48 ms
# in float64. 2^-100 keeps a 2^16 margin for small weights.
STATE_FLOOR = np.float32(2.0 ** -100)


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
        if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
            raise DimensionError(f"weight matrix must be square and non-empty, got shape {W.shape}")
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

    def run(self, tau: int) -> "StateTrajectory":
        """Advance `tau` ticks, recording every state including the initial one.

        The width-1 case of run_batch's loop, on the weights as they are.
        The reservoir is left at the final state, so consecutive runs
        concatenate: run(a) then run(b) visits the same states as run(a+b),
        and both give the same bits as `tau` calls of run(1). A non-finite
        state raises a NumericError naming the first failing step and unit,
        and leaves the reservoir at the last finite state.
        """
        if tau < 1:
            raise InputError("tau must be at least 1")
        rows = _advance(self.W, self.state[None], self.leak[None], None, tau, tau + 1)[:, 0]
        # finite states stay in [-1, 1], so the sum is finite unless one is not
        if not np.isfinite(rows.sum()):
            step, unit = np.argwhere(~np.isfinite(rows[1:]))[0]
            self.state = rows[step].copy()
            self.step_count += int(step)
            raise NumericError(f"non-finite state at unit {unit} on step {self.step_count + 1}")
        self.state = rows[-1].copy()
        self.step_count += tau
        return StateTrajectory._adopt(rows)


def run_batch(W, states, leak, scale, tau: int, keep: int, injected=None) -> np.ndarray:
    """Advance the rows of `states` (B, n) together for `tau` ticks, one
    matrix product per tick for the whole batch, and return the last `keep`
    recorded states shaped (keep, B, n) (the initial state counts as
    recorded).

    Row j follows Reservoir's update with the weights `scale[j] * W`,
    computed as `scale[j] * (W @ x)`, at leak `leak[j]`:

        x' = (1 - leak_j) * x + leak_j * tanh(scale_j * (W @ x))

    `scale` and `leak` hold one value per row, each leak in (0, 1], and the
    states lie within [-1, 1], as Reservoir requires. `injected`, one bool
    per row (None: none), puts TWO_NEURON_ENSEMBLE in the leading 2 x 2
    block of those rows' weights, as inject_ensemble does, by correcting
    their two leading drives; it needs n >= 2.

    A stack of G batches runs in the same loop: weights (G, n, n), states
    (G, B, n), and `scale`, `leak` and `injected` shaped (G, B), with the
    kept states shaped (keep, G, B, n). Batch g runs on W[g], and the tick's
    one stacked product makes one BLAS call per batch, each with the shape
    and strides of a 2-D call, so a state's bits do not depend on the stack.

    Reservoir.run is the width-1 case of the same loop. A row's bits differ
    from that run's only through factoring the scale out of the product
    and through the batch width and the row's position in the batch. A
    non-finite state stays non-finite, so finiteness (non-finite weights
    included) is checked once, on the kept states: a NumericError names the
    first failing row as `exc.row`, and its batch of a stack as `exc.stack`
    (None for a 2-D call).
    """
    if tau < 1 or not 1 <= keep <= tau + 1:
        raise InputError(f"need tau >= 1 and 1 <= keep <= tau + 1, got {tau} and {keep}")
    W = np.asarray(W, dtype=float)
    x = np.asarray(states, dtype=float)
    if x.ndim not in (2, 3) or x.size == 0:
        raise DimensionError(f"states must be a non-empty (B, n) or (G, B, n) array, "
                             f"got shape {x.shape}")
    rows, n = x.shape[:-1], x.shape[-1]
    if W.shape != rows[:-1] + (n, n):
        raise DimensionError(f"weight matrices must be {rows[:-1] + (n, n)}, got shape {W.shape}")
    scale = np.asarray(scale, dtype=float)
    leak = np.asarray(leak, dtype=float)
    injected = np.zeros(rows, bool) if injected is None else np.asarray(injected)
    if scale.shape != rows or leak.shape != rows or injected.shape != rows:
        raise DimensionError(f"need one scale, leak and injected flag per row, shape {rows}, "
                             f"got {scale.shape}, {leak.shape} and {injected.shape}")
    if injected.dtype != bool or (n < 2 and injected.any()):
        raise DimensionError(f"injected needs bools, and rows of 2 units or more if one is "
                             f"set, got {injected.dtype} flags on {n} units")
    if not np.all((leak > 0.0) & (leak <= 1.0)):
        raise InputError("every leak value must lie in (0, 1]")
    if not np.all(np.abs(x) <= 1.0):
        raise InputError("state values must be finite and within [-1, 1]")
    tail = _advance(W, x, leak[..., None], scale[..., None], tau, keep,
                    injected.nonzero() if injected.any() else None)
    # finite states stay in [-1, 1], so the sum is finite unless one is not
    if not np.isfinite(tail.sum()):
        *stack, row, unit = np.argwhere(~np.isfinite(tail))[0][1:]
        where = f" of stack entry {stack[0]}" if stack else ""
        exc = NumericError(f"non-finite state at unit {unit} of batch row {row}{where} "
                           f"within {tau} steps")
        exc.row = int(row)
        exc.stack = int(stack[0]) if stack else None
        raise exc
    return tail


def _advance(W, x, leak, scale, tau: int, keep: int, injected=None) -> np.ndarray:
    """The one state-update loop. Advance the states `x` (B, n), or a stack
    of them (G, B, n) on the weights W (G, n, n), for `tau` ticks, without
    writing `x`, and return the last `keep` recorded states, shaped
    (keep,) + x.shape. `leak` broadcasts against `x`; `scale` is a factor
    on each row's drive that broadcasts against `x` (one per row), or None
    when the weights are already scaled. Neither is written: both are
    expanded to x.shape once, before the loop, since a multiply of equal
    shapes costs less than a broadcasting one and gives the same bits.
    `injected` (None: no row), index arrays into x.shape[:-1] as nonzero()
    gives them, picks the rows whose leading 2 x 2 block of `scale * W` is
    replaced by TWO_NEURON_ENSEMBLE (through a correction of their two
    leading drives, so `scale` must be given). Nothing is checked: a
    non-finite state is returned as it is.

    The update runs in float32. The weights, `scale`, `leak`, `1 - leak`
    and the injected rows' correction are taken in float64 and rounded to
    float32 once; one beyond float32's range becomes infinite, and then an
    overflowing drive saturates through tanh, or an inf * 0 or inf - inf
    NaN is returned for the caller. The initial state is rounded to float32
    (a kept initial state is recorded as given), every later state below
    STATE_FLOOR in magnitude is flushed to 0, and each kept state is
    written to the float64 tail as its exact double.
    """
    f32 = np.float32
    tail = np.empty((keep,) + x.shape)
    first = tau + 1 - keep  # the tick whose state is kept first
    if first == 0:
        tail[0] = x
    # a value beyond float32's range rounds to inf, tanh saturates an
    # overflowing drive, and a NaN is left for the caller
    with np.errstate(over="ignore", invalid="ignore"):
        leak, remain = [np.ascontiguousarray(np.broadcast_to(v, x.shape), f32)
                        for v in (leak, 1.0 - np.asarray(leak))]
        Wt = np.swapaxes(W.astype(f32), -1, -2)
        if injected is not None:
            lead = injected + (slice(2),)  # the injected rows' two leading units
            block = W[..., :2, :2][injected[:-1]]  # the leading block of each row's W
            factor = np.broadcast_to(scale, x.shape)[injected][:, :1, None]
            fix = (TWO_NEURON_ENSEMBLE - factor * block).astype(f32)
        if scale is not None:
            scale = np.ascontiguousarray(np.broadcast_to(scale, x.shape), f32)
        x = x.astype(f32)
        states = np.empty((2,) + x.shape, f32)  # this tick's state and the last one
        drive, size, small = np.empty_like(x), np.empty_like(x), np.empty(x.shape, bool)
        for t in range(1, tau + 1):
            new = states[t % 2]
            np.matmul(x, Wt, out=drive)
            if scale is not None:
                drive *= scale
            if injected is not None:
                drive[lead] += np.matmul(fix, x[lead][..., None])[..., 0]
            np.tanh(drive, out=drive)
            drive *= leak
            np.multiply(remain, x, out=new)
            new += drive
            np.abs(new, out=size)
            np.less(size, STATE_FLOOR, out=small)
            np.copyto(new, 0.0, where=small)
            if t >= first:
                tail[t - first] = new
            x = new
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
        """Parse CSV text (a str, not a path) or a text stream; from_csv takes a path."""
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
