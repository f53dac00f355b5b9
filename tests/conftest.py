"""Shared test oracles, deliberately independent of the library's own code
paths: the DFT oracle loops over the definition, the RK4 oracle is written
per-component from the tableau, the ridge oracle uses the explicit inverse
formula, the weakly coupled builder draws block pair by block pair, and
the two ratio experiments are re-run trial by trial from the library's
building blocks, one state at a time through Reservoir.run (the library
batches the states). The float32 update is written out as plain
broadcasting steps (float32_update), the exact reference for batched
states, whose rounding depends on their batch. The trajectory CSV writer and the line chart are kept
here as first written, value by value and point by point, as byte oracles
for the library's faster writers."""

import cmath
import math
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

from soesn import (
    TWO_NEURON_ENSEMBLE,
    Reservoir,
    build_dense,
    classify_trajectory,
    derive_seed,
    init_state,
    inject_ensemble,
    scale_to_spectral_radius,
    spectral_radius,
    svgplot,
)
from soesn.experiments import BATCH_WIDTH
from soesn.reservoir import STATE_FLOOR
from soesn.numerics import _blas_threads, _set_blas_threads
from soesn.seeding import ROLE_STATE, ROLE_WEIGHTS

# Property tests draw the same examples on every run and store none, so the
# suite stays deterministic and leaves no example database behind. The
# explain phase is off: it re-runs a failing test under a line tracer for
# about a minute before the failure is reported.
settings.register_profile("soesn", derandomize=True, database=None, deadline=None,
                          max_examples=40,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("soesn")


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the source in its home
    # directory, at collection and whatever the profile says; keep that cache
    # out of the checkout
    home = tempfile.TemporaryDirectory(prefix="soesn-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
    # the test process runs BLAS on one thread, as `soesn.cli.main` does for
    # every run: tests that call the experiments directly compute the CLI's
    # bits, their pool workers take one thread each, and no result depends
    # on which test ran `main` first (a spawned worker that imports this
    # module is left alone)
    _set_blas_threads(1)


def naive_dft_power(signal):
    """O(n^2) periodogram straight from the definition, mean removed."""
    x = [float(v) for v in signal]
    n = len(x)
    mean = sum(x) / n
    x = [v - mean for v in x]
    powers = []
    for k in range(n // 2 + 1):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(-2j * cmath.pi * k * t / n)
        powers.append(abs(acc) ** 2 / n)
    return np.array(powers)


def rk4_lorenz_oracle_step(state, dt, sigma=10.0, alpha=28.0, beta=2.667):
    """One classical RK4 step for the Lorenz system, written out
    component-by-component from the Butcher tableau."""

    def fx(x, y, z):
        return sigma * (y - x)

    def fy(x, y, z):
        return x * (alpha - z) - y

    def fz(x, y, z):
        return x * y - beta * z

    x, y, z = (float(v) for v in state)
    k1x, k1y, k1z = (dt * f(x, y, z) for f in (fx, fy, fz))
    xs, ys, zs = x + 0.5 * k1x, y + 0.5 * k1y, z + 0.5 * k1z
    k2x, k2y, k2z = (dt * f(xs, ys, zs) for f in (fx, fy, fz))
    xs, ys, zs = x + 0.5 * k2x, y + 0.5 * k2y, z + 0.5 * k2z
    k3x, k3y, k3z = (dt * f(xs, ys, zs) for f in (fx, fy, fz))
    xs, ys, zs = x + k3x, y + k3y, z + k3z
    k4x, k4y, k4z = (dt * f(xs, ys, zs) for f in (fx, fy, fz))
    return np.array(
        [
            x + (k1x + 2 * k2x + 2 * k3x + k4x) / 6,
            y + (k1y + 2 * k2y + 2 * k3y + k4y) / 6,
            z + (k1z + 2 * k2z + 2 * k3z + k4z) / 6,
        ]
    )


def ridge_oracle(X, Y, lam):
    """Explicit (X'X + lam I)^-1 X'Y normal-equation solution."""
    n = X.shape[1]
    return np.linalg.inv(X.T @ X + lam * np.eye(n)) @ (X.T @ Y)


def pair_loop_weakly_coupled(n, sub_count, coupling_scale, coupling_density, seed):
    """The weakly coupled layout drawn one block pair at a time, in the
    stream order build_weakly_coupled must keep: every diagonal block, then
    each ordered pair (i, j), j != i, row-major, mask block before value
    block."""
    base, extra = divmod(n, sub_count)
    sizes = [base + 1] * extra + [base] * (sub_count - extra)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    for i, size in enumerate(sizes):
        block = slice(offsets[i], offsets[i + 1])
        W[block, block] = rng.uniform(-0.5, 0.5, size=(size, size))
    for i in range(sub_count):
        for j in range(sub_count):
            if i == j:
                continue
            rows = slice(offsets[i], offsets[i + 1])
            cols = slice(offsets[j], offsets[j + 1])
            shape = (sizes[i], sizes[j])
            mask = rng.random(size=shape) < coupling_density
            values = rng.uniform(-0.5, 0.5, size=shape) * coupling_scale
            W[rows, cols] = np.where(mask, values, 0.0)
    return W


def reference_run(n, matrix_seed, rho, leak, state_seed, tau, injected=False):
    """One state of a dense trial plan, run on its own: the seeded dense
    matrix scaled as a whole, the ensemble spliced in when `injected`, and
    the rows Reservoir.run records."""
    W = scale_to_spectral_radius(build_dense(n, matrix_seed), rho)
    if injected:
        W = inject_ensemble(W)
    return Reservoir(W, leak, init_state(n, state_seed)).run(tau)


def float32_update(W, x, leak, scale, tau, injected=None):
    """The update in plain float32 numpy, one broadcasting step at a time:
    W (n, n) or a stack (G, n, n), states (B, n) or (G, B, n), and one leak
    and scale per row, each taken in float64 and rounded once, as are the
    injected rows' corrections of their two leading drives. Returns every
    state, the given one first, as float64."""
    x, leak, scale = (np.asarray(a, dtype=float) for a in (x, leak, scale))
    expected = [x]
    f32 = np.float32
    lead = None if injected is None or not np.any(injected) else \
        np.nonzero(injected) + (slice(2),)
    if lead is not None:
        block = W[..., :2, :2][lead[:-2]] if W.ndim == 3 else W[:2, :2]
        fix = (TWO_NEURON_ENSEMBLE - scale[lead[:-1]][:, None, None] * block).astype(f32)
    Wt = np.swapaxes(W.astype(f32), -1, -2)
    s, a, b = (v[..., None].astype(f32) for v in (scale, leak, 1.0 - leak))
    x = x.astype(f32)
    for _ in range(tau):
        drive = s * (x @ Wt)
        if lead is not None:
            drive[lead] += np.matmul(fix, x[lead][..., None])[..., 0]
        x = b * x + a * np.tanh(drive)
        x[np.abs(x) < STATE_FLOOR] = 0.0
        expected.append(x.astype(float))
    return np.array(expected)


def plan_reference(n, matrix_seed, state_seed, rho, leak, injected, tau):
    """Each dense trial plan's recorded states as run_plans runs them: the
    float32 update of BATCH_WIDTH plans at a time from one initial state,
    plan j on the seeded dense matrix with the scale rho_j / radius."""
    W = build_dense(n, matrix_seed)
    scale = np.array(rho) / spectral_radius(W)
    x = np.repeat(init_state(n, state_seed)[None], len(rho), axis=0)
    leak, injected = np.array(leak, dtype=float), np.array(injected, dtype=bool)
    plans = []
    for start in range(0, len(rho), BATCH_WIDTH):
        cut = slice(start, start + BATCH_WIDTH)
        rows = float32_update(W, x[cut], leak[cut], scale[cut], tau, injected[cut])
        plans.extend(rows.transpose(1, 0, 2))
    return plans


def _reference_oscillates(n, tau, leak, rho, seed, injected=False):
    trajectory = reference_run(n, derive_seed(seed, ROLE_WEIGHTS), rho, leak,
                               derive_seed(seed, ROLE_STATE), tau, injected)
    return classify_trajectory(trajectory).reservoir_is_self_oscillatory


def reference_sweep_grid(leak_values, rho_values, trials, n, tau, base_seed):
    """The sweep's ratio grid, one state at a time: trial t's matrix and
    state, drawn from derive_seed(base_seed, t), run at every cell."""
    grid = np.empty((len(leak_values), len(rho_values)))
    for li, leak in enumerate(leak_values):
        for ri, rho in enumerate(rho_values):
            flags = [
                _reference_oscillates(n, tau, leak, rho, derive_seed(base_seed, t))
                for t in range(trials)
            ]
            grid[li, ri] = sum(flags) / trials
    return grid


def reference_injection_rows(populations, trials, tau, rho, leak, base_seed):
    """(population, ratio_without, ratio_with) per population, one arm of
    one paired trial at a time."""
    rows = []
    for pi, p in enumerate(populations):
        seeds = [derive_seed(base_seed, pi, t) for t in range(trials)]
        without = sum(_reference_oscillates(p, tau, leak, rho, s) for s in seeds)
        with_ = sum(_reference_oscillates(p, tau, leak, rho, s, injected=True) for s in seeds)
        rows.append((p, without / trials, with_ / trials))
    return rows


def fstring_write_csv(trajectory, f):
    """The trajectory CSV writer as first written: one f-string per value."""
    f.write("t," + ",".join(f"x{i}" for i in range(trajectory.n)) + "\n")
    for t, row in enumerate(trajectory.rows):
        f.write(str(t) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def per_point_line_chart(path, series, title, x_label="", y_label="", timestamp=None):
    """svgplot.line_chart as first written: one Python to_px call and two
    .2f formats per point."""
    canvas = svgplot._Canvas(title, timestamp)
    xs_all = np.concatenate([np.asarray(xs, float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, float) for _, _, ys in series])
    pad = 0.05 * (ys_all.max() - ys_all.min() or 1.0)
    to_px = svgplot._axes(
        canvas,
        float(xs_all.min()), float(xs_all.max()),
        float(ys_all.min()) - pad, float(ys_all.max()) + pad,
        x_label, y_label,
    )
    for k, (label, xs, ys) in enumerate(series):
        color = svgplot.PALETTE[k % len(svgplot.PALETTE)]
        points = [to_px(float(x), float(y)) for x, y in zip(xs, ys)]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        canvas.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.4"/>\n'
        )
        if label:
            y_legend = svgplot.MARGIN_TOP + 14 * k
            canvas.line(svgplot.WIDTH - 150, y_legend, svgplot.WIDTH - 130, y_legend,
                        stroke=color, width=2)
            canvas.text(svgplot.WIDTH - 125, y_legend + 4, label, size=10)
    canvas.save(path)


def classifier_corpus(length=1000):
    """The six-signal synthetic corpus: (name, signal, should_oscillate)."""
    t = np.arange(length, dtype=float)
    constant = np.full(length, 0.7)
    decay = np.concatenate(
        [np.linspace(1.0, 0.3, length - 200), np.full(200, 0.3)]
    )
    damped = np.exp(-t / 50.0) * np.sin(0.3 * t)
    sustained = np.sin(2 * np.pi * 10 * t / 100.0)
    two_tone = np.sin(2 * np.pi * 3 * t / 100.0) + 0.5 * np.sin(2 * np.pi * 11 * t / 100.0)
    logistic = np.empty(length)
    logistic[0] = 0.5123
    for i in range(length - 1):
        logistic[i + 1] = 3.9 * logistic[i] * (1.0 - logistic[i])
    return [
        ("constant", constant, False),
        ("linear_decay_to_constant", decay, False),
        ("damped_sinusoid", damped, False),
        ("sustained_sinusoid", sustained, True),
        ("two_tone_sum", two_tone, True),
        ("logistic_map_r39", logistic, True),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_threads():
    """Sets the bundled OpenBLAS's thread count for one test and restores
    it after; skips the test on another BLAS."""
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy does not run on the bundled OpenBLAS")
    yield _set_blas_threads
    _set_blas_threads(before)


@pytest.fixture
def two_blas_threads(blas_threads):
    """The bundled OpenBLAS on two threads for the test, so that one thread
    set by the code under test tells from the caller's."""
    blas_threads(2)
