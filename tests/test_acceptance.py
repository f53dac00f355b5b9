"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every test here carries
the `acceptance` marker, so `pytest -m "not acceptance"` runs the rest of
the suite without it. Every threshold is pinned here, not tuned at
runtime. All sampling is seeded (base seed 0), so each verdict is
deterministic.

Criterion 5 is expected to fail; the test prints the measured count and the
analysis. The operationalized statistic (per-unit dominant bin, stable
across initial states, in >= 18/20 reservoirs) is not attainable: units
with two near-equal spectral peaks flip their argmax bin between runs, and
some reservoirs are genuinely multistable.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from soesn import (
    TWO_NEURON_ENSEMBLE,
    InjectConfig,
    ReproduceConfig,
    Reservoir,
    StateTrajectory,
    SweepConfig,
    build_dense,
    classify_trajectory,
    derive_seed,
    distribution_from_outcomes,
    gen_lorenz,
    gen_sinusoid,
    gen_square,
    init_state,
    injection_ratio_experiment,
    periodogram,
    reproduce_trials,
    run_batch,
    spectral_radius,
    subreservoir_count_outcomes,
    sweep_heatmap,
    train_ridge,
)
from soesn.cli import main as cli_main
from soesn.oscillation import WINDOW

from conftest import classifier_corpus, naive_dft_power, ridge_oracle, rk4_lorenz_oracle_step

pytestmark = pytest.mark.acceptance

BASE_SEED = 0
JOBS = 2

SINE = gen_sinusoid(1000, dt=1.0, mode="pure_sine", freq=0.05)
SQUARE = gen_square(1000, dt=0.01)
REPRODUCTION = ReproduceConfig(
    leak_mu=0.6, leak_sigma=0.1, rho=1.25, ridge_lambda=1e-8, washout=100, max_attempts=10,
    seed=BASE_SEED,
)


def check(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{cid} {name}: {detail}"


# --------------------------------------------------------------------------
# shared sample of self-oscillatory dense reservoirs (criteria 4 and 5)
# --------------------------------------------------------------------------

_SAMPLE_CACHE = {}


def sample_oscillatory_reservoirs(count=20, n=100, rho=1.25, leak=0.5):
    """The first `count` attempts (in attempt order, at most 40 * count)
    whose reservoir oscillates from its first initial state, with the
    reports of both of its initial states: attempt a builds one matrix from
    derive_seed(BASE_SEED, a) and runs both states on it in one batch."""
    key = (count, n, rho, leak)
    if key not in _SAMPLE_CACHE:
        sampled = []
        for attempt in range(40 * count):
            seed = derive_seed(BASE_SEED, attempt)
            W0 = build_dense(n, derive_seed(seed, 0))
            c = rho / spectral_radius(W0)
            states = [init_state(n, derive_seed(seed, s)) for s in (1, 2)]
            tail = run_batch(W0, states, [leak] * 2, [c] * 2, 1000, WINDOW)
            first, second = (classify_trajectory(StateTrajectory(rows))
                             for rows in tail.transpose(1, 0, 2))
            if first.reservoir_is_self_oscillatory:
                sampled.append((first, second))
                if len(sampled) == count:
                    break
        assert len(sampled) == count, "could not sample enough oscillatory reservoirs"
        _SAMPLE_CACHE[key] = sampled
    return _SAMPLE_CACHE[key]


def test_c01_subcritical_radius_suppresses_oscillation():
    config = SweepConfig(leak_values=(0.5,), rho_values=(0.8, 2.0), trials=200, n=100,
                         tau=1000, seed=BASE_SEED)
    result = sweep_heatmap(config, jobs=JOBS)
    low, high = result.ratio(0, 0), result.ratio(0, 1)
    check(
        "C1", "subcritical-radius-suppression",
        low <= 0.02 and high >= low + 0.20,
        f"ratio(rho=0.8)={low:.3f} <= 0.02 and ratio(rho=2.0)={high:.3f} >= {low:.3f}+0.20",
    )


def test_c02_leak_controls_frequency():
    bins = {}
    for leak in (0.2, 0.8):
        trajectory = Reservoir(TWO_NEURON_ENSEMBLE, leak, init_state(2, seed=7)).run(1000)
        bins[leak] = periodogram(trajectory.unit(0)[-100:]).dominant_bin()
    check(
        "C2", "leak-controls-frequency",
        bins[0.2] < bins[0.8],
        f"dominant bin at leak 0.2 = {bins[0.2]} < {bins[0.8]} = bin at leak 0.8",
    )


def test_c03_ensemble_injection_raises_ratio():
    config = InjectConfig(populations=(10, 50, 500), trials=500, tau=1000, rho=1.25, leak=0.5,
                          seed=BASE_SEED)
    rows = injection_ratio_experiment(config, jobs=JOBS)
    by_population = {row.population: row for row in rows}
    gap10 = by_population[10].gap
    gap500 = by_population[500].gap
    detail = (
        f"gap(N=10)={gap10:.3f} >= 0.10; gap(N=500)={gap500:.3f} < gap(N=10); "
        f"gap(N=50)={by_population[50].gap:.3f}"
    )
    check("C3", "injection-raises-ratio", gap10 >= 0.10 and gap500 < gap10, detail)


def _locked_fraction(report) -> float:
    bins = report.oscillating_bins()
    modal = Counter(bins).most_common(1)[0][0]
    return sum(1 for b in bins if abs(b - modal) <= 1) / len(bins)


def test_c04_phase_locking_in_dense_reservoirs():
    sampled = sample_oscillatory_reservoirs()
    fractions = [_locked_fraction(first) for first, _ in sampled]
    mean_fraction = float(np.mean(fractions))
    check(
        "C4", "phase-locking",
        mean_fraction >= 0.95,
        f"mean locked-unit fraction {mean_fraction:.3f} >= 0.95 over 20 reservoirs "
        f"(min {min(fractions):.2f}, per-reservoir >= 0.95 in "
        f"{sum(1 for f in fractions if f >= 0.95)}/20)",
    )


def test_c05_washout_preserves_per_unit_bins():
    sampled = sample_oscillatory_reservoirs()
    agreeing = 0
    for first, second in sampled:
        same = all(
            u1.is_oscillating == u2.is_oscillating
            and (not u1.is_oscillating or abs(u1.dominant_bin - u2.dominant_bin) <= 1)
            for u1, u2 in zip(first.per_unit, second.per_unit)
        )
        agreeing += same
    check(
        "C5", "washout-preserves-bins",
        agreeing >= 18,
        f"per-unit dominant bins identical (+/-1) in {agreeing}/20 reservoirs, need 18; "
        "KNOWN DEFECT of the metric: a unit whose tail spectrum carries two "
        "near-equal peaks flips its argmax bin between initial states, and some "
        "reservoirs are genuinely multistable; measured 12-18/20 across seed "
        "batches, so the bar is not reachable without seed-shopping",
    )


def test_c06_waveform_reproduction_sine_and_square():
    config = replace(REPRODUCTION, n=500, sub_count=8, trials=30)
    medians = {}
    for label, target in (("sine", SINE), ("square", SQUARE)):
        outcomes = reproduce_trials(config, target, jobs=JOBS)
        values = [o.mean_nrmse() for o in outcomes if o.oscillatory]
        assert values, f"no oscillatory trials for {label}"
        medians[label] = float(np.median(values))
    check(
        "C6", "waveform-reproduction",
        medians["sine"] < 0.05 and medians["square"] < 0.25,
        f"median train NRMSE: sine {medians['sine']:.4f} < 0.05, "
        f"square {medians['square']:.4f} < 0.25 (30 trials each)",
    )


def test_c07_lorenz_fit():
    target = gen_lorenz(2000, dt=0.01, x0=(0.0, 1.0, 1.05), sigma=10.0, alpha=28.0, beta=2.667)
    config = replace(REPRODUCTION, n=1000, sub_count=16, trials=15)
    outcomes = reproduce_trials(config, target, jobs=JOBS)
    oscillatory = [o for o in outcomes if o.oscillatory]
    assert oscillatory, "no oscillatory Lorenz trials"
    per_dim = np.array([o.train_nrmse for o in oscillatory])
    medians = np.median(per_dim, axis=0)
    check(
        "C7", "lorenz-fit",
        bool(np.all(medians < 0.15)),
        f"median per-dimension train NRMSE {np.round(medians, 4).tolist()} < 0.15 "
        f"({len(oscillatory)}/15 oscillatory)",
    )


def test_c08_interior_optimum_in_sub_reservoir_count():
    config = replace(REPRODUCTION, n=512, sub_counts=(1, 8, 128), trials=30)
    per_count = subreservoir_count_outcomes(config, SINE, jobs=JOBS)
    distributions = [distribution_from_outcomes(m, outcomes) for m, outcomes in per_count]
    medians = {d.sub_count: d.quartiles()[1] for d in distributions}
    check(
        "C8", "interior-optimum",
        medians[8] <= medians[1] and medians[8] <= medians[128],
        f"median NRMSE M=8 {medians[8]:.4f} <= M=1 {medians[1]:.4f} "
        f"and <= M=128 {medians[128]:.4f} (30 trials each)",
    )


def test_c09_oracle_suites():
    rng = np.random.default_rng(BASE_SEED)

    worst_ridge = 0.0
    for _ in range(50):
        X = rng.normal(0, 1, (120, 12))
        Y = rng.normal(0, 1, (120, 2))
        model = train_ridge(X, Y, ridge_lambda=1e-8, washout=0)
        oracle = ridge_oracle(X, Y, 1e-8)
        worst_ridge = max(
            worst_ridge, float(np.max(np.abs(model.W_out - oracle)) / np.max(np.abs(oracle)))
        )

    worst_dft = 0.0
    for _ in range(50):
        length = int(rng.integers(16, 128))
        x = rng.normal(0, 1, length)
        worst_dft = max(
            worst_dft, float(np.max(np.abs(periodogram(x).bin_power - naive_dft_power(x))))
        )

    first = gen_lorenz(2, dt=0.01).values[1]
    rk4_error = float(np.max(np.abs(first - rk4_lorenz_oracle_step((0.0, 1.0, 1.05), 0.01))))

    worst_homogeneity = 0.0
    for seed in range(5):
        W = np.random.default_rng(seed).uniform(-0.5, 0.5, (60, 60))
        base = spectral_radius(W)
        for c in (-2.0, 0.5, 3.0):
            worst_homogeneity = max(
                worst_homogeneity,
                abs(spectral_radius(c * W) - abs(c) * base) / (abs(c) * base),
            )

    ok = (
        worst_ridge <= 1e-6
        and worst_dft <= 1e-9
        and rk4_error <= 1e-12
        and worst_homogeneity <= 1e-6
    )
    check(
        "C9", "oracle-suites", ok,
        f"ridge vs oracle {worst_ridge:.2e} <= 1e-6; periodogram vs DFT "
        f"{worst_dft:.2e} <= 1e-9; RK4 first step {rk4_error:.2e} <= 1e-12; "
        f"radius homogeneity {worst_homogeneity:.2e} <= 1e-6",
    )


def test_c10_classifier_sanity_corpus():
    from soesn import classify_unit

    wrong = [
        name
        for name, signal, expected in classifier_corpus()
        if classify_unit(signal).is_oscillating != expected
    ]
    check(
        "C10", "classifier-sanity",
        not wrong,
        "6/6 corpus signals classified correctly" if not wrong else f"misclassified {wrong}",
    )


def test_c11_cli_reproducibility(tmp_path):
    def read(path):
        with open(path, "rb") as f:
            return f.read()

    # sweep: rerun from echo, different jobs
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    sweep_args = ["sweep", "--leak-values", "0.5", "--rho-values", "0.8,2.0",
                  "--trials", "10", "--n", "50", "--tau", "400", "--seed", "9",
                  "--deterministic"]
    assert cli_main(sweep_args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert cli_main(["sweep", "--config", str(out1 / "config.echo.json"),
                     "--out", str(out2), "--jobs", "2", "--deterministic"]) == 0
    sweep_ok = (
        read(out1 / "sweep.csv") == read(out2 / "sweep.csv")
        and read(out1 / "config.echo.json") == read(out2 / "config.echo.json")
    )

    # reproduce: rerun from echo
    out3, out4 = tmp_path / "r1", tmp_path / "r2"
    rep_args = ["reproduce", "--target", "sine", "--n", "100", "--sub", "4",
                "--tau", "400", "--seed", "3", "--deterministic"]
    assert cli_main(rep_args + ["--out", str(out3)]) == 0
    assert cli_main(["reproduce", "--config", str(out3 / "config.echo.json"),
                     "--out", str(out4), "--deterministic"]) == 0
    reproduce_ok = read(out3 / "nrmse.json") == read(out4 / "nrmse.json")

    check(
        "C11", "cli-reproducibility",
        sweep_ok and reproduce_ok,
        "rerun from config.echo.json is byte-identical and independent of --jobs",
    )
