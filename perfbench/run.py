"""soesn benchmark: three CLI workloads, end-to-end metrics, and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed). With `--trace 0` the `soesn` CLI runs as a
child process in a closed loop, one invocation after another, for
`--seconds`; with `--trace 1` the same argv runs in-process through
`soesn.cli.main` at `--jobs 1`, alternating untraced and traced
invocations, and every layer's public functions are timed from outside
(see tracing.py). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report, the environment and the per-size layer table.

Workloads (each passes `--deterministic` and the benchmark's `--seed`):

  sweep          the paper's main experiment, a leak x rho grid spanning damped
                 (rho < 1) and oscillating cells: one radius, one 1000-step run
                 and one classification per trial; the only workload that goes
                 through the process pool (--jobs 2).
  reproduce      large, weakly coupled reservoirs at sub-counts 1/8/128: the
                 radius becomes hundreds of per-block problems, the readout is
                 trained, and non-oscillatory attempts are wasted work.
  trajectory-io  topology-demo at a large n*tau: mostly 17-digit trajectory CSV
                 and SVG writes, and the only workload that builds sparse and
                 block-diagonal weights. A simulation speed-up should not
                 move it.

Outputs are checked on every invocation: exit code 0, every CSV/JSON payload
byte-identical across the run's invocations, sha256 equal to golden.json for
seed 0 at the same artifact_version, and invariants on any seed (ratios in
[0, 1], states in [-1, 1], finite NRMSE). The traced run also checks that
its payloads equal those of a timed child run at the workload's own --jobs.

`--record-golden` stores the seed-0 digests of the current artifact_version
in golden.json; use it only together with a deliberate version bump.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench"

# BLAS pinned to one thread in every child and, before numpy loads, in the
# traced process, so that jobs x BLAS threads stays within the two CPUs the
# workload sizes assume.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 7       # timed `--version` start-ups per run (after one warm-up)
MIN_SAMPLES = 3         # timed invocations per run, whatever --seconds says
CHILD_TIMEOUT_S = 150   # one invocation; keeps a whole run under 180 s
SWEEP_LEAKS, SWEEP_RHOS = (0.2, 0.5, 0.8), (0.6, 0.9, 1.2, 1.5)
REPRODUCE_SUB_COUNTS, REPRODUCE_TRIALS = (1, 8, 128), 12
TRAJECTORY_KINDS = ("dense", "sparse", "block_diagonal", "weakly_coupled")
TRAJECTORY_N, TRAJECTORY_TAU = 200, 2000

# Buckets of the per-size layer table, as metric names: every n the three
# workloads hand to spectral_radius (whole matrices and diagonal blocks)
# and to Reservoir.run.
RADIUS_SIZES = (4, 50, 64, 100, 200, 512)
RUN_SIZES = (100, 200, 512)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    jobs: int
    payloads: tuple[str, ...]


WORKLOADS = {
    "sweep": Workload(
        ("sweep", "--n", "100", "--tau", "1000", "--leak-values", _csv(SWEEP_LEAKS),
         "--rho-values", _csv(SWEEP_RHOS), "--trials", "12"),
        jobs=2,
        payloads=("config.echo.json", "sweep.csv"),
    ),
    "reproduce": Workload(
        ("reproduce", "--target", "sine", "--n", "512",
         "--sub-counts", _csv(REPRODUCE_SUB_COUNTS), "--trials", str(REPRODUCE_TRIALS)),
        jobs=1,
        payloads=("config.echo.json", "boxplot.csv", "trials.jsonl", "summary.json"),
    ),
    "trajectory-io": Workload(
        ("topology-demo", "--n", str(TRAJECTORY_N), "--tau", str(TRAJECTORY_TAU)),
        jobs=1,
        payloads=("config.echo.json",) + tuple(
            f"{kind}_{suffix}" for kind in TRAJECTORY_KINDS
            for suffix in ("trajectory.csv", "report.json")
        ),
    ),
}


class CheckFailed(Exception):
    """An invocation's output broke a check; counts as a failed operation."""


# What reading a malformed or missing payload can raise.
OUTPUT_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SOESN_SEED", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# child invocations
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_child(argv: list[str], log_path: Path) -> Sample:
    """Run `python -m soesn.cli argv` and take its wall time, and from wait4
    the user+sys time and peak RSS of the child and the workers it reaped."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "soesn.cli", *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def workload_argv(workload: Workload, seed: int, jobs: int, out: Path) -> list[str]:
    return [*workload.argv, "--jobs", str(jobs), "--seed", str(seed),
            "--deterministic", "--out", str(out)]


def measure_setup(work: Path) -> list[float]:
    """Interpreter start plus package import: `python -m soesn.cli --version`."""
    walls = []
    for i in range(SETUP_REPEATS + 1):
        log = work / "setup.log"
        sample = run_child(["--version"], log)
        if sample.returncode != 0 or not log.read_text().startswith("soesn "):
            raise SystemExit(f"perfbench: `soesn --version` failed:\n{log.read_text()}")
        if i:  # the first start-up compiles bytecode and warms the file cache
            walls.append(sample.wall_s)
    return walls


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def digests(out: Path, workload: Workload) -> dict[str, str]:
    found = {}
    for name in workload.payloads:
        path = out / name
        if not path.is_file():
            raise CheckFailed(f"missing payload {name}")
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def artifact_version(out: Path) -> str:
    return json.loads((out / "config.echo.json").read_text())["artifact_version"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_sweep(out: Path) -> dict:
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    _require(rows[0] == ["leak", "rho", "ratio", "trials"], "sweep.csv header")
    ratios = [float(r[2]) for r in rows[1:]]
    cells = len(SWEEP_LEAKS) * len(SWEEP_RHOS)
    _require(len(ratios) == cells, f"sweep.csv has {len(ratios)} cells, expected {cells}")
    _require(all(0.0 <= r <= 1.0 for r in ratios), "sweep ratio outside [0, 1]")
    return {"mean_ratio": statistics.fmean(ratios)}


def check_reproduce(out: Path) -> dict:
    lines = (out / "trials.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    expected = len(REPRODUCE_SUB_COUNTS) * REPRODUCE_TRIALS
    _require(len(records) == expected, f"trials.jsonl has {len(records)} trials, not {expected}")
    for rec in records:
        _require(1 <= rec["attempt_count"] <= 10, "attempt_count outside [1, 10]")
        if rec["oscillatory"]:
            _require(all(_finite(v) for v in rec["train_nrmse"]), "non-finite NRMSE")
    summary = json.loads((out / "summary.json").read_text())
    medians = []
    for entry in summary["per_sub_count"]:
        _require(entry["oscillatory_trials"] + entry["non_oscillatory_trials"]
                 == REPRODUCE_TRIALS,
                 "summary trial counts do not add up")
        if entry["oscillatory_trials"]:
            _require(all(_finite(q) for q in entry["quartiles"]), "non-finite quartile")
            medians.append(entry["quartiles"][1])
    _require(bool(medians), "no oscillatory trial at any sub-count")
    useful = sum(r["oscillatory"] for r in records) / sum(r["attempt_count"] for r in records)
    return {"nrmse_median": statistics.median(medians), "useful_ratio": useful}


def check_trajectory_io(out: Path) -> dict:
    extreme = 0.0
    for kind in TRAJECTORY_KINDS:
        with open(out / f"{kind}_trajectory.csv", encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split(",")
            _require(len(header) == TRAJECTORY_N + 1, f"{kind} CSV has {len(header)} columns")
            count = 0
            for count, line in enumerate(f, start=1):
                values = [float(v) for v in line.split(",")[1:]]
                top = max(map(abs, values))
                _require(top <= 1.0 and len(values) == TRAJECTORY_N,
                         f"{kind} state outside [-1, 1] or short row")
                extreme = max(extreme, top)
            _require(count == TRAJECTORY_TAU + 1, f"{kind} CSV has {count} rows")
        report = json.loads((out / f"{kind}_report.json").read_text())
        units = report["per_unit"]
        _require(len(units) == TRAJECTORY_N, f"{kind} report has {len(units)} units")
        _require(all(_finite(u["tail_stddev"]) for u in units), "non-finite tail stddev")
    return {"max_abs_state": extreme}


CHECKS = {"sweep": check_sweep, "reproduce": check_reproduce,
          "trajectory-io": check_trajectory_io}


class OutputChecker:
    """Every invocation of a run must produce the same payload bytes; the
    first one is also checked against golden digests (seed 0) and the
    workload's invariants. Counts attempted and failed invocations."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.reference: dict[str, str] | None = None
        self.facts: dict = {}
        self.golden_note = "not compared (seed != 0)"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def tally(self, code: int, out: Path, log: Path | None = None) -> None:
        """Count one invocation, failed when it exited non-zero or its output
        broke a check, then remove its output directory."""
        self.attempted += 1
        try:
            if code != 0:
                tail = f": {log.read_text()[-500:]}" if log else ""
                raise CheckFailed(f"exit code {code}{tail}")
            self.check(out)
        except OUTPUT_ERRORS as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path) -> None:
        found = digests(out, WORKLOADS[self.name])
        if self.reference is not None:
            _require(found == self.reference, "payload bytes differ between invocations")
            return
        self.facts = CHECKS[self.name](out)
        if self.seed == 0:
            version = artifact_version(out)
            golden = json.loads(GOLDEN.read_text()).get(version, {}).get(self.name)
            if golden is None:
                self.golden_note = f"no golden digests for artifact_version {version}"
            else:
                bad = sorted(k for k in found if golden.get(k) != found[k])
                _require(not bad, f"payloads differ from golden at version {version}: {bad}")
                self.golden_note = f"match (artifact_version {version})"
        self.reference = found


# ---------------------------------------------------------------------------
# timed run (--trace 0)
# ---------------------------------------------------------------------------


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def timed_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    workload = WORKLOADS[name]
    setup = measure_setup(work)
    checker = OutputChecker(name, seed)
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        out, log = work / f"inv{len(samples)}", work / "child.log"
        samples.append(run_child(workload_argv(workload, seed, workload.jobs, out), log))
        checker.tally(samples[-1].returncode, out, log)

    walls = [s.wall_s for s in samples]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    report = {
        "samples": len(samples),
        "wall_s_samples": [round(w, 4) for w in walls],
        "failed_ratio": checker.failed / checker.attempted,
        "golden": checker.golden_note,
        **checker.facts,
        "errors": checker.errors[:5],
    }
    return {"metrics": {k: (values[k], u) for k, u in END_TO_END_UNITS.items()},
            "report": report, "attempted": checker.attempted,
            "failed": checker.failed, "correct": checker.failed == 0}


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------


PER_LAYER_UNITS = {
    "trace.wall_s": "s", "trace.overhead_s": "s", "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "reservoir.run.self_s": "s", "reservoir.run.calls": "count",
    "reservoir.run.unit_steps": "count", "reservoir.run.ns_per_unit_step": "ns",
    "numerics.spectral_radius.self_s": "s", "numerics.spectral_radius.calls": "count",
    "topology.build_weights.self_s": "s", "topology.build_dense.self_s": "s",
    "topology.build_weakly_coupled.self_s": "s",
    "readout.train_ridge.self_s": "s", "readout.predict.self_s": "s",
    "oscillation.classify_trajectory.self_s": "s",
    "oscillation.classify_trajectory.calls": "count",
    "oscillation.oscillatory_ratio": "ratio",
    "reservoir.to_csv.self_s": "s", "reservoir.to_csv.bytes": "bytes",
    "experiments.reproduce.useful_ratio": "ratio",
    **{f"numerics.spectral_radius.ms_per_call.n{n}": "ms" for n in RADIUS_SIZES},
    **{f"reservoir.run.ns_per_unit_step.n{n}": "ns" for n in RUN_SIZES},
}


def layer_metrics(spans, walls: list[float], untraced: list[float]) -> tuple[dict, dict]:
    """Per-invocation means of the traced spans. Returns (metrics, per-size
    table); every layer's self time plus cli.self_s adds up to trace.wall_s."""
    own = self_times(spans)
    runs = len(walls)
    by_name: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        entry = by_name.setdefault(span.name, {"self_s": 0.0, "calls": 0, "attrs": []})
        entry["self_s"] += self_s
        entry["calls"] += 1
        if span.attrs:
            entry["attrs"].append((span.attrs, span.duration))

    def total(name, key="self_s"):
        return by_name.get(name, {}).get(key, 0) / runs

    wall = statistics.fmean(walls)
    roots = sum(s.duration for s in spans if s.parent is None) / runs
    m = {"trace.wall_s": wall, "trace.overhead_s": wall - statistics.fmean(untraced),
         "cli.self_s": wall - roots}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(e["self_s"] for name, e in by_name.items()
                                   if name.split(".")[0] == layer) / runs
    for name in ("reservoir.run", "numerics.spectral_radius", "topology.build_weights",
                 "topology.build_dense", "topology.build_weakly_coupled",
                 "readout.train_ridge", "readout.predict",
                 "oscillation.classify_trajectory", "reservoir.to_csv"):
        m[f"{name}.self_s"] = total(name)
    for name in ("reservoir.run", "numerics.spectral_radius", "oscillation.classify_trajectory"):
        m[f"{name}.calls"] = total(name, "calls")

    run_attrs = by_name.get("reservoir.run", {}).get("attrs", [])
    unit_steps = sum(a["unit_steps"] for a, _ in run_attrs)
    m["reservoir.run.unit_steps"] = unit_steps / runs
    m["reservoir.run.ns_per_unit_step"] = (
        1e9 * sum(d for _, d in run_attrs) / unit_steps if unit_steps else 0.0)
    classified = [a["oscillatory"] for a, _ in
                  by_name.get("oscillation.classify_trajectory", {}).get("attrs", [])]
    m["oscillation.oscillatory_ratio"] = sum(classified) / len(classified) if classified else 0.0
    m["reservoir.to_csv.bytes"] = sum(
        a["bytes"] for a, _ in by_name.get("reservoir.to_csv", {}).get("attrs", [])) / runs

    # Per-size table: span durations (children included) bucketed by n.
    table = {"numerics.spectral_radius ms/call": {}, "reservoir.run ns/unit-step": {}}
    radius: dict[int, list[float]] = {}
    for a, d in by_name.get("numerics.spectral_radius", {}).get("attrs", []):
        radius.setdefault(a["n"], []).append(d)
    for n, ds in sorted(radius.items()):
        table["numerics.spectral_radius ms/call"][n] = (1e3 * statistics.fmean(ds), len(ds))
    steps: dict[int, list[tuple[int, float]]] = {}
    for a, d in run_attrs:
        steps.setdefault(a["n"], []).append((a["unit_steps"], d))
    for n, pairs in sorted(steps.items()):
        table["reservoir.run ns/unit-step"][n] = (
            1e9 * sum(d for _, d in pairs) / sum(u for u, _ in pairs), len(pairs))
    for n in RADIUS_SIZES:
        m[f"numerics.spectral_radius.ms_per_call.n{n}"] = \
            table["numerics.spectral_radius ms/call"].get(n, (0.0, 0))[0]
    for n in RUN_SIZES:
        m[f"reservoir.run.ns_per_unit_step.n{n}"] = \
            table["reservoir.run ns/unit-step"].get(n, (0.0, 0))[0]
    return m, table


def layer_sum(metrics: dict) -> float:
    """Every layer's self time plus cli.self_s; equals trace.wall_s."""
    return sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1)


def traced_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import soesn.cli

    workload = WORKLOADS[name]
    checker = OutputChecker(name, seed)

    # One timed child at the workload's own --jobs: its payloads must equal
    # the in-process --jobs 1 ones (the --jobs promise, and tracing must not
    # change a result).
    out, log = work / "child", work / "child.log"
    checker.tally(run_child(workload_argv(workload, seed, workload.jobs, out), log).returncode,
                  out, log)

    tracer = Tracer()
    walls, untraced = [], []
    restored = True
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for traced in (False, True):
            out = work / f"inproc{checker.attempted}"
            argv = workload_argv(workload, seed, 1, out)
            if traced:
                tracer.invocation = len(walls)
                tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    code = soesn.cli.main(argv)
                    wall = time.perf_counter() - t0
            finally:
                if traced:
                    restored = tracer.uninstall() and restored
            (walls if traced else untraced).append(wall)
            checker.tally(code, out)

    metrics, table = layer_metrics(tracer.spans, walls, untraced)
    # every traced invocation wrote the checked bytes, so its trials.jsonl
    # gives the same ratio as the child's
    metrics["experiments.reproduce.useful_ratio"] = checker.facts.get("useful_ratio", 0.0)
    layers = layer_sum(metrics)
    accounted = math.isclose(layers, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9)
    if not restored:
        checker.errors.append("tracer did not restore every original function")
    if not accounted:
        checker.errors.append(
            f"layer self times sum to {layers}, traced wall is {metrics['trace.wall_s']}")

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span.to_dict()) + "\n")

    report = {"traced_invocations": len(walls), "untraced_invocations": len(untraced),
              "golden": checker.golden_note, "spans": len(tracer.spans),
              "trace_file": str(trace_path.relative_to(ROOT)),
              "errors": checker.errors[:5]}
    return {"metrics": {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()},
            "report": report, "table": table, "attempted": checker.attempted,
            "failed": checker.failed, "correct": checker.failed == 0 and restored and accounted}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def record_golden(work: Path) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name, workload in WORKLOADS.items():
        out = work / name
        sample = run_child(workload_argv(workload, 0, workload.jobs, out), work / "child.log")
        if sample.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {sample.returncode}")
        CHECKS[name](out)
        golden.setdefault(artifact_version(out), {})[name] = digests(out, workload)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store seed-0 payload digests for the current artifact_version")
    args = parser.parse_args()
    if not (SRC / "soesn" / "cli.py").is_file():
        print(f"perfbench: no soesn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")

    os.environ.update(THREAD_ENV)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.record_golden:
            record_golden(work)
            return 0
        load_before = os.getloadavg()
        run = (traced_run if args.trace else timed_run)(args.workload, args.seed,
                                                        args.seconds, work)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"loadavg before {load_before[0]:.2f} {load_before[1]:.2f} {load_before[2]:.2f}"
          f"  after {load_after[0]:.2f} {load_after[1]:.2f} {load_after[2]:.2f}")
    for key, value in run["report"].items():
        print(f"  {key:<36} {value}")
    for key, (value, unit) in run["metrics"].items():
        print(f"  {key:<44} {value:>16.6g} {unit}")
    for title, rows in run.get("table", {}).items():
        print(f"  per-size {title}: " + ", ".join(
            f"n={n} {v:.4g} ({calls} calls)" for n, (v, calls) in rows.items()))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
