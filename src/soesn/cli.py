"""Command-line surface: build and run reservoirs, classify their activity,
and rerun the experiment suite, emitting CSV/JSON payloads and static SVG
plots.

Every run writes `config.echo.json` holding the fully resolved,
result-determining parameters; rerunning with `--config <that file>`
reproduces the CSV/JSON payloads byte for byte regardless of `--jobs`.
SVGs embed a generation timestamp unless `--deterministic` is given.
Exit codes: 0 success (a non-oscillatory outcome is still a result),
2 configuration error, 3 numeric error, 4 I/O error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__, svgplot
from .errors import ConfigError, InputError, NumericError
from .oscillation import classify_trajectory
from .reservoir import Reservoir, init_state
from .seeding import ROLE_LEAK, ROLE_STATE, check_seed, derive_seed
from .topology import VALID_KINDS, ConfigFields, TopologySpec, build_weights, sample_leak_vector
from .experiments import (
    InjectConfig,
    ReproduceConfig,
    SweepConfig,
    _SINE_MODES,
    _TARGET_DT,
    _require,
    _require_window,
    distribution_from_outcomes,
    injection_ratio_experiment,
    reproduce_with_prediction,
    subreservoir_count_outcomes,
    sweep_heatmap,
)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# one config object per subcommand: defaults, validation, echo payload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerateConfig(ConfigFields):
    """`soesn generate`: one reservoir built from `topology`, scaled to
    radius `rho`, run `tau` steps at a constant `leak`; the trace SVG (if
    `svg`) draws the first `plot_units` units."""

    topology: TopologySpec = field(default_factory=TopologySpec)
    rho: float = 1.25
    leak: float = 0.5
    tau: int = 1000
    plot_units: int = 5
    svg: bool = True

    def __post_init__(self):
        _require(self.rho > 0, f"rho must be positive, got {self.rho}")
        _require(0 < self.leak <= 1, f"leak must lie in (0, 1], got {self.leak}")
        _require_window(self.tau)


@dataclass(frozen=True)
class TopologyDemoConfig(ConfigFields):
    """`soesn topology-demo`: every topology kind at `n` units and radius
    `rho`, run `tau` steps."""

    n: int = 100
    rho: float = 1.25
    tau: int = 1000
    seed: int = 0

    def __post_init__(self):
        _require(self.n >= 1, "n must be at least 1")
        _require(self.rho > 0, f"rho must be positive, got {self.rho}")
        _require_window(self.tau)
        check_seed(self.seed)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Each config flag's dest is the path of its config field (nested
    fields as "topology.n"); unset flags stay out of the namespace."""
    parser = argparse.ArgumentParser(
        prog="soesn",
        allow_abbrev=False,
        description="Self-oscillatory echo state reservoirs: simulation, "
        "classification, readout training, and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"soesn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, default_out, seed_dest="seed"):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON config (e.g. a config.echo.json) to start from")
        p.add_argument("--out", default=default_out, help="output directory")
        p.add_argument("--force", action="store_true", default=False,
                       help="overwrite existing outputs")
        p.add_argument("--deterministic", action="store_true", default=False,
                       help="omit the timestamp comment from SVG outputs")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for trials, at least 1 (never changes results)")
        p.add_argument("--seed", type=int, dest=seed_dest, metavar="SEED",
                       help="base seed (default: $SOESN_SEED or 0)")
        return p

    p = command("generate", "build one reservoir, run it, classify it", "soesn-generate",
                seed_dest="topology.seed")
    p.add_argument("--topology", dest="topology.kind", choices=VALID_KINDS,
                   help="weight-matrix layout")
    p.add_argument("--n", dest="topology.n", metavar="N", type=int, help="population size")
    p.add_argument("--density", dest="topology.density", metavar="DENSITY", type=float,
                   help="sparse connection probability")
    p.add_argument("--sub", dest="topology.sub_count", metavar="SUB", type=int,
                   help="number of sub-reservoirs")
    p.add_argument("--coupling-scale", dest="topology.coupling_scale",
                   metavar="COUPLING_SCALE", type=float)
    p.add_argument("--coupling-density", dest="topology.coupling_density",
                   metavar="COUPLING_DENSITY", type=float)
    p.add_argument("--inject", dest="topology.inject_ensemble",
                   action=argparse.BooleanOptionalAction,
                   help="splice in the calibrated two-neuron ensemble")
    p.add_argument("--rho", type=float, help="target spectral radius")
    p.add_argument("--leak", type=float, help="constant leak rate")
    p.add_argument("--tau", type=int, help="steps to run")
    p.add_argument("--plot-units", type=int, help="units drawn in the trace SVG")
    p.add_argument("--svg", action=argparse.BooleanOptionalAction, help="emit the trace SVG")
    p.set_defaults(func=cmd_generate)

    p = command("sweep", "leak x spectral-radius oscillation-ratio heatmap", "soesn-sweep")
    p.add_argument("--leak-values", type=_float_list, help="comma-separated leak grid")
    p.add_argument("--rho-values", type=_float_list, help="comma-separated rho grid")
    p.add_argument("--trials", type=int, help="reservoirs per cell")
    p.add_argument("--n", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--cells", type=int, help="cap the grid to about this many cells (smoke runs)")
    p.set_defaults(func=cmd_sweep)

    p = command("inject-experiment", "oscillation ratio with vs without an injected ensemble",
                "soesn-inject")
    p.add_argument("--populations", type=_int_list, help="comma-separated population sizes")
    p.add_argument("--trials", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--leak", type=float)
    p.set_defaults(func=cmd_inject)

    p = command("reproduce", "train the readout to reproduce a target waveform",
                "soesn-reproduce")
    p.add_argument("--target", choices=tuple(_TARGET_DT))
    p.add_argument("--mode", choices=_SINE_MODES, help="sine flavour")
    p.add_argument("--freq", type=float, help="pure sine frequency (cycles per step)")
    p.add_argument("--dt", type=float, help="target sample spacing")
    p.add_argument("--tau", type=int, help="target steps (samples - 1)")
    p.add_argument("--n", type=int)
    p.add_argument("--sub", dest="sub_count", metavar="SUB", type=int,
                   help="sub-reservoir count (single run)")
    p.add_argument("--sub-counts", type=_int_list,
                   help="comma-separated counts: run the boxplot sweep instead")
    p.add_argument("--trials", type=int, help="trials per count in sweep mode")
    p.add_argument("--coupling-scale", type=float)
    p.add_argument("--coupling-density", type=float)
    p.add_argument("--leak-mu", type=float)
    p.add_argument("--leak-sigma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--ridge-lambda", type=float)
    p.add_argument("--washout", type=int)
    p.add_argument("--max-attempts", type=int)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                   help="standardize target dimensions before the fit")
    p.set_defaults(func=cmd_reproduce)

    p = command("topology-demo", "build each topology, run it, and emit trajectories + reports",
                "soesn-topology-demo")
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--tau", type=int)
    p.set_defaults(func=cmd_topology_demo)

    return parser


# ---------------------------------------------------------------------------
# configuration resolution and output helpers
# ---------------------------------------------------------------------------


def _load_config_params(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "command" in data:
        if data["command"] != command:
            raise ConfigError(
                f"config {path} is for command {data['command']!r}, not {command!r}"
            )
        params = data.get("params", {})
    else:
        params = data
    if not isinstance(params, dict):
        raise ConfigError("config params must be a JSON object")
    return params


def _resolve(cls, args, seed_path: str = "seed"):
    """The command's config: defaults, overlaid by --config, overlaid by the
    flags given.

    Values travel keyed by field path, so a flag overrides one field of a
    nested object. The seed resolves flag > config > $SOESN_SEED > default,
    so a stray environment seed never breaks a rerun from config.echo.json.
    """
    given = {}
    if args.config:
        for key, value in _load_config_params(args.config, args.command).items():
            nested = isinstance(value, dict)
            given[(key,)] = {} if nested else value
            if nested:
                given.update({(key, k): v for k, v in value.items()})
    names = {f.name for f in fields(cls)}
    for dest, value in vars(args).items():
        if dest.split(".")[0] in names:
            given[tuple(dest.split("."))] = value
    seed = tuple(seed_path.split("."))
    env = os.environ.get("SOESN_SEED")
    if env is not None and seed not in given:
        try:
            given[seed] = int(env)
        except ValueError as exc:
            raise ConfigError(f"SOESN_SEED must be an integer, got {env!r}") from exc
    data = {}
    for (head, *rest), value in given.items():
        if not rest:
            data[head] = value
        elif isinstance(data.setdefault(head, {}), dict):
            data[head][rest[0]] = value
    return cls.from_dict(data, args.command)


def _timestamp(args) -> str | None:
    if args.deterministic:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _prepare_out(out_dir: str, filenames: list[str], force: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    existing = [name for name in filenames if os.path.exists(os.path.join(out_dir, name))]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing} in {out_dir}; pass --force to allow"
        )


# ---------------------------------------------------------------------------
# payload writers: every JSON, JSONL and experiment CSV file is written here
# (a trajectory CSV keeps its own format, next to its reader). JSON keys are
# sorted; a NaN is null in JSON and an empty field in CSV.
# ---------------------------------------------------------------------------


def _write_echo(out_dir: str, command: str, config: ConfigFields) -> None:
    payload = {"artifact_version": __version__, "command": command, "params": config.to_dict()}
    _write_json(os.path.join(out_dir, "config.echo.json"), payload)


def _metadata(command: str, config: ConfigFields) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "params": json.dumps(config.to_dict(), sort_keys=True),
    }


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(_json_safe(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for record in records:
            f.write(json.dumps(_json_safe(record), sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(out_dir: str, name: str, metadata: dict, header, rows) -> None:
    """`# key=value` metadata lines, the header, then one line per row."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
        for key, value in metadata.items():
            f.write(f"# {key}={value}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_csv_cell, row)) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _resolve(GenerateConfig, args, seed_path="topology.seed")
    spec = config.topology
    files = ["config.echo.json", "trajectory.csv", "oscillation.json"]
    if config.svg:
        files.append("traces.svg")
    _prepare_out(args.out, files, args.force)

    W = build_weights(spec, config.rho)
    state = init_state(spec.n, derive_seed(spec.seed, ROLE_STATE))
    trajectory = Reservoir(W, config.leak, state).run(config.tau)
    report = classify_trajectory(trajectory)

    trajectory.to_csv(os.path.join(args.out, "trajectory.csv"))
    payload = {"metadata": _metadata("generate", config)} | report.to_json_dict()
    _write_json(os.path.join(args.out, "oscillation.json"), payload)
    if config.svg:
        count = max(1, min(config.plot_units, trajectory.n))
        t = np.arange(trajectory.steps)
        series = [(f"x{i}", t, trajectory.unit(i)) for i in range(count)]
        svgplot.line_chart(
            os.path.join(args.out, "traces.svg"), series,
            f"unit traces (n={spec.n}, rho={config.rho}, leak={config.leak})",
            "step", "state", timestamp=_timestamp(args),
        )
    _write_echo(args.out, "generate", config)
    verdict = "self-oscillatory" if report.reservoir_is_self_oscillatory else "damped"
    print(f"generate: {verdict}; outputs in {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    requested = _resolve(SweepConfig, args)
    _prepare_out(args.out, ["config.echo.json", "sweep.csv", "heatmap.svg"], args.force)
    result = sweep_heatmap(requested, jobs=args.jobs)
    config = result.config  # the capped grid that was swept

    # a JSON config may give the grid as integers; the rows are floats
    _write_csv(args.out, "sweep.csv", _metadata("sweep", config),
               ("leak", "rho", "ratio", "trials"),
               ((float(leak), float(rho), result.ratio(li, ri), config.trials)
                for li, leak in enumerate(config.leak_values)
                for ri, rho in enumerate(config.rho_values)))
    svgplot.heatmap(
        os.path.join(args.out, "heatmap.svg"), result.grid,
        list(config.rho_values), list(config.leak_values),
        f"self-oscillation ratio (n={config.n}, trials={config.trials})",
        "spectral radius", "leak rate", timestamp=_timestamp(args),
    )
    _write_echo(args.out, "sweep", config)
    print(f"sweep: {len(config.leak_values)}x{len(config.rho_values)} cells written to {args.out}")
    return EXIT_OK


def cmd_inject(args) -> int:
    config = _resolve(InjectConfig, args)
    _prepare_out(args.out, ["config.echo.json", "injection.csv", "injection.svg"], args.force)
    rows = injection_ratio_experiment(config, jobs=args.jobs)

    _write_csv(args.out, "injection.csv", _metadata("inject-experiment", config),
               ("population", "ratio_without", "ratio_with"),
               ((r.population, r.ratio_without, r.ratio_with) for r in rows))
    populations = [r.population for r in rows]
    svgplot.line_chart(
        os.path.join(args.out, "injection.svg"),
        [
            ("without ensemble", populations, [r.ratio_without for r in rows]),
            ("with ensemble", populations, [r.ratio_with for r in rows]),
        ],
        f"self-oscillation ratio vs population (trials={config.trials})",
        "population", "ratio", timestamp=_timestamp(args),
    )
    _write_echo(args.out, "inject-experiment", config)
    print(f"inject-experiment: {len(rows)} populations written to {args.out}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    config = _resolve(ReproduceConfig, args)
    target = config.target_signal()
    if config.sub_counts:
        return _reproduce_sweep(args, config, target)
    return _reproduce_single(args, config, target)


def _reproduce_single(args, config, target) -> int:
    files = ["config.echo.json", "nrmse.json", "overlay.svg"]
    _prepare_out(args.out, files, args.force)
    outcome, prediction = reproduce_with_prediction(config, target)

    payload = {"metadata": _metadata("reproduce", config), "target": target.name} | asdict(outcome)
    _write_json(os.path.join(args.out, "nrmse.json"), payload)

    if outcome.oscillatory:
        t = np.arange(target.length) * target.dt
        series = []
        for dim in range(target.dims):
            suffix = f"[{dim}]" if target.dims > 1 else ""
            series.append((f"target{suffix}", t, target.values[:, dim]))
            series.append((f"output{suffix}", t, prediction[:, dim]))
        svgplot.line_chart(
            os.path.join(args.out, "overlay.svg"), series,
            f"{target.name}: target vs readout output",
            "t", "value", timestamp=_timestamp(args),
        )
        status = f"oscillatory after {outcome.attempt_count} attempt(s), " \
                 f"mean train NRMSE {outcome.mean_nrmse():.4g}"
    else:
        status = f"no oscillatory reservoir within {outcome.attempt_count} attempts"
    _write_echo(args.out, "reproduce", config)
    print(f"reproduce[{target.name}]: {status}; outputs in {args.out}")
    return EXIT_OK


def _reproduce_sweep(args, config, target) -> int:
    _prepare_out(
        args.out,
        ["config.echo.json", "boxplot.csv", "trials.jsonl", "summary.json"],
        args.force,
    )
    per_count = subreservoir_count_outcomes(config, target, jobs=args.jobs)
    distributions = [distribution_from_outcomes(m, outs) for m, outs in per_count]

    metadata = _metadata("reproduce", config)
    # one row and one record per trial, numbered alike; a trial without a
    # defined NRMSE (non-oscillatory, or a constant target) has none
    trials = [(m, t, outcome) for m, outcomes in per_count for t, outcome in enumerate(outcomes)]
    _write_csv(args.out, "boxplot.csv", metadata, ("sub_count", "trial", "oscillatory", "nrmse"),
               ((m, t, o.oscillatory, o.mean_nrmse()) for m, t, o in trials))
    _write_jsonl(os.path.join(args.out, "trials.jsonl"), [{"metadata": metadata}] + [
        {"sub_count": m, "trial": t} | asdict(o) for m, t, o in trials
    ])
    summary = {
        "metadata": metadata,
        "target": target.name,
        "per_sub_count": [
            {
                "sub_count": d.sub_count,
                "oscillatory_trials": len(d.nrmse_values),
                "non_oscillatory_trials": d.non_oscillatory_count,
                "quartiles": d.quartiles(),
            }
            for d in distributions
        ],
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_echo(args.out, "reproduce", config)
    print(f"reproduce[{target.name}]: sweep over {list(config.sub_counts)} written to {args.out}")
    return EXIT_OK


def cmd_topology_demo(args) -> int:
    config = _resolve(TopologyDemoConfig, args)
    n, rho, tau, seed = config.n, config.rho, config.tau, config.seed

    files = ["config.echo.json"]
    for kind in VALID_KINDS:
        files += [f"{kind}_trajectory.csv", f"{kind}_report.json", f"{kind}_traces.svg"]
    _prepare_out(args.out, files, args.force)

    sub_count = max(1, min(4, n // 4))
    for kind_index, kind in enumerate(VALID_KINDS):
        spec = TopologySpec(kind=kind, n=n, sub_count=sub_count,
                            seed=derive_seed(seed, kind_index))
        W = build_weights(spec, rho)
        # block layouts get the reproduction's per-unit leak draw so the
        # sub-reservoirs differ in pace
        if kind in ("block_diagonal", "weakly_coupled"):
            leak = sample_leak_vector(n, ReproduceConfig.leak_mu, ReproduceConfig.leak_sigma,
                                      derive_seed(spec.seed, ROLE_LEAK))
        else:
            leak = 0.5
        trajectory = Reservoir(W, leak, init_state(n, derive_seed(spec.seed, ROLE_STATE))).run(tau)
        report = classify_trajectory(trajectory)
        trajectory.to_csv(os.path.join(args.out, f"{kind}_trajectory.csv"))
        _write_json(
            os.path.join(args.out, f"{kind}_report.json"),
            {"metadata": _metadata("topology-demo", config), "kind": kind}
            | report.to_json_dict(),
        )
        t = np.arange(trajectory.steps)
        count = min(5, trajectory.n)
        svgplot.line_chart(
            os.path.join(args.out, f"{kind}_traces.svg"),
            [(f"x{i}", t, trajectory.unit(i)) for i in range(count)],
            f"{kind}: unit traces", "step", "state", timestamp=_timestamp(args),
        )
    _write_echo(args.out, "topology-demo", config)
    print(f"topology-demo: {len(VALID_KINDS)} topologies written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:  # ConfigError included
        print(f"soesn: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"soesn: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"soesn: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
