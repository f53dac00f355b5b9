"""Command-line surface: build and run reservoirs, classify their activity,
and rerun the experiment suite, emitting CSV/JSON payloads and static SVG
plots.

Every run writes `config.echo.json` holding the fully resolved,
result-determining parameters; rerunning with `--config <that file>`
reproduces the CSV/JSON payloads byte for byte regardless of `--jobs`.
SVGs embed a generation timestamp unless `--deterministic` is given.
Exit codes: 0 success (a non-oscillatory outcome is still a result),
2 configuration error, 3 numeric error (out of memory included), 4 I/O
error.
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
from .numerics import _set_blas_threads
from .oscillation import classify_trajectory
from .reservoir import Reservoir, init_state
from .seeding import ROLE_LEAK, ROLE_STATE, SEED_HELP, Seed, derive_seed
from .topology import (
    VALID_KINDS,
    ConfigFields,
    TopologySpec,
    build_weights,
    option,
    sample_leak_vector,
)
from .experiments import (
    MIN_TAU,
    InjectConfig,
    ReproduceConfig,
    SweepConfig,
    distribution_from_outcomes,
    injection_ratio_experiment,
    reproduce_with_prediction,
    subreservoir_count_outcomes,
    sweep_heatmap,
)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4
ECHO = "config.echo.json"


# ---------------------------------------------------------------------------
# one config object per subcommand: defaults, validation, echo payload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerateConfig(ConfigFields):
    """`soesn generate`: one reservoir built from `topology`, scaled to
    radius `rho`, run `tau` steps at a constant `leak`; the trace SVG (if
    `svg`) draws the first `plot_units` units, at least one."""

    topology: TopologySpec = field(default_factory=TopologySpec)
    rho: float = option(1.25, "target spectral radius", above=0.0)
    leak: float = option(0.5, "constant leak rate", above=0.0, high=1.0)
    tau: int = option(1000, "steps to run", low=MIN_TAU)
    plot_units: int = option(5, "units drawn in the trace SVG", low=1)
    svg: bool = option(True, "emit the trace SVG")


@dataclass(frozen=True)
class TopologyDemoConfig(ConfigFields):
    """`soesn topology-demo`: every topology kind at `n` units and radius
    `rho`, run `tau` steps."""

    n: int = option(100, low=1)
    rho: float = option(1.25, above=0.0)
    tau: int = option(1000, low=MIN_TAU)
    seed: Seed = option(0, SEED_HELP)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _list_of(kind):
    """The argparse type of a comma-separated list of `kind` values."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}") from exc
    return parse


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# flags not named after their field
_FLAG_NAMES = {"kind": "--topology", "sub_count": "--sub", "inject_ensemble": "--inject"}


def _config_fields(cls, prefix=""):
    """(path, field) for each field of the config class `cls`; a nested
    config class's fields are walked into, their paths as "topology.n"."""
    for f in fields(cls):
        if hasattr(f.type, "from_dict"):
            yield from _config_fields(f.type, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


def _flag_type(kind):
    """The argparse type of a config field annotated `kind`; a `T | None`
    field takes `none` to clear it."""
    if getattr(kind, "__origin__", None) is tuple:  # tuple[T, ...]
        return _list_of(kind.__args__[0])
    if hasattr(kind, "__args__"):  # T | None
        parse = _flag_type(kind.__args__[0])

        def optional(text: str):
            return None if text == "none" else parse(text)

        optional.__name__ = parse.__name__  # argparse names it in errors
        return optional
    return getattr(kind, "__supertype__", kind)  # a Seed is an int


def build_parser() -> argparse.ArgumentParser:
    """One flag per config field: `--` and the field's name with `-` for
    `_` (or its _FLAG_NAMES entry), its dest the field's path, its help and
    choices from the field's metadata (its bounds stay there: ConfigFields
    checks them). Unset flags stay out of the namespace."""
    parser = argparse.ArgumentParser(
        prog="soesn",
        allow_abbrev=False,
        description="Self-oscillatory echo state reservoirs: simulation, "
        "classification, readout training, and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"soesn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cls, func, default_out, help in [
        ("generate", GenerateConfig, cmd_generate, "soesn-generate",
         "build one reservoir, run it, classify it"),
        ("sweep", SweepConfig, cmd_sweep, "soesn-sweep",
         "leak x spectral-radius oscillation-ratio heatmap"),
        ("inject-experiment", InjectConfig, cmd_inject, "soesn-inject",
         "oscillation ratio with vs without an injected ensemble"),
        ("reproduce", ReproduceConfig, cmd_reproduce, "soesn-reproduce",
         "train the readout to reproduce a target waveform"),
        ("topology-demo", TopologyDemoConfig, cmd_topology_demo, "soesn-topology-demo",
         "build each topology, run it, and emit trajectories + reports"),
    ]:
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
        for path, f in _config_fields(cls):
            flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            options = {key: f.metadata.get(key) for key in ("help", "choices")}
            if f.type is bool:
                options["action"] = argparse.BooleanOptionalAction
            elif not options.get("choices"):
                options.update(type=_flag_type(f.type), metavar=flag[2:].upper().replace("-", "_"))
            p.add_argument(flag, dest=path, **options)
        p.set_defaults(func=func, config_class=cls)
    return parser


# ---------------------------------------------------------------------------
# configuration resolution and output helpers
# ---------------------------------------------------------------------------


def _load_config_params(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to read") from exc
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


def _resolve(cls, args):
    """The command's config: defaults, overlaid by --config, overlaid by the
    flags given: one nested dict, where a flag writes its field's path and
    so overrides one field of a nested object. The seed (the field typed
    Seed) resolves flag > config > $SOESN_SEED > default, so a stray
    environment seed never breaks a rerun from config.echo.json.
    """
    data = _load_config_params(args.config, args.command) if args.config else {}
    flags, env = vars(args), os.environ.get("SOESN_SEED")
    for path, f in _config_fields(cls):
        *heads, name = path.split(".")
        node = data
        for head in heads:
            node = node.setdefault(head, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):  # from_dict rejects it by name
            continue
        if path in flags:
            node[name] = flags[path]
        elif f.type is Seed and env is not None and name not in node:
            try:
                node[name] = int(env)
            except ValueError as exc:
                raise ConfigError(f"SOESN_SEED must be an integer, got {env!r}") from exc
    return cls.from_dict(data, args.command)


def _timestamp(args) -> str | None:
    if args.deterministic:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _prepare_out(args, *names: str) -> list[str]:
    """The paths of the command's output files `names` in --out, which is
    made if missing; refuses to overwrite any of them, or the echo, without
    --force."""
    os.makedirs(args.out, exist_ok=True)
    existing = [name for name in (ECHO, *names) if os.path.exists(os.path.join(args.out, name))]
    if existing and not args.force:
        raise FileExistsError(
            f"refusing to overwrite {existing} in {args.out}; pass --force to allow"
        )
    return [os.path.join(args.out, name) for name in names]


# ---------------------------------------------------------------------------
# payload writers: every JSON, JSONL and experiment CSV file is written here
# (a trajectory CSV keeps its own format, next to its reader). JSON keys are
# sorted; a NaN is null in JSON and an empty field in CSV.
# ---------------------------------------------------------------------------


def _metadata(args, config: ConfigFields) -> dict:
    return {
        "artifact_version": __version__,
        "command": args.command,
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


def _write_csv(path: str, metadata: dict, header, rows) -> None:
    """`# key=value` metadata lines, the header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, value in metadata.items():
            f.write(f"# {key}={value}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_csv_cell, row)) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _run_and_write(args, config, spec: TopologySpec, leak, paths, head: dict,
                   plot_units: int, title: str):
    """Build `spec`'s weights at config.rho, run them config.tau steps at
    `leak` from the state seeded by spec.seed, and classify the run. Writes
    `paths`: the trajectory CSV, the report JSON (`head` after its
    metadata) and, if a third path is given, the first `plot_units` traces
    as an SVG. Returns the report."""
    csv_path, report_path, *svg_path = paths
    W = build_weights(spec, config.rho)
    state = init_state(spec.n, derive_seed(spec.seed, ROLE_STATE))
    trajectory = Reservoir(W, leak, state).run(config.tau)
    report = classify_trajectory(trajectory)

    trajectory.to_csv(csv_path)
    _write_json(report_path, {"metadata": _metadata(args, config)} | head | report.to_json_dict())
    if svg_path:
        t = np.arange(trajectory.steps)
        series = [(f"x{i}", t, trajectory.unit(i)) for i in range(min(plot_units, trajectory.n))]
        svgplot.line_chart(svg_path[0], series, title, "step", "state",
                           timestamp=_timestamp(args))
    return report


def cmd_generate(args, config: GenerateConfig) -> str:
    spec = config.topology
    paths = _prepare_out(args, "trajectory.csv", "oscillation.json",
                         *(["traces.svg"] if config.svg else []))
    report = _run_and_write(args, config, spec, config.leak, paths, {}, config.plot_units,
                            f"unit traces (n={spec.n}, rho={config.rho}, leak={config.leak})")
    verdict = "self-oscillatory" if report.reservoir_is_self_oscillatory else "damped"
    return f"generate: {verdict}; outputs in {args.out}"


def cmd_sweep(args, config: SweepConfig) -> str:
    csv_path, svg_path = _prepare_out(args, "sweep.csv", "heatmap.svg")
    result = sweep_heatmap(config, jobs=args.jobs)

    # a JSON config may give the grid as integers; the rows are floats
    _write_csv(csv_path, _metadata(args, config),
               ("leak", "rho", "ratio", "trials"),
               ((float(leak), float(rho), result.ratio(li, ri), config.trials)
                for li, leak in enumerate(config.leak_values)
                for ri, rho in enumerate(config.rho_values)))
    svgplot.heatmap(
        svg_path, result.grid,
        list(config.rho_values), list(config.leak_values),
        f"self-oscillation ratio (n={config.n}, trials={config.trials})",
        "spectral radius", "leak rate", timestamp=_timestamp(args),
    )
    return f"sweep: {len(config.leak_values)}x{len(config.rho_values)} cells written to {args.out}"


def cmd_inject(args, config: InjectConfig) -> str:
    csv_path, svg_path = _prepare_out(args, "injection.csv", "injection.svg")
    rows = injection_ratio_experiment(config, jobs=args.jobs)

    _write_csv(csv_path, _metadata(args, config),
               ("population", "ratio_without", "ratio_with"),
               ((r.population, r.ratio_without, r.ratio_with) for r in rows))
    populations = [r.population for r in rows]
    svgplot.line_chart(
        svg_path,
        [
            ("without ensemble", populations, [r.ratio_without for r in rows]),
            ("with ensemble", populations, [r.ratio_with for r in rows]),
        ],
        f"self-oscillation ratio vs population (trials={config.trials})",
        "population", "ratio", timestamp=_timestamp(args),
    )
    return f"inject-experiment: {len(rows)} populations written to {args.out}"


def cmd_reproduce(args, config: ReproduceConfig) -> str:
    target = config.target_signal()
    if config.sub_counts:
        return _reproduce_sweep(args, config, target)
    return _reproduce_single(args, config, target)


def _reproduce_single(args, config, target) -> str:
    json_path, svg_path = _prepare_out(args, "nrmse.json", "overlay.svg")
    outcome, prediction = reproduce_with_prediction(config, target)

    payload = {"metadata": _metadata(args, config), "target": target.name} | asdict(outcome)
    _write_json(json_path, payload)

    if outcome.oscillatory:
        t = np.arange(target.length) * target.dt
        series = []
        for dim in range(target.dims):
            suffix = f"[{dim}]" if target.dims > 1 else ""
            series.append((f"target{suffix}", t, target.values[:, dim]))
            series.append((f"output{suffix}", t, prediction[:, dim]))
        svgplot.line_chart(
            svg_path, series,
            f"{target.name}: target vs readout output",
            "t", "value", timestamp=_timestamp(args),
        )
        status = f"oscillatory after {outcome.attempt_count} attempt(s), " \
                 f"mean train NRMSE {outcome.mean_nrmse():.4g}"
    else:
        status = f"no oscillatory reservoir within {outcome.attempt_count} attempts"
    return f"reproduce[{target.name}]: {status}; outputs in {args.out}"


def _reproduce_sweep(args, config, target) -> str:
    csv_path, jsonl_path, summary_path = _prepare_out(
        args, "boxplot.csv", "trials.jsonl", "summary.json")
    per_count = subreservoir_count_outcomes(config, target, jobs=args.jobs)
    distributions = [distribution_from_outcomes(m, outs) for m, outs in per_count]

    metadata = _metadata(args, config)
    # one row and one record per trial, numbered alike; a trial without a
    # defined NRMSE (non-oscillatory, or a constant target) has none
    trials = [(m, t, outcome) for m, outcomes in per_count for t, outcome in enumerate(outcomes)]
    _write_csv(csv_path, metadata, ("sub_count", "trial", "oscillatory", "nrmse"),
               ((m, t, o.oscillatory, o.mean_nrmse()) for m, t, o in trials))
    _write_jsonl(jsonl_path, [{"metadata": metadata}] + [
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
    _write_json(summary_path, summary)
    return f"reproduce[{target.name}]: sweep over {list(config.sub_counts)} written to {args.out}"


def cmd_topology_demo(args, config: TopologyDemoConfig) -> str:
    paths = _prepare_out(args, *(
        f"{kind}_{suffix}" for kind in VALID_KINDS
        for suffix in ("trajectory.csv", "report.json", "traces.svg")))

    sub_count = max(1, min(4, config.n // 4))
    for kind_index, kind in enumerate(VALID_KINDS):
        spec = TopologySpec(kind=kind, n=config.n, sub_count=sub_count,
                            seed=derive_seed(config.seed, kind_index))
        # block layouts get the reproduction's per-unit leak draw so the
        # sub-reservoirs differ in pace
        if kind in ("block_diagonal", "weakly_coupled"):
            leak = sample_leak_vector(config.n, ReproduceConfig.leak_mu,
                                      ReproduceConfig.leak_sigma,
                                      derive_seed(spec.seed, ROLE_LEAK))
        else:
            leak = 0.5
        _run_and_write(args, config, spec, leak, paths[3 * kind_index:3 * kind_index + 3],
                       {"kind": kind}, 5, f"{kind}: unit traces")
    return f"topology-demo: {len(VALID_KINDS)} topologies written to {args.out}"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    # every run computes on one BLAS thread, its pool workers included: a
    # ridge fit's bits change with the count, and a payload's bytes must
    # not depend on the count the process starts with
    _set_blas_threads(1)
    for flag, path in (("--config", args.config), ("--out", args.out)):
        if path and "\0" in path:  # no path holds one; os raises ValueError, not OSError
            print(f"soesn: I/O error: {flag} {path!r} holds a NUL byte", file=sys.stderr)
            return EXIT_IO
    path = existing = os.path.abspath(args.out)
    while not os.path.lexists(existing):  # the run makes every directory below it
        existing = os.path.dirname(existing)
    code = _run(args)
    if code != EXIT_OK:
        # a failed run leaves no directory it made: they go leaf first, up
        # to the first one that is not empty
        try:
            while path != existing:
                os.rmdir(path)
                path = os.path.dirname(path)
        except OSError:
            pass
    return code


def _run(args) -> int:
    """Run the parsed command, mapping each error to its exit code: resolve
    its config, write its payloads, then the echo of the config that ran,
    then print its summary line."""
    try:
        config = _resolve(args.config_class, args)
        summary = args.func(args, config)
        _write_json(os.path.join(args.out, ECHO), {
            "artifact_version": __version__, "command": args.command,
            "params": config.to_dict()})
        print(summary)
        return EXIT_OK
    except InputError as exc:  # ConfigError included
        print(f"soesn: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"soesn: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # a size that fits an index but not this host
        detail = f": {exc}" if str(exc) else ""
        print(f"soesn: numeric failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"soesn: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
