import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import soesn
from soesn.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    GenerateConfig,
    InjectConfig,
    ReproduceConfig,
    SweepConfig,
    TopologyDemoConfig,
    build_parser,
    main,
)


def read(path):
    with open(path, "rb") as f:
        return f.read()


class TestGenerate:
    def test_writes_expected_files_deterministically(self, tmp_path):
        args = ["generate", "--n", "40", "--tau", "300", "--seed", "7", "--deterministic"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("trajectory.csv", "oscillation.json", "traces.svg", "config.echo.json"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)

    def test_no_svg_writes_no_traces(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--n", "20", "--tau", "150", "--no-svg",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["config.echo.json", "oscillation.json",
                                           "trajectory.csv"]

    def test_rho_zero_is_config_error(self, tmp_path):
        assert main(["generate", "--rho", "0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_refuses_overwrite_without_force(self, tmp_path):
        args = ["generate", "--n", "20", "--tau", "150", "--out", str(tmp_path / "d")]
        assert main(args) == EXIT_OK
        assert main(args) == EXIT_IO
        assert main(args + ["--force"]) == EXIT_OK

    def test_oscillation_report_fields(self, tmp_path):
        out = tmp_path / "g"
        main(["generate", "--n", "30", "--tau", "200", "--out", str(out), "--deterministic"])
        payload = json.loads(read(out / "oscillation.json"))
        assert "reservoir_is_self_oscillatory" in payload
        assert "metadata" in payload
        assert len(payload["per_unit"]) == 30

    def test_numeric_failure_exit_code(self, tmp_path):
        # a sparse matrix that draws all-zero cannot be scaled: numeric error
        from soesn.topology import build_sparse

        seed = next(
            s for s in range(200) if not np.any(build_sparse(10, 0.001, seed=s))
        )
        code = main([
            "generate", "--topology", "sparse", "--density", "0.001",
            "--n", "10", "--seed", str(seed), "--out", str(tmp_path / "z"),
        ])
        assert code == EXIT_NUMERIC
        assert not (tmp_path / "z").exists()  # the failed run leaves no directory it made

    def test_failed_run_keeps_a_directory_it_did_not_make(self, tmp_path):
        out = tmp_path / "z"
        out.mkdir()
        code = main(["generate", "--topology", "sparse", "--density", "0.001", "--n", "200",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert out.is_dir()

    def test_failed_run_removes_the_parents_it_made(self, tmp_path):
        kept = tmp_path / "a"
        kept.mkdir()
        (kept / "keep").write_text("")
        for out in (tmp_path / "x" / "y" / "z", kept / "b" / "c"):
            code = main(["sweep", "--n", "1", "--tau", "200", "--leak-values", "0.5",
                         "--rho-values", "1e308", "--trials", "1", "--out", str(out)])
            assert code == EXIT_NUMERIC
        # each failed run removed the directories it made, and only those
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]
        assert sorted(p.name for p in kept.iterdir()) == ["keep"]

    @pytest.mark.parametrize("n", ["100", "200"])
    def test_nilpotent_sparse_matrix_is_numeric_error(self, n, tmp_path):
        # this draw is nilpotent: its radius is 0 on either side of the
        # eigvals/Arnoldi cutover, so it cannot be scaled
        code = main(["generate", "--topology", "sparse", "--density", "0.001", "--n", n,
                     "--seed", "0", "--out", str(tmp_path / "z")])
        assert code == EXIT_NUMERIC
        assert not (tmp_path / "z").exists()

    def test_timestamp_present_unless_deterministic(self, tmp_path):
        main(["generate", "--n", "20", "--tau", "150", "--out", str(tmp_path / "t1")])
        assert b"<!-- generated" in read(tmp_path / "t1" / "traces.svg")
        main(["generate", "--n", "20", "--tau", "150", "--out", str(tmp_path / "t2"),
              "--deterministic"])
        assert b"<!-- generated" not in read(tmp_path / "t2" / "traces.svg")


class TestSweep:
    def test_smoke_run_single_cell(self, tmp_path):
        out = tmp_path / "s"
        code = main(["sweep", "--trials", "1", "--cells", "1", "--out", str(out),
                     "--deterministic"])
        assert code == EXIT_OK
        rows = [
            line for line in read(out / "sweep.csv").decode().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "leak,rho,ratio,trials"
        assert len(rows) == 2

    def test_csv_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "s2"
        main(["sweep", "--leak-values", "0.3,0.6", "--rho-values", "0.5,1.0,1.5",
              "--trials", "2", "--n", "30", "--tau", "200", "--out", str(out),
              "--deterministic"])
        rows = [
            line for line in read(out / "sweep.csv").decode().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) - 1 == 2 * 3

    def test_default_ranges_cover_paper_sweep(self):
        from soesn.cli import SweepConfig

        leaks = SweepConfig().leak_values
        rhos = SweepConfig().rho_values
        assert min(leaks) == 0.05 and max(leaks) == 1.0 and len(leaks) == 20
        assert min(rhos) == 0.1 and max(rhos) == 3.0 and len(rhos) == 30


CLI_SURFACE = Path(__file__).parent / "golden" / "cli_surface.json"


def _parsed(command, argv):
    """repr of what `command argv` sets beyond the command's defaults."""
    parser = build_parser()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            given = vars(parser.parse_args([command, *argv]))
    except SystemExit:
        return "rejected"
    defaults = vars(parser.parse_args([command]))
    return repr({dest: value for dest, value in given.items() if dest not in defaults})


def cli_surface(samples=None):
    """The CLI as a user meets it. Per subcommand, each action by dest: its
    option strings, action class, choices, the invocation --help prints,
    help and default. Per config flag (a default of SUPPRESS, -h aside), the
    value each option string parses from its sample: the `samples` given,
    else, to record them, the last choice, "3,4" or "3", whichever parses
    first. Record the snapshot from tests/, with src/ on PYTHONPATH:

        python -c "import json, test_cli; print(json.dumps(
            test_cli.cli_surface(), indent=1, sort_keys=True))"
    """
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    surface = {"commands": {a.dest: a.help for a in subparsers._choices_actions},
               "samples": {}}
    for command, p in subparsers.choices.items():
        formatter = p._get_formatter()
        surface[command] = {a.dest: {
            "options": a.option_strings, "action": type(a).__name__,
            "choices": None if a.choices is None else list(a.choices),
            "invocation": formatter._format_action_invocation(a),
            "help": a.help, "default": repr(a.default),
        } for a in p._actions}
        recorded = (samples or {}).get(command, {})
        surface["samples"][command] = found = {}
        for a in p._actions:
            config_flag = a.default is argparse.SUPPRESS and a.dest != "help"
            for option in a.option_strings if config_flag else ():
                if a.nargs == 0:
                    found[option] = [None, _parsed(command, [option])]
                    continue
                texts = [recorded[option][0]] if option in recorded else \
                    [str(a.choices[-1])] if a.choices else ["3,4", "3"]
                text = next((t for t in texts if _parsed(command, [option, t]) != "rejected"),
                            texts[-1])
                found[option] = [text, _parsed(command, [option, text])]
    return surface


def test_cli_surface_matches_the_snapshot():
    # flags, dests, help and parsed values are the CLI's contract: a change
    # to how the parser is built must leave all of them as recorded
    snapshot = json.loads(CLI_SURFACE.read_text())
    assert cli_surface(snapshot["samples"]) == snapshot


def _field_paths(cls, prefix=""):
    """Every config field of `cls` by path, nested ones as "topology.n"."""
    paths = set()
    for f in fields(cls):
        if hasattr(f.type, "from_dict"):
            paths |= _field_paths(f.type, f"{prefix}{f.name}.")
        else:
            paths.add(prefix + f.name)
    return paths


class TestConfigHandling:
    @pytest.mark.parametrize("command,cls", [
        ("generate", GenerateConfig), ("sweep", SweepConfig),
        ("inject-experiment", InjectConfig), ("reproduce", ReproduceConfig),
        ("topology-demo", TopologyDemoConfig),
    ])
    def test_flags_are_the_config_fields(self, command, cls):
        # the hand-written parser offers one flag per config field, no more
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in subparsers.choices[command]._actions}
        shared = {"config", "out", "force", "deterministic", "jobs", "help"}
        assert dests - shared == _field_paths(cls)

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["sweep", "--leak-values", "0.5", "--rho-values", "0.8,1.5",
              "--trials", "3", "--n", "40", "--tau", "300", "--seed", "9",
              "--out", str(out1), "--deterministic"])
        code = main(["sweep", "--config", str(out1 / "config.echo.json"),
                     "--out", str(out2), "--deterministic"])
        assert code == EXIT_OK
        assert read(out1 / "sweep.csv") == read(out2 / "sweep.csv")
        assert read(out1 / "config.echo.json") == read(out2 / "config.echo.json")

    def test_unknown_config_field_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"command": "sweep", "params": {"bogus": 1}}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG

    def test_command_mismatch_rejected(self, tmp_path):
        config = tmp_path / "mismatch.json"
        config.write_text(json.dumps({"command": "generate", "params": {}}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG

    def test_invalid_json_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG

    def test_bare_params_config_accepted(self, tmp_path):
        # a config without a "command" key is the params object itself
        params = {"topology": {"n": 20, "seed": 4}, "tau": 150, "rho": 0.9}
        outs = []
        for name, content in [("bare", params), ("wrapped", {"command": "generate",
                                                             "params": params})]:
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(content))
            outs.append(tmp_path / name)
            assert main(["generate", "--config", str(config), "--out", str(outs[-1]),
                         "--deterministic"]) == EXIT_OK
        for name in ("config.echo.json", "trajectory.csv", "oscillation.json"):
            assert read(outs[0] / name) == read(outs[1] / name)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        # it reaches the nested seed from flags alone, and under a config's
        # topology object that gives no seed
        monkeypatch.setenv("SOESN_SEED", "123")
        config = _config_file(tmp_path, {"topology": {"n": 20}, "tau": 150})
        for name, argv in [("flags", ["--n", "20", "--tau", "150"]),
                           ("config", ["--config", config])]:
            out = tmp_path / name
            assert main(["generate", *argv, "--out", str(out), "--deterministic"]) == EXIT_OK
            echo = json.loads(read(out / "config.echo.json"))
            assert echo["params"]["topology"]["seed"] == 123

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOESN_SEED", "123")
        out = tmp_path / "flag"
        main(["generate", "--n", "20", "--tau", "150", "--seed", "77",
              "--out", str(out), "--deterministic"])
        echo = json.loads(read(out / "config.echo.json"))
        assert echo["params"]["topology"]["seed"] == 77

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        # a stray environment seed must never break a rerun from the echo
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--n", "20", "--tau", "150", "--seed", "77",
              "--out", str(out1), "--deterministic"])
        monkeypatch.setenv("SOESN_SEED", "123")
        code = main(["generate", "--config", str(out1 / "config.echo.json"),
                     "--out", str(out2), "--deterministic"])
        assert code == EXIT_OK
        assert read(out1 / "trajectory.csv") == read(out2 / "trajectory.csv")


    def test_none_clears_an_optional_field(self, tmp_path):
        # a config that sets every T | None field, each cleared by its flag:
        # the echo holds null, and rerunning it writes the same bytes
        cases = {
            "reproduce": ({"n": 20, "sub_count": 2, "max_attempts": 1, "sub_counts": [1, 2],
                           "dt": 0.5, "tau": 150},
                          ["--sub-counts", "none", "--dt", "none", "--tau", "none"],
                          ("nrmse.json",)),
            "sweep": ({"leak_values": [0.5], "rho_values": [0.8, 1.5], "trials": 1, "n": 20,
                       "tau": 200, "cells": 1}, ["--cells", "none"], ("sweep.csv",)),
        }
        for command, (params, flags, payloads) in cases.items():
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps({"command": command, "params": params}))
            first, rerun = tmp_path / f"{command}1", tmp_path / f"{command}2"
            assert main([command, "--config", str(config), *flags, "--out", str(first),
                         "--deterministic"]) == EXIT_OK
            echo = json.loads(read(first / "config.echo.json"))["params"]
            assert all(echo[flag[2:].replace("-", "_")] is None for flag in flags[::2])
            assert main([command, "--config", str(first / "config.echo.json"),
                         "--out", str(rerun), "--deterministic"]) == EXIT_OK
            for name in ("config.echo.json",) + payloads:
                assert read(first / name) == read(rerun / name)


class TestReproduce:
    def test_sine_single_run_writes_nrmse(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["reproduce", "--target", "sine", "--n", "100", "--sub", "4",
                     "--tau", "400", "--seed", "3", "--out", str(out),
                     "--deterministic"])
        assert code == EXIT_OK
        payload = json.loads(read(out / "nrmse.json"))
        assert payload["target"] == "sine"
        assert payload["oscillatory"] in (True, False)
        if payload["oscillatory"]:
            assert (out / "overlay.svg").exists()

    def test_square_target(self, tmp_path):
        out = tmp_path / "sq"
        code = main(["reproduce", "--target", "square", "--n", "100", "--sub", "4",
                     "--tau", "400", "--seed", "3", "--out", str(out),
                     "--deterministic"])
        assert code == EXIT_OK
        assert json.loads(read(out / "nrmse.json"))["target"] == "square"

    def test_lorenz_uses_paper_initial_state(self, tmp_path):
        from soesn.cli import ReproduceConfig

        target = ReproduceConfig(target="lorenz", tau=99, washout=0).target_signal()
        assert np.array_equal(target.values[0], [0.0, 1.0, 1.05])
        assert target.dt == 0.01

    def test_shortest_tau_fills_the_classifier_window(self, tmp_path):
        # tau + 1 = 100 samples is exactly one classifier window
        out = tmp_path / "short"
        code = main(["reproduce", "--n", "20", "--sub", "2", "--tau", "99", "--washout", "10",
                     "--max-attempts", "2", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        assert (out / "nrmse.json").exists()

    def test_exhaustion_is_success_exit(self, tmp_path):
        # max_attempts 0 exhausts immediately; still exit 0 with the flag recorded
        out = tmp_path / "ex"
        code = main(["reproduce", "--target", "sine", "--n", "100", "--sub", "4",
                     "--tau", "400", "--max-attempts", "0", "--out", str(out),
                     "--deterministic"])
        assert code == EXIT_OK
        payload = json.loads(read(out / "nrmse.json"))
        assert payload["oscillatory"] is False
        assert not (out / "overlay.svg").exists()

    def test_sub_count_sweep_mode(self, tmp_path):
        out = tmp_path / "box"
        code = main(["reproduce", "--target", "sine", "--n", "48",
                     "--sub-counts", "1,4", "--trials", "2", "--tau", "300",
                     "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        lines = read(out / "boxplot.csv").decode().splitlines()
        data = [line for line in lines if line and not line.startswith("#")]
        assert data[0] == "sub_count,trial,oscillatory,nrmse"
        assert len(data) - 1 == 2 * 2
        summary = json.loads(read(out / "summary.json"))
        assert [entry["sub_count"] for entry in summary["per_sub_count"]] == [1, 4]
        trial_lines = read(out / "trials.jsonl").decode().splitlines()
        assert len(trial_lines) == 1 + 2 * 2  # metadata line + one per trial
        assert "metadata" in json.loads(trial_lines[0])
        record = json.loads(trial_lines[1])
        assert {"sub_count", "trial", "oscillatory", "attempt_count"} <= set(record)


    @staticmethod
    def _box_rows(out):
        lines = [line for line in read(out / "boxplot.csv").decode().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "sub_count,trial,oscillatory,nrmse"
        return [line.split(",") for line in lines[1:]]

    @staticmethod
    def _trial_records(out):
        return [json.loads(line) for line in read(out / "trials.jsonl").decode().splitlines()[1:]]

    def test_boxplot_rows_are_the_trials_jsonl_trials(self, tmp_path):
        out = tmp_path / "box"
        assert main(["reproduce", "--n", "40", "--sub-counts", "1,4", "--trials", "6",
                     "--tau", "300", "--max-attempts", "1", "--seed", "5",
                     "--out", str(out), "--deterministic"]) == EXIT_OK
        rows = {(int(m), int(t)): (ok, nrmse) for m, t, ok, nrmse in self._box_rows(out)}
        records = self._trial_records(out)
        assert len(rows) == len(records) == 12
        flags = []
        for record in records:
            ok, nrmse = rows[record["sub_count"], record["trial"]]
            assert ok == str(record["oscillatory"]).lower()
            expected = "" if record["train_nrmse"] is None else repr(
                float(np.mean(record["train_nrmse"])))
            assert nrmse == expected
            flags.append(record["oscillatory"])
        assert True in flags and False in flags

    def test_undefined_nrmse_is_an_empty_boxplot_field(self, tmp_path):
        # a constant target leaves an oscillatory trial's NRMSE undefined:
        # null in trials.jsonl, an empty field in boxplot.csv
        out = tmp_path / "flat"
        assert main(["reproduce", "--freq", "0", "--n", "40", "--sub-counts", "1,4",
                     "--trials", "4", "--tau", "300", "--max-attempts", "1", "--seed", "5",
                     "--out", str(out), "--deterministic"]) == EXIT_OK
        rows = self._box_rows(out)
        assert any(ok == "true" for _, _, ok, _ in rows)
        assert all(nrmse == "" for _, _, _, nrmse in rows)
        assert all(r["train_nrmse"] in (None, [None]) for r in self._trial_records(out))

    @pytest.mark.parametrize("dt", ["1e300", "1e306"])
    def test_overflowing_target_is_config_error(self, dt, tmp_path):
        # at 1e300 the ramp is finite but its spread overflows; at 1e306 the
        # ramp itself does. Either way: rejected, and no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["reproduce", "--n", "20", "--sub", "2", "--tau", "200",
                         "--mode", "literal_ode", "--dt", dt, "--out", str(tmp_path / "ode"),
                         "--deterministic"])
        assert code == EXIT_CONFIG


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestUndefinedNumbersAreNull:
    """A constant target (--freq 0) leaves the NRMSE undefined; every JSON
    payload then holds null, never NaN, and parses as strict JSON."""

    FLAT = ["reproduce", "--freq", "0", "--n", "40", "--tau", "300", "--seed", "5",
            "--deterministic"]

    @staticmethod
    def _payloads(out):
        names = sorted(name for name in os.listdir(out) if name.endswith((".json", ".jsonl")))
        return {name: [_strict_json(line) for line in read(out / name).decode().splitlines()]
                if name.endswith(".jsonl") else _strict_json(read(out / name))
                for name in names}

    def test_single_run(self, tmp_path):
        assert main(self.FLAT + ["--sub", "2", "--out", str(tmp_path)]) == EXIT_OK
        payloads = self._payloads(tmp_path)
        assert sorted(payloads) == ["config.echo.json", "nrmse.json"]
        assert payloads["nrmse.json"]["oscillatory"] is True
        assert payloads["nrmse.json"]["train_nrmse"] == [None]

    def test_sub_count_sweep(self, tmp_path):
        # one attempt per trial: some trials oscillate, the rest do not
        assert main(self.FLAT + ["--sub-counts", "1,4", "--trials", "4", "--max-attempts", "1",
                                 "--out", str(tmp_path)]) == EXIT_OK
        payloads = self._payloads(tmp_path)
        assert sorted(payloads) == ["config.echo.json", "summary.json", "trials.jsonl"]
        for entry in payloads["summary.json"]["per_sub_count"]:
            assert entry["quartiles"] == [None, None, None]
        records = payloads["trials.jsonl"][1:]
        assert len(records) == 2 * 4
        assert {r["oscillatory"] for r in records} == {True, False}
        for record in records:
            assert record["train_nrmse"] == ([None] if record["oscillatory"] else None)


class TestJobsAndEchoIdentity:
    """The batched trial engine chunks a trial's states, and stacks trials,
    by the config alone: payloads are byte-identical at --jobs 1, 2 and 3
    and on a rerun from the echo, also when a trial spans several chunks."""

    CASES = {
        "sweep": (["sweep", "--leak-values", "0.2,0.4,0.6,0.8,1.0",
                   "--rho-values", ",".join(str(0.1 * i) for i in range(3, 17)),
                   "--trials", "3", "--n", "20", "--tau", "150", "--seed", "4"],
                  ("sweep.csv", "config.echo.json")),
        "inject-experiment": (["inject-experiment", "--populations", "2,5,12", "--trials", "4",
                               "--tau", "150", "--seed", "4"],
                              ("injection.csv", "config.echo.json")),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_payloads_do_not_depend_on_jobs_or_the_echo(self, command, tmp_path):
        argv, payloads = self.CASES[command]
        runs = [tmp_path / name for name in ("j1", "j2", "j3", "echo")]
        for jobs, out in zip("123", runs):
            assert main(argv + ["--jobs", jobs, "--out", str(out), "--deterministic"]) == EXIT_OK
        assert main([command, "--config", str(runs[0] / "config.echo.json"), "--jobs", "2",
                     "--out", str(runs[3]), "--deterministic"]) == EXIT_OK
        for name in payloads:
            assert len({read(out / name) for out in runs}) == 1


class TestInjectExperiment:
    def test_two_ratio_columns(self, tmp_path):
        out = tmp_path / "inj"
        code = main(["inject-experiment", "--populations", "4,10", "--trials", "5",
                     "--tau", "300", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        rows = [
            line for line in read(out / "injection.csv").decode().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "population,ratio_without,ratio_with"
        assert len(rows) == 3
        assert all(len(row.split(",")) == 3 for row in rows[1:])

    def test_default_populations(self):
        from soesn.cli import InjectConfig

        assert InjectConfig().populations == (4, 10, 25, 50, 100)


class TestSvgOutput:
    def test_text_is_xml_escaped(self, tmp_path):
        from soesn import svgplot

        path = tmp_path / "chart.svg"
        svgplot.line_chart(path, [("a<b&c", [0, 1], [0, 1])], "t<&>t")
        content = read(path).decode()
        assert "t&lt;&amp;&gt;t" in content
        assert "<&" not in content


class TestTopologyDemo:
    def test_emits_all_four_topologies(self, tmp_path):
        out = tmp_path / "demo"
        code = main(["topology-demo", "--n", "24", "--tau", "200", "--out", str(out),
                     "--deterministic"])
        assert code == EXIT_OK
        for kind in ("dense", "sparse", "block_diagonal", "weakly_coupled"):
            assert (out / f"{kind}_trajectory.csv").exists()
            assert (out / f"{kind}_report.json").exists()
            assert (out / f"{kind}_traces.svg").exists()


# Each base run is small, so a check that fails to reject still ends fast.
SMALL_FLAGS = {
    "generate": ["--n", "20", "--tau", "150"],
    "sweep": ["--trials", "1", "--cells", "1", "--n", "20", "--tau", "200"],
    "inject-experiment": ["--populations", "4", "--trials", "1", "--tau", "200"],
    "reproduce": ["--n", "20", "--sub", "2", "--tau", "200", "--max-attempts", "1"],
    "topology-demo": ["--n", "12", "--tau", "150"],
}
SMALL_PARAMS = {
    "generate": {"topology": {"n": 20}, "tau": 150},
    "sweep": {"trials": 1, "cells": 1, "n": 20, "tau": 200},
    "inject-experiment": {"populations": [4], "trials": 1, "tau": 200},
    "reproduce": {"n": 20, "sub_count": 2, "tau": 200, "max_attempts": 1},
    "topology-demo": {"n": 12, "tau": 150},
}
COMMANDS = sorted(SMALL_FLAGS)

BAD_FLAGS = [
    ("generate", ["--tau", "50"]),
    ("generate", ["--leak", "1.5"]),
    ("generate", ["--sub", "30"]),
    ("generate", ["--seed", "-1"]),
    ("generate", ["--n", "1", "--inject"]),  # the ensemble needs two units
    ("generate", ["--plot-units", "0"]),
    ("sweep", ["--tau", "50"]),
    ("sweep", ["--n", "0"]),
    ("sweep", ["--rho-values", "0.5,-1"]),
    ("sweep", ["--cells", "0"]),
    ("sweep", ["--leak-values", "0.5,x"]),
    ("inject-experiment", ["--tau", "50"]),
    ("inject-experiment", ["--populations", "1"]),
    ("inject-experiment", ["--populations", "4,x"]),
    ("inject-experiment", ["--rho", "0"]),
    ("reproduce", ["--washout", "-1"]),
    ("reproduce", ["--tau", "100"]),
    ("reproduce", ["--n", "0"]),
    ("reproduce", ["--sub-counts", "1,40"]),
    ("reproduce", ["--sub-counts", ","]),
    ("reproduce", ["--dt", "0"]),
    ("reproduce", ["--leak-sigma", "-0.1"]),
    ("reproduce", ["--sub-count", "4"]),  # a prefix of --sub-counts, not a flag
    ("reproduce", ["--tau", "50", "--washout", "10"]),  # 51 samples < the window
    ("reproduce", ["--tau", "50", "--washout", "10", "--max-attempts", "0"]),
    ("sweep", ["--trial", "1"]),
    ("topology-demo", ["--rho", "0"]),
    ("topology-demo", ["--n", "0"]),
] + [(command, ["--jobs", jobs]) for command in COMMANDS for jobs in ("0", "-3")] + [
    # a seed names one stream: derive_seed would mask these onto others
    (command, ["--seed", "-1"]) for command in COMMANDS if command != "generate"
] + [(command, ["--seed", str(2**64)]) for command in COMMANDS] + [
    # one past sys.maxsize: no array or loop takes it
    ("sweep", ["--n", str(2**63)]), ("reproduce", ["--trials", str(2**63)]),
]

HUGE = 10**400
BAD_PARAMS = [
    ("generate", {"topology": {"n": "abc"}}),
    ("generate", {"topology": 5}),
    ("generate", {"topology": {"kind": "ring"}}),
    ("generate", {"topology": {"bogus": 1}}),
    ("generate", {"svg": "yes"}),
    ("generate", {"rho": float("nan")}),
    ("generate", {"rho": {}}),
    ("generate", {"topology": {"n": 1, "inject_ensemble": True}}),
    ("generate", {"plot_units": -1}),
    ("sweep", {"trials": 1.5}),
    ("sweep", {"tau": "x"}),
    ("sweep", {"leak_values": "0.5"}),
    ("sweep", {"cells": True}),
    ("inject-experiment", {"populations": [4, "10"]}),
    ("inject-experiment", {"rho": None}),
    ("inject-experiment", {"leak": 0.0}),
    ("reproduce", {"n": "abc"}),
    ("reproduce", {"standardize": 1}),
    ("reproduce", {"washout": True}),
    ("reproduce", {"target": "triangle"}),
    ("reproduce", {"sub_counts": [1.5]}),
    ("reproduce", {"sub_counts": []}),
    ("topology-demo", {"n": True}),
    ("topology-demo", {"tau": 98}),
] + [(command, {"bogus": 1}) for command in COMMANDS] + [
    # a JSON integer no double can hold, in a float field
    (command, {"rho": HUGE})
    for command in ("generate", "inject-experiment", "reproduce", "topology-demo")
] + [("sweep", {"rho_values": [HUGE]}), ("reproduce", {"freq": HUGE}), ("reproduce", {"dt": HUGE})] + [
    # an int field that sizes an array or a loop past sys.maxsize (numpy
    # raised "Maximum allowed dimension exceeded", or the run never ended)
    (command, {name: HUGE}) for command, names in [
        ("generate", ["tau", "plot_units"]), ("sweep", ["n", "tau", "trials", "cells"]),
        ("inject-experiment", ["tau", "trials"]),
        ("reproduce", ["n", "tau", "trials", "sub_count", "washout", "max_attempts"]),
        ("topology-demo", ["n", "tau"]),
    ] for name in names
] + [("generate", {"topology": {"n": HUGE}}), ("generate", {"topology": {"sub_count": HUGE}}),
     ("inject-experiment", {"populations": [4, HUGE]}), ("reproduce", {"sub_counts": [1, HUGE]})]


def _config_file(tmp_path, content):
    path = tmp_path / "config.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


class TestExitCodes:
    """Every subcommand honours the exit-code contract: 2 for any bad
    configuration, caught before an output directory is made; 4 for
    refusing to overwrite."""

    @pytest.mark.parametrize("command,extra", BAD_FLAGS,
                             ids=[f"{c} {' '.join(a)}" for c, a in BAD_FLAGS])
    def test_bad_flag_is_config_error(self, command, extra, tmp_path):
        argv = [command, *SMALL_FLAGS[command], *extra, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,bad", BAD_PARAMS,
                             ids=[f"{c} {json.dumps(b)}".replace(str(HUGE), "10**400")
                                  for c, b in BAD_PARAMS])
    def test_bad_config_value_is_config_error(self, command, bad, tmp_path):
        config = _config_file(
            tmp_path, {"command": command, "params": SMALL_PARAMS[command] | bad}
        )
        argv = [command, "--config", config, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("content", [
        "{not json",
        "[1, 2]",
        {"command": "no-such-command", "params": {}},
        {"params": [1]},
        b"\xff\xfe{}",
        '{"rho": 1' + "0" * 5000 + "}",  # past Python's int-to-str digit limit
        "[" * 100000,  # past the parser's recursion limit
    ], ids=["bad-json", "not-an-object", "command-mismatch", "params-not-an-object",
            "not-utf-8", "oversized-int", "nested-too-deeply"])
    def test_bad_config_file_is_config_error(self, command, content, tmp_path):
        if isinstance(content, dict) and "command" not in content:
            content = {"command": command, **content}
        argv = [command, "--config", _config_file(tmp_path, content),
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "4", "--tau", "99", "--trials", "1", "--leak-values", "0.5",
         "--rho-values", "1e308"],
        ["reproduce", "--n", "8", "--sub", "2", "--tau", "150", "--washout", "10",
         "--rho", "1e308"],
        ["inject-experiment", "--populations", "2", "--trials", "1", "--tau", "99",
         "--rho", "1e308"],
        ["topology-demo", "--n", "4", "--tau", "99", "--rho", "1e308"],
        *(pytest.param(argv, id=f"{argv[0]}-1e300") for argv in [
            ["generate", "--n", "20", "--tau", "150", "--rho", "1e300"],
            ["sweep", "--n", "4", "--tau", "99", "--trials", "1", "--leak-values", "0.5",
             "--rho-values", "1e300"],
            ["reproduce", "--n", "8", "--sub", "2", "--tau", "150", "--washout", "10",
             "--rho", "1e300"],
            ["inject-experiment", "--populations", "2", "--trials", "1", "--tau", "99",
             "--rho", "1e300"],
            ["topology-demo", "--n", "4", "--tau", "99", "--rho", "1e300"],
        ]),
    ], ids=lambda argv: argv[0])
    def test_overflowing_scale_factor_is_numeric_error(self, argv, tmp_path, capsys):
        # rho / radius is inf for these seeded matrices at 1e308, and finite
        # but beyond float32, which the update runs in, at 1e300: no command
        # may go on with it (the suite turns a leaked overflow warning into
        # a failure)
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "the scale factor to radius 1e+3" in capsys.readouterr().err

    def test_nul_byte_in_out_is_io_error(self, tmp_path, monkeypatch, capsys):
        # os raises ValueError, not OSError, for such a path; --config is
        # checked alike, as a missing --config is an I/O error too
        monkeypatch.chdir(tmp_path)
        for flag in ("--out", "--config"):
            assert main(["generate", "--n", "20", "--tau", "150", flag, "a\x00b"]) == EXIT_IO
            err = capsys.readouterr().err
            assert f"I/O error: {flag}" in err and "NUL" in err and "Traceback" not in err
            assert list(tmp_path.iterdir()) == []

    def test_flag_under_a_non_object_config_key_is_config_error(self, tmp_path, capsys):
        # the flag is not written into the 5: the config's value is named
        config = _config_file(tmp_path, {"command": "generate", "params": {"topology": 5}})
        argv = ["generate", "--config", config, "--n", "20", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "generate.topology must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,target", [
        ("generate", "soesn.cli.build_weights"), ("sweep", "soesn.experiments.build_dense"),
    ])
    def test_failed_allocation_is_numeric_error(self, command, target, tmp_path, monkeypatch,
                                                capsys):
        # injected, never allocated: whether a huge request fails at once
        # depends on the host's overcommit setting
        def fail(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(target, fail)
        assert main([command, *SMALL_FLAGS[command], "--out", str(tmp_path / "o")]) \
            == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "soesn: numeric failure: out of memory: " \
                      "Unable to allocate 298. GiB for an array\n"
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep", "inject-experiment",
                                         "topology-demo"])
    def test_shortest_tau_fills_the_classifier_window(self, command, tmp_path):
        # tau + 1 = 100 rows is exactly one classifier window (reproduce: TestReproduce)
        argv = [command, *SMALL_FLAGS[command], "--tau", "99", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_env_seed_is_config_error(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("SOESN_SEED", "-1")
        assert main([command, *SMALL_FLAGS[command], "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_integer_env_seed_is_config_error(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("SOESN_SEED", "abc")
        assert main([command, *SMALL_FLAGS[command], "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_integer_env_seed_is_unread_when_a_seed_is_given(self, source, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setenv("SOESN_SEED", "abc")
        argv = ["--seed", "7"] if source == "flag" else ["--config", _config_file(
            tmp_path, {"topology": {"n": 20, "seed": 7}, "tau": 150})]
        assert main(["generate", *SMALL_FLAGS["generate"], *argv,
                     "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("command", COMMANDS)
    def test_existing_output_without_force_is_io_error(self, command, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "config.echo.json").write_text("{}")
        assert main([command, *SMALL_FLAGS[command], "--out", str(out)]) == EXIT_IO

    @pytest.mark.parametrize("argv", [[c, *SMALL_FLAGS[c]] for c in COMMANDS] + [
        ["generate", *SMALL_FLAGS["generate"], "--no-svg"],
        ["reproduce", "--n", "20", "--sub-counts", "1,2", "--trials", "1", "--tau", "200",
         "--max-attempts", "1"],
    ], ids=" ".join)
    def test_every_written_file_is_guarded(self, argv, tmp_path):
        # any one file a run writes, alone in --out, stops a rerun without
        # --force before anything is written
        first = tmp_path / "first"
        assert main([*argv, "--out", str(first), "--deterministic"]) == EXIT_OK
        for name in os.listdir(first):
            out = tmp_path / f"only-{name}"
            out.mkdir()
            (out / name).write_bytes(read(first / name))
            assert main([*argv, "--out", str(out), "--deterministic"]) == EXIT_IO
            assert os.listdir(out) == [name]
            assert read(out / name) == read(first / name)

    @pytest.mark.parametrize("first,second", [
        (["reproduce", "--n", "20", "--sub-counts", "1,2", "--trials", "1", "--tau", "200",
          "--max-attempts", "1"], ["reproduce", *SMALL_FLAGS["reproduce"]]),
        (["reproduce", *SMALL_FLAGS["reproduce"], "--max-attempts", "2"],  # oscillates
         ["reproduce", *SMALL_FLAGS["reproduce"], "--max-attempts", "0"]),
        (["generate", *SMALL_FLAGS["generate"]],
         ["generate", *SMALL_FLAGS["generate"], "--no-svg"]),
    ], ids=["sweep-then-single", "overlay-then-none", "svg-then-no-svg"])
    def test_force_replaces_the_whole_output_set(self, first, second, tmp_path):
        # a forced rerun leaves exactly the files it wrote, never an earlier
        # run's payload beside an echo that cannot produce it
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert main([*first, "--out", str(out), "--deterministic"]) == EXIT_OK
        assert main([*second, "--out", str(out), "--deterministic", "--force"]) == EXIT_OK
        assert main([*second, "--out", str(fresh), "--deterministic"]) == EXIT_OK
        assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
        for name in os.listdir(fresh):
            assert read(out / name) == read(fresh / name)

    def test_failed_forced_rerun_leaves_no_echo(self, tmp_path, capsys):
        # the old outputs are deleted, the echo first, before anything is
        # written: a payload path that cannot be replaced is an I/O error
        argv = ["topology-demo", *SMALL_FLAGS["topology-demo"], "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        os.remove(tmp_path / "sparse_trajectory.csv")
        os.mkdir(tmp_path / "sparse_trajectory.csv")
        assert main(argv + ["--force"]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
        assert not (tmp_path / "config.echo.json").exists()


class TestStandardize:
    ARGS = ["reproduce", "--target", "lorenz", "--n", "60", "--tau", "300",
            "--seed", "3", "--deterministic"]

    @staticmethod
    def trial_records(out):
        return read(out / "trials.jsonl").decode().splitlines()[1:]

    def test_sub_count_mode_honours_standardize(self, tmp_path):
        sweep = ["--sub-counts", "1,4", "--trials", "2"]
        main(self.ARGS + sweep + ["--out", str(tmp_path / "raw")])
        main(self.ARGS + sweep + ["--standardize", "--out", str(tmp_path / "std")])
        raw, std = self.trial_records(tmp_path / "raw"), self.trial_records(tmp_path / "std")
        assert len(raw) == len(std) == 4
        assert raw != std

    @staticmethod
    def rebuild(config, target, attempt_seed):
        """The attempt that `attempt_seed` names, re-simulated and refitted:
        its trained model and full-length prediction in target units."""
        from soesn.experiments import _attempt_reservoir, _fit, _prediction

        trajectory = _attempt_reservoir(config, attempt_seed).run(target.length - 1)
        model, mean, sd = _fit(trajectory, target, config)
        return model, _prediction(trajectory, model, mean, sd, config)

    def test_rebuilt_overlay_model_is_the_scored_model(self):
        from soesn import ReproduceConfig, gen_lorenz, reproduce_waveform

        config = ReproduceConfig(n=60, sub_count=3, standardize=True, seed=3)
        target = gen_lorenz(300)
        outcome = reproduce_waveform(config, target)
        assert outcome.oscillatory
        model, prediction = self.rebuild(config, target, outcome.seed)
        assert tuple(model.train_nrmse) == outcome.train_nrmse
        assert prediction.shape == target.values.shape

    def test_single_run_prediction_is_the_rebuilt_models(self):
        from soesn import ReproduceConfig, gen_lorenz
        from soesn.experiments import reproduce_with_prediction

        config = ReproduceConfig(n=60, sub_count=3, standardize=True, seed=3)
        target = gen_lorenz(300)
        outcome, prediction = reproduce_with_prediction(config, target)
        _, rebuilt = self.rebuild(config, target, outcome.seed)
        assert prediction.tobytes() == rebuilt.tobytes()


def test_single_run_reproduce_simulates_each_attempt_once(tmp_path, monkeypatch):
    from soesn.reservoir import Reservoir

    taus = []
    run = Reservoir.run

    def counted(self, tau):
        taus.append(tau)
        return run(self, tau)

    monkeypatch.setattr(Reservoir, "run", counted)
    out = tmp_path / "r"
    args = ["reproduce", "--target", "sine", "--n", "40", "--sub", "1", "--tau", "300",
            "--max-attempts", "4", "--seed", "6", "--deterministic", "--out", str(out)]
    assert main(args) == EXIT_OK
    payload = json.loads(read(out / "nrmse.json"))
    assert payload["oscillatory"] and payload["attempt_count"] == 3
    assert taus == [300] * payload["attempt_count"]
    assert (out / "overlay.svg").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_run_writes_its_payloads_then_the_echo_then_its_summary(command, tmp_path,
                                                                  monkeypatch, capsys):
    import soesn.cli as cli

    out = tmp_path / "o"
    seen = {}
    write_json = cli._write_json

    def recording(path, payload):
        if os.path.basename(path) == cli.ECHO:
            seen["echo"] = sorted(os.listdir(out))
        write_json(path, payload)

    def summary(line):
        seen["summary"] = sorted(os.listdir(out))
        print(line)

    monkeypatch.setattr(cli, "_write_json", recording)
    monkeypatch.setattr(cli, "print", summary, raising=False)
    assert main([command, *SMALL_FLAGS[command], "--out", str(out)]) == EXIT_OK
    written = sorted(os.listdir(out))
    assert seen == {"echo": [name for name in written if name != cli.ECHO],
                    "summary": written}
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_pyproject_version_is_the_package_version():
    # read with a regex: tomllib needs Python 3.11, and the package supports 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [soesn.__version__]


def test_version_leaves_the_blas_threads_alone(two_blas_threads, capsys):
    from soesn.numerics import _blas_threads

    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith(soesn.__version__)
    assert _blas_threads() == 2


def test_a_run_sets_one_blas_thread(two_blas_threads, tmp_path):
    from soesn.numerics import _blas_threads

    assert main(["generate", "--n", "20", "--tau", "150", "--no-svg",
                 "--out", str(tmp_path / "g")]) == EXIT_OK
    assert _blas_threads() == 1


def test_cli_import_loads_no_heavy_stdlib_modules():
    # `soesn --version` pays for every module `soesn.cli` imports
    import soesn

    heavy = ["xml.sax", "urllib.request", "http.client", "ssl", "email",
             "multiprocessing", "concurrent.futures.process"]
    code = "import sys, soesn.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soesn.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    loaded = set(result.stdout.split())
    assert "soesn.cli" in loaded
    assert sorted(loaded.intersection(heavy)) == []


@pytest.mark.parametrize("module", sorted(
    "soesn" if path.stem == "__init__" else f"soesn.{path.stem}"
    for path in Path(soesn.__file__).parent.glob("*.py")))
def test_module_imports_alone(module):
    # a fresh interpreter per module, so an import cycle fails whichever
    # module enters it first, not only the order the package happens to use
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soesn.__file__)))
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True, timeout=60)
