"""Self-test of the benchmark's tracer and its accounting.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Checks that a span's self time is its duration minus the time its children
cover, that the wrappers put every original function back, and that the
layer self times plus cli.self_s add up to the traced wall time, and that
BENCHMARK.json declares exactly the metrics run.py prints.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import soesn.cli  # noqa: E402
from soesn.reservoir import Reservoir, StateTrajectory  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("experiments.outer")         # [0, 10]
    tracer.close(tracer.open("numerics.first"))     # [1, 3]
    middle = tracer.open("reservoir.middle")        # [4, 8]
    tracer.close(tracer.open("numerics.inner"))     # [5, 6]
    tracer.close(middle)
    tracer.close(root)
    assert self_times(tracer.spans) == [4.0, 2.0, 3.0, 1.0]

    # children that overlap are covered once, and are clipped to the parent
    spans = [Span("a", 0.0, None, 0), Span("b", 1.0, 0, 0), Span("c", 3.0, 0, 0)]
    for span, end in zip(spans, (10.0, 5.0, 12.0)):
        span.end = end
    assert self_times(spans)[0] == 1.0


def _soesn_bindings() -> dict:
    bindings = {(name, attr): value
                for name, module in list(sys.modules.items())
                if module is not None and name.startswith("soesn")
                for attr, value in vars(module).items()}
    bindings["Reservoir.run"] = Reservoir.__dict__["run"]
    bindings["StateTrajectory.to_csv"] = StateTrajectory.__dict__["to_csv"]
    return bindings


def test_wrappers_restore_originals():
    before = _soesn_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # names imported by name into cli and experiments are wrapped too
        assert soesn.cli.classify_trajectory is not before[("soesn.cli", "classify_trajectory")]
        assert soesn.experiments.build_dense is not before[("soesn.experiments", "build_dense")]
        assert Reservoir.__dict__["run"] is not before["Reservoir.run"]
    finally:
        assert tracer.uninstall()
    after = _soesn_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_layer_self_times_sum_to_traced_wall():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as out:
        argv = ["generate", "--n", "20", "--tau", "200", "--seed", "3",
                "--deterministic", "--out", out]
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                assert soesn.cli.main(argv) == 0
                wall = time.perf_counter() - start
        finally:
            assert tracer.uninstall()
        metrics, table = run.layer_metrics(tracer.spans, [wall], [wall])
        csv_bytes = (Path(out) / "trajectory.csv").stat().st_size
    assert abs(run.layer_sum(metrics) - metrics["trace.wall_s"]) <= 1e-9
    assert metrics["trace.wall_s"] == wall
    assert metrics["cli.self_s"] >= 0.0
    assert metrics["reservoir.run.calls"] == 1
    assert metrics["reservoir.run.unit_steps"] == 20 * 200
    assert metrics["reservoir.to_csv.bytes"] == csv_bytes
    assert 20 in table["numerics.spectral_radius ms/call"]


def test_declared_metrics_match_printed_ones():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
