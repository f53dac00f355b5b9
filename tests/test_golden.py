"""Golden payloads: the sha256 of every CSV/JSON/SVG file written by small
pinned CLI runs, and byte-identical reruns from committed config.echo.json
files. Every case runs with --deterministic, which leaves the timestamp
comment out of the SVGs, so they are byte-stable too.

The digests are those of artifact_version 0.4.0, whose state update runs
in float32 and whose radius above 100 rows comes from thick-restart
Arnoldi. They were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64,
Python 3.11, OpenBLAS core SkylakeX), with BLAS on one thread, as every CLI
run sets it; another numpy or BLAS build, or another OpenBLAS kernel, may
round differently and move them, which says nothing about the change under
test, so a mismatch names the core it ran under and the one they were
recorded under. `golden/` holds the config.echo.json each case wrote when
the digests were recorded; a rerun from it must reproduce every payload,
the echo included.
"""

import ctypes
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import soesn
from soesn.cli import EXIT_OK, main
from soesn.numerics import _blas_threads, _openblas_call

GOLDEN = Path(__file__).parent / "golden"
RECORDED_CORE = "SkylakeX"  # the OpenBLAS kernel the digests were recorded under

CASES = {
    "generate": (
        ["generate", "--topology", "weakly_coupled", "--n", "40", "--sub", "4",
         "--inject", "--tau", "300", "--seed", "7"],
        {
            "config.echo.json": "5337e986c33de4b8c43f1916923b199e5e1c28167c1306a24ccfa9503d0d33cb",
            "oscillation.json": "13ca96dabb52e33a47af4d2282b3f4adf723ec96743acb50278ecfa0dbc947da",
            "traces.svg": "240b935bdc00e17b7f4bb7d0882124eaf989f773bd8c962adbf209c6fee7ebf9",
            "trajectory.csv": "b6590bb19ccb8e12c3c8da1e1081c96b1adcd6347d9959af479c8fb94ce77f8a",
        },
    ),
    # blocks of 102 and 101 rows, each above the eigvals cutover: each block's
    # radius is taken by Arnoldi at its own side
    "generate-uneven-split": (
        ["generate", "--topology", "weakly_coupled", "--n", "203", "--sub", "2",
         "--tau", "120", "--seed", "7"],
        {
            "config.echo.json": "8539f3651aea0269f3dea19863f10b1cda893deeb425ce6a0800e98f0a7a9101",
            "oscillation.json": "27691b154f7bbce7ba7e1db3ffe17018b4f6a6fd6db0cee74479ad0d003b7e73",
            "traces.svg": "b2c6cf1cfbeb31cc8ed4bbe59976f18d0cd995f618c1e38a3ae3f67bcb31215b",
            "trajectory.csv": "691f6988f887a240ec9f324169501c238049f6a5e41b12d2c4bb6e8941b55da4",
        },
    ),
    "sweep": (
        ["sweep", "--leak-values", "0.3,0.6", "--rho-values", "0.8,1.5,2.0",
         "--cells", "2", "--trials", "3", "--n", "40", "--tau", "300", "--seed", "9"],
        {
            "config.echo.json": "2024ff637ddb11df09d3d24b442b4c3aed5dbc85a7eb1e80b8d4dc385ce54817",
            "heatmap.svg": "6f96d3de9950d58deb89f309679abc64013a95560017b6cfdaea5f0f8fe673df",
            "sweep.csv": "299eb6d2d10e0bcd8b698c9d16cf7c1f1ff056e8bd70d95110ca5895b1e6e1e1",
        },
    ),
    "inject-experiment": (
        ["inject-experiment", "--populations", "4,10", "--trials", "5",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "bf0fa81c93eb26a475850b4ad27e128bc82dd28ac8cfa12c6e8d22ec2dc6dd2c",
            "injection.csv": "be846c916178991f417841a8d803d53c00c9030a75ab5ba5a7b335f25175ee27",
            "injection.svg": "70e619472b4cd8a9642a788d1a10e396c9398cbb92ad4e6fc46c2c9637aef50c",
        },
    ),
    "reproduce-sine": (
        ["reproduce", "--target", "sine", "--n", "60", "--sub", "3",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "77e31745b81f64e1ad849dd29d7b77f0dd87b927734a38d68d98edd703dda1b8",
            "nrmse.json": "9ba2c645dc2e08ba498047abd751eabbf47bee8cc08e2f97d452725d248e5791",
            "overlay.svg": "08e9ddb6fe5e90d175289fd7a2b100816c9fd8803a1e67b661d307e9e4a8973b",
        },
    ),
    "reproduce-lorenz": (
        ["reproduce", "--target", "lorenz", "--n", "60", "--sub", "3",
         "--tau", "300", "--standardize", "--seed", "3"],
        {
            "config.echo.json": "dbb4c520977d06bed0ac27dd5dedb5a4fdfc8d97ba0651d07af9c9016a27cdd0",
            "nrmse.json": "d1d801adfc6ada08ac9d5ac4cbf816584ca8e88e106dcb48f996261827719af3",
            "overlay.svg": "c1526c6e68b33b8353c111489c3ba1cc4b4691e6a9138ef5aed9049dcd41838d",
        },
    ),
    "reproduce-sub-counts": (
        ["reproduce", "--target", "sine", "--n", "48", "--sub-counts", "1,4",
         "--trials", "2", "--tau", "300", "--seed", "5"],
        {
            "boxplot.csv": "d3da3f06a35f8f0e26988087c55032f37288287b5ecc7a0ff64e9181bf50a9db",
            "config.echo.json": "868b8fa63fca55b35144125521633efc1ea6d3dedef6052dd84289cd9001f780",
            "summary.json": "9f171f13555b02cd79fea16bc74a87a15eb089a33b77e2d6aac74ab143d46e72",
            "trials.jsonl": "5395cb8c2c30c7a47a1469ce73ad9d147d918ac6b59361796b0affc1f8b7b914",
        },
    ),
    "topology-demo": (
        ["topology-demo", "--n", "24", "--tau", "200", "--seed", "2"],
        {
            "block_diagonal_report.json": "da2f3a2d03a526f9cba41be828c7ca4c9709d5eddd74d40ed592bc51fba44f41",
            "block_diagonal_traces.svg": "6665e8ea0079001c45ce8495d10f17b7a4e4a5648469080e13e9ba62af4ab671",
            "block_diagonal_trajectory.csv": "769b5eb7dd51c76504ae3a1a0dc950552ac1b5fd8b611d50fbdc145812a21e4c",
            "config.echo.json": "5b238dd08716c6b28987e2636aa89c24ff9a9c29497066abdfdefd17682da613",
            "dense_report.json": "7db510566d71d2622d49da39b3fcff69b57d9f1212c4c9bb15adc9548c08b2ba",
            "dense_traces.svg": "ef44498273d029abdd16a3cc7b0f1a48c0e4da4e1cc668624990682d14cff1c9",
            "dense_trajectory.csv": "90a80e23aa882ee943f061da01f731a8ac37df93970b63c45c20b1c524b5b287",
            "sparse_report.json": "b8876ea26f704e388f85b3836868c13aedcc24d7f6ab2f59fbd8920fff0d3cc5",
            "sparse_traces.svg": "a71bbbce6b6db8eface967e8c9de1ea205c089c29f5defa0ba7cb3e37271b367",
            "sparse_trajectory.csv": "ba06871dc8577e37ce9cdd6c4b3af2b3cf45c236a8ad58a0505588a4a9b19836",
            "weakly_coupled_report.json": "ab90a2f617ec899c3e8d90f9e423ee861fde5ee478aedbf31063a95d6a3c3579",
            "weakly_coupled_traces.svg": "20ed42b0930f8deb76bf1daa270eaca46c9447cd0444880fccd4c55478506920",
            "weakly_coupled_trajectory.csv": "23d6d47497b6839c9f443b8e6a98c7c453da33331df39ac71cf311b3881f1d6f",
        },
    ),
}


def payload_digests(out: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.suffix in (".csv", ".json", ".jsonl", ".svg")
    }


def running_core() -> str:
    """The OpenBLAS core this process runs, or a note that numpy runs on
    another BLAS."""
    corename = _openblas_call("scipy_openblas_get_corename64_")
    if corename is None:
        return "(numpy does not run on the bundled OpenBLAS)"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def assert_digests(out: Path, digests: dict) -> None:
    assert payload_digests(out) == digests, (
        f"payload digests differ under OpenBLAS core {running_core()}; "
        f"they were recorded under {RECORDED_CORE}"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_flag_run_matches_golden(case, tmp_path):
    argv, digests = CASES[case]
    assert main(argv + ["--out", str(tmp_path), "--deterministic"]) == EXIT_OK
    assert_digests(tmp_path, digests)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_from_committed_echo_matches_golden(case, tmp_path):
    argv, digests = CASES[case]
    config = GOLDEN / f"{case}.config.echo.json"
    code = main([argv[0], "--config", str(config), "--out", str(tmp_path), "--deterministic"])
    assert code == EXIT_OK
    assert_digests(tmp_path, digests)


# A hand-written config (not an echo) whose grids hold JSON integers: the
# echo keeps them as given, sweep.csv writes them as floats.
INT_GRID_DIGESTS = {
    "config.echo.json": "28e533bcf5fe2e3373b0b5e07504a8d203271cc19165f0b8d99bd3c5b78d56ab",
    "heatmap.svg": "2e9a646f56d97f655bfa2a8d76a3b9c61d581309f6b0949b20c5e02632618eda",
    "sweep.csv": "103017e750a30d2a110fddea27b5add7a8bd4a94926d1504a9aab11c0b9f8796",
}


def test_integer_grid_config_matches_golden(tmp_path):
    config = GOLDEN / "sweep-int-grid.config.json"
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path), "--deterministic"])
    assert code == EXIT_OK
    assert_digests(tmp_path, INT_GRID_DIGESTS)


def test_a_mismatch_names_the_running_and_the_recorded_core(tmp_path):
    (tmp_path / "payload.json").write_text("{}")
    message = f"under OpenBLAS core {running_core()}; they were recorded under SkylakeX"
    with pytest.raises(AssertionError, match=re.escape(message)):
        assert_digests(tmp_path, {"payload.json": "0" * 64})


@pytest.mark.skipif(_blas_threads() is None, reason="numpy does not run on the bundled OpenBLAS")
def test_reproduce_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # an n=1000 ridge fit whose bits change with the BLAS thread count: a
    # run that kept the count it started with wrote another nrmse.json
    argv = ["reproduce", "--n", "1000", "--sub", "1", "--tau", "400", "--seed", "3",
            "--deterministic"]
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(soesn.__file__)))
        subprocess.run([sys.executable, "-m", "soesn.cli", *argv, "--out", str(out)],
                       env=env, check=True, timeout=120)
        digests[threads] = payload_digests(out)
    assert set(digests["1"]) >= {"nrmse.json", "overlay.svg"}
    assert digests["1"] == digests["2"]
