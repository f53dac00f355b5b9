"""Golden payloads: the sha256 of every CSV/JSON/SVG file written by small
pinned CLI runs, and byte-identical reruns from committed config.echo.json
files. Every case runs with --deterministic, which leaves the timestamp
comment out of the SVGs, so they are byte-stable too.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64,
Python 3.11), with BLAS on one thread, as every CLI run sets it; another
numpy or BLAS build may round differently and move them, which says
nothing about the change under test. `golden/` holds the
config.echo.json each case wrote when the digests were recorded; a rerun
from it must reproduce every payload, the echo included.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soesn
from soesn.cli import EXIT_OK, main
from soesn.numerics import _blas_threads

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "generate": (
        ["generate", "--topology", "weakly_coupled", "--n", "40", "--sub", "4",
         "--inject", "--tau", "300", "--seed", "7"],
        {
            "config.echo.json": "f5c9c02dc4bc16bd43551c691043c87b1ae9bd40b0568423edd36dc97862aec3",
            "oscillation.json": "399554209af37cca0dd25da3a195a33009231a1948911097fff6153ac29f0098",
            "traces.svg": "23769d87a1fee1b77b715e76a519322fa175051023fd6c92cb83068a1cd9b5ac",
            "trajectory.csv": "97e4acce68641d6183b4c4eb835da96e2f0c669053a72d8e92e572d0a6615149",
        },
    ),
    # blocks of 102 and 101 rows: the short block's radius is taken zero-padded
    # to 102 rows, and Arnoldi's rounding depends on the side it runs at
    "generate-uneven-split": (
        ["generate", "--topology", "weakly_coupled", "--n", "203", "--sub", "2",
         "--tau", "120", "--seed", "7"],
        {
            "config.echo.json": "9bc212e14b94014ca2ec22d2d99252fa7eccc901c6281c308c1cc20a741d73bd",
            "oscillation.json": "d9e06ea4d419c06d5523375c57ed2aed83aada789c675f52ab0ec8ee2685f4de",
            "traces.svg": "b2c6cf1cfbeb31cc8ed4bbe59976f18d0cd995f618c1e38a3ae3f67bcb31215b",
            "trajectory.csv": "30e5ed5b066ad0df105caf14628cf8d91ac6ce747afd3c53ed949a30854d9d30",
        },
    ),
    "sweep": (
        ["sweep", "--leak-values", "0.3,0.6", "--rho-values", "0.8,1.5,2.0",
         "--cells", "2", "--trials", "3", "--n", "40", "--tau", "300", "--seed", "9"],
        {
            "config.echo.json": "bb6825cd299f1c56528dd52ca4fa8ce5651aa57d01919954f87c5e99feb2f45f",
            "heatmap.svg": "6f96d3de9950d58deb89f309679abc64013a95560017b6cfdaea5f0f8fe673df",
            "sweep.csv": "adac877ace140ab823d71b676f4859a44e35eef90558dafe359862c4d697d66c",
        },
    ),
    "inject-experiment": (
        ["inject-experiment", "--populations", "4,10", "--trials", "5",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "c517b6c8e0512a925bfa24f52c0d72743cf437d028d00030b6f5a47ebc7a8d30",
            "injection.csv": "975806d16c62268aa3d6537e279583e8f7e404b33873142248bdf30752227f2c",
            "injection.svg": "70e619472b4cd8a9642a788d1a10e396c9398cbb92ad4e6fc46c2c9637aef50c",
        },
    ),
    "reproduce-sine": (
        ["reproduce", "--target", "sine", "--n", "60", "--sub", "3",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "845b1368b45a3ba119729577ba7f2128869ab103d08b7a321da01fc1d920c14d",
            "nrmse.json": "d079b06de028769d548476645037f4eb3ab64dfab96dafb90ed09c5990b9d5cc",
            "overlay.svg": "531ead56187eea27c3ede805a712dc8f0f6523f3038ea87b879eb0a7094caa62",
        },
    ),
    "reproduce-lorenz": (
        ["reproduce", "--target", "lorenz", "--n", "60", "--sub", "3",
         "--tau", "300", "--standardize", "--seed", "3"],
        {
            "config.echo.json": "23cd5a8b9232dd5210a1bbf1d0a9c123fb0ee4b1de838d3780a7ba43430a3fa6",
            "nrmse.json": "1e64af89d8b81782c406fed65e4350c4b9a1b905cc676d2b3059dd0624c0c4de",
            "overlay.svg": "bf1f8e718b288cf8fb2e014c0ee4db0c477cf3be56f352b8e31b94513853b669",
        },
    ),
    "reproduce-sub-counts": (
        ["reproduce", "--target", "sine", "--n", "48", "--sub-counts", "1,4",
         "--trials", "2", "--tau", "300", "--seed", "5"],
        {
            "boxplot.csv": "6ab3b4554cd86ec2c2eecc0eefe3ae5a60d9f870821268d73441d65b8bc5bd14",
            "config.echo.json": "599731e48c62f2a4fc68f712222961e9a6aab326dae6926bdfe2dff0a4caa38b",
            "summary.json": "52387583ab032573546a3f4c793e7cee777fba3772f352e30ad889d7d7a93ce1",
            "trials.jsonl": "968c9e9a907a3d6413182cc40ededc9df958a43db2bec4f111111d087270b19c",
        },
    ),
    "topology-demo": (
        ["topology-demo", "--n", "24", "--tau", "200", "--seed", "2"],
        {
            "block_diagonal_report.json": "80bc090800dcec1ab6bd75340cb77463182877882fdd09555d4f1383da6235e2",
            "block_diagonal_traces.svg": "6665e8ea0079001c45ce8495d10f17b7a4e4a5648469080e13e9ba62af4ab671",
            "block_diagonal_trajectory.csv": "8579afe104c620b6b627111c57180c5b1ccc2a943ce52344f9282b8ae5e1950e",
            "config.echo.json": "93fe26652e6529ece617a640c13857ca9e08d79a13b250bf43a5337a8b2f4251",
            "dense_report.json": "830569bb2847cbba32a4c8a6bc7da79228736ad675c4f72b7cc7e10207afbe25",
            "dense_traces.svg": "4db5cb194759ddd5b1a67c092de6cb56b188dde745a851ce0af76358e48a467f",
            "dense_trajectory.csv": "c017136a5d86a877a9e79956c5319f8e055495052166aa16d28a2378c63a265a",
            "sparse_report.json": "8d2eb7f5c07366ad5342121eb470da541fee0a58a01af4c5230ecca29f697826",
            "sparse_traces.svg": "b65aada699e8eda76003ff97897519a1897462e0033cc82a621b991988536218",
            "sparse_trajectory.csv": "f9caf12c6bae11ffa24a95f0a1f7281d4c7f3d8f5c7eec14ff04d38ef094b4fc",
            "weakly_coupled_report.json": "458502638bda8110b8c0e5f5fe41135e0e23faebb370260c6beda47852928da2",
            "weakly_coupled_traces.svg": "1dbf723a958a7f6afb1393386a200474a8b2609f510fbb4c1a134695704e0c11",
            "weakly_coupled_trajectory.csv": "e26cd70b7c5c8de78517b187c33fa012f32f20bc89eb1dbb581ae531a3b54b76",
        },
    ),
}


def payload_digests(out: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.suffix in (".csv", ".json", ".jsonl", ".svg")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_flag_run_matches_golden(case, tmp_path):
    argv, digests = CASES[case]
    assert main(argv + ["--out", str(tmp_path), "--deterministic"]) == EXIT_OK
    assert payload_digests(tmp_path) == digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_from_committed_echo_matches_golden(case, tmp_path):
    argv, digests = CASES[case]
    config = GOLDEN / f"{case}.config.echo.json"
    code = main([argv[0], "--config", str(config), "--out", str(tmp_path), "--deterministic"])
    assert code == EXIT_OK
    assert payload_digests(tmp_path) == digests


# A hand-written config (not an echo) whose grids hold JSON integers: the
# echo keeps them as given, sweep.csv writes them as floats.
INT_GRID_DIGESTS = {
    "config.echo.json": "5fa656f1e1aa3881ae14e2d56b16ff3037c2fecedd82a45c47671bde4d3d03ce",
    "heatmap.svg": "2e9a646f56d97f655bfa2a8d76a3b9c61d581309f6b0949b20c5e02632618eda",
    "sweep.csv": "b6cf0a0e0471f53cae2115cef4710de575bde6ea33aad948f82792feb3e1c394",
}


def test_integer_grid_config_matches_golden(tmp_path):
    config = GOLDEN / "sweep-int-grid.config.json"
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path), "--deterministic"])
    assert code == EXIT_OK
    assert payload_digests(tmp_path) == INT_GRID_DIGESTS


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
