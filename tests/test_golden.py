"""Golden payloads: the sha256 of every CSV/JSON/SVG file written by small
pinned CLI runs, and byte-identical reruns from committed config.echo.json
files. Every case runs with --deterministic, which leaves the timestamp
comment out of the SVGs, so they are byte-stable too.

The digests are those of artifact_version 0.3.0, whose state update runs
in float32. They were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(x86-64, Python 3.11, OpenBLAS core SkylakeX), with BLAS on one thread, as
every CLI run sets it; another numpy or BLAS build, or another OpenBLAS
kernel, may round differently and move them, which says nothing about the
change under test. `golden/` holds the config.echo.json each case wrote
when the digests were recorded; a rerun from it must reproduce every
payload, the echo included.
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
            "config.echo.json": "70291f98bf466a14aa396d14c1634c329e3fa108d57546363bcde6a93a165504",
            "oscillation.json": "a7265b313a7829eb6e996ef56f7f4c54e0f8501d15b2125ea4afda0f29931511",
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
            "config.echo.json": "130811beb111ef0a057a3721902408fbf24f542f6b92c95c3467be177e6f760f",
            "oscillation.json": "0fca0362e5487b8ba758fc60791cfb2f8a3c01eb875d40b6ecfaf7fed144e986",
            "traces.svg": "553803b7bf7d25f717bdb1674425e32c7047d861b51d203fdfaf0bd16d6b6808",
            "trajectory.csv": "adf49dcf363fa5b2e95b6da4178929167ef90e9eba39df2b95a0d3fa4bfabe5a",
        },
    ),
    "sweep": (
        ["sweep", "--leak-values", "0.3,0.6", "--rho-values", "0.8,1.5,2.0",
         "--cells", "2", "--trials", "3", "--n", "40", "--tau", "300", "--seed", "9"],
        {
            "config.echo.json": "6dbbdf338d9842174220ebd14db4979b90b65f4559848fd226a1f54be37475d0",
            "heatmap.svg": "6f96d3de9950d58deb89f309679abc64013a95560017b6cfdaea5f0f8fe673df",
            "sweep.csv": "fa3d6741f6f5d2ceb2cee4daf55ab77090850583df28b9634e81ab29016a6cb6",
        },
    ),
    "inject-experiment": (
        ["inject-experiment", "--populations", "4,10", "--trials", "5",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "3faa0dc5b4077e96686304c5549dd8d93c43decc8bd686b349c8673b613c8d47",
            "injection.csv": "e7fc8ca3e0453a5d6fa4d78d70a4042457fc5e70da788f408411a2716f47468c",
            "injection.svg": "70e619472b4cd8a9642a788d1a10e396c9398cbb92ad4e6fc46c2c9637aef50c",
        },
    ),
    "reproduce-sine": (
        ["reproduce", "--target", "sine", "--n", "60", "--sub", "3",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "7794a835a3ca3b413ec84785ab2e2ee954da98faa2af090e78074471010efb2d",
            "nrmse.json": "865d0c8af681dd1a6967b544602d946129059e432341c970783ae500bcd73c97",
            "overlay.svg": "08e9ddb6fe5e90d175289fd7a2b100816c9fd8803a1e67b661d307e9e4a8973b",
        },
    ),
    "reproduce-lorenz": (
        ["reproduce", "--target", "lorenz", "--n", "60", "--sub", "3",
         "--tau", "300", "--standardize", "--seed", "3"],
        {
            "config.echo.json": "add2df63c5e8e03c49586e4f8785c069e204eed83be3defc1e50bd78402c7473",
            "nrmse.json": "a3a06fcd7d1c1b54cc4f5d39d772a9b322e0d059ef5ffeed8b36edcad9119566",
            "overlay.svg": "c1526c6e68b33b8353c111489c3ba1cc4b4691e6a9138ef5aed9049dcd41838d",
        },
    ),
    "reproduce-sub-counts": (
        ["reproduce", "--target", "sine", "--n", "48", "--sub-counts", "1,4",
         "--trials", "2", "--tau", "300", "--seed", "5"],
        {
            "boxplot.csv": "df4352eb7690a46acd27cd49a1e53485fbb701520a931cd3a6236512fd266576",
            "config.echo.json": "29bd45ee2045360160c4aa9688d358645922e6cb08906d0618114908453716be",
            "summary.json": "8c0ce1b4e4b70221c9ebd2bb84b8072ff08330ed82a008c2b698ce11d8bee236",
            "trials.jsonl": "f5d850d1891c4c441fd0f7dfd87b90c319eb4f8b13fe6fe7c03861a9fa3e73fd",
        },
    ),
    "topology-demo": (
        ["topology-demo", "--n", "24", "--tau", "200", "--seed", "2"],
        {
            "block_diagonal_report.json": "4d4115acb8e37d27d33f2a9ebdae320e4e4a2b1928d0f5ca952d9484571be461",
            "block_diagonal_traces.svg": "6665e8ea0079001c45ce8495d10f17b7a4e4a5648469080e13e9ba62af4ab671",
            "block_diagonal_trajectory.csv": "769b5eb7dd51c76504ae3a1a0dc950552ac1b5fd8b611d50fbdc145812a21e4c",
            "config.echo.json": "4d2c5ce4a77bacc26f9ff0b75bf19a96c35adce5ce8a33f52d7233c3efa22881",
            "dense_report.json": "120ff047fa9d8f42ba35a03666417989287b0f040d668c1f4e602ef74ba46fbf",
            "dense_traces.svg": "ef44498273d029abdd16a3cc7b0f1a48c0e4da4e1cc668624990682d14cff1c9",
            "dense_trajectory.csv": "90a80e23aa882ee943f061da01f731a8ac37df93970b63c45c20b1c524b5b287",
            "sparse_report.json": "ad485a938aecc7a7dabb5099de0151b7f255c34e67cc910564755ae49b1cee00",
            "sparse_traces.svg": "a71bbbce6b6db8eface967e8c9de1ea205c089c29f5defa0ba7cb3e37271b367",
            "sparse_trajectory.csv": "ba06871dc8577e37ce9cdd6c4b3af2b3cf45c236a8ad58a0505588a4a9b19836",
            "weakly_coupled_report.json": "c28b0e210380d7de4d1810d4fbf21222df3677c1f3b5654b00673e87768b14f5",
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
    "config.echo.json": "19094cd910d6558ff9b2db22130cba92d2fcfa7d4f8b229d50938ad2c5273cc3",
    "heatmap.svg": "2e9a646f56d97f655bfa2a8d76a3b9c61d581309f6b0949b20c5e02632618eda",
    "sweep.csv": "e5f820dca9401a837ba778ae4c7144b12eb1511c13819b107a6195d35675bd49",
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
