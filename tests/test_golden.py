"""Golden payloads: the sha256 of every CSV/JSON/SVG file written by small
pinned CLI runs, and byte-identical reruns from committed config.echo.json
files. Every case runs with --deterministic, which leaves the timestamp
comment out of the SVGs, so they are byte-stable too.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64,
Python 3.11); another numpy or BLAS build may round differently and move
them, which says nothing about the change under test. `golden/` holds the
config.echo.json each case wrote when the digests were recorded; a rerun
from it must reproduce every payload, the echo included.
"""

import hashlib
from pathlib import Path

import pytest

from soesn.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "generate": (
        ["generate", "--topology", "weakly_coupled", "--n", "40", "--sub", "4",
         "--inject", "--tau", "300", "--seed", "7"],
        {
            "config.echo.json": "a852b6d194ca9b75996ed42abafca6f390706396ab01a566d1bbef27140319c6",
            "oscillation.json": "063571e7b3635380333282f86dbf205f5e1cf3668b5ffe12330b1e7d634af0c5",
            "traces.svg": "23769d87a1fee1b77b715e76a519322fa175051023fd6c92cb83068a1cd9b5ac",
            "trajectory.csv": "cb1856a336eba6224e83b60ec4d9c43247ca09458f07274922e76a0aa31768c4",
        },
    ),
    "sweep": (
        ["sweep", "--leak-values", "0.3,0.6", "--rho-values", "0.8,1.5,2.0",
         "--cells", "2", "--trials", "3", "--n", "40", "--tau", "300", "--seed", "9"],
        {
            "config.echo.json": "055f86a9ec8a31e55ae728d98790eee990c7e86df0e1cba0879bc1fb280049bb",
            "heatmap.svg": "19b6fc6574c9be5fc45722f5fe4e79d2c2e1c713d84fc4e203c63ff369b50607",
            "sweep.csv": "5be243685ec830c8d25565c60a2e734d6d2a80ac50d9140c60bf87697999cd76",
        },
    ),
    "inject-experiment": (
        ["inject-experiment", "--populations", "4,10", "--trials", "5",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "3c94ba5adad29fa1f46b12523c7f1cbf6df3fc0fac8d3b26d4ffa62ab09f0aa8",
            "injection.csv": "57633617f72503dc25e3d17c497d8c82bb49f2a9c25dfdc3c24ae82176c0b544",
            "injection.svg": "70e619472b4cd8a9642a788d1a10e396c9398cbb92ad4e6fc46c2c9637aef50c",
        },
    ),
    "reproduce-sine": (
        ["reproduce", "--target", "sine", "--n", "60", "--sub", "3",
         "--tau", "300", "--seed", "3"],
        {
            "config.echo.json": "4431ade8877df1fe79113b5fbff18f516f3333edb63dedeb30ec3b3b796a6153",
            "nrmse.json": "86cdc5c030c6fb437abca74140c3192a7c8e052484a1db1249e6854fdf7e00be",
            "overlay.svg": "9bf6ccee1473d8beb4f5c04bfdba036cde6d10734841a29417c52f56bbe4eb74",
        },
    ),
    "reproduce-lorenz": (
        ["reproduce", "--target", "lorenz", "--n", "60", "--sub", "3",
         "--tau", "300", "--standardize", "--seed", "3"],
        {
            "config.echo.json": "80f04a99c2d4f2af63aa16322ad613cc24d13d656f921b9290529d0129c17fa5",
            "nrmse.json": "795e3e55d5b6233172bdecaa7930cc1e5276f1d4639e7d165c09eb74f99b3b96",
            "overlay.svg": "9152f3ba37b7399b0b83064033dea73654df5839f6534938b595c244233f6de1",
        },
    ),
    "reproduce-sub-counts": (
        ["reproduce", "--target", "sine", "--n", "48", "--sub-counts", "1,4",
         "--trials", "2", "--tau", "300", "--seed", "5"],
        {
            "boxplot.csv": "e714e29a6af2e7ce29f715fd422f36d5decf3f412be1b6e842dfa90d42a0bde1",
            "config.echo.json": "55329cca35927f3d4a4ca150ba24132effe850defc52a8fa6afc86c447e792b2",
            "summary.json": "f90aecb49b9600dec57a0342c0f0ab4dd7b2973d860cc596a7ecb0c7046c403e",
            "trials.jsonl": "998d2e79971c7e5e36af1d4c26f293b1a7412fb731265577797f0d654e4b615a",
        },
    ),
    "topology-demo": (
        ["topology-demo", "--n", "24", "--tau", "200", "--seed", "2"],
        {
            "block_diagonal_report.json": "5ba47fb03dcddb57e0c700e4dc140f78a6fadfbb1f6fdc4bf96664f16aebcb5c",
            "block_diagonal_traces.svg": "6665e8ea0079001c45ce8495d10f17b7a4e4a5648469080e13e9ba62af4ab671",
            "block_diagonal_trajectory.csv": "f76bc581631ebd7271f62bada67cd613a1cbb2ff1cc9fcb87e9e2f7462bda024",
            "config.echo.json": "0c67910b9395d3543a10b64b511b17164f2d761ee7531029a59677fd76f8ffd5",
            "dense_report.json": "782606f0b7d86e74f1e7a3221c917c40b03cdcb2744ced6aa7291c5aeb256bba",
            "dense_traces.svg": "4db5cb194759ddd5b1a67c092de6cb56b188dde745a851ce0af76358e48a467f",
            "dense_trajectory.csv": "bdee6cf1afd8b7280cd733978e449b88e814407d1411f06989a41ad8accd1468",
            "sparse_report.json": "fae0deca1605fd31cedabd39c33bf95c325a5887daafad300038d07e86575abd",
            "sparse_traces.svg": "b65aada699e8eda76003ff97897519a1897462e0033cc82a621b991988536218",
            "sparse_trajectory.csv": "e9b3639cd9faf3a9a0dda591e8362f946dcc82e2a84e45a47b87c790106ceaf6",
            "weakly_coupled_report.json": "d044a6bd924644df63175dc3bbabd7d538da2d3e5ac1b957ec2307e3c1376b6e",
            "weakly_coupled_traces.svg": "1dbf723a958a7f6afb1393386a200474a8b2609f510fbb4c1a134695704e0c11",
            "weakly_coupled_trajectory.csv": "2305a1362275b15cc7b2163790ef3d2b46db247db85078b1dbd207c0477814ad",
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
    "config.echo.json": "f4fe59e90137dd8a68454da5d538fe85bb0b57fd300258a85afc1e87de27451d",
    "heatmap.svg": "6eb4ca12240bd2cc7562aef6bf5008abd7f8eb5d20838337a2f910ce4ef20d03",
    "sweep.csv": "8d5be628cd28d89d6f01b45139aa5414fb1d99d431d064c9d50502d95e4330f6",
}


def test_integer_grid_config_matches_golden(tmp_path):
    config = GOLDEN / "sweep-int-grid.config.json"
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path), "--deterministic"])
    assert code == EXIT_OK
    assert payload_digests(tmp_path) == INT_GRID_DIGESTS
