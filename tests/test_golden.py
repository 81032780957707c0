"""Byte-identity guard: sha256 digests of fixed command-line outputs.

Each digest pins the exact bytes one command writes for a fixed input:
the simulated CSV and truth sidecar, the decision JSON of every test
method, and the benchmark's results and summary tables. A refactor that
keeps the package's outputs must leave every digest unchanged; a change
that alters an output on purpose must say so and update the digest.
"""

import hashlib
import json

import pytest

from envcausal.cli import main

_REGIMES = ["full_exchangeable", "cause_variability", "mechanism_variability", "iid"]

SIMULATE = {
    "full": (
        {"n_environments": 500, "regime": "full_exchangeable", "structure": "random"},
        5,
    ),
    "collapsed_iid": (
        {"n_environments": 40, "regime": "iid", "structure": "random", "collapse_noise": True},
        2,
    ),
}

GOLDEN = {
    "simulate/full/data.csv": "1fa16e2e555b77f081324ef41dee091bf47829985afbe7e04062e2e0670129cc",
    "simulate/full/data.truth.json": "ae3bfc120f129c51d167cdfe6cf39d7ede7d8fa2c0484b680713233488a18e77",
    "simulate/collapsed_iid/data.csv": "73865e3d7cf2069a046227f598e517bb76a82e74bc864d7d95fefcdd86d69f35",
    "simulate/collapsed_iid/data.truth.json": "1b7941a0bcebc1d09aebbd4415275a75f5f0817ae9659b05fd75076a97ae91e5",
    "discover/gcm.json": "62ca9fa882875ce980d3a999bad5808d0d3052d79cafedb976cdab8c6c6764a3",
    "discover/fisher-z.json": "23b0f8bf73d79154974ae5e158f7a7faba2438e71467b61c80f3d1c532b12aa6",
    "discover/spearman-z.json": "060e77ca6b6c55642a76b1d0c49766a12dec80cd1d5b36479689114a32482335",
    "discover/residual-perm.json": "7c13affbfe8ec25aaf66a0ad3d539c61f1c371bf9e5f6beb5a0dd3f70dcea53f",
    "benchmark/results.csv": "157192404234e32b87ce2bd73875ea706a752616c7d78fb75f6bb7b77fccda36",
    "benchmark/results.summary.csv": "dc63692557e736eaae5ba258d9a731ff32eaf85044f698c89f3805680d9084cc",
}


def _run(*args: str) -> None:
    assert main(list(args)) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, (config, seed) in SIMULATE.items():
        (root / "simulate" / name).mkdir(parents=True)
        config_path = root / f"{name}.json"
        config_path.write_text(json.dumps(config))
        out = root / "simulate" / name / "data.csv"
        _run("simulate", "--config", str(config_path), "--seed", str(seed), "--out", str(out))

    (root / "discover").mkdir()
    full = root / "simulate" / "full"
    for method in ("gcm", "fisher-z", "spearman-z", "residual-perm"):
        _run(
            "discover",
            "--data", str(full / "data.csv"),
            "--truth", str(full / "data.truth.json"),
            "--test", method,
            "--out", str(root / "discover" / f"{method}.json"),
        )

    (root / "benchmark").mkdir()
    bench_config = root / "bench.json"
    bench_config.write_text(json.dumps({"env_grid": [20, 40], "n_seeds": 3, "regimes": _REGIMES}))
    _run("benchmark", "--config", str(bench_config), "--out", str(root / "benchmark" / "results.csv"))
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_pinned_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
