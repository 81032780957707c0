"""Byte-identity guard: sha256 digests of fixed command-line outputs.

Each digest pins the exact bytes one command writes for a fixed input:
the simulated CSV and truth sidecar, the decision JSON of that dataset
(read from the CSV alone), the decision on a dataset that takes the
linear-only gcm path,
the benchmark's results and summary tables, the duality reports of the
KS and energy permutation tests, the variability report of a parameter
table and the discrepancy report of two shifted Laplace densities. A
refactor that keeps the package's outputs must leave every digest
unchanged; a change that alters an output on purpose must say so and
update the digest.
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
    # The marginal gcm test's linear component passes the gate here, so
    # the conditional tests take the linear-only path.
    "cause_linear": (
        {"n_environments": 300, "regime": "cause_variability", "structure": "x_to_y"},
        4,
    ),
}

DUALITY = {
    "f": {"kind": "triangular-affine-tanh", "d": 2, "seed": 3},
    "base": {"family": "gaussian", "location": [0.0, 0.0], "scale": [1.0, 1.0]},
    "per_u": [
        {"family": "gaussian", "location": [0.5, -1.0], "scale": [0.5, 2.0]},
        {"family": "gaussian", "location": [0.0, 0.0], "scale": [3.0, 1.0]},
    ],
    "n_samples": 150,
    "seed": 7,
    "test": "energy-permutation",
}

# Two difference rows for three columns: a rank-deficient report with a flag.
VARIABILITY_PARAMS = "env,dim_0,dim_1,dim_2\n1,0.3,-1.25,2.0\n0,0.1,0.7,-0.4\n2,1.9,0.05,3.5\n"

DISCREPANCY = (
    "--p-family", "laplace", "--p-loc", "0.25", "--p-scale", "1.5",
    "--pt-family", "laplace", "--pt-loc", "-0.5", "--pt-scale", "1.5",
    "--grid-points", "2001",
)

GOLDEN = {
    "simulate/full/data.csv": "1fa16e2e555b77f081324ef41dee091bf47829985afbe7e04062e2e0670129cc",
    "simulate/full/data.truth.json": "ae3bfc120f129c51d167cdfe6cf39d7ede7d8fa2c0484b680713233488a18e77",
    "simulate/collapsed_iid/data.csv": "73865e3d7cf2069a046227f598e517bb76a82e74bc864d7d95fefcdd86d69f35",
    "simulate/collapsed_iid/data.truth.json": "1b7941a0bcebc1d09aebbd4415275a75f5f0817ae9659b05fd75076a97ae91e5",
    "discover/gcm.json": "17646f41212a3a515a4f662868e242e657e5149c660c97d52ebe297aaa50f513",
    "discover/cause_linear_gcm.json": "a8e302462847846942b1c3343a6f66eb5ff7845fda5138c6a1b8e757d4815494",
    "benchmark/results.csv": "cac545c72af7d3899f27ffe391dfe10ba4838bb2cd633bb62062dd07a489a0b0",
    "benchmark/results.summary.csv": "dc63692557e736eaae5ba258d9a731ff32eaf85044f698c89f3805680d9084cc",
    "duality/energy.json": "75c833d00c52c6432ae08d6a263025910354566c4957b419e899ef1a2eceab79",
    "duality/ks.json": "c8d676793d48a8a10700d194067ead09846fba28d90ceb97b98dedc50dbca4f6",
    "variability/report.json": "fad804367709695a783a829ca29784f1da5fa3b9bc2f20299f2fb8afcbc597bf",
    "discrepancy/report.json": "3acf04afb760bb2fbd097e76dc3e1a5dc76de1b13981cc969a9c29a66a92ecbf",
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
    _run(
        "discover",
        "--data", str(full / "data.csv"),
        "--out", str(root / "discover" / "gcm.json"),
    )

    cause = root / "simulate" / "cause_linear"
    _run(
        "discover",
        "--data", str(cause / "data.csv"),
        "--out", str(root / "discover" / "cause_linear_gcm.json"),
    )

    (root / "benchmark").mkdir()
    bench_config = root / "bench.json"
    bench_config.write_text(json.dumps({"env_grid": [20, 40], "n_seeds": 3, "regimes": _REGIMES}))
    _run("benchmark", "--config", str(bench_config), "--out", str(root / "benchmark" / "results.csv"))

    (root / "duality").mkdir()
    for name, test in (("energy", "energy-permutation"), ("ks", "ks-per-coordinate")):
        duality_config = root / f"duality_{name}.json"
        duality_config.write_text(json.dumps(dict(DUALITY, test=test)))
        _run("duality", "--config", str(duality_config), "--out", str(root / "duality" / f"{name}.json"))

    (root / "variability").mkdir()
    params = root / "params.csv"
    params.write_text(VARIABILITY_PARAMS)
    _run("variability", "--params", str(params), "--out", str(root / "variability" / "report.json"))

    (root / "discrepancy").mkdir()
    _run("discrepancy", *DISCREPANCY, "--out", str(root / "discrepancy" / "report.json"))
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_pinned_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
