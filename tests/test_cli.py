"""End-to-end command-line behavior, including exit codes and file formats."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import envcausal
from envcausal import cli
from envcausal._config import read_object
from envcausal.cli import BenchConfig, main
from envcausal.dgp import read_dataset, simulate_dataset, DGPConfig
from envcausal.dgp import CausalStructure, InvalidConfig, VariabilityRegime
from envcausal.duality import DualityConfig, MixingSpec, SourceFamily
from envcausal.variability import DensitySpec, DiscrepancyQuery


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def dgp_config_path(tmp_path):
    return _write_json(
        tmp_path / "dgp.json",
        {"n_environments": 60, "regime": "full_exchangeable", "structure": "x_to_y"},
    )


# ---------------------------------------------------------------------------
# simulate / discover.


def test_simulate_then_discover_round_trip(tmp_path, dgp_config_path):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)]) == 0
    truth = tmp_path / "data.truth.json"
    assert data.exists() and truth.exists()

    decision_path = tmp_path / "decision.json"
    code = main(
        ["discover", "--data", str(data), "--truth", str(truth), "--out", str(decision_path)]
    )
    assert code == 0
    decision = json.loads(decision_path.read_text())
    assert set(decision) == {
        "structure",
        "p_x_to_y",
        "p_y_to_x",
        "p_independent",
        "alpha",
        "flags",
    }
    assert decision["structure"] in {"x_to_y", "y_to_x", "independent"}
    assert decision["alpha"] == 0.05


def test_simulated_csv_reloads_bit_exactly(tmp_path, dgp_config_path):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "8", "--out", str(data)])
    reloaded = read_dataset(str(data), str(tmp_path / "data.truth.json"))
    direct = simulate_dataset(
        DGPConfig(
            n_environments=60,
            regime=VariabilityRegime.FULL_EXCHANGEABLE,
            structure=CausalStructure.X_TO_Y,
        ),
        8,
    )
    assert reloaded.truth is direct.truth
    np.testing.assert_array_equal(reloaded.samples, direct.samples)


def test_discover_writes_to_stdout_without_out(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    code = main(["discover", "--data", str(data), "--truth", str(tmp_path / "data.truth.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "structure" in payload


def test_malformed_csv_names_the_line(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines()
    lines[2] = "0,1,not-a-number,0.5"
    data.write_text("\n".join(lines) + "\n")
    code = main(["discover", "--data", str(data), "--truth", str(tmp_path / "data.truth.json")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_discover_rejects_unequal_sample_counts(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines()
    del lines[4]  # environment 1 keeps one of its two samples
    data.write_text("\n".join(lines) + "\n")
    code = main(["discover", "--data", str(data), "--truth", str(tmp_path / "data.truth.json")])
    assert code == 2
    assert "equal sample counts" in capsys.readouterr().err


def test_discover_reports_degeneracy_flags(tmp_path, capsys):
    config = _write_json(
        tmp_path / "dgp.json",
        {
            "n_environments": 40,
            "regime": "iid",
            "structure": "x_to_y",
            "collapse_noise": True,
        },
    )
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", config, "--seed", "3", "--out", str(data)]) == 0
    code = main(["discover", "--data", str(data), "--truth", str(tmp_path / "data.truth.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "independent:zero_variance" in payload["flags"]


@pytest.mark.parametrize("seed_text", ["1e400", "Infinity", "-Infinity", "NaN"])
def test_discover_rejects_a_non_finite_truth_seed(tmp_path, dgp_config_path, capsys, seed_text):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    truth = tmp_path / "data.truth.json"
    payload = json.loads(truth.read_text())
    text = json.dumps(dict(payload, seed="SEED")).replace('"SEED"', seed_text)
    truth.write_text(text)
    code = main(["discover", "--data", str(data), "--truth", str(truth)])
    assert code == 2
    assert "truth sidecar malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "garble, message",
    [
        (lambda payload: dict(payload, seed=1.5), "seed: expected an integer"),
        (lambda payload: dict(payload, noise_scale=float("nan")), "noise_scale: expected a finite number"),
        (
            lambda payload: dict(
                payload,
                params=[dict(payload["params"][0], psi_nonlinear="false")] + payload["params"][1:],
            ),
            "params[0].psi_nonlinear: expected true or false",
        ),
    ],
    ids=["fractional-seed", "nan-noise-scale", "string-flag"],
)
def test_discover_names_a_sidecar_field_of_the_wrong_type(tmp_path, dgp_config_path, capsys, garble, message):
    # These used to truncate the seed to 1, read "false" as true, and carry
    # a NaN noise scale into the dataset, with exit 0.
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    truth = tmp_path / "data.truth.json"
    truth.write_text(json.dumps(garble(json.loads(truth.read_text()))))
    assert main(["discover", "--data", str(data), "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == f"error: truth sidecar malformed: {message}\n"


@pytest.mark.parametrize(
    "garble",
    [
        lambda params: [],
        lambda params: params[:-1],
        lambda params: params + params[:1],
        lambda params: params[:-1] + [[0.1, -0.2, 1.5]],
    ],
    ids=["empty", "short", "long", "ragged"],
)
def test_discover_rejects_a_params_list_that_does_not_match_the_environments(
    tmp_path, dgp_config_path, capsys, garble
):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    truth = tmp_path / "data.truth.json"
    payload = json.loads(truth.read_text())
    truth.write_text(json.dumps(dict(payload, params=garble(payload["params"]))))
    code = main(["discover", "--data", str(data), "--truth", str(truth)])
    assert code == 2
    assert "truth sidecar malformed" in capsys.readouterr().err


_EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**400, 2**64, -0.0])
_JSON_VALUES = _EDGE_VALUES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _garble(draw, mapping):
    """Replace one key of ``mapping`` by any JSON value, or delete it."""
    key = draw(st.sampled_from(sorted(mapping)))
    if draw(st.integers(0, 3)):
        mapping[key] = draw(_JSON_VALUES)
    else:
        del mapping[key]


@st.composite
def _dataset_csv(draw):
    """A rectangular dataset of e environments, one line maybe garbled."""
    e = draw(st.integers(min_value=19, max_value=24))
    n = draw(st.integers(min_value=1, max_value=3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=2 * e * n, max_size=2 * e * n))
    rows = ["env,sample,x,y"] + [
        f"{k // n},{k % n},{values[2 * k]!r},{values[2 * k + 1]!r}" for k in range(e * n)
    ]
    if not draw(st.integers(0, 3)):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.text(max_size=20))
    return "\r\n".join(rows).encode(), e


@st.composite
def _truth_json(draw, n_params):
    """A valid sidecar for n_params environments, maybe with one field garbled."""
    params = [
        {"theta": 0.1, "psi_loc": -0.2, "psi_coef": 1.5, "psi_nonlinear": False}
        for _ in range(n_params)
    ]
    payload = {
        "structure": draw(st.sampled_from(["x_to_y", "y_to_x", "independent"])),
        "regime": draw(st.sampled_from(["full_exchangeable", "cause_variability", "iid"])),
        "seed": draw(st.integers(min_value=0, max_value=2**64 - 1)),
        "noise_scale": 1.0,
        "collapse_noise": draw(st.booleans()),
        "params": params,
    }
    where = draw(st.integers(0, 3))
    if where in (1, 2):
        _garble(draw, payload)
    elif where == 3 and params:
        _garble(draw, params[draw(st.integers(0, n_params - 1))])
    return json.dumps(payload).encode()


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_discover_fuzzed_inputs_exit_with_a_status_code(tmp_path, data):
    # Whatever the bytes of the dataset and the values in its sidecar,
    # discover ends with 0, 1 or 2, never with an uncaught exception.
    if data.draw(st.integers(0, 3)):
        csv_bytes, e = data.draw(_dataset_csv())
    else:
        csv_bytes, e = data.draw(st.binary(max_size=200)), data.draw(st.integers(0, 3))
    (tmp_path / "data.csv").write_bytes(csv_bytes)
    (tmp_path / "truth.json").write_bytes(data.draw(_truth_json(e)))
    args = ["discover", "--data", str(tmp_path / "data.csv"), "--truth", str(tmp_path / "truth.json")]
    assert main(args + ["--out", str(tmp_path / "decision.json")]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# Usage errors.


def test_missing_required_flag_is_a_usage_error(tmp_path):
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path / "x.csv")]) == 1


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        ["--test", "residual-perm"],
        ["--permutations", "10"],
        ["--test", "gcm"],
        ["--test", "fisher-z"],
    ],
)
def test_removed_discover_options_are_usage_errors(tmp_path, dgp_config_path, extra):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)]) == 0
    args = ["discover", "--data", str(data), "--truth", str(tmp_path / "data.truth.json")]
    assert main(args + ["--out", str(tmp_path / "decision.json")]) == 0
    assert main(args + extra) == 1


def test_module_entry_runs_without_a_warning():
    # The package imports cli, so running cli itself as a module would
    # warn that it is already in sys.modules; the package's __main__ does not.
    src = str(Path(envcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-W", "error", "-m", "envcausal", "discrepancy",
            "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
            "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["holds_ae"] is True


def test_import_and_discover_leave_scipy_stats_unimported(tmp_path, dgp_config_path):
    # scipy.stats takes about half a second to import; only the KS
    # duality test loads it.
    data = str(tmp_path / "d.csv")
    truth = str(tmp_path / "d.truth.json")
    code = "\n".join([
        "import sys",
        "import envcausal",
        f"assert envcausal.main(['simulate', '--config', {dgp_config_path!r}, '--seed', '1',"
        f" '--out', {data!r}]) == 0",
        f"assert envcausal.main(['discover', '--data', {data!r}, '--truth', {truth!r}]) == 0",
        "print('scipy.stats' in sys.modules)",
    ])
    src = str(Path(envcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# benchmark.


_SMALL_BENCH = {
    "env_grid": [20, 40],
    "n_seeds": 3,
    "regimes": ["full_exchangeable", "iid"],
}


def test_benchmark_rows_and_summary_shape(tmp_path):
    config = _write_json(tmp_path / "bench.json", _SMALL_BENCH)
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == (
        "regime,truth,n_envs,seed,decision,p_x_to_y,p_y_to_x,p_independent,"
        "correct,baseline_decision,baseline_correct"
    )
    assert len(rows) == 1 + 2 * 2 * 3
    summary = (tmp_path / "results.summary.csv").read_text().splitlines()
    assert summary[0] == "regime,n_envs,accuracy_mean,accuracy_std,baseline_accuracy,n_cells"
    assert len(summary) == 1 + 2 * 2
    assert all(row.split(",")[5] == "3" for row in summary[1:])


def test_benchmark_parallel_output_is_byte_identical(tmp_path):
    config = _write_json(tmp_path / "bench.json", _SMALL_BENCH)
    serial_out = tmp_path / "serial.csv"
    parallel_out = tmp_path / "parallel.csv"
    assert main(["benchmark", "--config", config, "--out", str(serial_out), "--jobs", "1"]) == 0
    assert main(["benchmark", "--config", config, "--out", str(parallel_out), "--jobs", "2"]) == 0
    assert serial_out.read_bytes() == parallel_out.read_bytes()
    assert (
        tmp_path / "serial.summary.csv"
    ).read_bytes() == (tmp_path / "parallel.summary.csv").read_bytes()


@pytest.mark.parametrize(
    "n_seeds, jobs, cores, workers",
    [(3, 100_000, 4, 3), (8, 100_000, 4, 4), (8, 2, 4, 2), (8, 100_000, None, None), (8, 1, 4, None)],
)
def test_benchmark_workers_are_bounded_by_cells_and_cores(monkeypatch, n_seeds, jobs, cores, workers):
    # The pool runs in this process and records its size; None means the
    # cells ran serially without one.
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = BenchConfig(env_grid=(20,), n_seeds=n_seeds, regimes=("iid",))
    cells, _ = cli.run_benchmark(config, jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert cli.results_csv_text(cells) == cli.results_csv_text(cli.run_benchmark(config)[0])


def test_single_cell_benchmark_has_zero_std(tmp_path):
    config = _write_json(
        tmp_path / "bench.json",
        {"env_grid": [100], "n_seeds": 1, "regimes": ["full_exchangeable"]},
    )
    out = tmp_path / "one.csv"
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    summary_row = (tmp_path / "one.summary.csv").read_text().splitlines()[1].split(",")
    assert summary_row[3] == "0"  # lone cell leaves no spread to estimate


def test_benchmark_without_baseline_leaves_columns_empty(tmp_path):
    config = _write_json(
        tmp_path / "bench.json",
        {
            "env_grid": [20],
            "n_seeds": 2,
            "regimes": ["iid"],
            "include_random_baseline": False,
        },
    )
    out = tmp_path / "nobase.csv"
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    for row in out.read_text().splitlines()[1:]:
        assert row.split(",")[9:] == ["", ""]
    summary_row = (tmp_path / "nobase.summary.csv").read_text().splitlines()[1]
    assert summary_row.split(",")[4] == ""


def test_benchmark_stdout_mode_prints_tables_and_comments(tmp_path, capsys):
    config = _write_json(
        tmp_path / "bench.json", {"env_grid": [20], "n_seeds": 2, "regimes": ["iid"]}
    )
    assert main(["benchmark", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "regime,truth,n_envs" in out
    assert "accuracy_mean" in out
    assert "# accuracy[" in out


@pytest.mark.parametrize(
    "payload",
    [
        {"bogus": 1},
        {"regimes": ["nope"]},
        {"env_grid": [100, 100]},
        {"env_grid": []},
        {"alpha": 1.5},
        {"n_seeds": 0},
    ],
)
def test_bad_benchmark_configs_exit_two(tmp_path, payload, capsys):
    config = _write_json(tmp_path / "bench.json", payload)
    assert main(["benchmark", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_benchmark_config_must_be_valid_json(tmp_path, capsys):
    bad = tmp_path / "bench.json"
    bad.write_text("{not json")
    assert main(["benchmark", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# variability.


def test_variability_report_round_trip(tmp_path):
    params = tmp_path / "params.csv"
    params.write_text("env,dim_0,dim_1\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n")
    out = tmp_path / "report.json"
    assert main(["variability", "--params", str(params), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 2
    assert report["full_column_rank"] is True
    assert report["condition_number"] == 1.0
    assert report["flags"] == []


def test_variability_condition_number_serializes_infinity_as_null(tmp_path):
    params = tmp_path / "params.csv"
    params.write_text("env,dim_0\n0,0.5\n1,0.5\n")
    out = tmp_path / "report.json"
    assert main(["variability", "--params", str(params), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 0
    assert report["condition_number"] is None


def test_variability_rejects_bad_header(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("environment,a,b\n0,0.0,0.0\n1,1.0,0.0\n")
    assert main(["variability", "--params", str(params)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_variability_names_the_line_of_a_duplicate_environment(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("env,dim_0\n1,0.5\n0,0.25\n1,0.75\n")
    assert main(["variability", "--params", str(params)]) == 2
    err = capsys.readouterr().err
    assert "duplicate environment index 1" in err and "line 4" in err


# ---------------------------------------------------------------------------
# discrepancy.


def test_discrepancy_mean_shift_holds(tmp_path):
    out = tmp_path / "disc.json"
    code = main(
        [
            "discrepancy",
            "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
            "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fraction_zero"] == 0.0
    assert report["holds_ae"] is True


def test_discrepancy_interval_must_come_in_pairs(capsys):
    code = main(
        [
            "discrepancy",
            "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
            "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
            "--lo", "-3",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# duality.


def test_duality_verification_via_config_file(tmp_path):
    config = _write_json(
        tmp_path / "dual.json",
        {
            "f": {"kind": "triangular-affine-tanh", "d": 2, "seed": 0},
            "base": {"family": "gaussian", "location": [0.0, 0.0], "scale": [1.0, 1.0]},
            "per_u": [
                {"family": "gaussian", "location": [0.0, 0.0], "scale": [0.5, 0.5]},
                {"family": "gaussian", "location": [0.0, 0.0], "scale": [2.0, 2.0]},
            ],
            "n_samples": 5000,
            "seed": 0,
        },
    )
    out = tmp_path / "dual_report.json"
    assert main(["duality", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True
    assert len(report["per_u_results"]) == 2
    for row in report["per_u_results"]:
        assert row["passed"] is True


def test_duality_config_key_errors_exit_two(tmp_path, capsys):
    config = _write_json(tmp_path / "dual.json", {"f": {"kind": "identity", "d": 1}})
    assert main(["duality", "--config", config]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Config error messages: one fault per config, the exact stderr line.


_SIM = {"n_environments": 20, "regime": "full_exchangeable", "structure": "x_to_y"}
_BENCH = {"env_grid": [20], "n_seeds": 1, "regimes": ["iid"]}
_DUAL = {
    "f": {"kind": "identity", "d": 1},
    "base": {"family": "gaussian", "location": [0.0], "scale": [1.0]},
    "per_u": [
        {"family": "gaussian", "location": [0.0], "scale": [0.5]},
        {"family": "gaussian", "location": [0.0], "scale": [2.0]},
    ],
    "n_samples": 200,
    "seed": 0,
}
_REGIME_CHOICES = "full_exchangeable, cause_variability, mechanism_variability, iid"


def _run_config(tmp_path, command, payload):
    config = _write_json(tmp_path / "config.json", payload)
    args = [command, "--config", config, "--out", str(tmp_path / "out")]
    return main(args + ["--seed", "0"] if command == "simulate" else args)


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("simulate", [1], "config: expected an object"),
        ("simulate", dict(_SIM, bogus=1), "config.bogus: unknown key"),
        (
            "simulate",
            {k: v for k, v in _SIM.items() if k != "regime"},
            "config.regime: missing required key",
        ),
        ("simulate", dict(_SIM, n_environments="20"), "config.n_environments: expected an integer"),
        ("simulate", dict(_SIM, noise_scale="1"), "config.noise_scale: expected a number"),
        ("simulate", dict(_SIM, collapse_noise=1), "config.collapse_noise: expected true or false"),
        (
            "simulate",
            dict(_SIM, regime="nope"),
            f"config.regime: expected one of {_REGIME_CHOICES}, got 'nope'",
        ),
        (
            "simulate",
            dict(_SIM, structure="sideways"),
            "config.structure: expected one of x_to_y, y_to_x, independent, got 'sideways'",
        ),
        (
            "simulate",
            dict(_SIM, coef_magnitude_range=[1.0]),
            "config.coef_magnitude_range: expected [low, high]",
        ),
        ("benchmark", dict(_BENCH, env_grid=20), "config.env_grid: expected a list"),
        (
            "benchmark",
            dict(_BENCH, regimes=["iid", "nope"]),
            f"config.regimes[1]: expected one of {_REGIME_CHOICES}, got 'nope'",
        ),
        (
            "benchmark",
            dict(_BENCH, test_method="t-test"),
            "config.test_method: unknown key",
        ),
        ("benchmark", dict(_BENCH, env_grid=[100, 100]), "env_grid must be strictly increasing"),
        ("duality", dict(_DUAL, f=[]), "config.f: expected an object"),
        ("duality", dict(_DUAL, f={"d": 1}), "config.f.kind: missing required key"),
        (
            "duality",
            dict(_DUAL, f={"kind": "spline", "d": 1}),
            "config.f.kind: expected one of identity, triangular-affine-tanh, got 'spline'",
        ),
        ("duality", dict(_DUAL, per_u={}), "config.per_u: expected a list"),
        (
            "duality",
            dict(_DUAL, base=dict(_DUAL["base"], location=0.0)),
            "config.base.location: expected a list of numbers",
        ),
        (
            "duality",
            dict(_DUAL, per_u=[_DUAL["per_u"][0], dict(_DUAL["per_u"][1], scale=["2"])]),
            "config.per_u[1].scale[0]: expected a number",
        ),
        (
            "duality",
            dict(_DUAL, test="t-test"),
            "config.test: expected one of ks-per-coordinate, energy-permutation, got 't-test'",
        ),
        (
            "benchmark",
            dict(_BENCH, regimes=["iid", "cause_variability"], n_seeds=10**399),
            f"regimes x env_grid x n_seeds is {2 * 10**399} cells, over the limit of 1000000",
        ),
        (
            "benchmark",
            dict(_BENCH, test_method="residual-perm"),
            "config.test_method: unknown key",
        ),
    ],
)
def test_config_faults_name_their_json_path(tmp_path, capsys, command, payload, message):
    assert _run_config(tmp_path, command, payload) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("simulate", dict(_SIM, noise_scale=float("nan")), "config.noise_scale: expected a finite number"),
        ("simulate", dict(_SIM, noise_scale=10**400), "config.noise_scale: expected a finite number"),
        (
            "simulate",
            dict(_SIM, coef_magnitude_range=[1, float("inf")]),
            "config.coef_magnitude_range[1]: expected a finite number",
        ),
        ("benchmark", dict(_BENCH, alpha=float("nan")), "config.alpha: expected a finite number"),
        (
            "duality",
            dict(_DUAL, base=dict(_DUAL["base"], location=[float("nan")])),
            "config.base.location[0]: expected a finite number",
        ),
        (
            "duality",
            dict(_DUAL, per_u=[_DUAL["per_u"][0], dict(_DUAL["per_u"][1], scale=[float("nan")])]),
            "config.per_u[1].scale[0]: expected a finite number",
        ),
    ],
)
def test_non_finite_config_numbers_exit_two(tmp_path, capsys, command, payload, message):
    # Python's json reads NaN and Infinity; they used to flow into nan
    # samples or a passing duality report.
    assert _run_config(tmp_path, command, payload) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--step", "--zero-tol", "--p-scale", "--pt-scale", "--p-loc", "--lo 0 --hi"]
)
def test_discrepancy_rejects_non_finite_settings(capsys, flag, value):
    # On two identical densities a NaN step or tolerance used to report
    # fraction_zero 0.0 and holds_ae true with exit 0.
    args = [
        "discrepancy",
        "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
        "--pt-family", "gaussian", "--pt-loc", "0", "--pt-scale", "1",
    ]
    assert main(args + flag.split() + [value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("setting", ["--step 1e308", "--p-loc 1e308", "--p-scale 1e300"])
def test_discrepancy_names_a_log_density_overflow(capsys, setting):
    # These used to warn of an overflow in DensitySpec.log_pdf and then
    # report that the density underflows to zero.
    args = [
        "discrepancy",
        "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
        "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + setting.split()) == 2
    assert capsys.readouterr() == (
        "", "error: log-density overflows the float range on the evaluation grid\n"
    )


# Every key of each config is present, so each one can be garbled.
_READERS = [
    (
        DGPConfig,
        dict(
            _SIM,
            samples_per_env=2,
            noise_scale=1.0,
            collapse_noise=False,
            coef_magnitude_range=[0.5, 2.0],
        ),
    ),
    (
        BenchConfig,
        dict(
            _BENCH,
            samples_per_env=2,
            alpha=0.05,
            master_seed=0,
            include_random_baseline=True,
        ),
    ),
    (
        DualityConfig,
        dict(_DUAL, f={"kind": "triangular-affine-tanh", "d": 1, "seed": 0}, test="energy-permutation"),
    ),
]


def _objects(value):
    """Every JSON object inside ``value``, ``value`` included."""
    if isinstance(value, list):
        return [o for v in value for o in _objects(v)]
    if isinstance(value, dict):
        return [value] + [o for v in value.values() for o in _objects(v)]
    return []


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_config_readers_return_their_type_or_raise_a_value_error(data):
    # The reader is called directly: a garbled n_environments can be 10**12.
    config_type, valid = data.draw(st.sampled_from(_READERS))
    payload = copy.deepcopy(valid)
    _garble(data.draw, data.draw(st.sampled_from(_objects(payload))))
    try:
        config = read_object(config_type, payload, "config")
    except ValueError:
        return  # main maps every ValueError to exit 2
    assert isinstance(config, config_type)


_GAUSSIAN = DensitySpec("gaussian", 0.0, 1.0)

# Each constructor with every keyword argument given a valid value.
_CONSTRUCTORS = [
    (DGPConfig, dict(_READERS[0][1], coef_magnitude_range=(0.5, 2.0))),
    (BenchConfig, dict(_READERS[1][1], env_grid=(20,), regimes=("iid",))),
    (
        DualityConfig,
        dict(
            f=MixingSpec("identity", 1),
            base=SourceFamily("gaussian", (0.0,), (1.0,)),
            per_u=(SourceFamily("gaussian", (0.0,), (2.0,)),),
            n_samples=200,
            seed=0,
            test="ks-per-coordinate",
        ),
    ),
    (SourceFamily, dict(family="laplace", location=(0.0, 1.0), scale=(1.0, 2.0))),
    (MixingSpec, dict(kind="triangular-affine-tanh", d=2, seed=3)),
    (DensitySpec, dict(family="gaussian", loc=0.5, scale=2.0)),
    (
        DiscrepancyQuery,
        dict(
            density_p=_GAUSSIAN,
            density_p_tilde=_GAUSSIAN,
            interval=(-1.0, 1.0),
            grid_points=101,
            derivative_step=1e-4,
            zero_tolerance=1e-6,
        ),
    ),
]

_LIBRARY_VALUES = (
    _JSON_VALUES
    | st.sampled_from(
        [np.int64(-3), np.int64(2**40), np.float64("nan"), np.float32(2.5), np.bool_(True), np.str_("iid")]
    )
    | st.sampled_from([np.array([1.0, 2.0]), np.array(3), (), (1,), (0.5, float("inf")), ("iid", "iid")])
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_config_constructors_return_their_type_or_raise_a_value_error(data):
    # Library callers get the same checks as the JSON reader: a wrong type
    # raises InvalidConfig, never a TypeError or AttributeError.
    config_type, valid = data.draw(st.sampled_from(_CONSTRUCTORS))
    kwargs = dict(valid)
    kwargs[data.draw(st.sampled_from(sorted(kwargs)))] = data.draw(_LIBRARY_VALUES)
    try:
        config = config_type(**kwargs)
    except ValueError:
        return
    assert isinstance(config, config_type)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DGPConfig(20, "iid", "x_to_y", samples_per_env=2.5), "samples_per_env"),
        (lambda: DGPConfig("50", "iid", "x_to_y"), "n_environments"),
        (lambda: BenchConfig(n_seeds=1.5), "n_seeds"),
        (lambda: BenchConfig(env_grid=(20.5,)), "env_grid[0]"),
        (lambda: SourceFamily("gaussian", (0.0,), (float("nan"),)), "scale[0]"),
        (lambda: SourceFamily("gaussian", (0.0,), (float("inf"),)), "scale[0]"),
    ],
    ids=["fractional-samples", "string-environments", "fractional-seeds", "fractional-grid", "nan-scale", "inf-scale"],
)
def test_library_configs_name_a_field_of_the_wrong_type(build, field):
    # Each of these used to simulate, fail late or pass: 2.5 samples became
    # 3, "50" raised a TypeError, 20.5 environments failed inside the first
    # cell, and a NaN scale gave a passing duality report.
    with pytest.raises(InvalidConfig) as info:
        build()
    assert str(info.value).startswith(f"{field}: expected ")


def test_string_regimes_become_members_and_reach_the_csv():
    config = BenchConfig(env_grid=(20,), n_seeds=1, regimes=("iid",))
    assert len(config.regimes) == 1 and config.regimes[0] is VariabilityRegime.IID
    assert cli.results_csv_text(cli.run_benchmark(config)[0]).splitlines()[1].startswith("iid,")


@st.composite
def _params_csv(draw):
    """A valid parameter table of e environments, one line maybe garbled."""
    e, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = ["env," + ",".join(f"dim_{j}" for j in range(d))] + [
        f"{i}," + ",".join(repr(draw(finite)) for _ in range(d)) for i in range(e)
    ]
    if draw(st.integers(0, 1)):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.text(max_size=20))
    return "\n".join(rows).encode()


@given(st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_variability_fuzzed_params_exit_with_a_status_code(tmp_path, data):
    # Whatever the bytes of the table, variability ends with 0, 1 or 2.
    params = data.draw(_params_csv() if data.draw(st.integers(0, 3)) else st.binary(max_size=200))
    (tmp_path / "params.csv").write_bytes(params)
    args = ["variability", "--params", str(tmp_path / "params.csv"), "--out", str(tmp_path / "r.json")]
    assert main(args) in (0, 1, 2)


def test_variability_rejects_differences_past_the_float_range(tmp_path, capsys):
    # 1.7e308 - (-1.7e308) overflows; it used to report rank 0 with a NaN
    # singular value.
    params = tmp_path / "params.csv"
    params.write_text("env,dim_0\n0,1.7e308\n1,-1.7e308\n2,0.0\n")
    assert main(["variability", "--params", str(params)]) == 2
    assert capsys.readouterr().err == "error: parameter differences overflow the float range\n"
