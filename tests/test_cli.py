"""End-to-end command-line behavior, including exit codes and file formats."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from envcausal.cli import main
from envcausal.dgp import read_dataset, simulate_dataset, DGPConfig
from envcausal.dgp import CausalStructure, VariabilityRegime


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
    for method in ("gcm", "fisher-z"):
        code = main(args + ["--test", method, "--out", str(tmp_path / "decision.json")])
        assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# Usage errors.


def test_missing_required_flag_is_a_usage_error(tmp_path):
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path / "x.csv")]) == 1


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


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
