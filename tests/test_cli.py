"""End-to-end command-line behavior, including exit codes and file formats."""

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import envcausal
from envcausal import cli
from envcausal._config import read_object
from envcausal.cli import BenchConfig, main
from envcausal.dgp import read_dataset, simulate_dataset, DGPConfig
from envcausal.discovery import discover_structure
from envcausal.dgp import CausalStructure, InvalidConfig, VariabilityRegime
from envcausal.duality import DualityConfig, MixingSpec, SourceFamily
from envcausal.variability import DensitySpec, DiscrepancyQuery


def _write_text(path, text):
    path.write_text(text)
    return str(path)


def _write_json(path, payload):
    return _write_text(path, json.dumps(payload))


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
    code = main(["discover", "--data", str(data), "--out", str(decision_path)])
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
    direct = simulate_dataset(
        DGPConfig(
            n_environments=60,
            regime=VariabilityRegime.FULL_EXCHANGEABLE,
            structure=CausalStructure.X_TO_Y,
        ),
        8,
    )
    assert read_dataset(data).tobytes() == direct.samples.tobytes()


_TRUTH_ARGS = {
    "no-truth": lambda tmp_path: [],
    "real-sidecar": lambda tmp_path: ["--truth", str(tmp_path / "data.truth.json")],
    "missing-path": lambda tmp_path: ["--truth", str(tmp_path / "absent.truth.json")],
    "garbled": lambda tmp_path: ["--truth", _write_text(tmp_path / "bad.json", '{"seed": NaN, "params": [')],
}


@pytest.mark.parametrize("truth_args", _TRUTH_ARGS.values(), ids=_TRUTH_ARGS.keys())
def test_discover_decides_from_the_csv_alone(tmp_path, dgp_config_path, capsys, truth_args):
    # --truth is accepted for older scripts and never opened: a missing or
    # garbled sidecar leaves the decision's bytes as they are.
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)]) == 0
    samples = simulate_dataset(DGPConfig(60, "full_exchangeable", "x_to_y"), 5).samples
    expected = json.dumps(asdict(discover_structure(samples)), indent=2) + "\n"
    capsys.readouterr()
    assert main(["discover", "--data", str(data)] + truth_args(tmp_path)) == 0
    assert capsys.readouterr() == (expected, "")


def test_malformed_csv_names_the_line(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines()
    lines[2] = "0,1,not-a-number,0.5"
    data.write_text("\n".join(lines) + "\n")
    code = main(["discover", "--data", str(data)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_field_over_the_csv_size_limit_exits_two_with_its_line(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines()
    lines[2] = "0,1," + "1" * 140_000 + ".5,0.5"
    data.write_text("\n".join(lines) + "\n")
    code = main(["discover", "--data", str(data)])
    assert code == 2
    err = capsys.readouterr().err
    assert "field larger than field limit" in err and "line 3" in err


def test_discover_rejects_unequal_sample_counts(tmp_path, dgp_config_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines()
    del lines[4]  # environment 1 keeps one of its two samples
    data.write_text("\n".join(lines) + "\n")
    code = main(["discover", "--data", str(data)])
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
    code = main(["discover", "--data", str(data)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "independent:zero_variance" in payload["flags"]


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
    """A rectangular dataset of 19 to 24 environments, one line maybe garbled."""
    e = draw(st.integers(min_value=19, max_value=24))
    n = draw(st.integers(min_value=1, max_value=3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=2 * e * n, max_size=2 * e * n))
    rows = ["env,sample,x,y"] + [
        f"{k // n},{k % n},{values[2 * k]!r},{values[2 * k + 1]!r}" for k in range(e * n)
    ]
    if not draw(st.integers(0, 3)):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.text(max_size=20))
    return "\r\n".join(rows).encode()


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_discover_fuzzed_inputs_exit_with_a_status_code(tmp_path, data):
    # Whatever the bytes of the dataset, discover ends with 0, 1 or 2,
    # never with an uncaught exception.
    if data.draw(st.integers(0, 3)):
        csv_bytes = data.draw(_dataset_csv())
    else:
        csv_bytes = data.draw(st.binary(max_size=200))
    (tmp_path / "data.csv").write_bytes(csv_bytes)
    args = ["discover", "--data", str(tmp_path / "data.csv")]
    assert main(args + ["--out", str(tmp_path / "decision.json")]) in (0, 1, 2)


_OVERFLOW = {
    "n_environments": 30,
    "regime": "full_exchangeable",
    "structure": "x_to_y",
    "noise_scale": 1e300,
}


def test_simulate_refuses_samples_past_the_float_range(tmp_path, capsys):
    # It used to warn, exit 0 and write 28 rows of inf or nan that discover refused.
    config = _write_json(tmp_path / "over.json", _OVERFLOW)
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", config, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: samples overflow the float range: lower noise_scale or the coefficient magnitudes\n",
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "over.json"]


@pytest.mark.parametrize("kind", ["missing_directory", "directory", "sidecar_directory"])
def test_simulate_out_it_cannot_write_exits_two_naming_it(tmp_path, dgp_config_path, capsys, kind):
    # It used to print a bare "error: [Errno 2|21] ...", and to write the
    # CSV before it met an unwritable sidecar.
    out = tmp_path / "d.csv"
    if kind == "missing_directory":
        out = bad = tmp_path / "nodir" / "d.csv"
        fault = "[Errno 2] No such file or directory"
    else:
        bad = out if kind == "directory" else tmp_path / "d.truth.json"
        fault = "[Errno 21] Is a directory"
        bad.mkdir()
    assert main(["simulate", "--config", dgp_config_path, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {bad}: {fault}: '{bad}'\n")
    assert not out.is_file()


# A record is numbered by its first physical line; lines inside a quoted
# field count, and a bad row is named before a later over-long field.
_PROBES = {
    "quoted-crlf-break": (
        "discover",
        'env,sample,x,y\r\n0,0,"1.5\r\n",2\r\n0,1,bad,3\r\n',
        "unparseable row ['0', '1', 'bad', '3'] (line 4)",
    ),
    "quoted-params-break": (
        "variability",
        'env,dim_0\n0,"1.0\n"\n1,2.0\n1,3.0\n',
        "duplicate environment index 1 (line 5)",
    ),
    "bad-row-before-long-field": (
        "discover",
        "env,sample,x,y\n0,0,1,2\n0,1,bad,3\n0,2," + "1" * 200_000 + ",4\n",
        "unparseable row ['0', '1', 'bad', '3'] (line 3)",
    ),
}


@pytest.mark.parametrize("command, text, message", _PROBES.values(), ids=_PROBES.keys())
def test_row_walk_names_the_physical_line_of_the_first_bad_record(
    tmp_path, capsys, command, text, message
):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    flag = "--data" if command == "discover" else "--params"
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# Usage errors.


def test_missing_required_flag_is_a_usage_error(tmp_path):
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path / "x.csv")]) == 1


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == 1


# Each subcommand's input-file option, the path to follow it.
INPUT_FILE_ARGS = pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--seed", "0", "--out", "data.csv", "--config"],
        ["benchmark", "--config"],
        ["duality", "--config"],
        ["variability", "--params"],
        ["discover", "--data"],
    ],
    ids=["simulate", "benchmark", "duality", "variability", "discover"],
)


@INPUT_FILE_ARGS
def test_missing_input_file_exits_two_naming_it(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # where simulate's --out would land
    missing = tmp_path / "missing.json"
    assert main(args + [str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )


@INPUT_FILE_ARGS
def test_directory_as_input_file_exits_two_naming_it(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "inputs"
    folder.mkdir()
    assert main(args + [str(folder)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {folder}: [Errno 21] Is a directory: '{folder}'\n"
    )


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
    args = ["discover", "--data", str(data)]
    assert main(args + ["--out", str(tmp_path / "decision.json")]) == 0
    assert main(args + extra) == 1


def _child_env(**extra) -> dict[str, str]:
    """This process's environment with the imported package's directory
    first on PYTHONPATH, so a child process imports the same copy."""
    src = str(Path(envcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_import_and_discover_leave_scipy_stats_unimported(tmp_path, dgp_config_path):
    # scipy.stats takes about half a second to import; only the KS
    # duality test loads it.
    data = str(tmp_path / "d.csv")
    code = "\n".join([
        "import sys",
        "import envcausal",
        f"assert envcausal.main(['simulate', '--config', {dgp_config_path!r}, '--seed', '1',"
        f" '--out', {data!r}]) == 0",
        f"assert envcausal.main(['discover', '--data', {data!r}]) == 0",
        "print('scipy.stats' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# The command line as a process: one table of cases, each run in its own
# directory through `python -m envcausal` and, when the running Python has
# an `envcausal` script installed beside it, through that script too.


class Case(NamedTuple):
    argv: list[str]
    files: dict[str, str]  # input name -> text, written before the run
    code: int
    # "stderr" -> its prefix, or all of it when that ends a line; "stdout"
    # -> a predicate on its JSON; an output name -> its first line, a
    # predicate on its JSON, or None when the run must not write it.
    expect: dict[str, object]


_DGP_JSON = '{"n_environments": 40, "regime": "full_exchangeable", "structure": "random"}'
_BENCH_JSON = '{"env_grid": [20], "n_seeds": 1, "regimes": ["iid"]}'
# Forty environments of two samples; discover needs at least 20.
_DATASET_CSV = "env,sample,x,y\n" + "".join(
    f"{i // 2},{i % 2},{x!r},{y!r}\n"
    for i, (x, y) in enumerate(np.random.default_rng(1).standard_normal((80, 2)).tolist())
)

CASES = {
    "simulate": Case(
        ["simulate", "--config", "dgp.json", "--seed", "1", "--out", "data.csv"],
        {"dgp.json": _DGP_JSON},
        0,
        {"data.csv": "env,sample,x,y"},
    ),
    "simulate-missing-directory": Case(
        ["simulate", "--config", "dgp.json", "--seed", "1", "--out", "missing/d.csv"],
        {"dgp.json": _DGP_JSON},
        2,
        {"stderr": "error: cannot write missing/d.csv: [Errno 2] No such file or directory"},
    ),
    "simulate-overflow": Case(
        ["simulate", "--config", "overflow.json", "--seed", "1", "--out", "overflow.csv"],
        {
            "overflow.json": '{"n_environments": 30, "regime": "full_exchangeable",'
            ' "structure": "x_to_y", "noise_scale": 1e300}'
        },
        2,
        {"overflow.csv": None},
    ),
    "bare": Case([], {}, 1, {"stderr": "usage: envcausal"}),
    "discover": Case(
        ["discover", "--data", "data.csv"],
        {"data.csv": _DATASET_CSV},
        0,
        {"stdout": lambda r: r["structure"] in ("x_to_y", "y_to_x", "independent")},
    ),
    "discover-missing-file": Case(
        ["discover", "--data", "missing.csv"],
        {},
        2,
        {"stderr": "error: cannot read missing.csv: [Errno 2] No such file or directory"},
    ),
    "benchmark": Case(
        ["benchmark", "--config", "bench.json", "--out", "results.csv"],
        {"bench.json": _BENCH_JSON},
        0,
        {
            "results.csv": "regime,truth,n_envs,seed,decision,p_x_to_y,p_y_to_x,p_independent,"
            "correct,baseline_decision,baseline_correct",
            "results.summary.csv": "regime,n_envs,accuracy_mean,accuracy_std,baseline_accuracy,n_cells",
        },
    ),
    "benchmark-missing-directory": Case(
        ["benchmark", "--config", "bench.json", "--out", "missing/results.csv"],
        {"bench.json": _BENCH_JSON},
        2,
        {"stderr": "error: cannot write missing/results.csv: [Errno 2] No such file or directory"},
    ),
    "variability": Case(
        ["variability", "--params", "params.csv", "--out", "variability.json"],
        {"params.csv": "env,dim_0,dim_1\n0,0.0,0.0\n1,1.0,0.5\n2,0.25,2.0\n"},
        0,
        {"variability.json": lambda r: r["rank"] == 2},
    ),
    "duality": Case(
        ["duality", "--config", "dual.json", "--out", "duality.json"],
        {
            "dual.json": '{"f": {"kind": "triangular-affine-tanh", "d": 2}, "base": {"family":'
            ' "gaussian", "location": [0.0, 0.0], "scale": [1.0, 1.0]}, "per_u": [{"family":'
            ' "gaussian", "location": [0.0, 0.0], "scale": [2.0, 2.0]}], "n_samples": 200, "seed": 0}'
        },
        0,
        {"duality.json": lambda r: isinstance(r["overall_pass"], bool)},
    ),
    # Under PYTHONWARNINGS=error this used to end in a RuntimeWarning
    # traceback from the mixing's matmul and exit 1.
    "duality-overflow": Case(
        ["duality", "--config", "overflow.json", "--out", "duality.json"],
        {
            "overflow.json": '{"f": {"kind": "triangular-affine-tanh", "d": 2, "seed": 0}, "base":'
            ' {"family": "gaussian", "location": [0.0, 0.0], "scale": [1.0, 1.0]}, "per_u":'
            ' [{"family": "gaussian", "location": [1e308, 1e308], "scale": [0.5, 2.0]}],'
            ' "n_samples": 200, "seed": 0}'
        },
        2,
        {"stderr": "error: u=0: samples overflow the float range\n", "duality.json": None},
    ),
    "energy-level-below-floor": Case(
        ["duality", "--config", "energy.json", "--level", "0.001"],
        {
            "energy.json": '{"f": {"kind": "identity", "d": 1}, "base": {"family": "gaussian",'
            ' "location": [0.0], "scale": [1.0]}, "per_u": [{"family": "gaussian", "location":'
            ' [0.0], "scale": [2.0]}], "n_samples": 100, "seed": 0, "test": "energy-permutation"}'
        },
        2,
        {"stderr": "error: level 0.001 is below the energy test's p-value floor 1/201\n"},
    ),
    # The package imports cli, so running cli itself as a module would
    # warn that it is already in sys.modules; the package's __main__ does not.
    "discrepancy": Case(
        [
            "discrepancy", "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
            "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
        ],
        {},
        0,
        {"stdout": lambda r: r["holds_ae"] is True},
    ),
}

PREFIXES = {"module": [sys.executable, "-m", "envcausal"]}
_SCRIPT = shutil.which("envcausal", path=sysconfig.get_path("scripts"))
if _SCRIPT:
    PREFIXES["script"] = [_SCRIPT]


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
@pytest.mark.parametrize("prefix", PREFIXES.values(), ids=PREFIXES.keys())
def test_command_line_case(tmp_path, prefix, case):
    for name, text in case.files.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        prefix + case.argv,
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(PYTHONWARNINGS="error"),
        timeout=120,
    )
    assert proc.returncode == case.code, proc.stderr
    # A run that succeeds writes nothing to stderr, not even a warning;
    # one that fails writes nothing to stdout.
    assert (proc.stderr if case.code == 0 else proc.stdout) == "", proc
    for name, want in case.expect.items():
        if name == "stderr":
            assert proc.stderr == want if want.endswith("\n") else proc.stderr.startswith(want), proc.stderr
        elif name == "stdout":
            assert want(json.loads(proc.stdout)), proc.stdout
        elif want is None:
            assert not (tmp_path / name).exists()
        elif isinstance(want, str):
            assert (tmp_path / name).read_text().splitlines()[0] == want
        else:
            assert want(json.loads((tmp_path / name).read_text())), name


# ---------------------------------------------------------------------------
# benchmark.


_SMALL_BENCH = {
    "env_grid": [20, 40],
    "n_seeds": 3,
    "regimes": ["full_exchangeable", "iid"],
}


def _accuracy_lines(results):
    """The comment lines benchmark prints: each truth's share of correct rows in the results CSV."""
    hits = {truth.value: [] for truth in CausalStructure}
    for row in csv.DictReader(results.read_text().splitlines()):
        hits[row["truth"]].append(row["correct"] == "true")
    return "".join(
        f"# accuracy[{truth}] = {np.mean(h):.4f} over {len(h)} cells\n" for truth, h in hits.items() if h
    )


def test_benchmark_rows_and_summary_shape(tmp_path, capsys):
    config = _write_json(tmp_path / "bench.json", _SMALL_BENCH)
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr() == (_accuracy_lines(out), "")
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


def test_benchmark_parallel_output_is_byte_identical(tmp_path, capsys):
    config = _write_json(tmp_path / "bench.json", _SMALL_BENCH)
    serial_out = tmp_path / "serial.csv"
    parallel_out = tmp_path / "parallel.csv"
    assert main(["benchmark", "--config", config, "--out", str(serial_out), "--jobs", "1"]) == 0
    serial_printed = capsys.readouterr()
    assert main(["benchmark", "--config", config, "--out", str(parallel_out), "--jobs", "2"]) == 0
    assert capsys.readouterr() == serial_printed == (_accuracy_lines(serial_out), "")
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
    assert cli.csv_text(cells) == cli.csv_text(cli.run_benchmark(config)[0])


def test_single_cell_benchmark_has_zero_std(tmp_path, capsys):
    config = _write_json(
        tmp_path / "bench.json",
        {"env_grid": [100], "n_seeds": 1, "regimes": ["full_exchangeable"]},
    )
    out = tmp_path / "one.csv"
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr() == (_accuracy_lines(out), "")
    assert len(out.read_text().splitlines()) == 2
    summary_row = (tmp_path / "one.summary.csv").read_text().splitlines()[1].split(",")
    assert summary_row[3] == "0"  # lone cell leaves no spread to estimate


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
        {"include_random_baseline": False},  # the baseline is always written
        {"regimes": []},
        {"regimes": ["iid", "iid"]},
        {"samples_per_env": 1},
    ],
)
def test_bad_benchmark_configs_exit_two(tmp_path, payload, capsys):
    config = _write_json(tmp_path / "bench.json", payload)
    assert main(["benchmark", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_benchmark_needs_at_least_one_job(tmp_path, capsys):
    config = _write_json(tmp_path / "bench.json", {"env_grid": [20], "n_seeds": 1, "regimes": ["iid"]})
    out = tmp_path / "x.csv"
    assert main(["benchmark", "--config", config, "--out", str(out), "--jobs", "0"]) == 2
    assert capsys.readouterr() == ("", "error: jobs must be at least 1\n")
    assert not out.exists()


def test_benchmark_summary_path_needs_out(tmp_path, capsys, monkeypatch):
    # It used to run the sweep, print both tables and never write the path.
    monkeypatch.setattr(cli, "run_benchmark", None)  # the check comes before the sweep
    summary = tmp_path / "s.csv"
    assert main(["benchmark", "--summary", str(summary)]) == 2
    assert capsys.readouterr() == ("", "error: --summary needs --out\n")
    assert not summary.exists()


def test_benchmark_summary_path_must_differ_from_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_benchmark", None)  # the check comes before the sweep
    monkeypatch.chdir(tmp_path)
    assert main(["benchmark", "--out", "r.csv", "--summary", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr() == ("", "error: --summary must differ from --out\n")
    assert list(tmp_path.iterdir()) == []


def _sweep_must_not_run(*args, **kwargs):
    pytest.fail("the sweep ran")


def test_benchmark_out_in_a_missing_directory_exits_two_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    # It used to run every cell, then print a bare "error: [Errno 2] ...".
    monkeypatch.setattr(cli, "run_benchmark", _sweep_must_not_run)
    out = tmp_path / "nodir" / "r.csv"
    assert main(["benchmark", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n",
    )
    assert list(tmp_path.iterdir()) == []


def test_benchmark_summary_at_a_directory_exits_two_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    # It used to write the results, then exit 2 with a bare "[Errno 21]".
    monkeypatch.setattr(cli, "run_benchmark", _sweep_must_not_run)
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "r.csv"
    assert main(["benchmark", "--out", str(out), "--summary", str(folder)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot write {folder}: [Errno 21] Is a directory: '{folder}'\n",
    )
    assert list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("kind", ["missing_directory", "directory", "file_as_directory"])
def test_write_check_raises_the_fault_the_write_meets(tmp_path, kind):
    folder = tmp_path / "folder"
    folder.mkdir()
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    path = {
        "missing_directory": tmp_path / "nodir" / "r.csv",
        "directory": folder,
        "file_as_directory": plain / "r.csv",
    }[kind]
    with pytest.raises(OSError) as checked:
        cli._check_writable(path)
    with pytest.raises(OSError) as written:
        cli._emit("text", path)
    assert str(checked.value) == str(written.value)
    assert str(written.value).startswith(f"cannot write {path}: [Errno ")


def test_discover_out_in_a_missing_directory_exits_two_naming_it(
    tmp_path, dgp_config_path, capsys
):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", dgp_config_path, "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "nodir" / "decision.json"
    assert main(["discover", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n",
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_benchmark_summary_recomputes_from_the_results(tmp_path, jobs, capsys):
    config = _write_json(tmp_path / "bench.json", _SMALL_BENCH)
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
    assert capsys.readouterr() == (_accuracy_lines(out), "")
    rows = list(csv.DictReader(out.read_text().splitlines()))
    cells, _ = cli.run_benchmark(BenchConfig(**_SMALL_BENCH))
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        for name in ("p_x_to_y", "p_y_to_x", "p_independent"):
            assert float(row[name]).hex() == getattr(cell, name).hex()

    blocks: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        blocks.setdefault((row["regime"], row["n_envs"]), []).append(row)
    summary = list(csv.DictReader((tmp_path / "results.summary.csv").read_text().splitlines()))
    assert [(r["regime"], r["n_envs"]) for r in summary] == list(blocks)
    for srow, block in zip(summary, blocks.values()):
        hits = np.array([r["correct"] == "true" for r in block], dtype=np.float64)
        base = np.array([r["baseline_correct"] == "true" for r in block], dtype=np.float64)
        assert float(srow["accuracy_mean"]) == hits.mean()
        assert float(srow["accuracy_std"]) == np.std(hits, ddof=1)
        assert float(srow["baseline_accuracy"]) == base.mean()
        assert int(srow["n_cells"]) == len(block) == _SMALL_BENCH["n_seeds"]


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


def test_variability_rejects_gapped_environment_indices(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("env,dim_0\n0,0.5\n2,0.25\n")
    assert main(["variability", "--params", str(params)]) == 2
    assert capsys.readouterr().err == "error: environment indices must be 0-based and contiguous\n"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_variability_counts_blank_lines_in_the_line_of_a_duplicate(tmp_path, capsys, end):
    # Blank lines are skipped as rows but still counted as lines.
    params = tmp_path / "params.csv"
    params.write_bytes(end.join(["env,dim_0", "1,0.5", "", "0,0.25", "", "", "1,0.75", ""]).encode())
    assert main(["variability", "--params", str(params)]) == 2
    assert capsys.readouterr().err == "error: duplicate environment index 1 (line 7)\n"


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


def test_duality_energy_level_below_the_p_value_floor_exits_two(tmp_path, capsys):
    energy = _write_json(tmp_path / "dual.json", dict(_DUAL, test="energy-permutation"))
    assert main(["duality", "--config", energy, "--level", "0.001"]) == 2
    assert capsys.readouterr() == ("", "error: level 0.001 is below the energy test's p-value floor 1/201\n")
    ks = _write_json(tmp_path / "ks.json", _DUAL)
    assert main(["duality", "--config", ks, "--level", "0.001", "--out", str(tmp_path / "r")]) == 0


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
        (
            # It used to fail inside the first cell, after pooled cells had run.
            "benchmark",
            {"env_grid": [10, 2000], "n_seeds": 300},
            "env_grid must be a non-empty sequence of integers >= 20",
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


@pytest.mark.parametrize("test", ["ks-per-coordinate", "energy-permutation"])
def test_duality_names_a_sample_table_that_overflows(tmp_path, capsys, test):
    # The mixing's 0.81 * 1e308 + 1e308 overflows; it used to warn of an
    # overflow in matmul and then name table "a" of the two-sample test.
    target = dict(_DUAL["per_u"][0], location=[1e308, 1e308], scale=[0.5, 2.0])
    payload = dict(
        _DUAL,
        f={"kind": "triangular-affine-tanh", "d": 2, "seed": 0},
        base={"family": "gaussian", "location": [0.0, 0.0], "scale": [1.0, 1.0]},
        per_u=[target],
        test=test,
    )
    assert _run_config(tmp_path, "duality", payload) == 2
    assert capsys.readouterr() == ("", "error: u=0: samples overflow the float range\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("location", [1e308, 1.7e308])
def test_duality_rejects_observations_rounded_to_one_value(tmp_path, capsys, location):
    # Every sample of a coordinate rounds to the location; both tests used
    # to see constant columns and report statistic 0, p 1 and a pass.
    family = {"family": "gaussian", "location": [location, location], "scale": [1.0, 1.0]}
    payload = dict(
        _DUAL, f={"kind": "triangular-affine-tanh", "d": 2, "seed": 3}, base=family, per_u=[family]
    )
    assert _run_config(tmp_path, "duality", payload) == 2
    assert capsys.readouterr().err == "error: u=0: coordinate 0 of the observations has no spread\n"
    assert not (tmp_path / "out").exists()


_HUGE = 10**13  # elements; numpy refuses the allocation at once


@pytest.mark.parametrize(
    "args",
    [
        [
            "discrepancy", "--p-family", "gaussian", "--p-loc", "0", "--p-scale", "1",
            "--pt-family", "gaussian", "--pt-loc", "1", "--pt-scale", "1",
            "--grid-points", str(_HUGE),
        ],
        ["duality", "--config", dict(_DUAL, n_samples=_HUGE)],
    ],
    ids=["discrepancy-grid", "duality-samples"],
)
def test_sizes_numpy_cannot_allocate_exit_two(tmp_path, capsys, args):
    # These used to end in a raw numpy._core._exceptions._ArrayMemoryError traceback.
    args = [_write_json(tmp_path / "c.json", a) if isinstance(a, dict) else a for a in args]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")


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
    assert cli.csv_text(cli.run_benchmark(config)[0]).splitlines()[1].startswith("iid,")


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
