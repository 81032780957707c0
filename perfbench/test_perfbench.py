"""Quick tests of the benchmark itself.

    python3 -m pytest perfbench

A short run of each workload completes with every check passing, each
correctness check rejects a deliberately wrong output, and the tracer's
self times subtract child spans.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", ["sweep", "discover", "diagnostics"])
def test_short_run_completes_and_passes_its_checks(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    proc = _run(ROOT, "--workload", "discover", "--seed", "5", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    assert metrics["dgp.read_ms"]["value"] > 0 and metrics["citest.marginal_ms"]["value"] > 0
    assert metrics["dgp.simulate_ms"]["value"] == 0.0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _decision(structure, pxy, pyx, pind, alpha=0.05):
    return {
        "structure": structure,
        "p_x_to_y": pxy,
        "p_y_to_x": pyx,
        "p_independent": pind,
        "alpha": alpha,
    }


@pytest.mark.parametrize(
    "ps, expected",
    [
        ((0.01, 0.02, 0.30), "independent"),
        ((0.40, 0.01, 0.00), "x_to_y"),
        ((0.01, 0.40, 0.00), "y_to_x"),
        ((0.30, 0.60, 0.00), "y_to_x"),
        ((0.01, 0.02, 0.00), "y_to_x"),
        ((0.02, 0.02, 0.00), "x_to_y"),
    ],
)
def test_gated_rule(ps, expected):
    assert checks.gated_decision(*ps, 0.05) == expected
    assert checks.check_decision(_decision(expected, *ps), "case") == []


def test_decision_check_rejects_a_decision_that_breaks_the_gated_rule():
    # The argmax of the three p-values, which the gated rule replaced.
    assert checks.check_decision(_decision("x_to_y", 0.40, 0.01, 0.30), "case")
    assert checks.check_decision(_decision("independent", 0.40, 0.01, 0.00), "case")
    assert checks.check_decision(_decision("x_to_y", 0.40, 0.01, 1.5), "case")


def test_cell_check_rejects_a_wrong_correct_flag():
    cell = dict(_decision("x_to_y", 0.40, 0.01, 0.0), truth="y_to_x", correct=True)
    assert checks.check_cell(cell, "cell")
    cell["correct"] = False
    assert checks.check_cell(cell, "cell") == []
    cell.update(baseline_decision="y_to_x", baseline_correct=False)
    assert checks.check_cell(cell, "cell")


def test_grid_check_rejects_a_missing_cell():
    cells = [{"regime": r, "n_envs": e} for r in ("a", "b") for e in (100, 200)]
    assert checks.check_grid(cells, ["a", "b"], [100, 200], "grid") == []
    assert checks.check_grid(cells[:-1], ["a", "b"], [100, 200], "grid")


def test_mirror_check_rejects_p_values_that_are_not_swapped():
    original = _decision("x_to_y", 0.40, 0.01, 0.0)
    assert checks.check_mirror(original, _decision("y_to_x", 0.01, 0.40, 0.0), "m") == []
    assert checks.check_mirror(original, _decision("y_to_x", 0.40, 0.01, 0.0), "m")
    assert checks.check_mirror(original, _decision("x_to_y", 0.01, 0.40, 0.0), "m")
    assert checks.check_mirror(original, _decision("y_to_x", 0.01, 0.40, 1e-9), "m")


def test_binomial_allowance_matches_the_tail_it_promises():
    trials, rate = 32, 0.02
    k = checks.binomial_allowance(trials, rate)

    def above(j):
        return sum(math.comb(trials, i) * rate**i * (1 - rate) ** (trials - i) for i in range(j + 1, trials + 1))

    assert above(k) < checks.DUALITY_TAIL <= above(k - 1)


def test_duality_checks_reject_too_many_failures_and_a_passing_identity_transport():
    assert checks.check_duality_passes(0, 32, 0.01, "d") == []
    assert checks.check_duality_passes(32, 32, 0.01, "d")
    assert checks.check_identity_transport_fails(False, "d") == []
    assert checks.check_identity_transport_fails(True, "d")


def test_fraction_and_rank_checks_reject_wrong_values():
    assert checks.check_fraction(0.0, 0.0, "f") == []
    assert checks.check_fraction(0.0001, 0.0, "f")
    assert checks.check_fraction(0.9999, 1.0, "f")
    assert checks.check_rank(4, 4, "r") == []
    assert checks.check_rank(5, 4, "r")


def _layer():
    layer = SimpleNamespace()
    layer.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        layer.inner()

    layer.outer = outer
    return layer


def test_tracer_self_time_subtracts_children_and_uninstall_restores():
    layer = _layer()
    original = layer.inner
    tracer = Tracer()
    tracer.add(layer, "outer", "outer")
    tracer.add(layer, "inner", "inner")
    tracer.install()
    with tracer.span("op"):
        layer.outer()
    tracer.uninstall()
    assert layer.inner is original
    ids = {name: (span_id, parent) for span_id, parent, _, name, _, _ in tracer.spans}
    assert ids["inner"][1] == ids["outer"][0] and ids["outer"][1] == ids["op"][0]
    self_s, total_s = tracer.self_times(), tracer.durations()
    assert self_s["outer"] == pytest.approx(total_s["outer"] - total_s["inner"])
    assert 0.009 < self_s["outer"] < total_s["inner"]
    assert self_s["op"] < 0.005


def test_tail_is_the_highest_value_with_ten_operations_beyond_it():
    import run

    assert run._tail([float(v) for v in range(1, 61)])[0] == 50.0
    assert run._tail([float(v) for v in range(1, 12)])[0] == 1.0
    assert run._tail([3.0, 1.0, 2.0])[0] == 3.0
