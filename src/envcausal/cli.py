"""Command-line entry point and the seeded benchmark harness.

Subcommands: ``simulate`` (dataset + truth sidecar), ``discover`` (decision
JSON for a stored dataset), ``benchmark`` (the full accuracy sweep),
``variability`` (rank report for a parameter table), ``discrepancy``
(log-ratio derivative check for two closed-form densities), ``duality``
(two-pipeline equivalence verification).

Exit codes: 0 success, 1 usage error, 2 data or validation error.

Benchmark determinism contract: every cell's seed is
mix64(master_seed, regime_code, n_envs, seed_index) with regime codes
full_exchangeable=0, cause_variability=1, mechanism_variability=2, iid=3;
output rows are sorted by (regime position in config, n_envs, seed_index)
no matter how many worker processes ran the cells.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._config import InvalidConfig, convert_fields, read_object
from ._streams import ROLE_BASELINE, mix64, substream
from .dgp import (
    CausalStructure,
    DataFormatError,
    DGPConfig,
    VariabilityRegime,
    read_csv_table,
    read_dataset,
    simulate_dataset,
    write_dataset_csv,
    write_truth_json,
)
from .discovery import discover_structure, random_baseline
from .duality import DualityConfig, verify_duality
from .variability import (
    DensityFamily,
    DensitySpec,
    DiscrepancyQuery,
    build_modulation_matrix,
    check_sufficient_variability,
    default_discrepancy_interval,
    interventional_discrepancy_fraction,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_REGIME_CODES = {
    VariabilityRegime.FULL_EXCHANGEABLE: 0,
    VariabilityRegime.CAUSE_VARIABILITY: 1,
    VariabilityRegime.MECHANISM_VARIABILITY: 2,
    VariabilityRegime.IID: 3,
}

RESULTS_HEADER = (
    "regime,truth,n_envs,seed,decision,p_x_to_y,p_y_to_x,p_independent,"
    "correct,baseline_decision,baseline_correct"
)
SUMMARY_HEADER = "regime,n_envs,accuracy_mean,accuracy_std,baseline_accuracy,n_cells"

# run_benchmark holds every cell's task, its BenchCell and its CSV line
# until the end: ~820 bytes per cell at peak (tracemalloc, 100,000 cells,
# CPython 3.11), so this many cells stay under 1 GB.
_MAX_BENCH_CELLS = 1_000_000


# ---------------------------------------------------------------------------
# Benchmark harness.


@dataclass(frozen=True)
class BenchConfig:
    env_grid: tuple[int, ...] = (100, 200, 300, 400, 500)
    n_seeds: int = 100
    regimes: tuple[VariabilityRegime, ...] = (
        VariabilityRegime.FULL_EXCHANGEABLE,
        VariabilityRegime.CAUSE_VARIABILITY,
        VariabilityRegime.MECHANISM_VARIABILITY,
    )
    samples_per_env: int = 2
    alpha: float = 0.05
    master_seed: int = 0
    include_random_baseline: bool = True

    def __post_init__(self):
        convert_fields(self)
        if not self.env_grid or any(e <= 0 for e in self.env_grid):
            raise InvalidConfig("env_grid must be a non-empty sequence of positive integers")
        if any(b <= a for a, b in zip(self.env_grid, self.env_grid[1:])):
            raise InvalidConfig("env_grid must be strictly increasing")
        if self.n_seeds < 1:
            raise InvalidConfig("n_seeds must be at least 1")
        if not self.regimes:
            raise InvalidConfig("regimes must be non-empty")
        if len(set(self.regimes)) != len(self.regimes):
            raise InvalidConfig("regimes must not repeat")
        if self.samples_per_env < 2:
            raise InvalidConfig("samples_per_env must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig("alpha must lie strictly between 0 and 1")
        cells = len(self.regimes) * len(self.env_grid) * self.n_seeds
        if cells > _MAX_BENCH_CELLS:
            raise InvalidConfig(
                f"regimes x env_grid x n_seeds is {cells} cells, over the limit of {_MAX_BENCH_CELLS}"
            )


@dataclass(frozen=True)
class BenchCell:
    regime: VariabilityRegime
    truth: CausalStructure
    n_envs: int
    seed: int  # seed index within the cell's (regime, n_envs) block
    decision: CausalStructure
    p_x_to_y: float
    p_y_to_x: float
    p_independent: float
    correct: bool
    baseline_decision: Optional[CausalStructure]
    baseline_correct: Optional[bool]


@dataclass(frozen=True)
class SummaryRow:
    regime: VariabilityRegime
    n_envs: int
    accuracy_mean: float
    accuracy_std: float
    baseline_accuracy: Optional[float]
    n_cells: int


def _bench_cell(task: tuple[BenchConfig, VariabilityRegime, int, int]) -> BenchCell:
    config, regime, n_envs, seed_idx = task
    cell_seed = mix64(config.master_seed, _REGIME_CODES[regime], n_envs, seed_idx)
    try:
        dgp_config = DGPConfig(n_envs, regime, "random", samples_per_env=config.samples_per_env)
        dataset = simulate_dataset(dgp_config, cell_seed)
        decision = discover_structure(dataset, config.alpha)
        if config.include_random_baseline:
            baseline = random_baseline(substream(cell_seed, ROLE_BASELINE))
            baseline_correct = baseline is dataset.truth
        else:
            baseline, baseline_correct = None, None
    except Exception as exc:
        raise RuntimeError(
            f"benchmark cell (regime={regime.value}, n_envs={n_envs}, seed={seed_idx}) failed: {exc}"
        ) from exc
    return BenchCell(
        regime=regime,
        truth=dataset.truth,
        n_envs=n_envs,
        seed=seed_idx,
        decision=decision.structure,
        p_x_to_y=decision.p_x_to_y,
        p_y_to_x=decision.p_y_to_x,
        p_independent=decision.p_independent,
        correct=decision.structure is dataset.truth,
        baseline_decision=baseline,
        baseline_correct=baseline_correct,
    )


def run_benchmark(config: BenchConfig, jobs: int = 1) -> tuple[list[BenchCell], list[SummaryRow]]:
    """Run every (regime, n_envs, seed) cell and aggregate accuracies.

    Output order is fixed by the task list, so parallel execution changes
    nothing downstream.
    """
    if jobs < 1:
        raise InvalidConfig("jobs must be at least 1")
    tasks = [
        (config, regime, n_envs, seed_idx)
        for regime in config.regimes
        for n_envs in config.env_grid
        for seed_idx in range(config.n_seeds)
    ]
    # A pool starts all its workers at the first submit; more than cells or cores only cost memory.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        cells = [_bench_cell(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_bench_cell, tasks, chunksize=chunk))

    summary: list[SummaryRow] = []
    for regime in config.regimes:
        for n_envs in config.env_grid:
            block = [c for c in cells if c.regime is regime and c.n_envs == n_envs]
            hits = np.array([c.correct for c in block], dtype=np.float64)
            std = float(np.std(hits, ddof=1)) if hits.size > 1 else 0.0
            if config.include_random_baseline:
                base_acc = float(np.mean([c.baseline_correct for c in block]))
            else:
                base_acc = None
            summary.append(
                SummaryRow(
                    regime=regime,
                    n_envs=n_envs,
                    accuracy_mean=float(hits.mean()),
                    accuracy_std=std,
                    baseline_accuracy=base_acc,
                    n_cells=len(block),
                )
            )
    return cells, summary


def per_structure_accuracy(cells: Sequence[BenchCell]) -> dict[CausalStructure, tuple[float, int]]:
    """Accuracy and cell count for each sampled truth, over all cells."""
    out: dict[CausalStructure, tuple[float, int]] = {}
    for structure in CausalStructure:
        block = [c.correct for c in cells if c.truth is structure]
        if block:
            out[structure] = (float(np.mean(block)), len(block))
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def results_csv_text(cells: Sequence[BenchCell]) -> str:
    lines = [RESULTS_HEADER]
    for c in cells:
        baseline = "" if c.baseline_decision is None else c.baseline_decision.value
        baseline_ok = "" if c.baseline_correct is None else str(c.baseline_correct).lower()
        lines.append(
            ",".join(
                [
                    c.regime.value,
                    c.truth.value,
                    str(c.n_envs),
                    str(c.seed),
                    c.decision.value,
                    _fmt(c.p_x_to_y),
                    _fmt(c.p_y_to_x),
                    _fmt(c.p_independent),
                    str(c.correct).lower(),
                    baseline,
                    baseline_ok,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_csv_text(rows: Sequence[SummaryRow]) -> str:
    lines = [SUMMARY_HEADER]
    for r in rows:
        base = "" if r.baseline_accuracy is None else _fmt(r.baseline_accuracy)
        lines.append(
            ",".join(
                [
                    r.regime.value,
                    str(r.n_envs),
                    _fmt(r.accuracy_mean),
                    _fmt(r.accuracy_std),
                    base,
                    str(r.n_cells),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def _load_config(path: str, cls):
    """The config dataclass ``cls`` read from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"cannot read {path}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: invalid JSON: {exc}")
    return read_object(cls, obj, "config")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, DGPConfig)
    dataset = simulate_dataset(config, args.seed)
    out = Path(args.out)
    write_dataset_csv(dataset, out)
    write_truth_json(dataset, out.with_suffix(".truth.json"))
    return EXIT_OK


def _cmd_discover(args) -> int:
    dataset = read_dataset(args.data, args.truth)
    decision = discover_structure(dataset, args.alpha)
    _emit(json.dumps(decision.to_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    config = BenchConfig() if args.config is None else _load_config(args.config, BenchConfig)
    cells, summary = run_benchmark(config, jobs=args.jobs)
    results_text = results_csv_text(cells)
    summary_text = summary_csv_text(summary)
    if args.out is None:
        sys.stdout.write(results_text)
        sys.stdout.write("\n")
        sys.stdout.write(summary_text)
    else:
        out = Path(args.out)
        out.write_text(results_text)
        summary_path = Path(args.summary) if args.summary else out.with_suffix(".summary.csv")
        summary_path.write_text(summary_text)
    for structure, (acc, count) in per_structure_accuracy(cells).items():
        sys.stdout.write(f"# accuracy[{structure.value}] = {acc:.4f} over {count} cells\n")
    return EXIT_OK


def _cmd_variability(args) -> int:
    thetas = _read_params_csv(args.params)
    matrix = build_modulation_matrix(thetas, args.baseline)
    payload = asdict(check_sufficient_variability(matrix, args.tolerance))
    # JSON has no infinity; a rank-0 report's condition number is null.
    if payload["condition_number"] == float("inf"):
        payload["condition_number"] = None
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _params_header_error(header: list[str]) -> str | None:
    d = len(header) - 1
    if d >= 1 and header == ["env"] + [f"dim_{j}" for j in range(d)]:
        return None
    return "expected header env,dim_0,...,dim_{d-1}"


def _read_params_csv(path: str) -> np.ndarray:
    """Parameter table with header env,dim_0,...,dim_{d-1}, one row per
    environment in any order."""
    try:
        index, values, lines = read_csv_table(path, "parameter", _params_header_error, 1)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}")
    env = index[:, 0]
    _, first = np.unique(env, return_index=True)
    repeated = np.setdiff1d(np.arange(env.size), first)
    if repeated.size:
        row = repeated[0]
        raise DataFormatError(f"duplicate environment index {env[row]}", line=int(lines[row]))
    if env.size and env.max() != env.size - 1:
        raise DataFormatError("environment indices must be 0-based and contiguous")
    table = np.empty_like(values)
    table[env] = values
    return table


def _density_from_args(prefix: str, family: str, loc: float, scale: float) -> DensitySpec:
    try:
        return DensitySpec(family, loc, scale)
    except ValueError as exc:
        raise InvalidConfig(f"{prefix}: {exc}")


def _cmd_discrepancy(args) -> int:
    p = _density_from_args("--p-family/--p-loc/--p-scale", args.p_family, args.p_loc, args.p_scale)
    pt = _density_from_args(
        "--pt-family/--pt-loc/--pt-scale", args.pt_family, args.pt_loc, args.pt_scale
    )
    if (args.lo is None) != (args.hi is None):
        raise InvalidConfig("--lo and --hi must be given together")
    interval = (args.lo, args.hi) if args.lo is not None else default_discrepancy_interval(p, pt)
    query = DiscrepancyQuery(
        density_p=p,
        density_p_tilde=pt,
        interval=interval,
        grid_points=args.grid_points,
        derivative_step=args.step,
        zero_tolerance=args.zero_tol,
    )
    fraction_zero, holds_ae = interventional_discrepancy_fraction(query)
    payload = {
        "fraction_zero": fraction_zero,
        "holds_ae": holds_ae,
        "interval": list(interval),
        "grid_points": args.grid_points,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_duality(args) -> int:
    report = verify_duality(_load_config(args.config, DualityConfig), level=args.level)
    _emit(json.dumps(asdict(report), indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser plumbing.


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2
    for data errors, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps
    no state between calls."""
    parser = _Parser(prog="envcausal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="generate a dataset CSV plus truth sidecar")
    p_sim.add_argument("--config", required=True, help="generator config JSON")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="dataset CSV path; sidecar gets .truth.json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_disc = sub.add_parser("discover", help="decide the structure of a stored dataset")
    p_disc.add_argument("--data", required=True, help="dataset CSV")
    p_disc.add_argument("--truth", required=True, help="truth sidecar JSON")
    p_disc.add_argument("--alpha", type=float, default=0.05)
    p_disc.add_argument("--out", default=None)
    p_disc.set_defaults(func=_cmd_discover)

    p_bench = sub.add_parser("benchmark", help="run the accuracy sweep")
    p_bench.add_argument("--config", default=None, help="benchmark config JSON (defaults apply)")
    p_bench.add_argument("--out", default=None, help="results CSV path; stdout when omitted")
    p_bench.add_argument("--summary", default=None, help="summary CSV path (default: <out>.summary.csv)")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_var = sub.add_parser("variability", help="rank report for a parameter table")
    p_var.add_argument("--params", required=True, help="CSV with header env,dim_0,...")
    p_var.add_argument("--baseline", type=int, default=0)
    p_var.add_argument("--tolerance", type=float, default=1e-10)
    p_var.add_argument("--out", default=None)
    p_var.set_defaults(func=_cmd_variability)

    p_dis = sub.add_parser("discrepancy", help="log-ratio derivative check for two densities")
    p_dis.add_argument("--p-family", choices=[m.value for m in DensityFamily], required=True)
    p_dis.add_argument("--p-loc", type=float, required=True)
    p_dis.add_argument("--p-scale", type=float, required=True)
    p_dis.add_argument("--pt-family", choices=[m.value for m in DensityFamily], required=True)
    p_dis.add_argument("--pt-loc", type=float, required=True)
    p_dis.add_argument("--pt-scale", type=float, required=True)
    p_dis.add_argument("--lo", type=float, default=None)
    p_dis.add_argument("--hi", type=float, default=None)
    p_dis.add_argument("--grid-points", type=int, default=10001)
    p_dis.add_argument("--step", type=float, default=1e-4)
    p_dis.add_argument("--zero-tol", type=float, default=1e-6)
    p_dis.add_argument("--out", default=None)
    p_dis.set_defaults(func=_cmd_discrepancy)

    p_dual = sub.add_parser("duality", help="verify the two-pipeline equivalence")
    p_dual.add_argument("--config", required=True, help="duality config JSON")
    p_dual.add_argument("--level", type=float, default=0.01)
    p_dual.add_argument("--out", default=None)
    p_dual.set_defaults(func=_cmd_duality)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit both for --help (code 0) and for the
        # remapped usage errors (code 1); pass the code through.
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except DataFormatError as exc:
        where = f" (line {exc.line})" if exc.line is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_DATA
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
