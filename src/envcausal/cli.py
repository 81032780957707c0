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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._streams import ROLE_BASELINE, mix64, substream
from .citest import InsufficientSamples, TestMethod
from .dgp import (
    CausalStructure,
    DataFormatError,
    DGPConfig,
    InvalidConfig,
    VariabilityRegime,
    read_csv_table,
    read_dataset,
    simulate_dataset,
    write_dataset_csv,
    write_truth_json,
)
from .discovery import InsufficientEnvironments, discover_structure, random_baseline
from .duality import (
    DimensionMismatch,
    DualityConfig,
    DualityReport,
    FamilyMismatch,
    MixingKind,
    MixingSpec,
    SourceFamily,
    TwoSampleMethod,
    verify_duality,
)
from .variability import (
    DensityFamily,
    DensitySpec,
    DiscrepancyQuery,
    NonPositiveDensity,
    ShapeMismatch,
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


class ConfigError(ValueError):
    """A configuration file failed validation; message names the JSON path."""


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
    test_method: TestMethod = TestMethod.GCM
    master_seed: int = 0
    include_random_baseline: bool = True

    def validate(self) -> None:
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
        dgp_config = DGPConfig(
            n_environments=n_envs,
            regime=regime,
            structure="random",
            samples_per_env=config.samples_per_env,
        )
        dataset = simulate_dataset(dgp_config, cell_seed)
        decision = discover_structure(dataset, config.test_method, config.alpha)
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
    config.validate()
    if jobs < 1:
        raise InvalidConfig("jobs must be at least 1")
    tasks = [
        (config, regime, n_envs, seed_idx)
        for regime in config.regimes
        for n_envs in config.env_grid
        for seed_idx in range(config.n_seeds)
    ]
    if jobs == 1:
        cells = [_bench_cell(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
# JSON configuration parsing with pathized error messages.


def _load_json_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in sorted(set(obj) - allowed):
        raise ConfigError(f"{path}.{key}: unknown key")
    for key in sorted(required - set(obj)):
        raise ConfigError(f"{path}.{key}: missing required key")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _as_enum(enum_cls, value, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"{path}: expected one of {valid}, got {value!r}")


def dgp_config_from_json(obj, path: str = "config") -> DGPConfig:
    data = _expect_object(obj, path)
    _check_keys(
        data,
        {
            "n_environments",
            "regime",
            "structure",
            "samples_per_env",
            "noise_scale",
            "collapse_noise",
            "coef_magnitude_range",
        },
        {"n_environments", "regime", "structure"},
        path,
    )
    structure = data["structure"]
    if structure != "random":
        structure = _as_enum(CausalStructure, structure, f"{path}.structure")
    rng_range = data.get("coef_magnitude_range", [0.5, 2.0])
    if not (isinstance(rng_range, list) and len(rng_range) == 2):
        raise ConfigError(f"{path}.coef_magnitude_range: expected [low, high]")
    return DGPConfig(
        n_environments=_as_int(data["n_environments"], f"{path}.n_environments"),
        regime=_as_enum(VariabilityRegime, data["regime"], f"{path}.regime"),
        structure=structure,
        samples_per_env=_as_int(data.get("samples_per_env", 2), f"{path}.samples_per_env"),
        noise_scale=_as_number(data.get("noise_scale", 1.0), f"{path}.noise_scale"),
        collapse_noise=_as_bool(data.get("collapse_noise", False), f"{path}.collapse_noise"),
        coef_magnitude_range=(
            _as_number(rng_range[0], f"{path}.coef_magnitude_range[0]"),
            _as_number(rng_range[1], f"{path}.coef_magnitude_range[1]"),
        ),
    )


def bench_config_from_json(obj, path: str = "config") -> BenchConfig:
    data = _expect_object(obj, path)
    _check_keys(
        data,
        {
            "env_grid",
            "n_seeds",
            "regimes",
            "samples_per_env",
            "alpha",
            "test_method",
            "master_seed",
            "include_random_baseline",
        },
        set(),
        path,
    )
    kwargs = {}
    if "env_grid" in data:
        grid = data["env_grid"]
        if not isinstance(grid, list):
            raise ConfigError(f"{path}.env_grid: expected a list")
        kwargs["env_grid"] = tuple(
            _as_int(v, f"{path}.env_grid[{i}]") for i, v in enumerate(grid)
        )
    if "n_seeds" in data:
        kwargs["n_seeds"] = _as_int(data["n_seeds"], f"{path}.n_seeds")
    if "regimes" in data:
        regimes = data["regimes"]
        if not isinstance(regimes, list):
            raise ConfigError(f"{path}.regimes: expected a list")
        kwargs["regimes"] = tuple(
            _as_enum(VariabilityRegime, v, f"{path}.regimes[{i}]")
            for i, v in enumerate(regimes)
        )
    if "samples_per_env" in data:
        kwargs["samples_per_env"] = _as_int(data["samples_per_env"], f"{path}.samples_per_env")
    if "alpha" in data:
        kwargs["alpha"] = _as_number(data["alpha"], f"{path}.alpha")
    if "test_method" in data:
        kwargs["test_method"] = _as_enum(TestMethod, data["test_method"], f"{path}.test_method")
    if "master_seed" in data:
        kwargs["master_seed"] = _as_int(data["master_seed"], f"{path}.master_seed")
    if "include_random_baseline" in data:
        kwargs["include_random_baseline"] = _as_bool(
            data["include_random_baseline"], f"{path}.include_random_baseline"
        )
    config = BenchConfig(**kwargs)
    config.validate()
    return config


def _source_family_from_json(obj, path: str) -> SourceFamily:
    data = _expect_object(obj, path)
    _check_keys(data, {"family", "location", "scale"}, {"family", "location", "scale"}, path)
    for key in ("location", "scale"):
        if not isinstance(data[key], list):
            raise ConfigError(f"{path}.{key}: expected a list of numbers")
    return SourceFamily(
        family=_as_enum(DensityFamily, data["family"], f"{path}.family"),
        location=tuple(
            _as_number(v, f"{path}.location[{i}]") for i, v in enumerate(data["location"])
        ),
        scale=tuple(_as_number(v, f"{path}.scale[{i}]") for i, v in enumerate(data["scale"])),
    )


def duality_config_from_json(obj, path: str = "config") -> DualityConfig:
    data = _expect_object(obj, path)
    _check_keys(
        data,
        {"f", "base", "per_u", "n_samples", "seed", "test"},
        {"f", "base", "per_u", "n_samples", "seed"},
        path,
    )
    f_data = _expect_object(data["f"], f"{path}.f")
    _check_keys(f_data, {"kind", "d", "seed"}, {"kind", "d"}, f"{path}.f")
    mixing = MixingSpec(
        kind=_as_enum(MixingKind, f_data["kind"], f"{path}.f.kind"),
        d=_as_int(f_data["d"], f"{path}.f.d"),
        seed=_as_int(f_data.get("seed", 0), f"{path}.f.seed"),
    )
    per_u_data = data["per_u"]
    if not isinstance(per_u_data, list):
        raise ConfigError(f"{path}.per_u: expected a list")
    per_u = tuple(
        _source_family_from_json(v, f"{path}.per_u[{i}]") for i, v in enumerate(per_u_data)
    )
    test = data.get("test", TwoSampleMethod.KS_PER_COORDINATE.value)
    return DualityConfig(
        f=mixing,
        base=_source_family_from_json(data["base"], f"{path}.base"),
        per_u=per_u,
        n_samples=_as_int(data["n_samples"], f"{path}.n_samples"),
        seed=_as_int(data["seed"], f"{path}.seed"),
        test=_as_enum(TwoSampleMethod, test, f"{path}.test"),
    )


def duality_report_to_dict(report: DualityReport) -> dict:
    return {
        "per_u_results": [
            {
                "u_index": r.u_index,
                "statistic": r.statistic,
                "p_value": r.p_value,
                "source_p_value": r.source_p_value,
                "passed": r.passed,
            }
            for r in report.per_u_results
        ],
        "overall_pass": report.overall_pass,
    }


# ---------------------------------------------------------------------------
# Subcommands.


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_simulate(args) -> int:
    config = dgp_config_from_json(_load_json_file(args.config))
    dataset = simulate_dataset(config, args.seed)
    out = Path(args.out)
    write_dataset_csv(dataset, out)
    write_truth_json(dataset, out.with_suffix(".truth.json"))
    return EXIT_OK


def _cmd_discover(args) -> int:
    dataset = read_dataset(args.data, args.truth)
    decision = discover_structure(
        dataset,
        TestMethod(args.test),
        args.alpha,
        n_permutations=args.permutations,
    )
    _emit(json.dumps(decision.to_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    if args.config is None:
        config = BenchConfig()
        config.validate()
    else:
        config = bench_config_from_json(_load_json_file(args.config))
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
    report = check_sufficient_variability(matrix, args.tolerance)
    payload = {
        "rank": report.rank,
        "full_column_rank": report.full_column_rank,
        "condition_number": None if report.condition_number == float("inf") else report.condition_number,
        "singular_values": list(report.singular_values),
        "tolerance": report.tolerance,
        "flags": list(report.flags),
    }
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
        return DensitySpec(DensityFamily(family), loc, scale)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}")


def _cmd_discrepancy(args) -> int:
    p = _density_from_args("--p-family/--p-loc/--p-scale", args.p_family, args.p_loc, args.p_scale)
    pt = _density_from_args(
        "--pt-family/--pt-loc/--pt-scale", args.pt_family, args.pt_loc, args.pt_scale
    )
    if (args.lo is None) != (args.hi is None):
        raise ConfigError("--lo and --hi must be given together")
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
    config = duality_config_from_json(_load_json_file(args.config))
    report = verify_duality(config, level=args.level)
    _emit(json.dumps(duality_report_to_dict(report), indent=2) + "\n", args.out)
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
    p_disc.add_argument(
        "--test", choices=[m.value for m in TestMethod], default=TestMethod.GCM.value
    )
    p_disc.add_argument("--alpha", type=float, default=0.05)
    p_disc.add_argument("--permutations", type=int, default=200)
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
    except (
        ConfigError,
        InvalidConfig,
        ShapeMismatch,
        NonPositiveDensity,
        FamilyMismatch,
        DimensionMismatch,
        InsufficientSamples,
        InsufficientEnvironments,
        RuntimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
