"""The benchmark's three workloads.

Each workload builds a fixed pool of operations from the workload seed in
``setup``; a run repeats whole rounds of that pool. Every operation of a
workload has the same make-up (the same calls on inputs of the same size),
so the median, the tail and the rate all describe one kind of work.

The workloads call the package through module attributes
(``cli.run_benchmark``, ``duality.verify_duality``, ...) so that a traced
round, which replaces those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from envcausal import cli, discovery, duality, variability
from envcausal.dgp import (
    CausalStructure,
    DGPConfig,
    VariabilityRegime,
    simulate_dataset,
    write_dataset_csv,
    write_truth_json,
)

VARYING = (
    VariabilityRegime.FULL_EXCHANGEABLE,
    VariabilityRegime.CAUSE_VARIABILITY,
    VariabilityRegime.MECHANISM_VARIABILITY,
)


def _confusion(rows) -> dict[str, dict[str, int]]:
    """Truth x decision counts per regime from (regime, truth, decision)."""
    out: dict[str, Counter] = {}
    for regime, truth, decision in rows:
        out.setdefault(regime, Counter())[f"{truth}->{decision}"] += 1
    return {regime: dict(sorted(c.items())) for regime, c in out.items()}


class Sweep:
    """One operation is one pass over the default grid: the three varying
    regimes x 100, 200, 300, 400 and 500 environments, one seed per cell,
    through ``cli.run_benchmark`` with jobs=1 (15 cells). The pool holds
    four such passes with master seeds fixed by the workload seed."""

    pool_size = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.configs = [
            cli.BenchConfig(n_seeds=1, master_seed=self.seed * self.pool_size + i)
            for i in range(self.pool_size)
        ]

    def op(self, i: int):
        return cli.run_benchmark(self.configs[i], jobs=1)

    def _cells(self, i: int, out) -> list[dict]:
        cells, _ = out
        alpha = self.configs[i].alpha
        return [
            {
                "regime": c.regime.value,
                "n_envs": c.n_envs,
                "truth": c.truth.value,
                "structure": c.decision.value,
                "p_x_to_y": c.p_x_to_y,
                "p_y_to_x": c.p_y_to_x,
                "p_independent": c.p_independent,
                "alpha": alpha,
                "correct": c.correct,
                "baseline_decision": None if c.baseline_decision is None else c.baseline_decision.value,
                "baseline_correct": c.baseline_correct,
            }
            for c in cells
        ]

    def check(self, i: int, out) -> list[str]:
        config = self.configs[i]
        cells = self._cells(i, out)
        where = f"sweep op {i}"
        problems = checks.check_grid(
            cells, [r.value for r in config.regimes], list(config.env_grid), where
        )
        for cell in cells:
            problems += checks.check_cell(cell, f"{where} {cell['regime']} E={cell['n_envs']}")
        _, summary = out
        for cell, row in zip(cells, summary):
            if row.n_cells != 1 or row.accuracy_mean != float(cell["correct"]):
                problems.append(f"{where}: summary row {row} disagrees with its cell")
        return problems

    def final_checks(self, firsts: dict) -> list[str]:
        return []

    def summary(self, firsts: dict) -> dict:
        rows = [
            (c["regime"], c["truth"], c["structure"])
            for i, out in sorted(firsts.items())
            for c in self._cells(i, out)
        ]
        return {"truth_x_decision": _confusion(rows), "cells": len(rows)}


@dataclass(frozen=True)
class _StoredCase:
    regime: str
    truth: str
    csv: Path
    truth_json: Path
    mirrored_csv: Path
    mirrored_truth_json: Path


def _write_mirror(case_csv: Path, case_truth: Path, out_csv: Path, out_truth: Path) -> None:
    """Swap the x and y columns of a stored dataset, digits unchanged."""
    lines = case_csv.read_text().splitlines()
    swapped = ["env,sample,x,y"]
    for line in lines[1:]:
        env, sample, x, y = line.split(",")
        swapped.append(f"{env},{sample},{y},{x}")
    out_csv.write_text("\n".join(swapped) + "\n")
    payload = json.loads(case_truth.read_text())
    payload["structure"] = checks.MIRROR[payload["structure"]]
    out_truth.write_text(json.dumps(payload))


class Discover:
    """One operation is ``envcausal discover`` (``cli.main`` in-process) on
    each of six stored datasets of 2000 environments: the three varying
    regimes, each with one directed truth (its direction drawn from the
    seed) and one independent truth. The structures are fixed rather than
    drawn so that every seed runs the same mix of gcm paths: a directed
    truth in the cause regime takes the linear-only path, the others the
    full path."""

    pool_size = 1
    n_environments = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir / f"discover-seed{seed}"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.cases: list[_StoredCase] = []
        for regime in VARYING:
            direction = ("x_to_y", "y_to_x")[int(rng.integers(2))]
            for truth in (direction, "independent"):
                stem = self.dir / f"{regime.value}-{truth}"
                config = DGPConfig(self.n_environments, regime, CausalStructure(truth))
                dataset = simulate_dataset(config, int(rng.integers(2**62)))
                case = _StoredCase(
                    regime.value,
                    truth,
                    stem.with_suffix(".csv"),
                    stem.with_suffix(".truth.json"),
                    stem.with_name(stem.name + "-mirror.csv"),
                    stem.with_name(stem.name + "-mirror.truth.json"),
                )
                write_dataset_csv(dataset, case.csv)
                write_truth_json(dataset, case.truth_json)
                _write_mirror(case.csv, case.truth_json, case.mirrored_csv, case.mirrored_truth_json)
                self.cases.append(case)

    @staticmethod
    def _discover(csv: Path, truth_json: Path) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["discover", "--data", str(csv), "--truth", str(truth_json)])
        if code != 0:
            raise RuntimeError(f"envcausal discover exited {code} on {csv.name}")
        return buf.getvalue()

    def op(self, i: int) -> list[str]:
        return [self._discover(c.csv, c.truth_json) for c in self.cases]

    def check(self, i: int, out: list[str]) -> list[str]:
        problems = []
        for case, text in zip(self.cases, out):
            problems += checks.check_decision(json.loads(text), f"discover {case.csv.name}")
        return problems

    def final_checks(self, firsts: dict) -> list[str]:
        problems = []
        for case, text in zip(self.cases, firsts[0]):
            mirrored = self._discover(case.mirrored_csv, case.mirrored_truth_json)
            decision = json.loads(mirrored)
            where = f"discover {case.mirrored_csv.name}"
            problems += checks.check_decision(decision, where)
            problems += checks.check_mirror(json.loads(text), decision, where)
        return problems

    def summary(self, firsts: dict) -> dict:
        rows = [
            (case.regime, case.truth, json.loads(text)["structure"])
            for case, text in zip(self.cases, firsts[0])
        ]
        return {"truth_x_decision": _confusion(rows), "datasets": len(rows)}


@dataclass(frozen=True)
class _Bundle:
    ks: duality.DualityConfig
    energy: duality.DualityConfig
    query: variability.DiscrepancyQuery
    table: np.ndarray
    rank: int


class Diagnostics:
    """One operation is a fixed bundle of four calls: ``verify_duality``
    with the KS test (4000 samples, three targets), ``verify_duality``
    with the energy-permutation test (100 samples, one target), one
    ``interventional_discrepancy_fraction`` query on two Gaussians that
    differ in location, and one ``check_sufficient_variability`` report on
    a 400 x 12 parameter table of known rank. The pool holds eight bundles
    drawn from the workload seed."""

    pool_size = 8
    level = 0.01
    ks_samples, ks_targets = 4000, 3
    energy_samples, energy_targets = 100, 1
    table_shape = (400, 12)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def _duality_config(self, rng, n_samples: int, n_targets: int, method) -> duality.DualityConfig:
        gaussian = variability.DensityFamily.GAUSSIAN
        base = duality.SourceFamily(gaussian, (0.0, 0.0), (1.0, 1.0))
        targets = []
        for _ in range(n_targets):
            # Each coordinate's location sits 0.5 to 1.5 away from the base's,
            # so skipping the transport is always detectable at these sizes.
            loc = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.5, size=2)
            scale = rng.uniform(0.7, 1.5, size=2)
            targets.append(duality.SourceFamily(gaussian, tuple(loc), tuple(scale)))
        mixing = duality.MixingSpec(
            duality.MixingKind.TRIANGULAR_AFFINE_TANH, 2, int(rng.integers(2**31))
        )
        return duality.DualityConfig(
            mixing, base, tuple(targets), n_samples, int(rng.integers(2**31)), method
        )

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        e, d = self.table_shape
        self.bundles = []
        for _ in range(self.pool_size):
            ks = self._duality_config(
                rng, self.ks_samples, self.ks_targets, duality.TwoSampleMethod.KS_PER_COORDINATE
            )
            energy = self._duality_config(
                rng,
                self.energy_samples,
                self.energy_targets,
                duality.TwoSampleMethod.ENERGY_PERMUTATION,
            )
            loc = float(rng.uniform(-2.0, 2.0))
            shift = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
            scale = float(rng.uniform(0.5, 2.0))
            p = variability.DensitySpec(variability.DensityFamily.GAUSSIAN, loc, scale)
            pt = variability.DensitySpec(variability.DensityFamily.GAUSSIAN, loc + shift, scale)
            query = variability.DiscrepancyQuery(
                p, pt, (min(loc, loc + shift) - 5.0 * scale, max(loc, loc + shift) + 5.0 * scale)
            )
            rank = int(rng.integers(1, d + 1))
            table = rng.normal(size=d) + rng.normal(size=(e, rank)) @ rng.normal(size=(rank, d))
            self.bundles.append(_Bundle(ks, energy, query, table, rank))

    def op(self, i: int):
        b = self.bundles[i]
        ks = duality.verify_duality(b.ks, level=self.level)
        energy = duality.verify_duality(b.energy, level=self.level)
        discrepancy = variability.interventional_discrepancy_fraction(b.query)
        report = variability.check_sufficient_variability(variability.build_modulation_matrix(b.table))
        return ks, energy, discrepancy, report

    def check(self, i: int, out) -> list[str]:
        _, _, (fraction_zero, _), report = out
        where = f"diagnostics bundle {i}"
        return checks.check_fraction(fraction_zero, 0.0, where) + checks.check_rank(
            report.rank, self.bundles[i].rank, where
        )

    @staticmethod
    def _duality_results(firsts: dict) -> list:
        return [r for ks, energy, _, _ in firsts.values() for r in ks.per_u_results + energy.per_u_results]

    def final_checks(self, firsts: dict) -> list[str]:
        results = self._duality_results(firsts)
        problems = checks.check_duality_passes(
            sum(not r.passed for r in results), len(results), self.level, "diagnostics duality"
        )
        for i, b in enumerate(self.bundles):
            where = f"diagnostics bundle {i}"
            forced = duality.verify_duality(b.ks, level=self.level, force_identity_transport=True)
            problems += checks.check_identity_transport_fails(forced.overall_pass, where)
            same = variability.DiscrepancyQuery(b.query.density_p, b.query.density_p, b.query.interval)
            problems += checks.check_fraction(
                variability.interventional_discrepancy_fraction(same)[0], 1.0, where
            )
        return problems

    def summary(self, firsts: dict) -> dict:
        results = self._duality_results(firsts)
        return {
            "duality_targets": len(results),
            "duality_failed": sum(not r.passed for r in results),
            "ranks": [b.rank for b in self.bundles],
        }


WORKLOADS = {"sweep": Sweep, "discover": Discover, "diagnostics": Diagnostics}


def _conditional_name(args: tuple, kwargs: dict) -> str:
    return "citest.conditional_linear" if kwargs.get("linear_only") else "citest.conditional_full"


def _two_sample_name(args: tuple, kwargs: dict) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else duality.TwoSampleMethod.KS_PER_COORDINATE)
    return "duality.ks" if method is duality.TwoSampleMethod.KS_PER_COORDINATE else "duality.energy"


def add_trace_points(tracer) -> None:
    """Register every public name a workload's calls pass through, where
    its caller looks it up."""
    tracer.add(cli, "run_benchmark", "cli.cell")
    tracer.add(cli, "main", "cli.discover")
    tracer.add(cli, "simulate_dataset", "dgp.simulate")
    tracer.add(cli, "read_dataset", "dgp.read")
    tracer.add(cli, "discover_structure", "discovery.decide")
    tracer.add(discovery, "build_cross_sample_pairs", "discovery.pairs")
    tracer.add(discovery, "marginal_independence_test", "citest.marginal")
    tracer.add(discovery, "conditional_independence_test", _conditional_name)
    tracer.add(duality, "verify_duality", "duality.verify")
    tracer.add(duality, "generate_cause_variability_samples", "duality.generate")
    tracer.add(duality, "generate_mechanism_variability_samples", "duality.generate")
    tracer.add(duality, "two_sample_test", _two_sample_name)
    tracer.add(duality.MixingSpec, "invert", "duality.invert")
    tracer.add(variability, "build_modulation_matrix", "variability.rank")
    tracer.add(variability, "check_sufficient_variability", "variability.rank")
    tracer.add(variability, "interventional_discrepancy_fraction", "variability.discrepancy")
