"""Correctness checks for the benchmark's outputs.

Every check rests on a property the method must have or on a computation
made here, apart from the package: none compares against a stored copy of
an earlier output. Outputs arrive as plain dicts, strings and numbers, so
the quick tests can hand each check a deliberately wrong output.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

MIRROR = {"x_to_y": "y_to_x", "y_to_x": "x_to_y", "independent": "independent"}

# Tail probability at which the duality pass count may fall short of its
# expectation before the check calls it a fault.
DUALITY_TAIL = 1e-6


def gated_decision(p_x_to_y: float, p_y_to_x: float, p_independent: float, alpha: float) -> str:
    """The alpha-gated Causal de Finetti rule, recomputed from the p-values.

    Independent when the marginal null is kept; otherwise the direction
    whose conditional null alone is kept; otherwise the larger conditional
    p-value, x_to_y on an exact tie.
    """
    if p_independent > alpha:
        return "independent"
    keeps_x_to_y = p_x_to_y > alpha
    keeps_y_to_x = p_y_to_x > alpha
    if keeps_x_to_y and not keeps_y_to_x:
        return "x_to_y"
    if keeps_y_to_x and not keeps_x_to_y:
        return "y_to_x"
    return "x_to_y" if p_x_to_y >= p_y_to_x else "y_to_x"


def check_decision(decision: dict, where: str) -> list[str]:
    """A decision (keys structure, p_x_to_y, p_y_to_x, p_independent, alpha)
    has p-values in [0, 1] and follows the gated rule."""
    problems = []
    ps = [decision["p_x_to_y"], decision["p_y_to_x"], decision["p_independent"]]
    if not all(isinstance(p, (int, float)) and 0.0 <= p <= 1.0 for p in ps):
        problems.append(f"{where}: p-value outside [0, 1]: {ps}")
        return problems
    if not 0.0 < decision["alpha"] < 1.0:
        problems.append(f"{where}: alpha {decision['alpha']} outside (0, 1)")
        return problems
    expected = gated_decision(*ps, decision["alpha"])
    if decision["structure"] != expected:
        problems.append(
            f"{where}: decided {decision['structure']}, the gated rule gives {expected}"
        )
    return problems


def check_cell(cell: dict, where: str) -> list[str]:
    """A benchmark cell: its decision follows the gated rule and its
    correct flags agree with truth, decision and baseline."""
    problems = check_decision(cell, where)
    if cell["correct"] != (cell["structure"] == cell["truth"]):
        problems.append(f"{where}: correct={cell['correct']} for {cell['truth']} -> {cell['structure']}")
    baseline = cell.get("baseline_decision")
    if baseline is not None and cell["baseline_correct"] != (baseline == cell["truth"]):
        problems.append(f"{where}: baseline_correct disagrees with the baseline decision")
    return problems


def check_grid(cells: list[dict], regimes: list[str], env_grid: list[int], where: str) -> list[str]:
    """One cell per (regime, environment count) of the grid, in grid order."""
    got = [(c["regime"], c["n_envs"]) for c in cells]
    want = [(r, e) for r in regimes for e in env_grid]
    return [] if got == want else [f"{where}: cells {got} do not cover the grid {want}"]


def check_mirror(original: dict, mirrored: dict, where: str) -> list[str]:
    """Swapping the x and y columns swaps the two conditional p-values
    exactly, keeps the marginal one and mirrors the decision."""
    problems = []
    if mirrored["p_x_to_y"] != original["p_y_to_x"] or mirrored["p_y_to_x"] != original["p_x_to_y"]:
        problems.append(
            f"{where}: mirrored p-values ({mirrored['p_x_to_y']!r}, {mirrored['p_y_to_x']!r}) "
            f"are not the swap of ({original['p_x_to_y']!r}, {original['p_y_to_x']!r})"
        )
    if mirrored["p_independent"] != original["p_independent"]:
        problems.append(f"{where}: mirroring changed p_independent")
    if mirrored["structure"] != MIRROR[original["structure"]]:
        problems.append(
            f"{where}: mirrored decision {mirrored['structure']} is not the mirror of {original['structure']}"
        )
    return problems


def binomial_allowance(trials: int, rate: float, tail: float = DUALITY_TAIL) -> int:
    """Smallest k with P(Binomial(trials, rate) > k) < tail."""
    cumulative = 0.0
    for k in range(trials + 1):
        cumulative += math.comb(trials, k) * rate**k * (1.0 - rate) ** (trials - k)
        if 1.0 - cumulative < tail:
            return k
    return trials


def check_duality_passes(failed: int, trials: int, level: float, where: str) -> list[str]:
    """Matching transports give the same distribution, so a target fails
    only when one of its two tests (observation and source space) rejects
    a true null: at most 2 * level of the time."""
    allowed = binomial_allowance(trials, min(1.0, 2.0 * level))
    if failed > allowed:
        return [f"{where}: {failed} of {trials} matching targets failed, allowance {allowed}"]
    return []


def check_identity_transport_fails(overall_pass: bool, where: str) -> list[str]:
    """Skipping the transport onto a target unlike the base must fail."""
    return [f"{where}: an identity transport onto a different target passed"] if overall_pass else []


def check_fraction(fraction_zero: float, expected: float, where: str) -> list[str]:
    """Gaussians that differ only in location have a log-ratio derivative
    equal to a nonzero constant (fraction 0); identical densities have a
    derivative of 0 everywhere (fraction 1)."""
    if fraction_zero != expected:
        return [f"{where}: fraction_zero {fraction_zero!r}, expected {expected!r}"]
    return []


def check_rank(reported: int, built: int, where: str) -> list[str]:
    """The rank report equals the rank the parameter table was built with."""
    return [] if reported == built else [f"{where}: reported rank {reported}, built with rank {built}"]
