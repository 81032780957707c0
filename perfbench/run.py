"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,discover,diagnostics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans around each module's public functions.
Reports and traces are written under ``perfbench/out/``. See README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS/OpenMP thread, so a run never asks for more than one core.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up (build the inputs, warm up) is repeated this many times and its
# median reported, so one slow repeat does not move setup_s.
SETUP_REPEATS = 3

# metric -> span name whose self time it sums, in milliseconds per operation.
LAYER_SELF_MS = {
    "dgp.simulate_ms": "dgp.simulate",
    "dgp.read_ms": "dgp.read",
    "discovery.pairs_ms": "discovery.pairs",
    "discovery.decide_self_ms": "discovery.decide",
    "citest.marginal_ms": "citest.marginal",
    "citest.conditional_full_ms": "citest.conditional_full",
    "citest.conditional_linear_ms": "citest.conditional_linear",
    "cli.cell_self_ms": "cli.cell",
    "cli.discover_self_ms": "cli.discover",
    "duality.ks_ms": "duality.ks",
    "duality.energy_ms": "duality.energy",
    "duality.generate_ms": "duality.generate",
    "duality.invert_ms": "duality.invert",
    "variability.rank_ms": "variability.rank",
    "variability.discrepancy_ms": "variability.discrepancy",
}


def _import_package():
    """Import the package from this checkout's ``src``; None if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import envcausal
    except ImportError as exc:
        print(f"error: cannot import envcausal from {src}: {exc}", file=sys.stderr)
        return None
    if src not in Path(envcausal.__file__).resolve().parents:
        print(f"error: envcausal was imported from {envcausal.__file__}, not {src}", file=sys.stderr)
        return None
    import workloads

    return workloads


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten operations above it,
    and the percentile it stands at; the maximum below eleven operations."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, traced_ops: int, overhead_pct: float) -> dict:
    self_s = tracer.self_times()
    total_s = tracer.durations()
    counts = tracer.counts()
    metrics = {
        name: _metric(1e3 * self_s.get(span, 0.0) / traced_ops, "ms")
        for name, span in LAYER_SELF_MS.items()
    }
    metrics["dgp.simulate_share"] = _metric(
        total_s.get("dgp.simulate", 0.0) / total_s["op"], "ratio"
    )
    metrics["citest.linear_only_calls"] = _metric(
        counts.get("citest.conditional_linear", 0) / traced_ops, "count"
    )
    metrics["trace.overhead_pct"] = _metric(overhead_pct, "%")
    return dict(sorted(metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "discover", "diagnostics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workloads = _import_package()
    if workloads is None:
        return 2
    import_s = time.perf_counter() - _T0
    OUT.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = make(args.seed, OUT)
        workload.setup()
        workload.op(0)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    tracer = tracing.Tracer()
    workloads.add_trace_points(tracer)
    times, traced_times = [], []
    firsts: dict = {}
    problems: list[str] = []
    attempted = failed = rounds = 0
    cpu_start = time.process_time()
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    # Whole rounds of the pool only, so every run attempts the same mix. A
    # traced run alternates untraced and traced rounds, in pairs, so the
    # overhead estimate sees the same processor conditions on both sides.
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer.install()
        for i in range(workload.pool_size):
            attempted += 1
            if traced:
                tracer.op_index += 1
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op"):
                        out = workload.op(i)
                else:
                    out = workload.op(i)
            except Exception:
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            finally:
                (traced_times if traced else times).append(time.perf_counter() - start)
            if i not in firsts:
                firsts[i] = out
                problems += workload.check(i, out)
            elif out != firsts[i]:
                problems.append(f"{args.workload} op {i}: output changed between repeats")
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (not args.trace or rounds % 2 == 0):
            break
    loop_s = time.perf_counter() - loop_start
    cpu_s = time.process_time() - cpu_start

    if len(firsts) == workload.pool_size:
        problems += workload.final_checks(firsts)
        summary = workload.summary(firsts)
    else:
        problems.append(f"{args.workload}: some operations of the pool never succeeded")
        summary = {}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    p50_s = statistics.median(times)
    if args.trace:
        traced_p50 = statistics.median(traced_times)
        overhead_pct = 100.0 * (traced_p50 / p50_s - 1.0)
        metrics = _layer_metrics(tracer, len(traced_times), overhead_pct)
        tracer.write(OUT / f"trace-{tag}.json")
        print(
            f"# {args.workload} seed {args.seed}: {rounds} rounds, untraced p50 "
            f"{1e3 * p50_s:.2f} ms, traced p50 {1e3 * traced_p50:.2f} ms, "
            f"{len(tracer.spans)} spans"
        )
    else:
        tail_s, tail_pct = _tail(times)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(attempted / loop_s, "1/s"),
            "op_p50_ms": _metric(1e3 * p50_s, "ms"),
            "op_tail_ms": _metric(1e3 * tail_s, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(
            f"# {args.workload} seed {args.seed}: {attempted} ops in {rounds} rounds, "
            f"{loop_s:.2f} s; tail at p{tail_pct:.1f}; cpu/wall {cpu_s / loop_s:.3f}; "
            f"import {import_s:.3f} s, setups {[round(s, 3) for s in setup_times]}"
        )
    print(f"# summary: {json.dumps(summary, sort_keys=True)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = dict(result, summary=summary, problems=problems, op_seconds=times, traced_op_seconds=traced_times)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
