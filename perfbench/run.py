"""End-to-end benchmark of the dynamic register, from workload driver to
checker verdict.

Run from the repository root::

    python3 perfbench/run.py --workload join_storm --seed 1 --seconds 30 --trace 0

Workloads: ``join_storm``, ``quorum_lossy``, ``hot_shard_reads`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).

``--trace 0`` repeats the workload with one seed, each repetition
freshly built, until ``--seconds`` are spent (at least three), and
reports the end-to-end metrics as medians over the repetitions.
``--trace 1`` runs one plain repetition and one profiled repetition and
reports the per-layer metrics.  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds diagnostics (digest, exact work
counts, per-repetition times, CPU time, load average, and the metrics
that are zero by design and so cannot carry a relative bound).

The run refuses to report a time, and exits non-zero, unless every
repetition of the seed produced the same history digest and work
counts, every verdict is SAFE, and a small run of another seed produced
a different digest.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


class BenchmarkFailure(Exception):
    """A correctness gate failed; no time may be reported."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Put ``src/`` and the benchmark on the path and import them.

    Returns the reference seconds from this script's start to the end of
    the import, which are part of every repetition's set-up.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkFailure(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import ReferenceClock  # the standard library only

    before = time.perf_counter()
    clock = ReferenceClock(samples=3)
    start = time.perf_counter()
    import perfbench.measure  # noqa: F401  (imports repro and its layers)

    return clock.convert(before - PROCESS_START + time.perf_counter() - start)


def gate(reps: list, workload: str, seed: int) -> None:
    """Same seed -> same digest and counts, SAFE; other seed -> other digest."""
    from perfbench.measure import run_rep

    first = reps[0]
    for index, rep in enumerate(reps):
        if not rep.safe:
            raise BenchmarkFailure(f"repetition {index} of seed {seed} is not SAFE")
        if (rep.digest, rep.counts) != (first.digest, first.counts):
            raise BenchmarkFailure(
                f"repetition {index} of seed {seed} diverged: digest {rep.digest} "
                f"counts {rep.counts} vs {first.digest} {first.counts}"
            )
    mine = run_rep(workload, seed, "tiny")
    other = run_rep(workload, seed + 1, "tiny")
    if mine.digest == other.digest:
        raise BenchmarkFailure(
            f"seeds {seed} and {seed + 1} produced the same digest: the seed "
            f"does not reach the input generator"
        )


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(reps: list, import_s: float) -> dict[str, dict[str, object]]:
    from perfbench.measure import latency_summary

    first = reps[0]
    latency = latency_summary(first)
    completed = sum(len(v) for v in first.latencies.values())
    op_latency_mean = sum(sum(v) for v in first.latencies.values()) / completed
    return {
        "wall_s": metric(statistics.median([r.wall_ref_s for r in reps]), "s"),
        "ops_per_s": metric(statistics.median([r.completed_timed / r.wall_ref_s for r in reps]), "1/s"),
        "setup_s": metric(import_s + statistics.median([r.setup_ref_s for r in reps]), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ok_share": metric(1.0 - first.failed / first.attempted, "share"),
        "op_latency_mean": metric(op_latency_mean, "delta"),
        "join_latency_p50": metric(latency["join"]["p50"], "delta"),
        "join_latency_tail": metric(latency["join"]["tail"], "delta"),
        "write_latency_p50": metric(latency["write"]["p50"], "delta"),
        "write_latency_tail": metric(latency["write"]["tail"], "delta"),
    }


def per_layer(plain, traced, profiler) -> dict[str, dict[str, object]]:
    from perfbench.measure import latency_summary, self_time_by_layer

    counts = traced.counts
    completed = counts["completed"]
    delivered, dropped, faulted = counts["delivered"], counts["dropped"], counts["faulted"]
    latency = latency_summary(traced)
    spans = plain.spans  # unprofiled, so the step times are not inflated
    metrics = {
        "runtime.build_s": metric(spans.total("runtime.build"), "s"),
        "churn.attach_s": metric(spans.total("churn.attach"), "s"),
        "workloads.plan_s": metric(spans.total("workloads.plan"), "s"),
        "sim.warmup_s": metric(spans.total("sim.warmup"), "s"),
        "sim.run_s": metric(spans.total("sim.run_slice"), "s"),
        "core.close_s": metric(spans.total("core.close"), "s"),
        "core.safety_s": metric(spans.total("core.safety"), "s"),
        "core.atomicity_s": metric(spans.total("core.atomicity"), "s"),
        "core.liveness_s": metric(spans.total("core.liveness"), "s"),
    }
    for layer, seconds in self_time_by_layer(profiler).items():
        metrics[f"{layer}.self_s"] = metric(seconds, "s")
    metrics.update(
        {
            "churn.joins": metric(counts["joins"], "count"),
            "churn.leaves": metric(counts["leaves"], "count"),
            "sim.events": metric(counts["events"], "count"),
            "sim.events_per_op": metric(counts["events"] / completed, "count"),
            "net.sent": metric(counts["sent"], "count"),
            "net.delivered": metric(delivered, "count"),
            "net.dropped": metric(dropped, "count"),
            "net.faulted": metric(faulted, "count"),
            "net.broadcasts": metric(counts["broadcasts"], "count"),
            "net.delivered_per_op": metric(delivered / completed, "count"),
            "net.useful_ratio": metric(delivered / (delivered + dropped + faulted), "share"),
            "workloads.refused": metric(counts["refused"], "count"),
            "workloads.failed_share": metric(traced.failed / traced.attempted, "share"),
            "protocols.joins_done": metric(latency["join"]["samples"], "count"),
            "protocols.read_latency_p50": metric(latency["read"]["p50"], "delta"),
            "protocols.read_latency_tail": metric(latency["read"]["tail"], "delta"),
            "core.checked": metric(counts["operations"], "count"),
            "cluster.hot_shard_share": metric(traced.hot_shard_share, "share"),
            "trace.wall_s": metric(traced.wall_s, "s"),
            "trace.overhead_s": metric(traced.wall_s - plain.wall_s, "s"),
        }
    )
    return metrics


def diagnostics(workload: str, seed: int, reps: list, loads: list) -> dict[str, object]:
    from perfbench.measure import latency_summary

    first = reps[0]
    return {
        "workload": workload,
        "seed": seed,
        "digest": first.digest,
        "counts": first.counts,
        "failed_share": first.failed / first.attempted,
        "latency_delta": latency_summary(first),
        "wall_s": [r.wall_s for r in reps],
        "wall_ref_s": [r.wall_ref_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "setup_ref_s": [r.setup_ref_s for r in reps],
        "loadavg_1m": loads,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
        from perfbench.measure import run_rep
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchmarkFailure(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        loads = [os.getloadavg()[0]]
        if args.trace:
            plain = run_rep(args.workload, args.seed)
            profiler = cProfile.Profile()
            gc.collect()
            traced = run_rep(args.workload, args.seed, profiler=profiler)
            reps = [plain, traced]
        else:
            reps = []
            start = time.perf_counter()
            while True:
                gc.collect()
                began = time.perf_counter()
                reps.append(run_rep(args.workload, args.seed))
                elapsed = time.perf_counter() - start
                last = time.perf_counter() - began
                if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
                    break
        loads.append(os.getloadavg()[0])
        gate(reps, args.workload, args.seed)
    except BenchmarkFailure as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(plain, traced, profiler)
        extra = {"spans": plain.spans.records}
    else:
        metrics = end_to_end(reps, import_s)
        extra = {"import_s": import_s}
    print(json.dumps({"diagnostics": {**diagnostics(args.workload, args.seed, reps, loads), **extra}}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(r.attempted for r in reps),
                "failed": sum(r.failed for r in reps),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
