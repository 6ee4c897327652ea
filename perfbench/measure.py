"""One repetition of a workload: set-up, timed section, verdict, counts.

A repetition builds the workload and warms it up (the set-up), collects
garbage, then times ``run_until`` to the horizon in slices, ``close``
and every checker (the timed section).  Each is a segment; its wall
time is also converted to reference seconds (:mod:`.hostspeed`).  The
repetition returns the history digest and the exact work counts, which
the run compares across repetitions of one seed, plus the failure
accounting and the latency samples.

With a profiler each timed segment's call into the program is profiled,
and :func:`self_time_by_layer` assigns each function's self time to the
``repro`` module that owns it.  Every step is a span recorded from
here, around the benchmark's own calls into the program; nothing inside
``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import pstats
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import PurePath
from typing import Any, Iterator

from repro.cluster.history import cluster_digest
from repro.core.history import operation_digest

from .hostspeed import ReferenceClock
from .workloads import DELTA, WORKLOADS, Built

#: The program's layers, named after the ``repro`` modules that own them;
#: self time anywhere else (the standard library, builtins) is ``other``.
LAYERS = ("sim", "net", "protocols", "churn", "faults", "core", "cluster", "workloads", "runtime")

#: The timed window is run in this many ``run_until`` slices, one span
#: each; short enough that the host's speed is steady within one.
RUN_SLICES = 48

#: The timed section's segments, in order.
TIMED = ("sim.run_slice", "core.close", "core.safety", "core.atomicity", "core.liveness")

#: A tail needs this many samples strictly beyond it.
TAIL_BEYOND = 10


class Spans:
    """Named wall-clock spans with their parent, kept in memory.

    Times are seconds since the recorder was created.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def __call__(self, name: str) -> Iterator[dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        record = {"id": index, "name": name, "parent": parent, "start": self._now()}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self._now()

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def total(self, name: str, field: str = "") -> float:
        """Summed duration (or ``field``) of every span called ``name``."""
        return sum(
            r[field] if field else r["end"] - r["start"]
            for r in self.records
            if r["name"] == name
        )


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    setup_ref_s: float
    wall_s: float
    wall_ref_s: float
    cpu_s: float
    digest: str
    counts: dict[str, int]
    completed_timed: int
    attempted: int
    failed: int
    safe: bool
    latencies: dict[str, list[float]]
    hot_shard_share: float
    spans: Spans


def work_counts(built: Any) -> dict[str, int]:
    """Exact, machine-independent work counts of a finished repetition."""
    pops = getattr(built.system, "shards", (built.system,))  # a cluster's shards
    stats = built.driver.stats
    return {
        "events": built.system.engine.fired_count,
        "sent": sum(p.network.sent_count for p in pops),
        "delivered": sum(p.network.delivered_count for p in pops),
        "dropped": sum(p.network.dropped_count for p in pops),
        "faulted": sum(p.network.faulted_count for p in pops),
        "broadcasts": sum(p.broadcast.broadcast_count for p in pops),
        "joins": sum(p.churn.joins_executed for p in pops),
        "leaves": sum(p.churn.leaves_executed for p in pops),
        "reads_issued": stats.reads_issued,
        "writes_issued": stats.writes_issued,
        "refused": stats.reads_skipped + stats.writes_skipped + stats.writes_deferred,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, count)`` of the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it."""
    count = len(samples)
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"{count} samples cannot support a tail with {TAIL_BEYOND} beyond it"
        )
    ordered = sorted(samples)
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count


def run_rep(workload: str, seed: int, size: str = "full", profiler: Any = None) -> Rep:
    """Build, warm up and run one repetition of a named workload."""
    spans = Spans()
    clock = ReferenceClock()
    with spans("setup") as setup:
        built = WORKLOADS[workload][size].build(seed, spans)
        with spans("sim.warmup"):
            built.system.run_until(built.warm)
    setup["ref_s"] = clock.convert(setup["end"] - setup["start"])
    return run_built(built, spans, profiler)


def run_built(built: Built, spans: Spans, profiler: Any = None) -> Rep:
    """Time a warmed-up workload to its horizon and verdict; judge and count it."""
    system = built.system
    gc.collect()
    clock = ReferenceClock()
    cpu = 0.0

    def segment(name: str, call: Any, *args: Any) -> Any:
        nonlocal cpu
        with spans(name) as record:
            cpu_start = time.process_time()
            if profiler is not None:
                profiler.enable()
            result = call(*args)
            if profiler is not None:
                profiler.disable()
            cpu += time.process_time() - cpu_start
        record["ref_s"] = clock.convert(record["end"] - record["start"])
        return result

    step = (built.horizon - built.warm) / RUN_SLICES
    for index in range(1, RUN_SLICES + 1):
        target = built.horizon if index == RUN_SLICES else built.warm + index * step
        segment("sim.run_slice", system.run_until, target)
    history = segment("core.close", system.close)
    safety = segment("core.safety", system.check_safety)
    segment("core.atomicity", system.check_atomicity)
    liveness = segment("core.liveness", system.check_liveness, built.grace)

    counts = work_counts(built)
    counts["operations"] = len(history)
    counts["completed"] = liveness.completed
    # Attempted: every planned operation and every join invoked.  Failed:
    # refused by the driver, pending past the grace, or an irregular read.
    attempted = built.planned + counts["joins"]
    failed = counts["refused"] + len(liveness.stuck) + safety.violation_count
    is_cluster = hasattr(system, "shards")
    digest = cluster_digest(history) if is_cluster else operation_digest(history)
    completed_timed = sum(
        1 for op in history if op.done and op.response_time > built.warm
    )
    latencies = {
        kind: [value / DELTA for value in values]
        for kind, values in liveness.latencies.items()
    }
    per_shard = built.driver.shard_op_counts() if is_cluster else (1,)
    return Rep(
        setup_s=spans.total("setup"),
        setup_ref_s=spans.total("setup", "ref_s"),
        wall_s=sum(spans.total(name) for name in TIMED),
        wall_ref_s=sum(spans.total(name, "ref_s") for name in TIMED),
        cpu_s=cpu,
        digest=digest,
        counts=counts,
        completed_timed=completed_timed,
        attempted=attempted,
        failed=failed,
        safe=safety.is_safe,
        latencies=latencies,
        hot_shard_share=max(per_shard) / sum(per_shard),
        spans=spans,
    )


def latency_summary(rep: Rep) -> dict[str, dict[str, float]]:
    """Median and tail (with its percentile and sample count) per kind."""
    summary = {}
    for kind in ("join", "read", "write"):
        samples = rep.latencies.get(kind, [])
        value, percentile, count = tail(samples)
        summary[kind] = {
            "p50": statistics.median(samples),
            "tail": value,
            "tail_percentile": percentile,
            "samples": count,
        }
    return summary


def layer_of(filename: str) -> str:
    """The ``repro`` layer owning a source file, else ``other``."""
    parts = PurePath(filename).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1] if parts[index + 1] in LAYERS else "other"
    return "other"


def self_time_by_layer(profiler: Any) -> dict[str, float]:
    """Profiled self time summed per layer (every layer present)."""
    totals = dict.fromkeys((*LAYERS, "other"), 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        totals[layer_of(filename)] += row[2]
    return totals
