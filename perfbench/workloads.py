"""The benchmark's three workloads, built only through the public API.

Each workload turns a seed into a fully wired system, its churn, its
faults and its operation plan.  The program under test receives only
the generated plan; every random draw comes from streams of the
system's own registry, which the seed roots, so one seed gives one
input and another seed gives another.

``full`` is the benchmarked size.  ``tiny`` keeps the same shape at a
fraction of the cost; the run uses it to prove the seed reaches the
generator, and the tests use it to check the benchmark's own code.

Why these three (the prediction each makes is in ``README.md``):

* ``join_storm`` — the synchronous protocol's churn claim at scale.
  Every join broadcasts an inquiry to all n processes and waits 3δ, so
  the sync handlers, the uniform fan-out sweep and the scheduler carry
  the cost; reads are local.
* ``quorum_lossy`` — the same register reached through majority
  quorums.  A loss fault on every message forces the per-recipient,
  fault-gated delivery path that ``join_storm`` never takes, and read
  and write latencies genuinely vary.
* ``hot_shard_reads`` — a read-dominated, multi-key load on a
  Zipf-skewed sharded cluster.  Reads are local, so the cost moves to
  reader selection, keyed join adoption, the checkers and plan
  building; the network does little.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    DynamicSystem,
    EventuallySynchronousDelay,
    FaultPlan,
    LossFault,
    SystemConfig,
    eventually_synchronous_churn_bound,
)
from repro.churn.model import sharded_synchronous_churn_bound
from repro.cluster.config import ClusterConfig
from repro.cluster.system import ClusterSystem
from repro.workloads import WorkloadDriver, periodic_writes, poisson_reads, read_heavy_plan
from repro.workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from repro.workloads.generators import assign_keys

#: The delay bound of every workload; latencies are reported in units of it.
DELTA = 5.0


@dataclass
class Built:
    """One constructed workload, ready to warm up and run.

    ``warm`` is the simulated instant timing starts at; the plan covers
    ``[warm, horizon - grace]`` so every planned operation has its full
    liveness grace before the horizon.
    """

    system: Any  # DynamicSystem or ClusterSystem
    driver: Any  # WorkloadDriver or ClusterWorkloadDriver
    planned: int
    warm: float
    horizon: float
    grace: float


#: A span recorder: ``span(name)`` is a context manager timing one step.
Span = Callable[[str], Any]


@dataclass(frozen=True)
class JoinStorm:
    n: int
    timed: float
    read_rate: float

    def build(self, seed: int, span: Span) -> Built:
        warm, grace = 8.0 * DELTA, 3.0 * DELTA
        horizon = warm + self.timed
        with span("runtime.build"):
            system = DynamicSystem(
                SystemConfig(n=self.n, delta=DELTA, protocol="sync", seed=seed, trace=False)
            )
        with span("churn.attach"):
            # 0.3x Lemma 2's threshold (1 - 1/n)/(3δ): joins must keep completing.
            rate = 0.3 * sharded_synchronous_churn_bound(DELTA, self.n)
            system.attach_churn(rate=rate, min_stay=3.0 * DELTA)
        with span("workloads.plan"):
            # Writes 1.5δ apart: at least 11 in the window, so the write
            # tail is defined; a sync write takes δ, so none is refused.
            plan = read_heavy_plan(
                start=warm,
                end=horizon - grace,
                write_period=1.5 * DELTA,
                read_rate=self.read_rate,
                rng=system.rng.stream("perfbench.plan"),
            )
            driver = WorkloadDriver(system)
            driver.install(plan)
        return Built(system, driver, len(plan), warm, horizon, grace)


@dataclass(frozen=True)
class QuorumLossy:
    n: int
    timed: float
    read_rate: float

    def build(self, seed: int, span: Span) -> Built:
        # GST falls inside the warm-up, so timed operations all run
        # post-GST; the grace covers a quorum operation that loses
        # replies and waits for stragglers.
        warm, grace = 6.0 * DELTA, 6.0 * DELTA
        horizon = warm + self.timed
        with span("runtime.build"):
            system = DynamicSystem(
                SystemConfig(
                    n=self.n,
                    delta=DELTA,
                    protocol="es",
                    seed=seed,
                    trace=False,
                    delay=EventuallySynchronousDelay(
                        gst=2.0 * DELTA, delta=DELTA, pre_gst_max=4.0 * DELTA
                    ),
                    faults=FaultPlan.of(LossFault(probability=0.05), name="loss5"),
                )
            )
        with span("churn.attach"):
            # Half the ES bound 1/(3δn); the timed window is long enough
            # for at least 11 joins, so the join tail is defined, and for
            # enough reads overlapping writes (the slow ones) that the
            # read tail is steady from seed to seed.
            rate = 0.5 * eventually_synchronous_churn_bound(DELTA, self.n)
            system.attach_churn(rate=rate, min_stay=3.0 * DELTA)
        with span("workloads.plan"):
            end = horizon - grace
            # Writes 4δ apart: wider than the ~2.3δ ES write, so the
            # driver never refuses one for a pending predecessor.
            period = 4.0 * DELTA
            plan = periodic_writes(warm + period / 2, period, int((end - warm) // period))
            plan += poisson_reads(warm, end, self.read_rate, system.rng.stream("perfbench.plan"))
            plan.sort(key=lambda op: op.time)
            driver = WorkloadDriver(system)
            driver.install(plan)
        return Built(system, driver, len(plan), warm, horizon, grace)


@dataclass(frozen=True)
class HotShardReads:
    n: int
    timed: float
    read_rate: float

    def build(self, seed: int, span: Span) -> Built:
        warm, grace = 8.0 * DELTA, 3.0 * DELTA
        horizon = warm + self.timed
        with span("runtime.build"):
            cluster = ClusterSystem(
                ClusterConfig(shards=4, keys=64, n=self.n, delta=DELTA, protocol="sync", seed=seed)
            )
        with span("churn.attach"):
            cluster.attach_churn(rate=0.002, min_stay=3.0 * DELTA)
        with span("workloads.plan"):
            # Writes 2δ apart: a sync write takes δ, so two writes to one
            # key never overlap and the driver refuses none.
            plan = read_heavy_plan(
                start=warm,
                end=horizon - grace,
                write_period=2.0 * DELTA,
                read_rate=self.read_rate,
                rng=cluster.rng.stream("perfbench.plan"),
            )
            picker = shard_skewed_key_picker(
                cluster, cluster.rng.stream("perfbench.keys"), distribution="zipf"
            )
            plan = assign_keys(plan, picker)
            driver = ClusterWorkloadDriver(cluster)
            driver.install(plan)
        return Built(cluster, driver, len(plan), warm, horizon, grace)


#: name -> {"full": shape, "tiny": shape}
WORKLOADS: dict[str, dict[str, Any]] = {
    "join_storm": {
        "full": JoinStorm(n=600, timed=105.0, read_rate=10.0),
        "tiny": JoinStorm(n=30, timed=105.0, read_rate=1.0),
    },
    "quorum_lossy": {
        "full": QuorumLossy(n=200, timed=1000.0, read_rate=1.2),
        "tiny": QuorumLossy(n=15, timed=400.0, read_rate=0.1),
    },
    "hot_shard_reads": {
        "full": HotShardReads(n=800, timed=200.0, read_rate=150.0),
        "tiny": HotShardReads(n=40, timed=130.0, read_rate=2.0),
    },
}
