"""Unit tests for the mesoscale plane (repro.runtime.mesoscale).

E18 holds the plane to the exact kernel end to end; these tests pin the
individual mechanisms — mode dispatch, the bulk quorum entry point, the
cohort FIFO's conservation and eviction order, and the analytic join's
agreement with the protocol's timing — so a regression is localized
before the cross-check notices it.
"""

import pytest

from repro.churn.model import ConstantChurn
from repro.experiments.e17_population_scaling import (
    population_churn_threshold,
)
from repro.protocols.common import QuorumPhase
from repro.runtime.config import SystemConfig
from repro.runtime.mesoscale import (
    AggregatePopulation,
    MesoscaleSystem,
    make_system,
)
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ConfigError


def meso_config(**overrides):
    defaults = dict(
        n=1_000, delta=5.0, protocol="sync", seed=7, trace=False,
        mode="mesoscale",
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestModeDispatch:
    def test_make_system_dispatches_on_mode(self):
        assert isinstance(make_system(meso_config()), MesoscaleSystem)
        exact = make_system(SystemConfig(n=20, protocol="sync"))
        assert type(exact) is DynamicSystem

    def test_dynamic_system_refuses_mesoscale_config(self):
        with pytest.raises(ConfigError, match="MesoscaleSystem"):
            DynamicSystem(meso_config())

    def test_mesoscale_system_refuses_exact_config(self):
        with pytest.raises(ConfigError, match="mesoscale"):
            MesoscaleSystem(SystemConfig(n=20, protocol="sync"))

    def test_envelope_is_enforced_by_config(self):
        with pytest.raises(ConfigError):
            meso_config(protocol="abd")
        with pytest.raises(ConfigError):
            meso_config(entrant_policy="all")
        with pytest.raises(ConfigError):
            meso_config(tracers=1)
        with pytest.raises(ConfigError):
            meso_config(n=16, tracers=16)


class TestRecordBulk:
    def test_bulk_count_feeds_quorum(self):
        phase = QuorumPhase(threshold=10).open()
        phase.offer("p3", ((None, "v", 2),))
        assert not phase.satisfied()
        phase.record_bulk(9)
        assert phase.count == 10
        assert phase.satisfied()

    def test_bulk_entry_competes_in_adoption(self):
        phase = QuorumPhase().open()
        phase.offer("p3", ((None, "old", 1),))
        phase.record_bulk(50, ((None, "new", 2),))
        assert phase.best_by_key().get(None) == ("new", 2)

    def test_named_sender_wins_sequence_tie_with_bulk(self):
        # The anonymous bulk entry carries sender "", which sorts below
        # every real pid — adoption stays deterministic on ties.
        phase = QuorumPhase().open()
        phase.offer("p3", ((None, "tracer-copy", 2),))
        phase.record_bulk(50, ((None, "bulk-copy", 2),))
        assert phase.best_by_key().get(None) == ("tracer-copy", 2)

    def test_open_resets_bulk_state(self):
        phase = QuorumPhase(threshold=5).open()
        phase.record_bulk(5, ((None, "v", 1),))
        phase.open()
        assert phase.count == 0
        assert phase.best_by_key().get(None) is None


class TestCohortFifo:
    def make_aggregate(self, size=100):
        system = make_system(meso_config(n=size + 16))
        return system, system.aggregate

    def test_seed_population_and_counts(self):
        system, agg = self.make_aggregate(size=100)
        assert agg.present_count == 100
        assert agg.active_count == 100
        assert system.present_count() == 116

    def test_eviction_is_fifo_and_conserves(self):
        system, agg = self.make_aggregate(size=100)
        system.run_for(1.0)
        agg.spawn_cohort(10)
        assert agg.present_count == 110
        # Quota 100 drains exactly the (older) seed cohort.
        evicted, tracers = agg.evict(100, system.engine.now)
        assert (evicted, tracers) == (100, [])
        assert agg.present_count == 10
        assert agg.active_count == 0  # survivors are the joiners

    def test_joining_members_are_evicted_before_active(self):
        system, agg = self.make_aggregate(size=100)
        system.run_for(1.0)
        agg.spawn_cohort(10)
        # Drain the seeds, activate nobody, then put a younger cohort
        # behind the joiners: intra-cohort order is joining-first.
        agg.evict(100, system.engine.now)
        system.run_for(20.0)  # the cohort's join window completes
        assert agg.active_count == 10

    def test_join_counts_respect_eligibility_cutoff(self):
        system, agg = self.make_aggregate(size=100)
        system.run_for(1.0)
        agg.spawn_cohort(10)
        system.run_for(20.0)
        joins, eligible, done = agg.join_counts(cutoff=system.engine.now)
        assert (joins, eligible, done) == (10, 10, 10)
        joins, eligible, done = agg.join_counts(cutoff=0.5)
        assert (joins, eligible) == (10, 0)


class TestMesoscaleRuns:
    def test_quiescent_run_is_conservative(self):
        system = make_system(meso_config(n=500))
        system.write()
        system.run_for(20.0)
        agg = system.aggregate
        assert system.present_count() == 500
        # Optimistic adoption: the aggregate holds the tracer's write.
        assert agg.sequence == 1
        history = system.close()
        assert system.check_safety().violation_count == 0
        assert history.joins() == []

    def test_churn_quota_parity_with_constant_churn(self):
        rate = 0.004
        system = make_system(meso_config(n=1_000))
        system.attach_churn(rate=rate, victim_policy="oldest_first")
        system.run_for(10.0)
        expected = ConstantChurn(rate=rate, n=1_000, period=1.0)
        quota = sum(expected.refreshes_for_next_tick() for _ in range(10))
        stats = system.join_stats()
        assert stats["joins"] == quota
        assert system.present_count() == 1_000

    def test_above_threshold_tracers_starve_too(self):
        n = 1_000
        cap = population_churn_threshold(n, 5.0)
        system = make_system(meso_config(n=n))
        system.attach_churn(rate=1.15 * cap, victim_policy="oldest_first")
        system.run_for(30.0)
        stats = system.join_stats()
        assert stats["eligible"] > 0
        assert stats["done_rate"] == 0.0
        # The tracer joiners (real, judged nodes) rode the same FIFO.
        tracer_joins = [
            j for j in system.history.joins()
            if j.invoke_time <= system.engine.now - 15.0
        ]
        assert tracer_joins and all(not j.done for j in tracer_joins)
        assert system.check_safety().violation_count == 0

    def test_attach_churn_guards(self):
        system = make_system(meso_config())
        with pytest.raises(ConfigError, match="oldest_first"):
            system.attach_churn(rate=0.001, victim_policy="uniform")
        with pytest.raises(ConfigError, match="constant"):
            system.attach_churn(rate=0.001, profile=object())
