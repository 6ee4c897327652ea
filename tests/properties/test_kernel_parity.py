"""Batched vs per-event delivery must be observably byte-identical.

The batched kernel (``batch_delivery=True``, the default) schedules one
heap entry per distinct arrival instant carrying the whole destination
vector; the legacy kernel schedules one ``Event`` + ``Message`` per
recipient.  The contract of the refactor is that the two are
*indistinguishable* from outside the scheduler: same operation digest,
same trace record sequence, same delivery/drop/fault counters — across
every protocol, under churn, and under fault plans.

These tests drive the identical workload through both kernels and
compare the full observable surface.  Any divergence here means the
batching changed semantics, not just speed — a hard failure.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import operation_digest
from repro.faults.plan import (
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem

#: The fault plans of the grid (``None`` = fault-free).  Loss, spike
#: and defer act only at send time (the on-transmit gate), so they keep
#: the fast fire arms; the drop partition severs at delivery time too
#: and forces the checked arm.
FAULT_PLANS = {
    "none": None,
    "loss": FaultPlan.of(
        LossFault(probability=0.3, start=10.0, end=60.0), name="loss"
    ),
    "partition": FaultPlan.of(
        PartitionFault(
            start=20.0, end=24.0, group_a=frozenset({"p0001", "p0002"})
        ),
        name="partition",
    ),
    "defer": FaultPlan.of(
        PartitionFault(
            start=11.0,
            end=15.0,
            group_a=frozenset({"p0003", "p0004"}),
            mode="defer",
        ),
        name="defer",
    ),
    "spike": FaultPlan.of(
        DelaySpikeFault(start=12.0, end=30.0, factor=1.5, extra=0.5),
        name="spike",
    ),
}

#: The plans whose faults all act at send time.
SEND_TIME_PLANS = ["defer", "loss", "spike"]
PROTOCOLS = ["sync", "es", "abd"]


def _drive(
    batch: bool,
    *,
    protocol: str = "sync",
    seed: int = 11,
    churn_rate: float = 0.0,
    fault_key: str = "none",
    trace: bool = False,
    n: int = 12,
    batch_dispatch: bool = True,
    queue: str = "heap",
) -> DynamicSystem:
    """One fixed workload through the chosen kernel; returns the system
    still open (callers pick their observation surface)."""
    system = DynamicSystem(
        SystemConfig(
            n=n,
            delta=5.0,
            protocol=protocol,
            seed=seed,
            trace=trace,
            faults=FAULT_PLANS[fault_key],
            batch_delivery=batch,
            batch_dispatch=batch_dispatch,
            queue=queue,
        )
    )
    if churn_rate:
        system.attach_churn(rate=churn_rate, min_stay=12.0)
    for _ in range(4):
        system.write()
        system.run_for(8.0)
        for pid in system.active_pids()[:3]:
            system.read(pid)
        system.run_for(4.0)
    return system


def _surface(system: DynamicSystem) -> dict:
    """Everything an outside observer can see, in one comparable dict."""
    network = system.network
    return {
        "digest": operation_digest(system.close()),
        "sent": network.sent_count,
        "delivered": network.delivered_count,
        "dropped": network.dropped_count,
        "faulted": network.faulted_count,
        "fired": system.engine.fired_count,
        "now": system.engine.now,
        "present": system.present_count(),
        "injector": (
            system.faults.counters() if system.faults is not None else None
        ),
    }


class TestKernelParityGrid:
    """The protocol × churn × fault-plan grid, both kernels."""

    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    @pytest.mark.parametrize("churn_rate", [0.0, 0.08])
    def test_protocols_under_churn(self, protocol, churn_rate):
        batched = _surface(
            _drive(True, protocol=protocol, churn_rate=churn_rate)
        )
        legacy = _surface(
            _drive(False, protocol=protocol, churn_rate=churn_rate)
        )
        assert batched == legacy

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("fault_key", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("churn_rate", [0.0, 0.08])
    def test_fault_plans_under_churn(self, fault_key, churn_rate, protocol):
        batched = _surface(
            _drive(
                True,
                protocol=protocol,
                fault_key=fault_key,
                churn_rate=churn_rate,
            )
        )
        legacy = _surface(
            _drive(
                False,
                protocol=protocol,
                fault_key=fault_key,
                churn_rate=churn_rate,
            )
        )
        assert batched == legacy

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_seed_sweep_with_churn_and_loss(self, seed):
        batched = _surface(
            _drive(True, seed=seed, churn_rate=0.1, fault_key="loss")
        )
        legacy = _surface(
            _drive(False, seed=seed, churn_rate=0.1, fault_key="loss")
        )
        assert batched == legacy


class TestDispatchParityGrid:
    """The PR 9 axis: wave/batch dispatch vs per-event handler dispatch.

    ``batch_dispatch=True`` (the default) routes deliveries through the
    wave-handler plane — aggregated same-payload bodies, inline reply
    pushes, cached replies; ``False`` keeps the per-delivery
    ``on_<type>`` dispatch.  Both must be byte-identical to each other
    AND to the PR 8 batched kernel and the legacy per-event kernel:
    every (batch_delivery, batch_dispatch) combination is one observably
    identical machine.
    """

    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    @pytest.mark.parametrize("churn_rate", [0.0, 0.08])
    def test_protocols_under_churn(self, protocol, churn_rate):
        surfaces = [
            _surface(
                _drive(
                    batch,
                    protocol=protocol,
                    churn_rate=churn_rate,
                    batch_dispatch=dispatch,
                )
            )
            for batch in (True, False)
            for dispatch in (True, False)
        ]
        assert surfaces[0] == surfaces[1] == surfaces[2] == surfaces[3]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("fault_key", sorted(FAULT_PLANS))
    def test_fault_plans(self, fault_key, protocol):
        waved = _surface(
            _drive(
                True, protocol=protocol, fault_key=fault_key, churn_rate=0.08,
                batch_dispatch=True,
            )
        )
        plain = _surface(
            _drive(
                True, protocol=protocol, fault_key=fault_key, churn_rate=0.08,
                batch_dispatch=False,
            )
        )
        assert waved == plain

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("protocol", ["sync", "es"])
    def test_seed_sweep_with_churn(self, seed, protocol):
        waved = _surface(
            _drive(
                True,
                protocol=protocol,
                seed=seed,
                churn_rate=0.1,
                batch_dispatch=True,
            )
        )
        plain = _surface(
            _drive(
                True,
                protocol=protocol,
                seed=seed,
                churn_rate=0.1,
                batch_dispatch=False,
            )
        )
        assert waved == plain


class TestQueueParityGrid:
    """The PR 10 axis: calendar scheduler vs the tuple heap.

    ``queue="calendar"`` swaps the kernel's event queue for the
    array-backed calendar (:class:`~repro.sim.engine.CalendarScheduler`)
    — per-epoch append-only buckets, lazily sorted, with a small
    overflow heap for pushes into the active epoch.  The contract is
    the strongest in the file: the calendar must be *byte-identical* to
    the heap on every observable surface, across protocols, churn,
    fault plans, and every (batch_delivery, batch_dispatch) kernel
    combination — same-instant ordering included (priority, then
    sequence, exactly the tuple order the heap pops).
    """

    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    @pytest.mark.parametrize("churn_rate", [0.0, 0.08])
    def test_protocols_under_churn(self, protocol, churn_rate):
        heap = _surface(
            _drive(True, protocol=protocol, churn_rate=churn_rate)
        )
        calendar = _surface(
            _drive(
                True,
                protocol=protocol,
                churn_rate=churn_rate,
                queue="calendar",
            )
        )
        assert heap == calendar

    @pytest.mark.parametrize("fault_key", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("churn_rate", [0.0, 0.08])
    def test_fault_plans_under_churn(self, fault_key, churn_rate):
        heap = _surface(
            _drive(True, fault_key=fault_key, churn_rate=churn_rate)
        )
        calendar = _surface(
            _drive(
                True,
                fault_key=fault_key,
                churn_rate=churn_rate,
                queue="calendar",
            )
        )
        assert heap == calendar

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("dispatch", [True, False])
    def test_kernel_combinations(self, batch, dispatch):
        """Every delivery/dispatch kernel rides both queues identically."""
        heap = _surface(
            _drive(batch, churn_rate=0.08, batch_dispatch=dispatch)
        )
        calendar = _surface(
            _drive(
                batch,
                churn_rate=0.08,
                batch_dispatch=dispatch,
                queue="calendar",
            )
        )
        assert heap == calendar

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_seed_sweep_with_churn_and_loss(self, seed):
        heap = _surface(
            _drive(True, seed=seed, churn_rate=0.1, fault_key="loss")
        )
        calendar = _surface(
            _drive(
                True,
                seed=seed,
                churn_rate=0.1,
                fault_key="loss",
                queue="calendar",
            )
        )
        assert heap == calendar

    def test_trace_records_identical(self):
        heap = _drive(True, churn_rate=0.08, fault_key="loss", trace=True)
        calendar = _drive(
            True,
            churn_rate=0.08,
            fault_key="loss",
            trace=True,
            queue="calendar",
        )
        assert _normalized_records(heap) == _normalized_records(calendar)
        assert operation_digest(heap.close()) == operation_digest(
            calendar.close()
        )


def _normalized_records(system: DynamicSystem) -> list[tuple]:
    """Trace records with broadcast ids relabelled by first appearance.

    Broadcast ids come from a process-global counter, so two systems in
    one test process see different absolute values; the *order* of
    allocation is part of the contract, the offset is not.
    """
    relabel: dict[int, int] = {}
    out = []
    for record in system.trace:
        details = dict(record.details)
        raw = details.get("broadcast_id")
        if raw is not None:
            details["broadcast_id"] = relabel.setdefault(raw, len(relabel))
        out.append((record.time, record.kind, record.process, sorted(details.items())))
    return out


class TestTraceParity:
    """With tracing on, the *entire record sequence* must match.

    Tracing also forces the network off its fast path, so this pins the
    checked arm of the batched kernel against the legacy kernel —
    record by record, in order, timestamps and details included.
    """

    @pytest.mark.parametrize("fault_key", ["none", "loss"])
    def test_trace_records_identical(self, fault_key):
        batched = _drive(
            True, churn_rate=0.08, fault_key=fault_key, trace=True
        )
        legacy = _drive(
            False, churn_rate=0.08, fault_key=fault_key, trace=True
        )
        assert _normalized_records(batched) == _normalized_records(legacy)
        assert operation_digest(batched.close()) == operation_digest(
            legacy.close()
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("fault_key", SEND_TIME_PLANS)
    def test_fast_arm_matches_checked_arm(self, fault_key, protocol):
        """A send-time-only plan keeps the fast fire arms; tracing
        forces the checked arm.  Both must see the same run."""
        fast = _drive(
            True, protocol=protocol, churn_rate=0.08, fault_key=fault_key
        )
        checked = _drive(
            True, protocol=protocol, churn_rate=0.08, fault_key=fault_key,
            trace=True,
        )
        assert fast.network._fast and not checked.network._fast
        surface = _surface(fast)
        assert any(surface["injector"].values())  # the plan did act
        assert surface == _surface(checked)

    @pytest.mark.parametrize("protocol", ["sync", "es"])
    def test_trace_records_identical_across_dispatch(self, protocol):
        waved = _drive(
            True, protocol=protocol, churn_rate=0.08, trace=True,
            batch_dispatch=True,
        )
        plain = _drive(
            True, protocol=protocol, churn_rate=0.08, trace=True,
            batch_dispatch=False,
        )
        assert _normalized_records(waved) == _normalized_records(plain)
        assert operation_digest(waved.close()) == operation_digest(
            plain.close()
        )


class TestKernelParityProperty:
    """Hypothesis sweeps the seed/churn space the grids cannot cover."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        churn_rate=st.floats(min_value=0.0, max_value=0.12),
        dispatch=st.booleans(),
        queue=st.sampled_from(["heap", "calendar"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_seed_any_churn(self, seed, churn_rate, dispatch, queue):
        batched = _surface(
            _drive(
                True,
                seed=seed,
                churn_rate=churn_rate,
                n=10,
                batch_dispatch=dispatch,
                queue=queue,
            )
        )
        legacy = _surface(
            _drive(
                False,
                seed=seed,
                churn_rate=churn_rate,
                n=10,
                batch_dispatch=not dispatch,
            )
        )
        assert batched == legacy
