"""Tests of the benchmark's own code, at tiny workload sizes."""

from __future__ import annotations

import cProfile
import json
from pathlib import Path

import pytest

from repro import DynamicSystem, FaultPlan, LossFault, SystemConfig
from repro.workloads import ReadOp, WorkloadDriver, WriteOp

from perfbench import compare, run
from perfbench.measure import Spans, run_built, run_rep, tail
from perfbench.workloads import DELTA, WORKLOADS, Built

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {row["name"]: row["unit"] for row in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_declared_metric_with_its_unit(workload):
    assert workload in {row["name"] for row in SPEC["workloads"]}
    reps = [run_rep(workload, 1, "tiny") for _ in range(2)]
    metrics = run.end_to_end(reps, import_s=0.1)
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] != 0 for m in metrics.values())

    profiler = cProfile.Profile()
    traced = run_rep(workload, 1, "tiny", profiler=profiler)
    layers = run.per_layer(reps[0], traced, profiler)
    assert {name: m["unit"] for name, m in layers.items()} == declared("per_layer")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_repeats_exactly_and_another_seed_differs(workload):
    first, second = (run_rep(workload, 7, "tiny") for _ in range(2))
    assert first.digest == second.digest
    assert first.counts == second.counts
    assert first.safe and first.failed == 0
    assert run_rep(workload, 8, "tiny").digest != first.digest


def test_failed_share_counts_one_refused_and_one_stuck_operation():
    # ES quorums, and from t = 10δ every message is lost: a read invoked
    # then never gathers its majority and is stuck past the grace.
    system = DynamicSystem(
        SystemConfig(
            n=5,
            delta=DELTA,
            protocol="es",
            seed=3,
            trace=False,
            faults=FaultPlan.of(LossFault(probability=1.0, start=10 * DELTA)),
        )
    )
    system.attach_churn(rate=0.0)
    plan = [
        WriteOp(time=0.2 * DELTA),
        WriteOp(time=0.4 * DELTA),  # refused: the first write is still pending
        ReadOp(time=5 * DELTA),
        ReadOp(time=12 * DELTA),  # stuck: no reply ever arrives
    ]
    driver = WorkloadDriver(system)
    driver.install(plan)
    built = Built(system, driver, len(plan), warm=0.0, horizon=30 * DELTA, grace=3 * DELTA)
    rep = run_built(built, Spans())
    assert rep.counts["refused"] == 1
    assert (rep.attempted, rep.failed) == (4, 2)
    assert rep.safe


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert tail(samples) == (90.0, 90.0, 100)
    with pytest.raises(ValueError):
        tail(samples[:10])


def test_a_rise_from_zero_regresses_without_dividing_by_zero():
    assert compare.verdict(0.0, 0.0, "lower", 0.1) == "ok"
    assert compare.verdict(0.0, 1e-9, "lower", None).startswith("REGRESSED")
    assert compare.verdict(1.0, 1.05, "lower", 0.1) == "ok"
    assert compare.verdict(1.0, 1.2, "lower", 0.1) == "REGRESSED"
    assert compare.verdict(100.0, 85.0, "higher", 0.1) == "REGRESSED"
    assert compare.verdict(2.0, 9.0, "lower", None) == ""
