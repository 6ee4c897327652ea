"""Unit tests for the membership registry and presence records."""

import random

import pytest

from repro.sim.errors import ProcessError, UnknownProcessError
from repro.sim.membership import Membership, PresenceRecord
from repro.sim.process import SimProcess


def make_process(pid, engine):
    return SimProcess(pid, engine)


class TestPresenceRecord:
    def test_present_interval(self):
        record = PresenceRecord(pid="p", entered_at=2.0, left_at=8.0)
        assert not record.present_at(1.9)
        assert record.present_at(2.0)
        assert record.present_at(7.9)
        assert not record.present_at(8.0)

    def test_present_forever_without_leave(self):
        record = PresenceRecord(pid="p", entered_at=2.0)
        assert record.present_at(1e9)
        assert record.present_now

    def test_active_interval(self):
        record = PresenceRecord(pid="p", entered_at=0.0, activated_at=3.0, left_at=9.0)
        assert not record.active_at(2.9)
        assert record.active_at(3.0)
        assert record.active_at(8.9)
        assert not record.active_at(9.0)

    def test_never_activated_is_never_active(self):
        record = PresenceRecord(pid="p", entered_at=0.0)
        assert not record.active_at(100.0)

    def test_active_throughout_window(self):
        record = PresenceRecord(pid="p", entered_at=0.0, activated_at=3.0, left_at=20.0)
        assert record.active_throughout(3.0, 19.0)
        assert not record.active_throughout(2.0, 10.0)  # activated too late
        assert not record.active_throughout(5.0, 20.0)  # leaves at window end
        assert record.active_throughout(5.0, 19.5)


class TestMembership:
    def test_enter_and_lookup(self, engine, membership):
        process = make_process("p1", engine)
        membership.enter(process)
        assert "p1" in membership
        assert membership.is_present("p1")
        assert membership.process("p1") is process
        assert len(membership) == 1

    def test_identity_reuse_forbidden(self, engine, membership):
        membership.enter(make_process("p1", engine))
        with pytest.raises(ProcessError):
            membership.enter(make_process("p1", engine))

    def test_unknown_pid_raises(self, membership):
        with pytest.raises(UnknownProcessError):
            membership.process("ghost")
        with pytest.raises(UnknownProcessError):
            membership.record("ghost")

    def test_leave_removes_from_present(self, engine, membership):
        membership.enter(make_process("p1", engine))
        membership.leave("p1", 5.0)
        assert not membership.is_present("p1")
        assert "p1" in membership  # the record survives
        assert len(membership) == 0

    def test_double_leave_rejected(self, engine, membership):
        membership.enter(make_process("p1", engine))
        membership.leave("p1", 5.0)
        with pytest.raises(ProcessError):
            membership.leave("p1", 6.0)

    def test_mark_active_after_leave_rejected(self, engine, membership):
        membership.enter(make_process("p1", engine))
        membership.leave("p1", 5.0)
        with pytest.raises(ProcessError):
            membership.mark_active("p1", 6.0)

    def test_active_processes_requires_mark(self, engine, membership):
        p1, p2 = make_process("p1", engine), make_process("p2", engine)
        membership.enter(p1)
        membership.enter(p2)
        p1.mark_active()
        membership.mark_active("p1", 0.0)
        actives = membership.active_processes()
        assert [p.pid for p in actives] == ["p1"]

    def test_counting_queries(self, engine, membership):
        for i, activate in enumerate([True, True, False]):
            process = make_process(f"p{i}", engine)
            membership.enter(process)
            if activate:
                process.mark_active()
                membership.mark_active(f"p{i}", 1.0)
        membership.leave("p0", 10.0)
        assert membership.active_count_at(5.0) == 2
        assert membership.active_count_at(10.0) == 1
        assert membership.active_throughout_count(1.0, 9.0) == 2
        assert membership.active_throughout_count(1.0, 10.0) == 1

    def test_iter_records_in_entry_order(self, engine, membership):
        for pid in ("a", "b", "c"):
            membership.enter(make_process(pid, engine))
        assert [r.pid for r in membership.iter_records()] == ["a", "b", "c"]


class TestActiveIndex:
    """The incremental active-set index must always equal the scan it
    replaced: the present processes whose mode is active, in entry
    order."""

    @staticmethod
    def assert_index_matches_scan(membership):
        expected = [p for p in membership.present_processes() if p.is_active]
        assert membership.active_processes() == expected
        assert membership.active_pids() == [p.pid for p in expected]
        assert membership.active_count() == len(expected)

    def test_scripted_lifecycle(self, engine, membership):
        processes = {f"p{i}": make_process(f"p{i}", engine) for i in range(4)}
        for process in processes.values():
            membership.enter(process)

        def activate(pid):
            processes[pid].mark_active()
            membership.mark_active(pid, 1.0)

        def leave(pid):
            processes[pid].depart()
            membership.leave(pid, 2.0)

        steps = [
            (activate, "p2", ["p2"]),
            (activate, "p0", ["p0", "p2"]),  # activation out of entry order
            (leave, "p1", ["p0", "p2"]),  # a listener leaves
            (leave, "p2", ["p0"]),  # an active process leaves
            (activate, "p3", ["p0", "p3"]),
        ]
        for action, pid, expected in steps:
            action(pid)
            self.assert_index_matches_scan(membership)
            assert membership.active_pids() == expected

    def test_active_pids_is_a_copy(self, engine, membership):
        process = make_process("a", engine)
        membership.enter(process)
        process.mark_active()
        membership.mark_active("a", 0.0)
        membership.active_pids().clear()
        assert membership.active_pids() == ["a"]

    def test_double_activation_rejected(self, engine, membership):
        membership.enter(make_process("a", engine))
        membership.mark_active("a", 0.0)
        with pytest.raises(ProcessError):
            membership.mark_active("a", 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_lifecycles_match_the_scan(self, engine, membership, seed):
        rng = random.Random(seed)
        listening, active = [], []
        for step in range(200):
            roll = rng.random()
            if roll < 0.35 or not (listening or active):
                process = make_process(f"p{step}", engine)
                membership.enter(process)
                listening.append(process)
            elif roll < 0.65 and listening:
                process = listening.pop(rng.randrange(len(listening)))
                process.mark_active()
                membership.mark_active(process.pid, float(step))
                active.append(process)
            else:
                pool = listening if (rng.random() < 0.3 and listening) else active
                if not pool:
                    pool = listening
                process = pool.pop(rng.randrange(len(pool)))
                process.depart()
                membership.leave(process.pid, float(step))
            self.assert_index_matches_scan(membership)
