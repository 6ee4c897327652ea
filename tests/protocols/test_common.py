"""Unit tests for the shared quorum-phase machinery.

Every protocol's reply/ack/sequence bookkeeping now lives in
``QuorumPhase``/``PhaseTracker``; these tests pin the contracts the
three protocols lean on (deterministic best-reply selection, in-place
reopening, lazily stamped thresholds, per-key request counters).
"""

import random

import pytest

from repro.protocols.common import (
    JoinResult,
    KeyedJoinResult,
    PhaseTracker,
    QuorumPhase,
    make_join_result,
)
from repro.core.register import RegisterSpace, key_names


class TestQuorumPhase:
    def test_timer_gated_phase_is_never_satisfied(self):
        phase = QuorumPhase()  # no threshold: closed by a clock
        phase.open()
        for who in ("a", "b", "c"):
            phase.offer(who, ((None, "v", 1),))
        assert phase.count == 3
        assert not phase.satisfied()

    def test_threshold_gates_satisfaction(self):
        phase = QuorumPhase(threshold=2)
        phase.open()
        phase.offer("a", ((None, "v", 1),))
        assert not phase.satisfied()
        phase.offer("b", ((None, "w", 2),))
        assert phase.satisfied()

    def test_reoffer_supersedes(self):
        phase = QuorumPhase(threshold=3)
        phase.open()
        phase.offer("a", ((None, "old", 1),))
        phase.offer("a", ((None, "new", 5),))
        assert phase.count == 1
        assert phase.best_by_key() == {None: ("new", 5)}

    def test_best_by_key_is_max_by_sequence_then_sender(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("b", ((None, "x", 3),))
        phase.offer("a", ((None, "y", 3),))  # tie on sn: sender id breaks it
        phase.offer("c", ((None, "z", 1),))
        assert phase.best_by_key() == {None: ("x", 3)}  # "b" > "a"

    def test_best_by_key_omits_unoffered_keys(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("a", (("k0", "v", 7),))
        assert phase.best_by_key() == {"k0": ("v", 7)}

    def test_batched_entries_select_per_key(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("a", (("k0", "v0", 2), ("k1", "w0", 9)))
        phase.offer("b", (("k0", "v1", 5), ("k1", "w1", 3)))
        assert phase.best_by_key() == {"k0": ("v1", 5), "k1": ("w0", 9)}

    def test_open_resets_in_place_and_flags_active(self):
        phase = QuorumPhase(threshold=1)
        phase.open()
        phase.offer("a", ((None, "v", 1),))
        assert phase.active and phase.satisfied()
        phase.open()  # the next round: same object, clean slate
        assert phase.active
        assert phase.count == 0 and not phase.satisfied()
        phase.settle()
        assert not phase.active

    def test_acks_count_without_payload(self):
        phase = QuorumPhase(threshold=2)
        phase.open()
        phase.offer_ack("a")
        phase.offer_ack("b")
        assert phase.satisfied()
        assert phase.best_by_key() == {}  # acks carry no entries


class TestBestByKey:
    """``best_by_key`` is one pass; it must pick exactly what a per-key
    ``max`` over ``(sequence, sender, value)`` picks."""

    @staticmethod
    def brute_force(offers, bulk):
        candidates = [
            (sequence, sender, value, key)
            for sender, entries in offers.items()
            for key, value, sequence in entries
        ] + [(sequence, "", value, key) for key, value, sequence in bulk]
        best = {}
        for key in {candidate[3] for candidate in candidates}:
            sequence, _, value, _ = max(c for c in candidates if c[3] == key)
            best[key] = (value, sequence)
        return best

    def test_sequence_tie_broken_by_sender(self):
        phase = QuorumPhase().open()
        phase.offer("a", (("k0", "from-a", 4),))
        phase.offer("c", (("k0", "from-c", 4),))
        phase.offer("b", (("k0", "from-b", 4),))
        assert phase.best_by_key() == {"k0": ("from-c", 4)}

    def test_reoffer_supersedes_a_higher_sequence(self):
        phase = QuorumPhase().open()
        phase.offer("a", (("k0", "retracted", 9),))
        phase.offer("b", (("k0", "kept", 2),))
        phase.offer("a", (("k0", "again", 1),))
        assert phase.best_by_key() == {"k0": ("kept", 2)}

    def test_bulk_entries_compete_with_the_empty_sender(self):
        phase = QuorumPhase().open()
        phase.offer("p1", (("k0", "named", 3), ("k1", "named", 1)))
        phase.record_bulk(10, (("k0", "bulk", 3), ("k1", "bulk", 2)))
        assert phase.best_by_key() == {"k0": ("named", 3), "k1": ("bulk", 2)}

    @pytest.mark.parametrize("seed", range(25))
    def test_random_rounds_match_per_key_max(self, seed):
        rng = random.Random(seed)
        keys = [None, "k0", "k1", "k2", "k3"]
        phase = QuorumPhase().open()
        offers = {}
        bulk = []
        for _ in range(rng.randrange(1, 40)):
            if rng.random() < 0.15:
                entries = tuple(
                    (key, f"b{rng.randrange(3)}", rng.randrange(5))
                    for key in rng.sample(keys, rng.randrange(1, 3))
                )
                phase.record_bulk(1, entries)
                bulk.extend(entries)
                continue
            sender = f"p{rng.randrange(12)}"
            # Each sender offers some keys only, and a later offer by
            # the same sender supersedes its earlier one.
            entries = tuple(
                (key, f"{sender}-{sequence}", sequence)
                for key in rng.sample(keys, rng.randrange(len(keys) + 1))
                for sequence in (rng.randrange(5),)
            )
            phase.offer(sender, entries)
            offers[sender] = entries
        assert phase.best_by_key() == self.brute_force(offers, bulk)


class TestPhaseTracker:
    def test_phase_per_key_is_stable(self):
        tracker = PhaseTracker(threshold=2)
        assert tracker.phase("k0") is tracker.phase("k0")
        assert tracker.phase("k0") is not tracker.phase("k1")

    def test_request_counters_are_per_key(self):
        tracker = PhaseTracker()
        assert tracker.current_request("k0") == 0  # request 0 = the join
        assert tracker.next_request("k0") == 1
        assert tracker.next_request("k0") == 2
        assert tracker.current_request("k0") == 2
        assert tracker.current_request("k1") == 0  # untouched

    def test_open_restamps_threshold(self):
        """ABD's universe (hence quorum) is known only lazily: a phase
        created early by a stray ack must still gate correctly."""
        tracker = PhaseTracker()  # threshold unknown yet
        early = tracker.phase("k0")
        assert early.threshold is None
        tracker.threshold = 3
        opened = tracker.open("k0")
        assert opened is early
        assert opened.threshold == 3

    def test_reading_keys_lists_open_phases_in_order(self):
        tracker = PhaseTracker(threshold=1)
        assert tracker.reading_keys() == []
        tracker.open("k1")
        tracker.open("k0")
        tracker.open(None)
        assert tracker.reading_keys() == [None, "k0", "k1"]
        tracker.phase("k1").settle()
        assert tracker.reading_keys() == [None, "k0"]


class TestJoinResults:
    def test_single_key_space_yields_classic_join_result(self):
        space = RegisterSpace(key_names(1))
        space.install_all("v0", 0)
        result = make_join_result(space)
        assert isinstance(result, JoinResult)
        assert (result.value, result.sequence, result.ok) == ("v0", 0, "ok")

    def test_multi_key_space_yields_keyed_join_result(self):
        space = RegisterSpace(key_names(3))
        space.install_all("v0", 0)
        space.install("k2", "hot", 7)
        result = make_join_result(space)
        assert isinstance(result, KeyedJoinResult)
        assert result.ok == "ok"
        assert result.value == "v0"  # default key's adoption, for old tooling
        assert result.for_key("k2") == JoinResult("hot", 7)
        assert result.for_key("k0") == JoinResult("v0", 0)
        with pytest.raises(KeyError):
            result.for_key("k9")


class TestRecordMany:
    """The batch-dispatch plane's aggregated quorum accounting."""

    def test_record_many_equals_repeated_offers(self):
        batched = QuorumPhase(threshold=3).open()
        looped = QuorumPhase(threshold=3).open()
        offers = [
            ("a", ((None, "v1", 1),)),
            ("b", ((None, "v2", 2),)),
            ("c", (("k0", "x", 5), ("k1", "y", 6))),
        ]
        batched.record_many(offers)
        for sender, entries in offers:
            looped.offer(sender, entries)
        assert batched.count == looped.count == 3
        assert batched.satisfied() and looped.satisfied()
        assert batched.senders() == looped.senders()
        assert batched.best_by_key() == looped.best_by_key()

    def test_later_duplicates_supersede(self):
        phase = QuorumPhase(threshold=2).open()
        phase.record_many(
            [
                ("a", ((None, "stale", 1),)),
                ("a", ((None, "fresh", 9),)),
            ]
        )
        assert phase.count == 1  # one sender, superseded in place
        assert phase.best_by_key() == {None: ("fresh", 9)}

    def test_empty_batch_is_a_no_op(self):
        phase = QuorumPhase(threshold=1).open()
        phase.record_many([])
        assert phase.count == 0
        assert not phase.satisfied()

    def test_tracker_record_many_lands_in_the_keyed_phase(self):
        tracker = PhaseTracker(threshold=2)
        tracker.open("k0")
        tracker.record_many("k0", [("a", (("k0", "v", 3),)), ("b", ())])
        assert tracker.phase("k0").satisfied()
        assert tracker.phase("k0").best_by_key() == {"k0": ("v", 3)}
        assert tracker.phase("k1").count == 0  # other keys untouched
