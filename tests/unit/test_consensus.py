"""Unit tests for the Bullshark consensus engine over hand-built DAGs."""

import collections

import pytest

from repro.consensus import bullshark
from repro.faults.partition import NetworkDisturbanceFault
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from tests.conftest import build_round, drive_rounds, make_consensus, vid
from tests.doubles import OrderRecorder


class TestDirectCommit:
    def test_no_commit_before_votes_arrive(self, committee4):
        consensus = make_consensus(committee4)
        drive_rounds(consensus, committee4, rounds=2)
        assert consensus.commit_count == 0

    def test_anchor_commits_once_votes_arrive(self, committee4):
        consensus = make_consensus(committee4)
        order = OrderRecorder(consensus)
        drive_rounds(consensus, committee4, rounds=3)
        # Round 2's anchor (leader 0) has f+1 votes from round 3.
        assert consensus.commit_count == 1
        anchor = order.committed[0].anchor
        assert anchor.round == 2
        assert anchor.source == 0  # round-robin leader of round 2

    def test_commit_requires_validity_threshold_of_votes(self, committee4):
        consensus = make_consensus(committee4)
        dag = consensus.dag
        drive_rounds(consensus, committee4, rounds=2)
        # Only one round-3 vertex links to the anchor: f+1 = 2 needed.
        parent_map = {1: [0, 1, 2]}  # only validator 1 links to the anchor (0)
        build_round(dag, committee4, 3, sources=[1], parent_sources=parent_map)
        consensus.try_commit()
        assert consensus.commit_count == 0
        # A second vote arrives: the anchor commits.
        build_round(dag, committee4, 3, sources=[2], parent_sources={2: [0, 1, 3]})
        consensus.try_commit()
        assert consensus.commit_count == 1

    def test_votes_not_linking_to_anchor_do_not_count(self, committee4):
        consensus = make_consensus(committee4)
        dag = consensus.dag
        drive_rounds(consensus, committee4, rounds=2)
        # All round-3 vertices avoid the anchor (validator 0's round-2 vertex).
        parents = {source: [1, 2, 3] for source in range(4)}
        build_round(dag, committee4, 3, parent_sources=parents)
        consensus.try_commit()
        assert consensus.commit_count == 0

    def test_ordered_history_is_the_anchor_causal_history(self, committee4):
        consensus = make_consensus(committee4)
        order = OrderRecorder(consensus)
        drive_rounds(consensus, committee4, rounds=3)
        subdag = order.committed[0]
        rounds = [vertex.round for vertex in subdag.vertices]
        assert rounds == sorted(rounds)
        assert all(round_number <= 2 for round_number in rounds)
        # Genesis (4) + round 1 (4) + the anchor's own round-2 vertex at least.
        assert len(subdag.vertices) >= 9
        assert consensus.ordered_count == len(subdag.vertices)

    def test_subsequent_commits_do_not_reorder(self, committee4):
        consensus = make_consensus(committee4)
        order = OrderRecorder(consensus)
        drive_rounds(consensus, committee4, rounds=7)
        ordered = order.ids()
        assert len(ordered) == len(set(ordered))
        assert consensus.commit_count >= 3

    def test_commit_callbacks_fire(self, committee4):
        consensus = make_consensus(committee4)
        commits, ordered = [], []
        consensus.on_commit(commits.append)
        consensus.on_ordered(ordered.append)
        drive_rounds(consensus, committee4, rounds=3)
        assert len(commits) == 1
        assert len(ordered) == consensus.ordered_count

    def test_ordering_digest_tracks_sequence(self, committee4):
        consensus_a = make_consensus(committee4)
        consensus_b = make_consensus(committee4)
        drive_rounds(consensus_a, committee4, rounds=5)
        drive_rounds(consensus_b, committee4, rounds=5)
        assert consensus_a.ordering_digest == consensus_b.ordering_digest


class TestSkippedAnchors:
    def test_crashed_leader_is_skipped_and_ordered_later(self, committee10):
        consensus = make_consensus(committee10)
        order = OrderRecorder(consensus)
        dag = consensus.dag
        alive = [validator for validator in committee10.validators if validator != 0]
        # Validator 0 (leader of round 2) never produces vertices.
        for round_number in range(1, 6):
            for vertex in build_round(dag, committee10, round_number, sources=alive):
                consensus.process_vertex(vertex)
        # Round 2's anchor is missing; round 4's anchor (leader 1) commits.
        assert consensus.commit_count >= 1
        committed_rounds = [subdag.anchor_round for subdag in order.committed]
        assert 2 not in committed_rounds
        assert 4 in committed_rounds

    def test_skipped_rounds_reported_to_schedule_manager(self, committee10):
        consensus = make_consensus(committee10, dynamic=True, commits_per_schedule=100)
        dag = consensus.dag
        alive = [validator for validator in committee10.validators if validator != 0]
        skipped = []
        original = consensus.schedule_manager.on_anchor_skipped
        consensus.schedule_manager.on_anchor_skipped = lambda round_number: (
            skipped.append(round_number),
            original(round_number),
        )
        for round_number in range(1, 6):
            for vertex in build_round(dag, committee10, round_number, sources=alive):
                consensus.process_vertex(vertex)
        assert skipped == [2]

    def test_skipped_anchor_recovered_by_later_path(self, committee4):
        """An anchor without direct votes is still ordered when a later
        committed anchor reaches it through the DAG (indirect commit)."""
        consensus = make_consensus(committee4)
        order = OrderRecorder(consensus)
        dag = consensus.dag
        drive_rounds(consensus, committee4, rounds=2)
        # Round 3: nobody votes for the round-2 anchor (validator 0).
        build_round(dag, committee4, 3, parent_sources={source: [1, 2, 3] for source in range(4)})
        consensus.try_commit()
        assert consensus.commit_count == 0
        # Rounds 4 and 5 proceed normally; round 4's anchor (validator 1)
        # gathers direct votes and commits, and it has a path to the round-2
        # anchor through the full round-3 -> round-2 edges... round-3
        # vertices excluded vertex (2,0), so the round-2 anchor is only
        # reachable if some round-4+ vertex links back to it; with edges
        # only to the previous round it stays unreachable and must remain
        # uncommitted (skipped), while its transactions never re-appear.
        drive_rounds_from = 4
        for round_number in range(drive_rounds_from, 6):
            for vertex in build_round(dag, committee4, round_number):
                consensus.process_vertex(vertex)
        committed_rounds = [subdag.anchor_round for subdag in order.committed]
        assert 4 in committed_rounds
        assert 2 not in committed_rounds
        # The skipped anchor's vertex itself is never ordered.
        assert vid(2, 0) not in order.ids()
        assert vid(4, 1) in order.ids()


class TestIndirectCommit:
    def test_gap_of_uncommitted_anchors_is_ordered_in_round_order(self, committee4):
        """When votes for several consecutive anchors arrive late, the newest
        directly committed anchor orders all reachable earlier anchors."""
        consensus = make_consensus(committee4)
        dag = consensus.dag
        # Build rounds 1..6 into the DAG of a *separate* store first, then
        # feed the vote rounds late.  Simpler: grow the DAG fully but only
        # run the commit logic at the very end.
        drive_rounds_quietly(dag, committee4, rounds=7)
        committed = consensus.try_commit()
        committed_rounds = [subdag.anchor_round for subdag in committed]
        assert committed_rounds == sorted(committed_rounds)
        assert committed_rounds[0] == 2
        assert consensus.last_ordered_anchor_round >= 6

    def test_total_order_position_is_monotonic(self, committee4):
        consensus = make_consensus(committee4)
        order = OrderRecorder(consensus)
        drive_rounds(consensus, committee4, rounds=9)
        positions = [record.position for record in order.ordered]
        assert positions == list(range(len(positions)))


def drive_rounds_quietly(dag, committee, rounds):
    """Grow a DAG without running consensus (helper for late-commit tests)."""
    for round_number in range(1, rounds + 1):
        build_round(dag, committee, round_number)


class TestScheduleChangeInteraction:
    def test_dynamic_schedule_changes_during_commits(self, committee4):
        consensus = make_consensus(committee4, dynamic=True, commits_per_schedule=2)
        drive_rounds(consensus, committee4, rounds=12)
        manager = consensus.schedule_manager
        assert manager.epochs >= 2
        # Every schedule starts strictly after its predecessor.
        starts = [schedule.initial_round for schedule in manager.history]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_commit_sequence_identical_between_static_and_dynamic_when_all_honest(
        self, committee4
    ):
        """With equal reputation everywhere the dynamic schedule may swap
        slots, but the total order must remain a valid, duplicate-free
        linearization either way."""
        static = make_consensus(committee4, dynamic=False)
        dynamic = make_consensus(committee4, dynamic=True, commits_per_schedule=2)
        static_order, dynamic_order = OrderRecorder(static), OrderRecorder(dynamic)
        drive_rounds(static, committee4, rounds=10)
        drive_rounds(dynamic, committee4, rounds=10)
        static_ids = static_order.ids()
        dynamic_ids = dynamic_order.ids()
        assert len(static_ids) == len(set(static_ids))
        assert len(dynamic_ids) == len(set(dynamic_ids))

    def test_no_ordered_record_is_built_without_a_listener(self, committee4, monkeypatch):
        built = []
        record = bullshark.OrderedVertex
        monkeypatch.setattr(bullshark, "OrderedVertex", lambda **fields: built.append(fields) or record(**fields))
        quiet = make_consensus(committee4)
        drive_rounds(quiet, committee4, rounds=7)
        assert quiet.ordered_count > 0 and built == []
        heard = make_consensus(committee4)
        order = OrderRecorder(heard)
        drive_rounds(heard, committee4, rounds=7)
        assert len(built) == len(order.ordered) == heard.ordered_count == quiet.ordered_count

    def test_a_listener_changes_no_counter_or_digest(self, committee4):
        heard = make_consensus(committee4, dynamic=True, commits_per_schedule=2)
        unheard = make_consensus(committee4, dynamic=True, commits_per_schedule=2)
        order = OrderRecorder(heard)
        drive_rounds(heard, committee4, rounds=12)
        drive_rounds(unheard, committee4, rounds=12)
        assert unheard.ordered_count == len(order.ordered) > 0
        assert unheard.commit_count == len(order.committed) > 0
        assert (unheard.ordering_digest, unheard.ordering_checkpoints) == (heard.ordering_digest, heard.ordering_checkpoints)
        assert unheard.schedule_manager.history == heard.schedule_manager.history


class TestGarbageCollectionIntegration:
    def test_gc_after_commits_prunes_old_rounds(self, committee4):
        consensus = make_consensus(committee4)
        drive_rounds(consensus, committee4, rounds=20)
        removed = consensus.garbage_collect(keep_rounds=4)
        assert removed > 0
        assert consensus.dag.lowest_round > 0

    def test_commits_continue_after_gc(self, committee4):
        consensus = make_consensus(committee4)
        drive_rounds(consensus, committee4, rounds=12)
        consensus.garbage_collect(keep_rounds=2)
        before = consensus.commit_count
        drive_rounds_from = consensus.dag.highest_round() + 1
        for round_number in range(drive_rounds_from, drive_rounds_from + 4):
            for vertex in build_round(consensus.dag, committee4, round_number):
                consensus.process_vertex(vertex)
        assert consensus.commit_count > before


class TestCommitScanEntries:
    """Bullshark commits an anchor on f+1 stake of votes one round up, so an
    insertion enters the commit scan only when its anchor round's vote
    round already holds that much stake (or a schedule change left a
    rescan pending), not on every insertion."""

    @pytest.mark.parametrize("seed", [2, 2 + 1009])
    def test_a_lossy_run_enters_the_scan_about_once_per_commit(self, seed, monkeypatch):
        entries = collections.Counter()
        scan = bullshark.BullsharkConsensus._commit_scan

        def counted(engine, round_number):
            entries[engine.owner] += 1
            return scan(engine, round_number)

        monkeypatch.setattr(bullshark.BullsharkConsensus, "_commit_scan", counted)
        # The shape of the benchmark's lossy workload, small: committee 7
        # through a 3% loss window with jitter (parked vertices, fetches),
        # and a schedule change every two commits.
        runner = SimulationRunner(
            ExperimentConfig(
                committee_size=7,
                input_load_tps=100.0,
                duration=12.0,
                warmup=1.0,
                seed=seed,
                commits_per_schedule=2,
                extra_faults=(NetworkDisturbanceFault(jitter=0.02, loss_rate=0.03, start=2.0, end=8.0),),
            )
        )
        runner.run()
        assert runner.network.stats.loss_drops > 0
        assert max(node.dag.pending_peak for node in runner.nodes.values()) > 0
        for validator, node in runner.nodes.items():
            restarts = len(node.schedule_manager.change_records)
            assert node.commit_count > 10 and restarts > 0
            assert 0 < entries[validator] <= node.commit_count + restarts
