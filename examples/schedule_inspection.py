#!/usr/bin/env python3
"""Inspect HammerHead's reputation scores and schedule changes directly.

This example uses the library below the network layer: it grows a DAG by
hand (as each validator's local view would), runs the Bullshark commit
rule with a HammerHead schedule manager on top, and prints how reputation
scores evolve and how the leader schedule changes when some validators
stop voting.  It is the quickest way to understand the mechanism without
running a full simulation.

Run with::

    python examples/schedule_inspection.py
"""

from __future__ import annotations

from repro import (
    BullsharkConsensus,
    CommitCountPolicy,
    Committee,
    DagStore,
    HammerHeadScheduleManager,
    genesis_vertices,
    initial_schedule,
    make_vertex,
)


def build_round(dag, committee, round_number, participants):
    """Create one vertex per participant, referencing the previous round."""
    parents = [vertex.id for vertex in dag.vertices_at(round_number - 1)]
    vertices = []
    for source in participants:
        vertex = make_vertex(round_number, source, edges=parents)
        dag.add(vertex)
        vertices.append(vertex)
    return vertices


def main() -> None:
    committee = Committee.build(10)
    dag = DagStore(committee)
    schedule = initial_schedule(committee, seed=0, permute=False)
    manager = HammerHeadScheduleManager(
        committee,
        schedule,
        policy=CommitCountPolicy(4),      # change the schedule every 4 commits
        exclude_fraction=1.0 / 3.0,
    )
    consensus = BullsharkConsensus(owner=0, committee=committee, dag=dag, schedule_manager=manager)

    for vertex in genesis_vertices(committee):
        dag.add(vertex)

    # Validators 7, 8, 9 crash after round 6: they stop producing vertices
    # and therefore stop voting for leaders.
    crashed_after = 6
    crashed = {7, 8, 9}
    print("Initial schedule slots:", list(schedule.slots))
    print()

    for round_number in range(1, 41):
        if round_number <= crashed_after:
            participants = list(committee.validators)
        else:
            participants = [v for v in committee.validators if v not in crashed]
        for vertex in build_round(dag, committee, round_number, participants):
            consensus.process_vertex(vertex)

    print(f"Committed {consensus.commit_count} anchors over 40 rounds.")
    print(f"The schedule changed {len(manager.change_records)} times:")
    print()
    for record in manager.change_records:
        demoted = [
            validator
            for validator in committee.validators
            if manager.history[record.epoch].slots_of(validator) == 0
        ]
        print(
            f"  epoch {record.epoch:2d} (from round {record.new_initial_round:3d}): "
            f"scores={{{', '.join(f'{v}:{int(s)}' for v, s in sorted(record.scores.items()))}}} "
            f"-> validators without slots: {demoted}"
        )
    print()
    final = manager.active_schedule
    print("Final schedule slots:", list(final.slots))
    print(f"Crashed validators {sorted(crashed)} hold "
          f"{sum(final.slots_of(v) for v in crashed)} slots in the final schedule.")


if __name__ == "__main__":
    main()
