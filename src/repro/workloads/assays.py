"""Synthetic assay-graph generators for the scheduling experiments.

Generates the kinds of task graphs real protocols produce: independent
per-cell chains (trap -> moves -> sense -> release) with optional
pairwise merges (cell + reagent-bead assays) and incubations, with all
durations from the physical :class:`~repro.scheduling.taskgraph.DurationModel`.
"""

from __future__ import annotations

import numpy as np

from ..scheduling.taskgraph import AssayGraph, DurationModel, Operation, OpType


def cell_chain(graph, chain_id, duration_model, rng, min_moves=1, max_moves=4,
               sense_samples=1000):
    """Append one trap->move*->sense->release chain; returns its op ids."""
    ids = []
    trap = Operation(
        op_id=f"c{chain_id}-trap",
        op_type=OpType.TRAP,
        duration=duration_model.trap(),
    )
    graph.add(trap)
    ids.append(trap.op_id)
    n_moves = int(rng.integers(min_moves, max_moves + 1))
    previous = trap.op_id
    for move_index in range(n_moves):
        distance = int(rng.integers(5, 60))
        move = Operation(
            op_id=f"c{chain_id}-move{move_index}",
            op_type=OpType.MOVE,
            duration=duration_model.move(distance),
            payload={"distance": distance},
        )
        graph.add(move, after=[previous])
        ids.append(move.op_id)
        previous = move.op_id
    sense = Operation(
        op_id=f"c{chain_id}-sense",
        op_type=OpType.SENSE,
        duration=duration_model.sense(sense_samples),
        payload={"samples": sense_samples},
    )
    graph.add(sense, after=[previous])
    ids.append(sense.op_id)
    release = Operation(
        op_id=f"c{chain_id}-release",
        op_type=OpType.RELEASE,
        duration=duration_model.release(),
    )
    graph.add(release, after=[sense.op_id])
    ids.append(release.op_id)
    return ids


def random_assay(
    n_chains=16,
    merge_fraction=0.25,
    incubate_fraction=0.25,
    seed=0,
    duration_model=None,
    sense_samples=1000,
):
    """A random but well-formed assay graph.

    ``merge_fraction`` of adjacent chain pairs get a MERGE joining their
    sense stages (pairing assays); ``incubate_fraction`` of chains get
    an INCUBATE before sensing.  Deterministic for a given seed.
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    rng = np.random.default_rng(seed)
    duration_model = duration_model or DurationModel()
    graph = AssayGraph(name=f"random-assay-{seed}")
    chains = [
        cell_chain(graph, i, duration_model, rng, sense_samples=sense_samples)
        for i in range(n_chains)
    ]
    # optional incubations: insert between last move and sense
    for i, ids in enumerate(chains):
        if rng.random() < incubate_fraction:
            incubate = Operation(
                op_id=f"c{i}-incubate",
                op_type=OpType.INCUBATE,
                duration=duration_model.incubate(float(rng.uniform(30.0, 300.0))),
            )
            # depends on the op right before the chain's sense
            sense_id = ids[-2]
            pre_sense = graph.predecessors(sense_id)
            graph.add(incubate, after=pre_sense)
            # re-point: sense additionally depends on incubation
            graph.add_dependency(sense_id, incubate.op_id)
    # optional merges between adjacent chains
    for i in range(0, n_chains - 1, 2):
        if rng.random() < merge_fraction:
            merge = Operation(
                op_id=f"m{i}",
                op_type=OpType.MERGE,
                duration=duration_model.merge(),
            )
            sense_a, sense_b = chains[i][-2], chains[i + 1][-2]
            graph.add(merge, after=[sense_a, sense_b])
    graph.validate()
    return graph


def serial_assay(n_steps=20, seed=0, duration_model=None):
    """A fully serial chain -- the worst case for parallel resources."""
    rng = np.random.default_rng(seed)
    duration_model = duration_model or DurationModel()
    graph = AssayGraph(name=f"serial-assay-{seed}")
    previous = None
    for i in range(n_steps):
        distance = int(rng.integers(5, 40))
        op = Operation(
            op_id=f"s{i}",
            op_type=OpType.MOVE,
            duration=duration_model.move(distance),
        )
        graph.add(op, after=[previous] if previous else [])
        previous = op.op_id
    return graph


def wide_assay(n_parallel=64, seed=0, duration_model=None):
    """Fully parallel independent operations -- the best case."""
    rng = np.random.default_rng(seed)
    duration_model = duration_model or DurationModel()
    graph = AssayGraph(name=f"wide-assay-{seed}")
    for i in range(n_parallel):
        distance = int(rng.integers(5, 40))
        graph.add(
            Operation(
                op_id=f"w{i}",
                op_type=OpType.MOVE,
                duration=duration_model.move(distance),
            )
        )
    return graph
