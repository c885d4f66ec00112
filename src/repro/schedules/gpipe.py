"""GPipe schedule: all forwards, then all backwards.

Included as a secondary baseline/teaching schedule: it maximises bubble
time at small micro-batch counts and stashes *every* micro-batch (memory
grows with ``m``), which is why 1F1B replaced it.  Communication is
buffered (GPipe's fill-drain pattern has no bidirectional pairing).

Maintenance note: ``repro.sim.slice_eval.family_walk`` mirrors this
builder's program loop to emit the compiled graph skeleton directly;
``run_pipeline(executor="graph")`` never calls the builder, and
``compile_graph`` fills the skeleton of a schedule it tagged instead of
lowering its ops.  The emitter and the builder must change together —
``tests/sim/test_slice_eval.py`` asserts they stay bit-identical.
"""

from __future__ import annotations

from typing import List

from repro.core.partition import PartitionScheme
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    CommOp,
    ComputeOp,
    Schedule,
    Transfer,
    family_key,
    full_units,
)
from repro.schedules.one_f_one_b import _StageCosts


def build_gpipe(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    name: str = "gpipe",
) -> Schedule:
    n = partition.num_stages
    units = full_units(num_micro_batches)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    bbytes = profile.boundary_bytes

    programs: List[List[object]] = []
    for x in range(n):
        program: List[object] = []
        for u in units:
            mb = u[0]
            if x > 0:
                tag = f"act:{mb}:{x - 1}>{x}"
                program.append(CommOp(
                    x, x - 1, (Transfer(tag, x - 1, x, bbytes),), rendezvous=False
                ))
            program.append(ComputeOp(
                "F", u, costs[x].fwd(u),
                alloc_bytes=costs[x].stash(u),
                workspace_bytes=costs[x].workspace(u),
                phase="warmup",
            ))
            if x < n - 1:
                tag = f"act:{mb}:{x}>{x + 1}"
                program.append(CommOp(
                    x, x + 1, (Transfer(tag, x, x + 1, bbytes),), rendezvous=False
                ))
        # Backward drain, reverse micro-batch order (GPipe convention).
        for u in reversed(units):
            mb = u[0]
            if x < n - 1:
                tag = f"grad:{mb}:{x + 1}>{x}"
                program.append(CommOp(
                    x, x + 1, (Transfer(tag, x + 1, x, bbytes),), rendezvous=False
                ))
            program.append(ComputeOp(
                "B", u, costs[x].bwd(u),
                free_bytes=costs[x].stash(u),
                workspace_bytes=costs[x].workspace(u),
                phase="cooldown",
            ))
            if x > 0:
                tag = f"grad:{mb}:{x}>{x - 1}"
                program.append(CommOp(
                    x, x - 1, (Transfer(tag, x, x - 1, bbytes),), rendezvous=False
                ))
        programs.append(program)

    static = [
        costs[x].params * profile.train.bytes_per_param_state for x in range(n)
    ]
    return Schedule(
        name=name, programs=programs, static_bytes=static
    ).tag_family(family_key("gpipe", n, num_micro_batches), costs, bbytes)
