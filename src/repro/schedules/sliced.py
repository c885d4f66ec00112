"""The AutoPipe-sliced 1F1B schedule (paper Fig. 8(b)).

The Slicer's plan splits the first ``mb`` micro-batches into halves; each
half runs as an independent unit through the ordinary 1F1B structure, so
the last stage receives its first (half-sized) activation after roughly
half the per-stage forward time — the startup overhead is halved without
any extra in-flight activation memory (halves stash half the bytes).

Communication of the sliced halves uses the paper's aggregation fix: a
half's activation send is *buffered/eager* instead of synchronous, which is
the observable effect of "cancelling the first-half communication and
aggregating it with the second half" — the sender never blocks on a busy
downstream stage.  Building with ``aggregate=False`` keeps every transfer
synchronous and reproduces the warmup blockage the paper describes (the
ablation in the benchmarks).

Maintenance note: ``repro.sim.slice_eval.family_walk`` emits the compiled
graph skeleton of this schedule *directly* (no Schedule object, no
instruction lowering); ``run_pipeline`` and the autotuner execute that
skeleton, and ``compile_graph`` fills it for the schedules this builder
tags; only the event engine executes the built ops.  The emitter and
the builder must change together: any change to the unit order, exchange
fusion or eager policy here must be mirrored there.
``tests/sim/test_slice_eval.py`` asserts the two paths stay
bit-identical.
"""

from __future__ import annotations

from repro.core.partition import PartitionScheme
from repro.core.slicer import SlicePlan
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Schedule, Unit, family_key
from repro.schedules.one_f_one_b import build_unit_1f1b


def build_sliced(
    profile: ModelProfile,
    partition: PartitionScheme,
    plan: SlicePlan,
    *,
    name: str = "autopipe-sliced",
) -> Schedule:
    """Build the sliced 1F1B schedule from a Slicer plan."""
    aggregate = plan.aggregate_last_warmup_comm

    def policy(kind: str, unit: Unit) -> bool:
        if aggregate and kind == "act" and unit[1] != -1:
            return False  # buffered: never block the sender of a half.
        return True

    return build_unit_1f1b(
        profile,
        partition,
        list(plan.units()),
        name=name,
        rendezvous_policy=policy,
        skeleton_key=family_key(
            "1f1b", partition.num_stages, plan.num_micro_batches,
            plan.num_sliced, aggregate,
        ),
    )
