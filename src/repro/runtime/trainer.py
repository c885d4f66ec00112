"""Execute one training iteration of a planned pipeline on the DES.

``run_pipeline`` executes just the pipeline schedule; ``run_iteration``
adds the per-iteration costs outside the pipeline — the data-parallel
gradient allreduce (per-stage groups run concurrently, so the slowest
group counts) and the optimizer step — which scale the Gbs columns of
Tables III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.partition import PartitionScheme, stage_params
from repro.core.slicer import SlicePlan
from repro.hardware.cluster import Cluster
from repro.parallel.data_parallel import allreduce_seconds
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Schedule
from repro.schedules.gpipe import build_gpipe
from repro.schedules.one_f_one_b import build_1f1b
from repro.schedules.sliced import build_sliced
from repro.sim.engine import Engine, ExecutionResult
from repro.sim.slice_eval import compile_slice_graph

#: executors by name.  ``"graph"`` is the compiled static-graph fast
#: path, ``"event"`` the per-op DES that serves as its spec and as the
#: deadlock diagnoser.
EXECUTORS = ("graph", "event")

_DEFAULT_EXECUTOR = "graph"


def default_executor() -> str:
    """The executor used when callers pass ``executor=None``."""
    return _DEFAULT_EXECUTOR


def set_default_executor(executor: str) -> str:
    """Rebind the process-wide executor (CLI ``--executor``)."""
    global _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = resolve_executor(executor)
    return _DEFAULT_EXECUTOR


def resolve_executor(executor: Optional[str]) -> str:
    """Resolve an ``executor=`` argument: ``None`` -> process default."""
    if executor is None:
        return _DEFAULT_EXECUTOR
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (choose from {EXECUTORS})"
        )
    return executor


@dataclass(frozen=True)
class IterationResult:
    """End-to-end timing of one training iteration."""

    schedule_name: str
    pipeline_seconds: float
    allreduce_seconds: float
    optimizer_seconds: float
    startup_overhead: float
    execution: ExecutionResult
    data_parallel: int
    num_micro_batches: int

    @property
    def iteration_seconds(self) -> float:
        return self.pipeline_seconds + self.allreduce_seconds + self.optimizer_seconds

    @property
    def oom(self) -> bool:
        return self.execution.oom


def _slice_plan_for(
    num_micro_batches: int, schedule: str, slice_plan: Optional[SlicePlan]
) -> Optional[SlicePlan]:
    """Validate a schedule request; the sliced schedule's plan, or None."""
    if schedule in ("1f1b", "gpipe"):
        return None
    if schedule == "sliced":
        if slice_plan is None:
            raise ValueError("the sliced schedule needs a SlicePlan")
        if slice_plan.num_micro_batches != num_micro_batches:
            raise ValueError(
                f"slice plan covers {slice_plan.num_micro_batches} "
                f"micro-batches, run uses {num_micro_batches}"
            )
        return slice_plan
    raise ValueError(f"unknown schedule {schedule!r}")


def build_schedule(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
) -> Schedule:
    """Dispatch to the named schedule builder."""
    plan = _slice_plan_for(num_micro_batches, schedule, slice_plan)
    if schedule == "1f1b":
        return build_1f1b(profile, partition, num_micro_batches)
    if schedule == "gpipe":
        return build_gpipe(profile, partition, num_micro_batches)
    return build_sliced(profile, partition, plan)


def run_pipeline(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
    cluster: Optional[Cluster] = None,
    executor: Optional[str] = None,
) -> ExecutionResult:
    """Execute the pipeline portion of one iteration on the DES.

    ``executor`` selects the substrate (default: the process-wide
    ``--executor`` setting, ``"graph"`` when unset).  ``"graph"`` fills
    the cached skeleton of the schedule's shape with this call's costs
    (:func:`repro.sim.slice_eval.compile_slice_graph`) and relaxes it —
    no Schedule objects are built — bit-identical to the event engine.
    ``"event"`` builds the schedule and runs the per-op event loop, the
    spec: useful when stepping through a run or comparing executors.
    """
    if cluster is None:
        cluster = Cluster(profile.hardware)
    executor = resolve_executor(executor)
    if executor == "event":
        built = build_schedule(
            profile, partition, num_micro_batches, schedule, slice_plan
        )
        devices = cluster.pipeline_devices(partition.num_stages)
        return Engine(built, cluster, device_map=devices).run()
    plan = _slice_plan_for(num_micro_batches, schedule, slice_plan)
    devices = cluster.pipeline_devices(partition.num_stages)
    if plan is None:
        graph = compile_slice_graph(
            profile, partition, num_micro_batches, 0, cluster, devices,
            schedule=schedule,
        )
    else:
        graph = compile_slice_graph(
            profile, partition, num_micro_batches, plan.num_sliced,
            cluster, devices, schedule="sliced",
            aggregate=plan.aggregate_last_warmup_comm,
        )
    return graph.run()


def _optimizer_seconds(profile: ModelProfile, partition: PartitionScheme) -> float:
    """Adam step of the heaviest stage: memory-bound over the state bytes."""
    heaviest = max(stage_params(partition, profile))
    bytes_touched = heaviest * profile.train.bytes_per_param_state * 2  # r+w
    return bytes_touched / profile.hardware.effective_memory_bandwidth


def run_iteration(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    data_parallel: int = 1,
    *,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
    cluster: Optional[Cluster] = None,
    executor: Optional[str] = None,
) -> IterationResult:
    """Pipeline + gradient allreduce + optimizer step for one iteration."""
    execution = run_pipeline(
        profile, partition, num_micro_batches,
        schedule=schedule, slice_plan=slice_plan, cluster=cluster,
        executor=executor,
    )
    params = stage_params(partition, profile)
    reduce_time = max(
        allreduce_seconds(p, data_parallel, profile.hardware) for p in params
    )
    last = partition.num_stages - 1
    return IterationResult(
        schedule_name=execution.schedule_name,
        pipeline_seconds=execution.iteration_time,
        allreduce_seconds=reduce_time,
        optimizer_seconds=_optimizer_seconds(profile, partition),
        startup_overhead=execution.first_forward_start(last),
        execution=execution,
        data_parallel=data_parallel,
        num_micro_batches=num_micro_batches,
    )
