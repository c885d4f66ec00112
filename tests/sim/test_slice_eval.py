"""Property suite: the schedule-family fast path == the event engine.

``run_pipeline(executor="graph")``, ``evaluate_slice_counts`` and
``compile_graph`` over a builder-made schedule fill a cached graph
skeleton per schedule shape with each call's cost atoms; the contract
that lets every sweep use them is bit-identity with the spec — the event
engine running the built schedule (``run_pipeline(...,
executor="event")``, or ``Engine`` for interleaved schedules).
Hypothesis drives the schedule family (1f1b, sliced with and without
aggregation, gpipe, interleaved with 2–4 chunks), pipeline depth,
micro-batch count, slice counts and cost jitter, runs two differently
jittered profiles through one cached skeleton (so the hit path is
covered, not only the emitting miss), and asserts every
:class:`ExecutionResult` field agrees exactly: name, iteration time,
peak memory, OOM devices, first-forward starts and the raw event log.
A schedule edited after it was built, or built by hand, must leave the
skeleton path and compile by lower → walk.

Raw events are compared per device in program order.  A rendezvous
exchange's label names the ops of one endpoint, and the event engine
labels both endpoints with whichever completed the match, so comm
labels are compared as their sorted tag sets (with the device, the tags
imply the arrows); every other field of every event is compared exactly.
The lower → walk compilation of the built schedule produces the same
labels as the skeleton path, so there the whole log must match exactly.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance_dp import balanced_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import INFEASIBLE, make_profile, run_method
from repro.hardware.cluster import Cluster
from repro.models.zoo import GPT2_345M
from repro.runtime import trainer
from repro.runtime.trainer import build_schedule, run_pipeline
from repro.schedules.base import ComputeOp, Schedule, ScheduleMutationError
from repro.schedules.interleaved import (
    InterleavedInfeasible,
    build_interleaved,
)
from repro.sim import engine, graph_exec, slice_eval
from repro.sim.engine import Engine
from repro.sim.graph_exec import compile_graph, execute_fast
from repro.sim.slice_eval import (
    evaluate_slice_counts,
    family_structure_cache_info,
)


def _jittered(mbs, m, seed):
    base = make_profile(GPT2_345M, mbs, m)
    rng = random.Random(seed)
    blocks = tuple(
        dataclasses.replace(
            bp,
            fwd_time=bp.fwd_time * (0.5 + rng.random()),
            bwd_time=bp.bwd_time * (0.5 + rng.random()),
            stash_bytes=bp.stash_bytes * (0.5 + rng.random()),
            workspace_bytes=bp.workspace_bytes * (0.5 + rng.random()),
        )
        for bp in base.blocks
    )
    return dataclasses.replace(
        base, blocks=blocks,
        boundary_bytes=base.boundary_bytes * (0.5 + rng.random()),
    )


def _schedule_args(m, num_sliced, aggregate=True):
    return {
        "schedule": "sliced",
        "slice_plan": SlicePlan(
            num_sliced=num_sliced, num_micro_batches=m,
            aggregate_last_warmup_comm=aggregate,
        ),
    }


def _event(profile, partition, m, num_sliced):
    """The spec: one event-engine run per slice count (0 = plain 1F1B)."""
    if num_sliced == 0:
        return run_pipeline(profile, partition, m, executor="event")
    return run_pipeline(
        profile, partition, m, executor="event",
        **_schedule_args(m, num_sliced),
    )


def _per_device(raw, num_devices):
    """Per-device event sequences, comm labels as sorted tag tuples.

    A tag names its source and destination stage, so together with the
    event's device the tags determine the arrows the label drops.
    """
    out = [[] for _ in range(num_devices)]
    for dev, category, label, start, end, phase in raw:
        if category == "comm":
            label = tuple(sorted(p[1:] for p in label[5:-1].split(",")))
        out[dev].append((category, label, start, end, phase))
    return out


def _assert_same(got, ref):
    assert got.schedule_name == ref.schedule_name
    assert got.iteration_time == ref.iteration_time
    assert got.peak_memory == ref.peak_memory
    assert got.oom_devices == ref.oom_devices
    assert got.oom == ref.oom
    assert got.num_devices == ref.num_devices
    for d in range(ref.num_devices):
        assert got.first_forward_start(d) == ref.first_forward_start(d)
        assert got.busy_time(d) == ref.busy_time(d)
    assert _per_device(got.raw_events, ref.num_devices) == _per_device(
        ref.raw_events, ref.num_devices
    )


_FAMILY = st.sampled_from(("1f1b", "gpipe", "sliced", "sliced-noagg"))


class TestHitPathEqualsEventEngine:
    @given(
        family=_FAMILY,
        p=st.integers(1, 5),
        m=st.integers(1, 10),
        mbs=st.sampled_from([4, 8]),
        seeds=st.tuples(
            st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_profiles_on_one_skeleton(
        self, family, p, m, mbs, seeds, data
    ):
        kwargs = {}
        if family == "gpipe":
            kwargs = {"schedule": "gpipe"}
        elif family.startswith("sliced"):
            num_sliced = data.draw(st.integers(0, m), label="num_sliced")
            kwargs = _schedule_args(
                m, num_sliced, aggregate=family == "sliced"
            )
        profiles = [_jittered(mbs, m, seed) for seed in seeds]
        results = []
        for i, profile in enumerate(profiles):
            partition = balanced_partition(profile.block_times(), p)
            results.append((
                profile, partition,
                run_pipeline(profile, partition, m, **kwargs),
            ))
            if i == 0:
                cached = family_structure_cache_info()
        # The second profile is a hit: no new skeleton was emitted.
        assert family_structure_cache_info() == cached
        for profile, partition, got in results:
            ref = run_pipeline(
                profile, partition, m, executor="event", **kwargs
            )
            _assert_same(got, ref)
            cluster = Cluster(profile.hardware)
            built = build_schedule(
                profile, partition, m, kwargs.get("schedule", "1f1b"),
                kwargs.get("slice_plan"),
            )
            devices = cluster.pipeline_devices(p)
            assert execute_fast(
                built, cluster, device_map=devices
            ).raw_events == got.raw_events
            assert _walked(built, cluster, devices).raw_events == \
                got.raw_events


def _walked(schedule, cluster, devices):
    """Run ``schedule`` through lower → walk (its builder tag removed)."""
    schedule.skeleton = None
    return execute_fast(schedule, cluster, device_map=devices)


#: GPT-2 345M has 24 layers; interleaving needs depth x chunks to divide it.
_INTERLEAVED_DEPTHS = {
    chunks: [d for d in (2, 3, 4, 6, 8) if 24 % (d * chunks) == 0]
    for chunks in (2, 3, 4)
}


class TestInterleavedEqualsEventEngine:
    @given(
        chunks=st.sampled_from(sorted(_INTERLEAVED_DEPTHS)),
        per_stage=st.sampled_from([1, 2, 3]),
        mbs=st.sampled_from([4, 8]),
        seeds=st.tuples(
            st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)
        ),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_two_profiles_on_one_skeleton(
        self, chunks, per_stage, mbs, seeds, data
    ):
        n = data.draw(
            st.sampled_from(_INTERLEAVED_DEPTHS[chunks]), label="depth"
        )
        m = per_stage * n
        results = []
        for i, seed in enumerate(seeds):
            profile = _jittered(mbs, m, seed)
            cluster = Cluster(profile.hardware)
            devices = cluster.pipeline_devices(n)
            built = build_interleaved(profile, n, m, num_chunks=chunks)
            results.append((
                profile, cluster, devices,
                execute_fast(built, cluster, device_map=devices),
            ))
            if i == 0:
                cached = family_structure_cache_info()
        # The second profile is a hit: no new skeleton was emitted.
        assert family_structure_cache_info() == cached
        for profile, cluster, devices, got in results:
            ref = Engine(
                build_interleaved(profile, n, m, num_chunks=chunks),
                cluster, device_map=devices,
            ).run()
            _assert_same(got, ref)
            walked = _walked(
                build_interleaved(profile, n, m, num_chunks=chunks),
                cluster, devices,
            )
            assert walked.raw_events == got.raw_events


def _interleaved_case(seed=1, n=4, m=8):
    profile = _jittered(4, m, seed)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(n)
    return profile, cluster, devices, n, m


@pytest.mark.parametrize("family", ["1f1b", "gpipe", "sliced", "interleaved"])
def test_cached_shape_compiles_built_schedule_without_lowering(
    monkeypatch, family
):
    """A builder-made schedule on a cached shape is neither lowered nor walked."""
    profile, cluster, devices, n, m = _interleaved_case()
    partition = balanced_partition(profile.block_times(), n)

    def build(prof):
        if family == "interleaved":
            return build_interleaved(prof, n, m, num_chunks=2)
        plan = _schedule_args(m, 2)["slice_plan"] if family == "sliced" \
            else None
        return build_schedule(prof, partition, m, family, plan)

    compile_graph(build(profile), cluster, device_map=devices)
    second = build(_jittered(4, m, 2))
    monkeypatch.setattr(engine, "lower_programs", _refuse)
    monkeypatch.setattr(graph_exec, "lower_programs", _refuse)
    monkeypatch.setattr(graph_exec, "_walk_programs", _refuse)
    got = execute_fast(second, cluster, device_map=devices)
    monkeypatch.undo()
    _assert_same(got, Engine(second, cluster, device_map=devices).run())


def _replace_first_forward(schedule):
    program = schedule.programs[0]
    i = next(
        j for j, op in enumerate(program) if isinstance(op, ComputeOp)
    )
    program[i] = dataclasses.replace(
        program[i], duration=program[i].duration * 3.0
    )


def _append_forward(schedule):
    schedule.programs[-1].append(ComputeOp("F", (99, -1), 0.25))


def _grow_static(schedule):
    schedule.static_bytes[0] += 3e9


@pytest.mark.parametrize(
    "mutate", [_replace_first_forward, _append_forward, _grow_static]
)
def test_mutation_before_first_compile_equals_event_engine(mutate):
    profile, cluster, devices, n, m = _interleaved_case()
    pristine = execute_fast(
        build_interleaved(profile, n, m), cluster, device_map=devices
    )
    schedule = build_interleaved(profile, n, m)
    mutate(schedule)
    got = execute_fast(schedule, cluster, device_map=devices)
    _assert_same(got, Engine(schedule, cluster, device_map=devices).run())
    # The edit is visible: the skeleton of the pristine shape was not used.
    assert (got.iteration_time, got.peak_memory) != (
        pristine.iteration_time, pristine.peak_memory
    )


def test_mutation_after_compile_still_raises():
    profile, cluster, devices, n, m = _interleaved_case()
    schedule = build_interleaved(profile, n, m)
    execute_fast(schedule, cluster, device_map=devices)
    _append_forward(schedule)
    with pytest.raises(ScheduleMutationError):
        execute_fast(schedule, cluster, device_map=devices)


def test_hand_built_schedule_compiles_by_lower_and_walk(monkeypatch):
    profile, cluster, devices, n, m = _interleaved_case()
    built = build_interleaved(profile, n, m)
    tagged = compile_graph(built, cluster, device_map=devices)
    by_hand = Schedule(
        name="by-hand",
        programs=[list(program) for program in built.programs],
        static_bytes=list(built.static_bytes),
    )
    assert by_hand.skeleton is None
    lowered = []
    real = graph_exec.lower_programs

    def spy(*args, **kwargs):
        lowered.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_exec, "lower_programs", spy)
    graph = compile_graph(by_hand, cluster, device_map=devices)
    assert lowered == [by_hand]
    # Same shape: the walked schedule shares the skeleton's structure.
    assert graph.structure is tagged.structure
    got = graph.run()
    _assert_same(got, Engine(by_hand, cluster, device_map=devices).run())
    assert got.raw_events == tagged.run().raw_events


class TestInterleavedInfeasible:
    def test_micro_batches_not_a_multiple_of_depth(self):
        profile = make_profile(GPT2_345M, 4, 6)
        with pytest.raises(InterleavedInfeasible):
            build_interleaved(profile, 4, 6)

    def test_layers_do_not_divide(self):
        profile = make_profile(GPT2_345M, 4, 10)
        with pytest.raises(InterleavedInfeasible):
            build_interleaved(profile, 5, 10)  # 24 layers / 10 chunks

    def test_single_chunk(self):
        profile = make_profile(GPT2_345M, 4, 8)
        with pytest.raises(InterleavedInfeasible):
            build_interleaved(profile, 4, 8, num_chunks=1)

    def test_run_method_marks_the_cell(self):
        profile = make_profile(GPT2_345M, 4, 10)
        result = run_method("interleaved", profile, 5, 10)
        assert result.status == INFEASIBLE


class TestBatchedEqualsPerCandidate:
    @given(
        p=st.integers(2, 4),
        m=st.integers(4, 12),
        mbs=st.sampled_from([4, 8]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_results(self, p, m, mbs, seed, data):
        profile = _jittered(mbs, m, seed)
        partition = balanced_partition(profile.block_times(), p)
        slice_counts = data.draw(
            st.lists(st.integers(0, m), min_size=1, max_size=5, unique=True)
        )
        batch = evaluate_slice_counts(profile, partition, m, slice_counts)
        assert len(batch) == len(slice_counts)
        for num_sliced, got in zip(slice_counts, batch):
            _assert_same(got, _event(profile, partition, m, num_sliced))

    def test_atoms_computed_once_per_layout(self, monkeypatch):
        profile = _jittered(4, 8, seed=5)
        partition = balanced_partition(profile.block_times(), 3)
        calls = []
        real = slice_eval.family_atoms

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(slice_eval, "family_atoms", counting)
        batch = evaluate_slice_counts(profile, partition, 8, [0, 1, 2, 4])
        assert len(calls) == 1
        monkeypatch.undo()
        for num_sliced, got in zip([0, 1, 2, 4], batch):
            _assert_same(got, _event(profile, partition, 8, num_sliced))

    def test_structure_cache_reused_across_calls(self):
        profile = _jittered(4, 8, seed=7)
        partition = balanced_partition(profile.block_times(), 2)
        evaluate_slice_counts(profile, partition, 8, [0, 2, 4])
        count, _ = family_structure_cache_info()
        # A second sweep over the same family compiles no new structures.
        evaluate_slice_counts(profile, partition, 8, [0, 2, 4])
        assert family_structure_cache_info()[0] == count


def _refuse(*_args, **_kwargs):
    raise AssertionError("the cached-skeleton path must not build or lower")


@pytest.mark.parametrize("family", ["1f1b", "gpipe", "sliced"])
def test_cached_shape_builds_no_schedule(monkeypatch, family):
    m, p = 6, 3
    kwargs = {"schedule": "gpipe"} if family == "gpipe" else (
        _schedule_args(m, 2) if family == "sliced" else {}
    )
    first, second = _jittered(4, m, 1), _jittered(4, m, 2)
    partition = balanced_partition(first.block_times(), p)
    run_pipeline(first, partition, m, **kwargs)
    monkeypatch.setattr(trainer, "build_schedule", _refuse)
    monkeypatch.setattr(engine, "lower_programs", _refuse)
    monkeypatch.setattr(graph_exec, "lower_programs", _refuse)
    got = run_pipeline(second, partition, m, **kwargs)
    monkeypatch.undo()
    _assert_same(
        got, run_pipeline(second, partition, m, executor="event", **kwargs)
    )


def test_sliced_without_slices_keeps_its_name():
    m = 6
    profile = _jittered(4, m, 3)
    partition = balanced_partition(profile.block_times(), 3)
    kwargs = _schedule_args(m, 0)
    got = run_pipeline(profile, partition, m, **kwargs)
    assert got.schedule_name == "autopipe-sliced"
    _assert_same(
        got, run_pipeline(profile, partition, m, executor="event", **kwargs)
    )
    # Same shape as plain 1F1B, which keeps its own name.
    assert run_pipeline(profile, partition, m).schedule_name == "1f1b"
