"""Schedule-family fast path: cached graph skeletons filled by atom gather.

:func:`repro.runtime.trainer.run_pipeline` (``executor="graph"``) and the
joint autotuner (:func:`repro.core.strategy.autotune_config`) execute the
1F1B, sliced-1F1B and GPipe schedules thousands of times on fresh cost
profiles.  The generic compiled-graph route rebuilds the world on every
call: a :class:`~repro.schedules.base.Schedule` of frozen-dataclass ops,
an instruction-tuple lowering pass
(:func:`~repro.sim.engine.lower_programs`), a tuple walk and a label per
op — all to feed a numpy relaxation that itself takes a fraction of the
time.  This module compiles each schedule *shape* once instead.

* **Skeleton.**  The cost-free part of a schedule depends only on
  ``(family, num_stages, num_micro_batches, num_sliced, aggregate)``.
  :func:`family_walk` emits it directly — node ids, edge order, replay
  records, memory and recv slots — by mirroring the builders' program
  loops (:func:`~repro.schedules.one_f_one_b.build_unit_1f1b` for 1f1b
  and sliced, :func:`~repro.schedules.gpipe.build_gpipe` for GPipe) and
  inlining what :meth:`~repro.sim.engine._Lowerer.compile_op` and the
  walk would produce for each op.  Where the walk stores a cost, the
  skeleton stores the index of an *atom*.  The compiled
  :class:`~repro.sim.graph_exec.GraphStructure` and the atom-index
  arrays (already permuted into level order) are cached together.

* **Atoms.**  A call computes the O(n) distinct cost values of its
  profile, partition and device map (:func:`family_atoms`) with exactly
  the expressions the builders and the lowerer use:
  :class:`~repro.schedules.one_f_one_b._StageCosts` full and half
  durations, ``stash_full * frac`` and ``workspace_full * frac`` (plus
  the negated stash for the memory release slots), one
  :meth:`~repro.hardware.comm.CommModel.p2p_time_between` per boundary,
  direction and payload fraction (0.0 for an empty payload),
  ``max(up, down)`` for fused exchanges, the link latency, and 0.0.
  One numpy gather then fills every cost array of the
  :class:`~repro.sim.graph_exec.CompiledGraph`.  A gather only copies
  floats, so each result is bit-identical to build → lower → walk, and
  to the event engine, which stays the spec (property-tested in
  ``tests/sim/test_slice_eval.py``).

* **Batching.**  :func:`evaluate_slice_counts` groups a layout's
  slice-count candidates by skeleton and relaxes each group in one
  :func:`~repro.sim.graph_exec.run_batch` pass.  Different slice counts
  compile to different skeletons (each sliced micro-batch adds a unit),
  so the fan-in only merges within a slice count.

Interleaved schedules are not a family here; they stay on
:func:`~repro.sim.graph_exec.execute_fast`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PartitionScheme
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Unit, full_units, unit_label
from repro.schedules.one_f_one_b import _StageCosts
from repro.sim.engine import ExecutionResult
from repro.sim.graph_exec import (
    _REC_COMPUTE,
    _REC_EAGER,
    _REC_RENDEZVOUS,
    _Walk,
    CompiledGraph,
    GraphCompileError,
    GraphStructure,
    run_batch,
)

#: run_pipeline schedule -> (emitter family, the builder's schedule name).
_SCHEDULES = {
    "1f1b": ("1f1b", "1f1b"),
    "sliced": ("1f1b", "autopipe-sliced"),
    "gpipe": ("gpipe", "gpipe"),
}

#: skeletons keyed by (family, stages, micro-batches, num_sliced, aggregate).
_FAMILY_STRUCTURES: "OrderedDict[tuple, _Skeleton]" = OrderedDict()
_FAMILY_CACHE_SIZE = 128

# Atom layout: three constants, then ``_STAGE_ATOMS`` per stage, then
# ``_LINK_ATOMS`` per stage boundary.  Within a group, ``h`` selects the
# payload fraction: 0 = whole unit, 1 = half unit.
_ZERO, _NEG_ZERO, _LATENCY = 0, 1, 2
_CONSTANTS = 3
# stage x: F[h], B[h], stash[h], -stash[h], workspace[h]
_F, _B, _STASH, _RELEASE, _WS = 0, 2, 4, 6, 8
_STAGE_ATOMS = 10
# boundary x -> x+1: up[h], down[h], max(up[hf], down[hb]) at 4 + 2*hf + hb
_UP, _DOWN, _EXCH = 0, 2, 4
_LINK_ATOMS = 8


def family_structure_cache_info() -> Tuple[int, int]:
    """(skeletons cached, total nodes) — for tests/benches."""
    return (
        len(_FAMILY_STRUCTURES),
        sum(s.structure.num_nodes for s in _FAMILY_STRUCTURES.values()),
    )


def clear_family_structures() -> None:
    """Drop the skeleton cache (benchmark cold runs)."""
    _FAMILY_STRUCTURES.clear()


def _sliced_units(num_micro_batches: int, num_sliced: int) -> List[Unit]:
    if num_sliced == 0:
        return full_units(num_micro_batches)
    units: List[Unit] = []
    for mb in range(num_micro_batches):
        if mb < num_sliced:
            units.append((mb, 0))
            units.append((mb, 1))
        else:
            units.append((mb, -1))
    return units


def family_atoms(
    profile: ModelProfile,
    partition: PartitionScheme,
    cluster: Cluster,
    device_map: Sequence[int],
    comm: Optional[CommModel] = None,
) -> Tuple[np.ndarray, List[float]]:
    """The atom vector of one call, plus the per-stage static bytes.

    Every atom is the exact float the builders and
    :class:`~repro.sim.engine._Lowerer` compute for the same slot, so a
    gather of these values reproduces the lowered costs bit for bit.
    """
    n = partition.num_stages
    if len(device_map) != n:
        raise ValueError("device_map must cover every pipeline stage")
    if comm is None:
        comm = CommModel(cluster.hw)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    atoms = [0.0, -0.0, cluster.hw.link_latency]
    for c in costs:
        stash_f = c.stash_full * 1.0
        stash_h = c.stash_full * 0.5
        atoms += (
            c.fwd_full, c._partial(c.fwd_full, 0.5),
            c.bwd_full, c._partial(c.bwd_full, 0.5),
            stash_f, stash_h, -stash_f, -stash_h,
            c.workspace_full * 1.0, c.workspace_full * 0.5,
        )
    # The builders pass ``bbytes * unit_fraction(unit)`` to each Transfer
    # and the lowerer prices it per (src, dst) device pair.
    bbytes = profile.boundary_bytes
    payloads = (bbytes * 1.0, bbytes * 0.5)
    for x in range(n - 1):
        src, dst = device_map[x], device_map[x + 1]
        up = [
            comm.p2p_time_between(cluster, src, dst, nb) if nb > 0 else 0.0
            for nb in payloads
        ]
        down = [
            comm.p2p_time_between(cluster, dst, src, nb) if nb > 0 else 0.0
            for nb in payloads
        ]
        atoms += up
        atoms += down
        atoms += (
            max(up[0], down[0]), max(up[0], down[1]),
            max(up[1], down[0]), max(up[1], down[1]),
        )
    static = [c.params * profile.train.bytes_per_param_state for c in costs]
    return np.array(atoms), static


def family_walk(
    family: str,
    num_stages: int,
    num_micro_batches: int,
    num_sliced: int = 0,
    *,
    aggregate: bool = True,
) -> _Walk:
    """Emit the skeleton walk of one schedule shape.

    The returned :class:`~repro.sim.graph_exec._Walk` has the node ids,
    edge order, replay records and slot layout of
    ``_walk_programs(lower_programs(build_schedule(...)))`` for any
    profile of this shape, but its cost slots (``node_add``, ``e_w``,
    ``recv_durs``, ``mem_deltas``, ``workspace``) hold atom indices into
    :func:`family_atoms`.  ``family`` is ``"1f1b"`` (sliced when
    ``num_sliced > 0``, with the Slicer's eager half-activation sends
    when ``aggregate``) or ``"gpipe"``.
    """
    if family not in ("1f1b", "gpipe"):
        raise ValueError(f"unknown schedule family {family!r}")
    n = num_stages
    if family == "gpipe":
        units = full_units(num_micro_batches)
    else:
        units = _sliced_units(num_micro_batches, num_sliced)
    U = len(units)
    link0 = _CONSTANTS + _STAGE_ATOMS * n

    def up(x: int, unit: Unit) -> int:
        return link0 + _LINK_ATOMS * x + _UP + (unit[1] != -1)

    def down(x: int, unit: Unit) -> int:
        return link0 + _LINK_ATOMS * x + _DOWN + (unit[1] != -1)

    def exch(x: int, fu: Unit, bu: Unit) -> int:
        return (
            link0 + _LINK_ATOMS * x + _EXCH
            + 2 * (fu[1] != -1) + (bu[1] != -1)
        )

    walk = _Walk(n)
    node_add = walk.node_add
    e_dst, e_src, e_w = walk.e_dst, walk.e_src, walk.e_w
    recv_durs = walk.recv_durs
    #: rendezvous nodes posted by the lower endpoint of a pair, keyed by
    #: (lower_device, sorted tag tuple); the upper endpoint links to it.
    posts: Dict[tuple, int] = {}
    #: eager deposits: tag -> (sender node, wire atom), walk order.
    send_map: Dict[str, Tuple[int, int]] = {}
    recv_reqs: List[Tuple[int, str, list]] = []

    def act_tag(unit: Unit, x: int) -> str:
        return f"act:{unit_label(unit)}:{x}>{x + 1}"

    def grad_tag(unit: Unit, x: int) -> str:
        return f"grad:{unit_label(unit)}:{x}>{x - 1}"

    def eager_act(unit: Unit) -> bool:
        return aggregate and unit[1] != -1

    for x in range(n):
        records = walk.records[x]
        prev = -1
        prev_w = _ZERO
        stage0 = _CONSTANTS + _STAGE_ATOMS * x

        def link(nid: int, add: int) -> None:
            """Chain node ``nid`` after the device's previous op."""
            nonlocal prev, prev_w
            if prev >= 0:
                e_dst.append(nid)
                e_src.append(prev)
                e_w.append(prev_w)
            prev, prev_w = nid, add

        def compute(kind: str, unit: Unit, phase: str) -> None:
            h = unit[1] != -1
            if kind == "F":
                add = stage0 + _F + h
                alloc, release = stage0 + _STASH + h, _NEG_ZERO
            else:
                add = stage0 + _B + h
                alloc, release = _ZERO, stage0 + _RELEASE + h
            nid = len(node_add)
            node_add.append(add)
            link(nid, add)
            records.append(
                [_REC_COMPUTE, nid, f"{kind}({unit_label(unit)})", kind, phase]
            )
            walk.mem_deltas.append(alloc)
            walk.mem_deltas.append(release)
            walk.workspace.append(stage0 + _WS + h)
            walk.mem_counts[x] += 1
            if kind == "F" and walk.first_f[x] < 0:
                walk.first_f[x] = nid

        def rendezvous(
            peer: int, parts: List[Tuple[str, str]], add: int
        ) -> None:
            """One synchronous exchange; ``parts`` = (direction, tag).

            ``direction`` is "→" for a transfer this device sends and
            "←" for one it receives, in CommOp transfer order — exactly
            the pieces of ``CommOp.label()``.
            """
            lower = min(x, peer)
            key = (lower, tuple(sorted(t for _, t in parts)))
            if lower == x:
                nid = len(node_add)
                node_add.append(add)
                posts[key] = nid
            else:
                nid = posts.pop(key)
            link(nid, add)
            label = "comm[" + ",".join(d + t for d, t in parts) + "]"
            records.append([_REC_RENDEZVOUS, nid, label])

        def eager(send: bool, tag: str, wire: int) -> None:
            """One buffered single-transfer CommOp (send or recv side)."""
            add = _LATENCY if send else _ZERO
            nid = len(node_add)
            node_add.append(add)
            link(nid, add)
            label = ("comm[→" if send else "comm[←") + tag + "]"
            recv_list: list = []
            if send:
                send_map[tag] = (nid, wire)
            else:
                recv_durs.append(wire)
                recv_reqs.append((nid, tag, recv_list))
            records.append(
                [_REC_EAGER, nid, label, "wait" + label[4:], recv_list]
            )

        if family == "gpipe":
            # -- mirroring build_gpipe: all forwards, reversed backwards --
            for u in units:
                if x > 0:
                    eager(False, act_tag(u, x - 1), up(x - 1, u))
                compute("F", u, "warmup")
                if x < n - 1:
                    eager(True, act_tag(u, x), up(x, u))
            for u in reversed(units):
                if x < n - 1:
                    eager(False, grad_tag(u, x + 1), down(x, u))
                compute("B", u, "cooldown")
                if x > 0:
                    eager(True, grad_tag(u, x), down(x - 1, u))
            continue

        # -- the 1F1B program, mirroring build_unit_1f1b -----------------
        w = min(U, n - 1 - x)
        s = U - w
        for k in range(w):
            u = units[k]
            if x > 0:
                t = act_tag(u, x - 1)
                if eager_act(u):
                    eager(False, t, up(x - 1, u))
                else:
                    rendezvous(x - 1, [("←", t)], up(x - 1, u))
            compute("F", u, "warmup")
            if x < n - 1:
                t = act_tag(u, x)
                if eager_act(u):
                    eager(True, t, up(x, u))
                else:
                    rendezvous(x + 1, [("→", t)], up(x, u))
        if s > 0 and x > 0:
            u = units[w]
            t = act_tag(u, x - 1)
            if eager_act(u):
                eager(False, t, up(x - 1, u))
            else:
                rendezvous(x - 1, [("←", t)], up(x - 1, u))
        for j in range(s):
            fu = units[w + j]
            bu = units[j]
            compute("F", fu, "steady")
            if x < n - 1:
                at = act_tag(fu, x)
                gt = grad_tag(bu, x + 1)
                if eager_act(fu):
                    # Split: the eager act send, then the grad recv as
                    # its own rendezvous (transfer order preserved).
                    eager(True, at, up(x, fu))
                    rendezvous(x + 1, [("←", gt)], down(x, bu))
                else:
                    rendezvous(
                        x + 1, [("→", at), ("←", gt)], exch(x, fu, bu)
                    )
            compute("B", bu, "steady")
            if x > 0:
                gt = grad_tag(bu, x)
                if j < s - 1:
                    nxt = units[w + j + 1]
                    at = act_tag(nxt, x - 1)
                    if eager_act(nxt):
                        rendezvous(x - 1, [("→", gt)], down(x - 1, bu))
                        eager(False, at, up(x - 1, nxt))
                    else:
                        rendezvous(
                            x - 1, [("→", gt), ("←", at)],
                            exch(x - 1, nxt, bu),
                        )
                else:
                    rendezvous(x - 1, [("→", gt)], down(x - 1, bu))
        for k in range(s, U):
            u = units[k]
            if x < n - 1:
                rendezvous(x + 1, [("←", grad_tag(u, x + 1))], down(x, u))
            compute("B", u, "cooldown")
            if x > 0:
                rendezvous(x - 1, [("→", grad_tag(u, x))], down(x - 1, u))

    if posts:
        raise GraphCompileError(
            "family walk left unmatched rendezvous posts — emitter bug"
        )
    for ridx, (rnid, tag, recv_list) in enumerate(recv_reqs):
        sender = send_map.get(tag)
        if sender is None:
            raise GraphCompileError(
                f"eager receive of tag {tag!r} has no matching send"
            )
        snid, wire = sender
        widx = len(e_w)
        e_dst.append(rnid)
        e_src.append(snid)
        e_w.append(wire)
        recv_list.append((snid, widx, ridx))
    return walk


class _Skeleton:
    """A compiled structure plus the atom index of every cost slot.

    ``gather`` concatenates the level-order node adds, walk-order and
    level-order edge weights, recv durations, memory deltas and
    workspace indices; ``bounds`` splits one gathered vector back into
    those six arrays.
    """

    __slots__ = ("structure", "gather", "bounds")

    def __init__(self, walk: _Walk) -> None:
        structure = GraphStructure(walk)
        edge_walk = np.asarray(walk.e_w, dtype=np.intp)
        parts = (
            np.asarray(walk.node_add, dtype=np.intp)[structure.node_order],
            edge_walk,
            edge_walk[structure.edge_perm],
            np.asarray(walk.recv_durs, dtype=np.intp),
            np.asarray(walk.mem_deltas, dtype=np.intp),
            np.asarray(walk.workspace, dtype=np.intp),
        )
        self.structure = structure
        self.gather = np.concatenate(parts)
        self.bounds = np.cumsum([0] + [len(p) for p in parts]).tolist()


def _skeleton(
    family: str, n: int, m: int, num_sliced: int, aggregate: bool
) -> _Skeleton:
    # Aggregation only changes the halves' sends.
    key = (family, n, m, num_sliced, aggregate and num_sliced > 0)
    skeleton = _FAMILY_STRUCTURES.get(key)
    if skeleton is not None:
        _FAMILY_STRUCTURES.move_to_end(key)
        return skeleton
    skeleton = _Skeleton(
        family_walk(family, n, m, num_sliced, aggregate=key[4])
    )
    _FAMILY_STRUCTURES[key] = skeleton
    while len(_FAMILY_STRUCTURES) > _FAMILY_CACHE_SIZE:
        _FAMILY_STRUCTURES.popitem(last=False)
    return skeleton


def compile_slice_graph(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    num_sliced: int,
    cluster: Cluster,
    device_map: Sequence[int],
    *,
    schedule: str = "sliced",
    aggregate: bool = True,
    comm: Optional[CommModel] = None,
) -> CompiledGraph:
    """Fill the cached skeleton of one schedule shape with this call's costs.

    ``schedule`` is ``run_pipeline``'s schedule name (``"1f1b"``,
    ``"sliced"`` or ``"gpipe"``; only ``"sliced"`` takes
    ``num_sliced > 0``) and sets the result's ``schedule_name`` to what
    its builder names the schedule.  A sliced run without slices shares
    the 1f1b skeleton but keeps the name ``"autopipe-sliced"``.
    """
    family, schedule_name = _SCHEDULES[schedule]
    skeleton = _skeleton(
        family, partition.num_stages, num_micro_batches, num_sliced,
        aggregate,
    )
    atoms, static = family_atoms(profile, partition, cluster, device_map, comm)
    values = atoms[skeleton.gather]
    b = skeleton.bounds
    return CompiledGraph(
        skeleton.structure, schedule_name, static, cluster.hw.gpu_memory,
        node_add_lvl=values[b[0]:b[1]],
        edge_w_walk=values[b[1]:b[2]],
        edge_w_lvl=values[b[2]:b[3]],
        recv_durs=values[b[3]:b[4]],
        mem_deltas=values[b[4]:b[5]],
        workspace=values[b[5]:b[6]],
    )


def evaluate_slice_counts(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    slice_counts: Sequence[int],
    *,
    cluster: Optional[Cluster] = None,
    device_map: Optional[Sequence[int]] = None,
    aggregate: bool = True,
) -> List[ExecutionResult]:
    """Execute every Slicer count of one partition, batched.

    Bit-identical to calling
    :func:`repro.runtime.trainer.run_pipeline` once per count (schedule
    ``"1f1b"`` for 0, ``"sliced"`` above): each candidate fills its
    cached skeleton, and candidates sharing a skeleton relax together in
    one :func:`~repro.sim.graph_exec.run_batch` pass.  Results come back
    in ``slice_counts`` order.
    """
    if cluster is None:
        cluster = Cluster(profile.hardware)
    if device_map is None:
        device_map = cluster.pipeline_devices(partition.num_stages)
    comm = CommModel(cluster.hw)
    results: List[Optional[ExecutionResult]] = [None] * len(slice_counts)
    groups: Dict[int, List[Tuple[int, CompiledGraph]]] = {}
    for i, num_sliced in enumerate(slice_counts):
        graph = compile_slice_graph(
            profile, partition, num_micro_batches, num_sliced,
            cluster, device_map,
            schedule="sliced" if num_sliced else "1f1b",
            aggregate=aggregate, comm=comm,
        )
        groups.setdefault(id(graph.structure), []).append((i, graph))
    for members in groups.values():
        evaluated = run_batch([g for _, g in members])
        for (i, _g), result in zip(members, evaluated):
            results[i] = result
    return results  # type: ignore[return-value]
