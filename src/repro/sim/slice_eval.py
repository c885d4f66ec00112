"""Schedule-family fast path: cached graph skeletons filled by atom gather.

:func:`repro.runtime.trainer.run_pipeline` (``executor="graph"``), the
joint autotuner (:func:`repro.core.strategy.autotune_config`) and
:func:`~repro.sim.graph_exec.compile_graph` over a builder-made schedule
execute the 1F1B, sliced-1F1B, GPipe and interleaved schedules thousands
of times on fresh cost profiles.  The generic compiled-graph route
rebuilds the world on every call: an instruction-tuple lowering pass
(:func:`~repro.sim.engine.lower_programs`) over the schedule's ops, a
tuple walk and a label per op — all to feed a numpy relaxation that
itself takes a fraction of the time.  This module compiles each schedule
*shape* once instead.

* **Skeleton.**  The cost-free part of a schedule depends only on its
  :func:`~repro.schedules.base.family_key` ``(family, stages,
  micro-batches, num_sliced, aggregate, chunks)``.  :func:`family_walk`
  emits it directly — node ids, edge order, replay records, memory and
  recv slots — by mirroring the builders' program loops
  (:func:`~repro.schedules.one_f_one_b.build_unit_1f1b` for 1f1b and
  sliced, :func:`~repro.schedules.gpipe.build_gpipe` for GPipe,
  :func:`~repro.schedules.interleaved.build_interleaved` for Megatron's
  interleaved order) and inlining what
  :meth:`~repro.sim.engine._Lowerer.compile_op` and the walk would
  produce for each op.  Where the walk stores a cost, the skeleton
  stores the index of an *atom*.  The compiled
  :class:`~repro.sim.graph_exec.GraphStructure` and the atom-index
  arrays (already permuted into level order) are cached together.

* **Atoms.**  A call computes the O(n) distinct cost values of its
  stage costs and device map (:func:`family_atoms`) with exactly the
  expressions the builders and the lowerer use:
  :class:`~repro.schedules.one_f_one_b._StageCosts` full and half
  durations, ``stash_full * frac`` and ``workspace_full * frac`` (plus
  the negated stash for the memory release slots), one
  :meth:`~repro.hardware.comm.CommModel.p2p_time_between` per (virtual)
  stage boundary, direction and payload fraction (0.0 for an empty
  payload), ``max(up, down)`` for fused exchanges, the link latency,
  0.0 and -0.0.  An interleaved schedule's stages are its virtual
  stages ``c * n + x``, each on device ``x``.  One numpy gather then
  fills every cost array of the
  :class:`~repro.sim.graph_exec.CompiledGraph`.  A gather only copies
  floats, so each result is bit-identical to build → lower → walk, and
  to the event engine, which stays the spec (property-tested in
  ``tests/sim/test_slice_eval.py``).

* **Builder tags.**  The family builders record the key, their stage
  costs and the schedule's identity signature on the
  :class:`~repro.schedules.base.Schedule` they return;
  :func:`compile_tagged` fills the skeleton from them while the
  signature still matches.  Hand-built or edited schedules compile by
  lower → walk.

* **Batching.**  :func:`evaluate_slice_counts` computes one layout's
  atoms once, groups its slice-count candidates by skeleton and relaxes
  each group in one :func:`~repro.sim.graph_exec.run_batch` pass.
  Different slice counts compile to different skeletons (each sliced
  micro-batch adds a unit), so the fan-in only merges within a slice
  count.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PartitionScheme
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    Schedule,
    Unit,
    family_key,
    full_units,
    unit_label,
)
from repro.schedules.interleaved import (
    _chunk_of,
    _microbatch_of,
    warmup_count,
)
from repro.schedules.one_f_one_b import _StageCosts
from repro.sim.engine import _COMPUTE, _EAGER, _RENDEZVOUS, ExecutionResult
from repro.sim.graph_exec import (
    _REC_COMPUTE,
    _REC_EAGER,
    _REC_RENDEZVOUS,
    _Walk,
    CompiledGraph,
    GraphCompileError,
    GraphStructure,
    run_batch,
    walked_structures,
)

#: run_pipeline schedule -> (emitter family, the builder's schedule name).
_SCHEDULES = {
    "1f1b": ("1f1b", "1f1b"),
    "sliced": ("1f1b", "autopipe-sliced"),
    "gpipe": ("gpipe", "gpipe"),
}

#: skeletons keyed by :func:`~repro.schedules.base.family_key`.
_FAMILY_STRUCTURES: "OrderedDict[tuple, _Skeleton]" = OrderedDict()
_FAMILY_CACHE_SIZE = 128

# Atom layout: three constants, then ``_STAGE_ATOMS`` per (virtual)
# stage, then ``_LINK_ATOMS`` per (virtual) stage boundary.  Within a group, ``h`` selects the
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
    stage_costs: Sequence[_StageCosts],
    boundary_bytes: float,
    cluster: Cluster,
    device_map: Sequence[int],
) -> np.ndarray:
    """The atom vector of one call.

    ``stage_costs`` holds one :class:`_StageCosts` per (virtual) stage
    and ``device_map`` the cluster device each of them runs on.  Every
    atom is the exact float the builders and
    :class:`~repro.sim.engine._Lowerer` compute for the same slot, so a
    gather of these values reproduces the lowered costs bit for bit.
    """
    n = len(stage_costs)
    if len(device_map) != n:
        raise ValueError("device_map must cover every pipeline stage")
    comm = CommModel(cluster.hw)
    atoms = [0.0, -0.0, cluster.hw.link_latency]
    for c in stage_costs:
        stash_f = c.stash_full * 1.0
        stash_h = c.stash_full * 0.5
        atoms += (
            c.fwd_full, c._partial(c.fwd_full, 0.5),
            c.bwd_full, c._partial(c.bwd_full, 0.5),
            stash_f, stash_h, -stash_f, -stash_h,
            c.workspace_full * 1.0, c.workspace_full * 0.5,
        )
    # The builders pass ``bbytes * unit_fraction(unit)`` (or ``bbytes``
    # itself, bitwise the same) to each Transfer and the lowerer prices
    # it per (src, dst) device pair.
    payloads = (boundary_bytes * 1.0, boundary_bytes * 0.5)
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
    return np.array(atoms)


def family_walk(
    family: str,
    num_stages: int,
    num_micro_batches: int,
    num_sliced: int = 0,
    *,
    aggregate: bool = True,
    num_chunks: int = 1,
    signature: bool = False,
) -> _Walk:
    """Emit the skeleton walk of one schedule shape.

    The returned :class:`~repro.sim.graph_exec._Walk` has the node ids,
    edge order, replay records and slot layout of
    ``_walk_programs(lower_programs(build_schedule(...)))`` for any
    profile of this shape, but its cost slots (``node_add``, ``e_w``,
    ``recv_durs``, ``mem_deltas``, ``workspace``) hold atom indices into
    :func:`family_atoms`.  ``family`` is ``"1f1b"`` (sliced when
    ``num_sliced > 0``, with the Slicer's eager half-activation sends
    when ``aggregate``), ``"gpipe"`` or ``"interleaved"`` (Megatron's
    order over ``num_chunks`` model chunks per device, whose atoms are
    laid out per virtual stage).  ``signature`` also records the
    lowered-shape signature ``_walk_programs`` would (``walk.sig``);
    it costs as much as the rest of the walk, so only shape matching
    asks for it.
    """
    if family not in ("1f1b", "gpipe", "interleaved"):
        raise ValueError(f"unknown schedule family {family!r}")
    n = num_stages
    m = num_micro_batches
    v = num_chunks
    if family == "interleaved":
        if v < 2 or n < 2 or m % n != 0:
            raise ValueError(
                f"no interleaved schedule of {n} stages, {m} micro-batches "
                f"and {v} chunks"
            )
        units = []
    elif family == "gpipe":
        units = full_units(m)
    else:
        units = _sliced_units(m, num_sliced)
    U = len(units)
    nv = n * v
    link0 = _CONSTANTS + _STAGE_ATOMS * nv

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
    sig_devices: List[List[tuple]] = []

    def act_tag(unit: Unit, x: int) -> str:
        return f"act:{unit_label(unit)}:{x}>{x + 1}"

    def grad_tag(unit: Unit, x: int) -> str:
        return f"grad:{unit_label(unit)}:{x}>{x - 1}"

    def eager_act(unit: Unit) -> bool:
        return aggregate and unit[1] != -1

    for x in range(n):
        records = walk.records[x]
        sig_ops: List[tuple] = []
        sig_devices.append(sig_ops)
        prev = -1
        prev_w = _ZERO

        def link(nid: int, add: int) -> None:
            """Chain node ``nid`` after the device's previous op."""
            nonlocal prev, prev_w
            if prev >= 0:
                e_dst.append(nid)
                e_src.append(prev)
                e_w.append(prev_w)
            prev, prev_w = nid, add

        def compute(kind: str, unit: Unit, phase: str, vs: int = x) -> None:
            """One forward/backward of ``unit`` on (virtual) stage ``vs``."""
            h = unit[1] != -1
            stage0 = _CONSTANTS + _STAGE_ATOMS * vs
            if kind == "F":
                add = stage0 + _F + h
                alloc, release = stage0 + _STASH + h, _NEG_ZERO
            else:
                add = stage0 + _B + h
                alloc, release = _ZERO, stage0 + _RELEASE + h
            nid = len(node_add)
            node_add.append(add)
            link(nid, add)
            label = f"{kind}({unit_label(unit)})"
            records.append([_REC_COMPUTE, nid, label, kind, phase])
            if signature:
                sig_ops.append((_COMPUTE, label, kind, phase))
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
            tags = tuple(sorted(t for _, t in parts))
            key = (lower, tags)
            if lower == x:
                nid = len(node_add)
                node_add.append(add)
                posts[key] = nid
            else:
                nid = posts.pop(key)
            link(nid, add)
            label = "comm[" + ",".join(d + t for d, t in parts) + "]"
            records.append([_REC_RENDEZVOUS, nid, label])
            if signature:
                sig_ops.append(
                    (_RENDEZVOUS, label, (lower, max(x, peer)), tags)
                )

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
            if signature:
                sig_ops.append((
                    _EAGER, label, () if send else (tag,),
                    (tag,) if send else (),
                ))
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

        if family == "interleaved":
            # -- mirroring build_interleaved: Megatron's virtual order ----
            nw = warmup_count(x, n, m, v)
            total = m * v
            whole = (0, -1)  # every unit is a whole micro-batch

            def fwd(k: int) -> None:
                c = _chunk_of(k, n, v, True)
                mb = _microbatch_of(k, n, v)
                vs = c * n + x
                if vs > 0:
                    eager(False, f"act:{mb}:vs{vs - 1}>vs{vs}",
                          up(vs - 1, whole))
                compute("F", (mb, -1), "warmup" if k < nw else "steady", vs)
                if vs < nv - 1:
                    eager(True, f"act:{mb}:vs{vs}>vs{vs + 1}", up(vs, whole))

            def bwd(k: int) -> None:
                c = _chunk_of(k, n, v, False)
                mb = _microbatch_of(k, n, v)
                vs = c * n + x
                if vs < nv - 1:
                    eager(False, f"grad:{mb}:vs{vs + 1}>vs{vs}",
                          down(vs, whole))
                compute(
                    "B", (mb, -1),
                    "steady" if k < total - nw else "cooldown", vs,
                )
                if vs > 0:
                    eager(True, f"grad:{mb}:vs{vs}>vs{vs - 1}",
                          down(vs - 1, whole))

            for k in range(nw):
                fwd(k)
            for j in range(total - nw):
                fwd(nw + j)
                bwd(j)
            for k in range(total - nw, total):
                bwd(k)
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
    if signature:
        walk.sig = tuple(tuple(ops) for ops in sig_devices)
    return walk


def _shape_counts(structure: GraphStructure) -> Tuple[int, int, int]:
    return len(structure.records), structure.num_nodes, structure.num_edges


def _walk_counts(walk: _Walk) -> Tuple[int, int, int]:
    return len(walk.records), len(walk.node_add), len(walk.e_dst)


def _key_walk(key: Tuple, *, signature: bool = False) -> _Walk:
    family, n, m, num_sliced, aggregate, num_chunks = key
    return family_walk(
        family, n, m, num_sliced, aggregate=aggregate,
        num_chunks=num_chunks, signature=signature,
    )


class _Skeleton:
    """A compiled structure plus the atom index of every cost slot.

    ``gather`` concatenates the level-order node adds, walk-order and
    level-order edge weights, recv durations, memory deltas and
    workspace indices; ``bounds`` splits one gathered vector back into
    those six arrays.
    """

    __slots__ = ("structure", "gather", "bounds")

    def __init__(self, key: Tuple) -> None:
        walk = _key_walk(key)
        structure = _walked_match(key, walk) or GraphStructure(walk)
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


def _walked_match(key: Tuple, walk: _Walk) -> Optional[GraphStructure]:
    """The structure of an already walked schedule of ``key``'s shape.

    Lowered-walk structures are cached by signature; the skeleton's own
    signature is emitted only when one of them has the walk's device,
    node and edge counts.
    """
    counts = _walk_counts(walk)
    sig = None
    for walked_sig, structure in walked_structures():
        if _shape_counts(structure) == counts:
            if sig is None:
                sig = _key_walk(key, signature=True).sig
            if sig == walked_sig:
                return structure
    return None


def _skeleton(key: Tuple) -> _Skeleton:
    """The cached skeleton of a :func:`~repro.schedules.base.family_key`."""
    skeleton = _FAMILY_STRUCTURES.get(key)
    if skeleton is not None:
        _FAMILY_STRUCTURES.move_to_end(key)
        return skeleton
    skeleton = _Skeleton(key)
    _FAMILY_STRUCTURES[key] = skeleton
    while len(_FAMILY_STRUCTURES) > _FAMILY_CACHE_SIZE:
        _FAMILY_STRUCTURES.popitem(last=False)
    return skeleton


def family_structure(walk: _Walk) -> Optional[GraphStructure]:
    """The structure of a cached skeleton with ``walk``'s shape, if any.

    Skeletons keep no signature, so each one with the walk's device,
    node and edge counts is emitted again, with its signature, and
    compared.  Only schedules that compile by lower → walk get here, on
    a miss of the walked-structure cache.
    """
    counts = _walk_counts(walk)
    for key, skeleton in _FAMILY_STRUCTURES.items():
        if (
            _shape_counts(skeleton.structure) == counts
            and _key_walk(key, signature=True).sig == walk.sig
        ):
            return skeleton.structure
    return None


def _fill(
    skeleton: _Skeleton,
    atoms: np.ndarray,
    schedule_name: str,
    static: Sequence[float],
    capacity: float,
) -> CompiledGraph:
    """Gather one call's atoms into the skeleton's cost arrays."""
    values = atoms[skeleton.gather]
    b = skeleton.bounds
    return CompiledGraph(
        skeleton.structure, schedule_name, static, capacity,
        node_add_lvl=values[b[0]:b[1]],
        edge_w_walk=values[b[1]:b[2]],
        edge_w_lvl=values[b[2]:b[3]],
        recv_durs=values[b[3]:b[4]],
        mem_deltas=values[b[4]:b[5]],
        workspace=values[b[5]:b[6]],
    )


def layout_atoms(
    profile: ModelProfile,
    partition: PartitionScheme,
    cluster: Cluster,
    device_map: Sequence[int],
) -> Tuple[np.ndarray, List[float]]:
    """The atoms and per-stage static bytes of one 1f1b/gpipe layout."""
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    atoms = family_atoms(costs, profile.boundary_bytes, cluster, device_map)
    static = [c.params * profile.train.bytes_per_param_state for c in costs]
    return atoms, static


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
    layout: Optional[Tuple[np.ndarray, List[float]]] = None,
) -> CompiledGraph:
    """Fill the cached skeleton of one schedule shape with this call's costs.

    ``schedule`` is ``run_pipeline``'s schedule name (``"1f1b"``,
    ``"sliced"`` or ``"gpipe"``; only ``"sliced"`` takes
    ``num_sliced > 0``) and sets the result's ``schedule_name`` to what
    its builder names the schedule.  A sliced run without slices shares
    the 1f1b skeleton but keeps the name ``"autopipe-sliced"``.
    ``layout`` is this profile's, partition's and device map's
    :func:`layout_atoms`, when the caller already has them.
    """
    family, schedule_name = _SCHEDULES[schedule]
    skeleton = _skeleton(family_key(
        family, partition.num_stages, num_micro_batches, num_sliced,
        aggregate,
    ))
    if layout is None:
        layout = layout_atoms(profile, partition, cluster, device_map)
    atoms, static = layout
    return _fill(
        skeleton, atoms, schedule_name, static, cluster.hw.gpu_memory
    )


def compile_tagged(
    schedule: Schedule, cluster: Cluster, device_map: Sequence[int]
) -> CompiledGraph:
    """Fill the skeleton a family builder tagged ``schedule`` with.

    The caller checks that the tag's signature still matches the
    schedule.  Virtual stage ``vs`` of an interleaved schedule runs on
    ``device_map[vs % n]``; for the other families ``vs`` is the stage.
    """
    tag = schedule.skeleton
    n = schedule.num_devices
    stage_devices = [
        device_map[vs % n] for vs in range(len(tag.stage_costs))
    ]
    atoms = family_atoms(
        tag.stage_costs, tag.boundary_bytes, cluster, stage_devices
    )
    return _fill(
        _skeleton(tag.key), atoms, schedule.name, schedule.static_bytes,
        cluster.hw.gpu_memory,
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
    ``"1f1b"`` for 0, ``"sliced"`` above): the layout's atoms are
    computed once, each candidate gathers them into its cached skeleton,
    and candidates sharing a skeleton relax together in one
    :func:`~repro.sim.graph_exec.run_batch` pass.  Results come back in
    ``slice_counts`` order.
    """
    if cluster is None:
        cluster = Cluster(profile.hardware)
    if device_map is None:
        device_map = cluster.pipeline_devices(partition.num_stages)
    layout = layout_atoms(profile, partition, cluster, device_map)
    results: List[Optional[ExecutionResult]] = [None] * len(slice_counts)
    groups: Dict[int, List[Tuple[int, CompiledGraph]]] = {}
    for i, num_sliced in enumerate(slice_counts):
        graph = compile_slice_graph(
            profile, partition, num_micro_batches, num_sliced,
            cluster, device_map,
            schedule="sliced" if num_sliced else "1f1b",
            aggregate=aggregate, layout=layout,
        )
        groups.setdefault(id(graph.structure), []).append((i, graph))
    for members in groups.values():
        evaluated = run_batch([g for _, g in members])
        for (i, _g), result in zip(members, evaluated):
            results[i] = result
    return results  # type: ignore[return-value]
