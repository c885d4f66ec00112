"""The paper's fast pipeline simulator (Section III-B-1).

Given per-stage forward/backward durations, the scalar ``Comm`` and the
number of micro-batches ``m``, the simulator derives the start time of every
FP/BP operation in a synchronous 1F1B pipeline, the iteration time, the
unique critical path and the **master stage**.

Per-stage operation order (stage ``x`` of ``n``, Megatron 1F1B):

* Warmup: ``w_x = min(m, n-1-x)`` forward passes for micro-batches
  ``0..w_x-1``.
* 1F1B (the paper's renumbered "blocks"): ``s_x = m - w_x`` alternating
  (FP, BP) pairs; block ``y`` pairs ``FP(w_x + y)`` with ``BP(y)`` —
  exactly ``max(0, m - n + x + 1)`` blocks when ``m >= n - 1``.
* Cooldown: the remaining ``w_x`` backward passes, micro-batches
  ``s_x..m-1``.

Start times follow the paper's recurrences: the start of an operation is
the max over its intra-stage predecessor and its cross-stage dependency,
**plus ``Comm``** whenever the paper's equations add it (FP with ``x != 0``,
BP with ``x != n-1``; Cooldown BPs likewise).  ``comm_mode="edges"``
instead charges ``Comm`` only on the cross-stage dependency edge — the
slightly more faithful model the DES uses — and exists so tests and the
Fig. 11 experiment can quantify the paper-mode bias.

Critical-path uniqueness (paper Fig. 4): when several predecessors are
tight, the walk prefers the one on the **higher stage index**, selecting
the longest path "closest to the last pipeline stage in the 1F1B phase".
The master stage is the stage where the critical path spends the most
steady-phase (1F1B) time, ties broken toward the last stage.

Performance notes (the planner calls :meth:`PipelineSim.run` thousands of
times per search sweep):

* the dependency DAG's **topology** is a pure function of ``(n, m)`` — a
  module-level :data:`shape cache <_SHAPE_CACHE>` stores the operation
  list, flat predecessor index arrays and a precomputed topological order,
  so repeated simulations of one shape skip graph construction entirely;
* every op has at most two predecessors and the dependency wavefront is at
  most ``n`` wide, so the recurrence itself runs as a tight loop over the
  cached flat index arrays (numpy handles the per-stage duration gather
  and the latest-op selection, where the arrays are wide enough to win);
* tight-predecessor sets are only needed along the critical path, so they
  are computed lazily during the backtrack instead of for every op;
* :class:`SimResult` stores flat arrays and materialises the
  ``op_start``/``op_end``/``op_phase`` dictionaries on first access —
  planner-style consumers that read only ``iteration_time`` and
  ``master_stage`` never pay for dict construction.

Batched scoring of many candidates (the exact oracle, robustness draws)
runs in the closed-form max-plus kernel of :mod:`repro.sim.analytic`,
which is property-tested bit for bit against this scalar simulator.

All of this is exact: start/end times, critical path, master stage and
tie-breaks are bit-for-bit identical to the straightforward dict-based
evaluation of the same recurrences (tests/core/test_analytic_sim_equivalence.py
checks against a reference implementation).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.profiling.modelconfig import ModelProfile

#: An operation id: ("F" | "B", stage, micro_batch).
OpId = Tuple[str, int, int]

WARMUP = "warmup"
STEADY = "steady"
COOLDOWN = "cooldown"


def _stage_order(n: int, m: int, x: int) -> List[Tuple[OpId, str]]:
    """The (op, phase) execution sequence of stage ``x`` (Megatron 1F1B)."""
    w = min(m, n - 1 - x)
    s = m - w
    order: List[Tuple[OpId, str]] = []
    for mb in range(w):
        order.append((("F", x, mb), WARMUP))
    for j in range(s):
        order.append((("F", x, w + j), STEADY))
        order.append((("B", x, j), STEADY))
    for mb in range(s, m):
        order.append((("B", x, mb), COOLDOWN))
    return order


class _Shape:
    """Topology of the ``(n, m)`` 1F1B dependency DAG.

    Nothing here depends on durations, so one instance is shared by every
    simulation of the same shape.  Arrays are indexed by a stage-major op
    index (stage ``x`` owns indices ``x*2m .. x*2m + 2m - 1`` in execution
    order).
    """

    __slots__ = (
        "n", "m", "ops", "index", "intra", "cross", "order",
        "kahn_pos", "stage", "is_fwd", "phases", "startup_index", "_preds",
    )

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m
        ops: List[OpId] = []
        phases: List[str] = []
        index: Dict[OpId, int] = {}
        for x in range(n):
            for op, ph in _stage_order(n, m, x):
                index[op] = len(ops)
                ops.append(op)
                phases.append(ph)
        size = len(ops)
        #: intra-stage predecessor index (-1 for the first op of a stage).
        intra = [-1] * size
        for x in range(n):
            base = x * 2 * m
            for k in range(1, 2 * m):
                intra[base + k] = base + k - 1
        #: cross-stage dependency index (-1 when none): FP waits on the
        #: previous stage's FP, BP on the next stage's BP.
        cross = [-1] * size
        for i, (kind, x, mb) in enumerate(ops):
            if kind == "F" and x > 0:
                cross[i] = index[("F", x - 1, mb)]
            elif kind == "B" and x < n - 1:
                cross[i] = index[("B", x + 1, mb)]

        # Kahn's algorithm (FIFO, seeded in stage-major op order).  The
        # completion order is purely topological, so it is cached with the
        # shape; ``kahn_pos`` reproduces the reference implementation's
        # dict insertion order for the latest-op tie-break.
        indeg = [0] * size
        succs: List[List[int]] = [[] for _ in range(size)]
        for i in range(size):
            for q in (cross[i], intra[i]):
                if q >= 0:
                    indeg[i] += 1
                    succs[q].append(i)
        ready = deque(i for i in range(size) if indeg[i] == 0)
        order: List[int] = []
        while ready:
            i = ready.popleft()
            order.append(i)
            for nxt in succs[i]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != size:
            raise RuntimeError("cyclic pipeline dependency graph (internal bug)")
        kahn_pos = np.empty(size, dtype=np.int64)
        for pos, i in enumerate(order):
            kahn_pos[i] = pos

        self.ops = ops
        self.index = index
        self.intra = intra
        self.cross = cross
        self.order = order
        self.kahn_pos = kahn_pos
        self.stage = np.asarray([op[1] for op in ops], dtype=np.int64)
        self.is_fwd = np.asarray([op[0] == "F" for op in ops])
        self.phases = tuple(phases)
        self.startup_index = index[("F", n - 1, 0)]
        self._preds: Optional[Tuple[np.ndarray, ...]] = None

    def pred_arrays(self) -> Tuple[np.ndarray, ...]:
        """Duration-independent arrays for the vectorised tight-pred table.

        ``(cross, intra, cross_safe, intra_safe, has_cross, has_intra,
        cross_stage, intra_stage)`` — the ``*_safe`` arrays clamp the
        missing-predecessor sentinel -1 to 0 for gathers (masked out by
        the ``has_*`` arrays).  Built lazily and cached with the shape.
        """
        cached = self._preds
        if cached is None:
            cross = np.asarray(self.cross, dtype=np.int64)
            intra = np.asarray(self.intra, dtype=np.int64)
            c_safe = np.maximum(cross, 0)
            q_safe = np.maximum(intra, 0)
            cached = (
                cross, intra, c_safe, q_safe, cross >= 0, intra >= 0,
                self.stage[c_safe], self.stage[q_safe],
            )
            self._preds = cached
        return cached

#: LRU cache of DAG topologies keyed by (num_stages, num_micro_batches).
_SHAPE_CACHE: "OrderedDict[Tuple[int, int], _Shape]" = OrderedDict()
_SHAPE_CACHE_SIZE = 128


def _shape(n: int, m: int) -> _Shape:
    key = (n, m)
    shape = _SHAPE_CACHE.get(key)
    if shape is None:
        shape = _Shape(n, m)
        _SHAPE_CACHE[key] = shape
        if len(_SHAPE_CACHE) > _SHAPE_CACHE_SIZE:
            _SHAPE_CACHE.popitem(last=False)
    else:
        _SHAPE_CACHE.move_to_end(key)
    return shape


@dataclass(frozen=True)
class SimResult:
    """Output of one pipeline simulation.

    Per-op start/end/phase are stored as flat arrays aligned with the
    shape's op list; the dict views (``op_start`` etc.) are built lazily on
    first access so hot planner loops never pay for them.
    """

    iteration_time: float
    startup_overhead: float
    master_stage: int
    critical_path: Tuple[OpId, ...]
    stage_times: StageTimes
    num_micro_batches: int
    _ops: List[OpId] = field(repr=False, compare=False)
    _start: "np.ndarray" = field(repr=False, compare=False)
    _end: "np.ndarray" = field(repr=False, compare=False)
    _phases: Tuple[str, ...] = field(repr=False, compare=False)

    @cached_property
    def op_start(self) -> Dict[OpId, float]:
        return dict(zip(self._ops, self._start.tolist()))

    @cached_property
    def op_end(self) -> Dict[OpId, float]:
        return dict(zip(self._ops, self._end.tolist()))

    @cached_property
    def op_phase(self) -> Dict[OpId, str]:
        return dict(zip(self._ops, self._phases))

    @property
    def num_stages(self) -> int:
        return self.stage_times.num_stages

    def stage_busy_time(self, stage: int) -> float:
        f, b = self.stage_times.fwd[stage], self.stage_times.bwd[stage]
        return self.num_micro_batches * (f + b)

    def bubble_fraction(self, stage: int) -> float:
        """Idle fraction of one stage over the iteration."""
        if self.iteration_time <= 0:
            return 0.0
        return 1.0 - self.stage_busy_time(stage) / self.iteration_time


class PipelineSim:
    """Evaluates the 1F1B dependency DAG for one partition scheme."""

    def __init__(
        self,
        times: StageTimes,
        num_micro_batches: int,
        *,
        comm_mode: str = "paper",
    ) -> None:
        if num_micro_batches <= 0:
            raise ValueError("need at least one micro-batch")
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        self.times = times
        self.m = num_micro_batches
        self.comm_mode = comm_mode
        self.n = times.num_stages
        self._shape = _shape(self.n, self.m)

    # -- op-order construction --------------------------------------------

    def stage_order(self, x: int) -> List[Tuple[OpId, str]]:
        """The (op, phase) execution sequence of stage ``x``."""
        return _stage_order(self.n, self.m, x)

    def _dependencies(self, op: OpId) -> List[OpId]:
        kind, x, mb = op
        deps: List[OpId] = []
        if kind == "F" and x > 0:
            deps.append(("F", x - 1, mb))
        if kind == "B" and x < self.n - 1:
            deps.append(("B", x + 1, mb))
        return deps

    def _duration(self, op: OpId) -> float:
        kind, x, _ = op
        return self.times.fwd[x] if kind == "F" else self.times.bwd[x]

    def _comm_applies(self, op: OpId) -> bool:
        kind, x, _ = op
        return (kind == "F" and x > 0) or (kind == "B" and x < self.n - 1)

    # -- evaluation --------------------------------------------------------

    def _durations(self) -> List[float]:
        """Per-op durations: gather the stage's fwd/bwd time by op kind."""
        shape = self._shape
        return np.where(
            shape.is_fwd,
            np.asarray(self.times.fwd)[shape.stage],
            np.asarray(self.times.bwd)[shape.stage],
        ).tolist()

    def _relax_scalar(
        self,
        order: List[int],
        start: List[float],
        end: List[float],
        dur: List[float],
    ) -> None:
        """Run the start-time recurrence over ``order`` in place.

        ``order`` must be topologically consistent: every predecessor of
        an op is earlier in ``order``.  Each op performs one fixed IEEE
        operation sequence (``max`` of predecessor ends, ``+ comm``,
        ``+ dur``), the sequence the frontier kernel reproduces bitwise.
        """
        shape = self._shape
        comm = self.times.comm
        intra, cross = shape.intra, shape.cross
        if self.comm_mode == "paper":
            # start = max(0, intra end, cross end) (+ Comm when the paper's
            # equations add it, i.e. exactly when a cross dependency exists).
            for i in order:
                base = 0.0
                c = cross[i]
                if c >= 0:
                    base = end[c]
                q = intra[i]
                if q >= 0 and end[q] > base:
                    base = end[q]
                s = base + comm if c >= 0 else base
                start[i] = s
                end[i] = s + dur[i]
        else:
            # "edges": Comm charged on the cross-dependency arrival only.
            for i in order:
                s = 0.0
                c = cross[i]
                if c >= 0:
                    arrival = end[c] + comm
                    if arrival > s:
                        s = arrival
                q = intra[i]
                if q >= 0 and end[q] > s:
                    s = end[q]
                start[i] = s
                end[i] = s + dur[i]

    def run(self) -> SimResult:
        shape = self._shape
        size = len(shape.ops)
        dur = self._durations()
        start = [0.0] * size
        end = [0.0] * size
        self._relax_scalar(shape.order, start, end, dur)
        return self._finalize(start, end, dur)

    def _finalize(
        self, start: List[float], end: List[float], dur: List[float]
    ) -> SimResult:
        """Winner selection, critical-path backtrack and master stage.

        Split from :meth:`run` so the recurrence and the backtrack can be
        read (and profiled) separately.
        """
        shape = self._shape
        start_arr = np.asarray(start)
        end_arr = np.asarray(end)
        # Latest op, ties broken toward the higher stage, then the earliest
        # Kahn completion (the reference dict-iteration order).
        candidates = np.nonzero(end_arr == end_arr.max())[0]
        top_stage = shape.stage[candidates]
        candidates = candidates[top_stage == top_stage.max()]
        last = int(candidates[np.argmin(shape.kahn_pos[candidates])])
        iteration_time = end[last]

        best_pred = self._tight_pred_table(start_arr, end_arr).tolist()
        path_idx: List[int] = []
        cur = last
        while cur >= 0:
            path_idx.append(cur)
            cur = best_pred[cur]
        path_idx.reverse()

        master = self._master_stage(path_idx, dur)
        return SimResult(
            iteration_time=iteration_time,
            startup_overhead=start[shape.startup_index],
            master_stage=master,
            critical_path=tuple(shape.ops[i] for i in path_idx),
            stage_times=self.times,
            num_micro_batches=self.m,
            _ops=shape.ops,
            _start=start_arr,
            _end=end_arr,
            _phases=shape.phases,
        )

    def _tight_pred_table(
        self, start_arr: "np.ndarray", end_arr: "np.ndarray"
    ) -> "np.ndarray":
        """Critical predecessor of every op at once (-1 at sources).

        Vectorised :meth:`_tight_pred`: the same tolerance arithmetic and
        the same higher-``(stage, end)`` preference among tight
        predecessors, evaluated as one pass of array expressions over all
        ops instead of a Python walk per critical-path node — the planner
        runs one backtrack per candidate, so this is its hottest
        finalisation step.  Bit-identical selection by construction (each
        op has at most two predecessors, so the scalar method's ordered
        tie-break is a closed-form pick between ``cross`` and ``intra``).
        """
        cross, intra, c_safe, q_safe, has_c, has_q, sc, sq = (
            self._shape.pred_arrays()
        )
        neg = -np.inf
        ec = np.where(has_c, end_arr[c_safe], neg)
        eq = np.where(has_q, end_arr[q_safe], neg)
        comm = self.times.comm
        if self.comm_mode == "paper":
            base = np.maximum(np.maximum(ec, eq), 0.0)
            lim = base - (1e-12 + 1e-9 * np.maximum(base, 1.0))
            tight_c = has_c & (ec >= lim)
            tight_q = has_q & (eq >= lim)
        else:
            lim = start_arr - (1e-12 + 1e-9 * np.maximum(start_arr, 1.0))
            tight_c = has_c & (ec + comm >= lim)
            tight_q = has_q & (eq >= lim)
        prefer_q = tight_c & tight_q & ((sq > sc) | ((sq == sc) & (eq > ec)))
        best = np.where(tight_c, cross, -1)
        return np.where(prefer_q | (tight_q & ~tight_c), intra, best)

    def _tight_pred(
        self, i: int, start: List[float], end: List[float], dur: List[float]
    ) -> int:
        """The unique critical predecessor of op ``i`` (or -1 at a source).

        Tightness uses the same tolerance as the recurrences; among tight
        predecessors the walk prefers the higher stage (paper Fig. 4), then
        the latest-finishing.  Scalar reference for
        :meth:`_tight_pred_table` (which the backtrack uses); kept because
        the per-op form *is* the specification the table must match.
        """
        shape = self._shape
        c, q = shape.cross[i], shape.intra[i]
        preds = [p for p in (c, q) if p >= 0]
        if not preds:
            return -1
        comm = self.times.comm
        if self.comm_mode == "paper":
            base = 0.0
            for p in preds:
                if end[p] > base:
                    base = end[p]
            tol = 1e-12 + 1e-9 * max(base, 1.0)
            tight = [p for p in preds if end[p] >= base - tol]
        else:
            s = start[i]
            tol = 1e-12 + 1e-9 * max(s, 1.0)
            tight = [
                p for p in preds
                if end[p] + (comm if p == c else 0.0) >= s - tol
            ]
        stage = shape.stage
        best = tight[0]
        for p in tight[1:]:
            if (stage[p], end[p]) > (stage[best], end[best]):
                best = p
        return best

    def _master_stage(self, path_idx: List[int], dur: List[float]) -> int:
        """Stage with the most steady-phase critical-path time (tie: last)."""
        shape = self._shape
        weight = [0.0] * self.n
        for i in path_idx:
            if shape.phases[i] == STEADY:
                weight[shape.ops[i][1]] += dur[i]
        if max(weight) > 0.0:
            best = max(weight)
            return max(x for x in range(self.n) if weight[x] >= best * (1 - 1e-9))
        # Degenerate pipelines (tiny m): fall back to the heaviest stage.
        total = self.times.total
        best = max(total)
        return max(x for x in range(self.n) if total[x] >= best * (1 - 1e-9))


def simulate_partition(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
) -> SimResult:
    """Convenience wrapper: aggregate stage times from a profile and run."""
    return PipelineSim(
        stage_times(partition, profile), num_micro_batches, comm_mode=comm_mode
    ).run()
