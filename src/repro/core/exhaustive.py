"""Exhaustive pipeline-partition search (verification oracle).

The oracle finds the *true* optimal contiguous partition of the block
sequence into ``p`` stages, to quantify how close the heuristic Planner
gets (the paper argues the heuristic trades a bounded amount of quality
for an order-of-magnitude search-time reduction;
``benchmarks/test_bench_ablation_search.py`` and
``tests/core/test_exhaustive.py`` measure exactly that).

Two search modes share one argmin semantics (first partition in the
lexicographic cut order achieving the minimum iteration time):

* ``prune=False`` — the literal brute force: every one of the
  ``C(n-1, p-1)`` candidates is simulated by the scalar
  :class:`~repro.core.analytic_sim.PipelineSim`.  This is the
  bit-exactness reference.
* ``prune=True`` (default) — branch-and-bound over cut positions.  A DFS
  assigns stage sizes left to right; each partial assignment is bounded
  below using prefix sums (see :func:`docs/search.md <search>` and the
  bound derivation in ``_search_pruned``) and subtrees whose bound
  exceeds the incumbent are discarded without simulation.  Surviving
  leaves are buffered and evaluated in chunks by the vectorised
  :class:`~repro.core.analytic_sim.PipelineSimBatch`; candidate stage
  times use the same left-to-right slice summation as the brute force,
  and the batch recurrences are bit-identical to scalar runs, so the
  returned partition and iteration time match the brute force exactly
  (property-tested in ``tests/core/test_search_properties.py``).

``incremental=True`` (default, with ``prune=True``) keeps the same
bounds and the same prune decisions but restructures the descent around
the simulator's prefix-reuse API:

* every bound a DFS node can ever need is a pure function of
  ``(s, pos, size)``, so per-``(s, pos)`` **bound tables** are built once
  and the hot loop reduces to two list reads and compares per child
  (the tables hold the identical floats the per-node arithmetic would
  produce, so prune decisions are bitwise the same);
* a **dominance memo** prunes a subtree outright when an
  already-expanded node at the same ``(pos)`` had the identical
  per-stage time tuples: the earlier twin (lexicographically smaller,
  because the DFS enumerates sizes in increasing order) either offered
  or provably bound-pruned every leaf the new subtree could contribute;
* surviving leaves share the stage-time prefix fixed by the partial
  assignment; chunk flushes go through
  :class:`~repro.core.analytic_sim.SuffixSimBatch` over cached
  :class:`~repro.core.analytic_sim.PrefixState` checkpoint chains (cut
  ``p - 1``), so the batched relaxation skips every level of the
  checkpointed free lattice.

All three are exact: the returned partition and iteration time still
match the brute force bit for bit (property-tested with the memo
enabled), and ``suffix_sims`` / ``dominance_pruned`` report how much
work the incremental path avoided.

A shared :class:`~repro.core.planner.SimCache` can be threaded through:
stage-time vectors the planner already simulated in the same process are
harvested from the cache instead of re-simulated, and the hit count is
reported on the result.
"""

from __future__ import annotations

import itertools
import math
import os
import time as _time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analytic_sim import (
    PipelineSim,
    PipelineSimBatch,
    PrefixState,
    SimResult,
    SuffixSimBatch,
)
from repro.core.balance_dp import min_max_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.planner import SimCache, plan_partition
from repro.obs import stats as _stats
from repro.obs import telemetry as _obs
from repro.profiling.modelconfig import ModelProfile
from repro.robustness.evaluate import RobustObjective, robust_objective_batch

#: relative slack on the pruning test: a subtree is discarded only when
#: its lower bound exceeds the incumbent by more than this factor, so
#: float rounding in the prefix-sum bounds (~1e-14 relative) can never
#: prune the true optimum or a tie the brute force would have kept.
_PRUNE_SLACK = 1.0 + 1e-9

#: candidates buffered between vectorised evaluation passes: the
#: analytic search's kernel tile width (columns per frontier sweep) and
#: the robust oracle's scoring rows (candidates x draws).  4096 keeps a
#: tile's stage-cost and frontier matrices cache-resident; measured on a
#: 2-vCPU x86 VM (m = 48), a 12 x 160k frontier sweep took 1231 ms of CPU
#: in 131072-wide blocks, 492 ms at 8192, 411 ms at 4096 and 438-458 ms
#: at 1024-2048.
_DEFAULT_CHUNK = 4096

#: prefixes expanded together per level by the analytic and robust
#: searches' depth-first lexicographic walk (children are split so one
#: expansion holds at most this many prefixes).  With the tile width it
#: bounds the walk's working set to O(tile + batch * p) values, however
#: many candidates the search admits.
_PREFIX_BATCH = 4096

#: prefix-checkpoint chains kept alive during one incremental search;
#: on overflow the memo is dropped wholesale (correctness-free: chains
#: are a pure cache and are rebuilt on demand).
_CHAIN_CAP = 65536

#: dominance-memo entries kept during one incremental search; beyond the
#: cap new nodes are simply no longer memoised (pruning less is exact).
_DOMINANCE_CAP = 1_000_000

#: minimum rows sharing one cut prefix before a flush builds a
#: checkpoint chain for them; sparser groups are evaluated through the
#: shared cut-0 state (one scalar ``extend`` costs more than the
#: level-skip saves on a handful of rows).
_CHAIN_MIN_GROUP = 8

#: search-space size from which the planner warm start pays for itself
#: (the planner runs a few dozen scalar simulations; below this the
#: whole search often costs less than that).
_WARM_START_MIN_SPACE = 1_000_000


@dataclass(frozen=True)
class ExhaustiveResult:
    """The true optimum over all contiguous partitions."""

    partition: PartitionScheme
    sim: SimResult
    #: full simulations actually run (batched or scalar).
    evaluations: int
    search_seconds: float
    #: size of the search space, C(n-1, p-1).
    space: int
    #: candidates served from the shared :class:`SimCache`.
    cache_hits: int = 0
    #: candidates evaluated through the prefix-checkpointed suffix batch
    #: (each one is a full simulation *avoided* — only the suffix
    #: wavefront was relaxed).
    suffix_sims: int = 0
    #: candidates eliminated by the dominance memo (a subset of
    #: :attr:`pruned`, attributed to twin-subtree detection rather than
    #: the lower bounds).
    dominance_pruned: int = 0
    #: the winner's robust objective value when searching with
    #: ``robust=`` (statistic over the perturbation draws); None for the
    #: nominal objective.
    robust_value: Optional[float] = None
    #: worker processes the search ran on (1 = in-process serial).
    jobs: int = 1
    #: worker processes asked for (after resolving the process default,
    #: before clamping to the machine's core count).  Spawning more
    #: workers than cores only adds pool overhead — BENCH_search.json's
    #: ``parallel_oracle`` measured 0.8-0.9x "speedups" on starved
    #: machines — so the dispatch clamps and records the request here.
    requested_jobs: int = 1
    #: top-level cut subtrees processed per worker process when
    #: ``jobs > 1`` (sorted descending; empty for serial searches).  The
    #: parallel bench and autotune logs use this to show shard balance.
    worker_subtrees: Tuple[int, ...] = ()
    #: times the incumbent (best-so-far candidate) was replaced during
    #: the search, summed across workers when sharded (folds into the
    #: ``oracle.incumbent_updates`` telemetry counter).
    incumbent_updates: int = 0

    @property
    def iteration_time(self) -> float:
        return self.sim.iteration_time

    @property
    def jobs_downgraded(self) -> bool:
        """True when the dispatch clamped ``jobs`` below the request
        (fewer cores than workers asked for, or no pool available)."""
        return self.jobs < self.requested_jobs

    @property
    def pruned(self) -> int:
        """Candidates eliminated by bounds without any simulation."""
        return self.space - self.evaluations - self.cache_hits

    @property
    def sims_per_second(self) -> float:
        """Search throughput: full simulations per wall-clock second.

        Thin view over :func:`repro.obs.stats.rate` — the same formula
        the telemetry report derives from the ``oracle.evaluations`` /
        ``oracle.search_seconds`` counters, which are folded from these
        very fields.
        """
        return _stats.rate(self.evaluations, self.search_seconds)


def iter_partitions(num_blocks: int, num_stages: int) -> Iterator[Tuple[int, ...]]:
    """Yield every contiguous partition as a tuple of stage sizes."""
    if num_stages <= 0 or num_stages > num_blocks:
        raise ValueError(
            f"cannot cut {num_blocks} blocks into {num_stages} stages"
        )
    for cuts in itertools.combinations(range(1, num_blocks), num_stages - 1):
        edges = (0, *cuts, num_blocks)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def count_partitions(num_blocks: int, num_stages: int) -> int:
    """C(n-1, p-1): the size of the search space the heuristic avoids."""
    from math import comb

    if num_stages <= 0 or num_stages > num_blocks:
        raise ValueError(
            f"cannot cut {num_blocks} blocks into {num_stages} stages"
        )
    return comb(num_blocks - 1, num_stages - 1)


class _SearchState:
    """Incumbent tracking with brute-force-identical argmin semantics.

    The brute force keeps the lexicographically-first candidate achieving
    the minimum (strict ``<`` update in enumeration order).  The pruned
    search may evaluate a warm-start candidate out of order, so the
    update rule here breaks time ties toward the lexicographically
    smaller ``sizes`` tuple — equivalent to the brute force's rule for
    any evaluation order that covers the same candidates.

    ``bound`` is the value the pruning tests compare against.  Serially
    it always equals ``best_time``.  Under the multiprocess oracle a
    worker's state additionally tracks the cluster-wide incumbent
    published through ``shared`` (a
    :class:`~repro.core.parallel_search.SharedBound` over a
    ``multiprocessing.Value``): :meth:`sync` — called between chunk
    flushes — publishes the local best and pulls the global minimum into
    ``bound``.  Pruning against another worker's incumbent is exact for
    the same reason warm seeds are: the bound is a *simulated* candidate
    time, so any subtree it discards holds only candidates provably
    worse than the final optimum (ties always survive because the prune
    test requires ``lb > bound * slack >= final_best``).
    """

    __slots__ = (
        "best_time", "best_sizes", "evaluations", "cache_hits",
        "suffix_sims", "dominance_pruned", "incumbent_updates",
        "bound", "shared",
    )

    def __init__(self, shared=None) -> None:
        self.best_time = float("inf")
        self.best_sizes: Optional[Tuple[int, ...]] = None
        self.evaluations = 0
        self.cache_hits = 0
        self.suffix_sims = 0
        self.dominance_pruned = 0
        self.incumbent_updates = 0
        self.shared = shared
        self.bound = shared.peek() if shared is not None else float("inf")

    def offer(self, sizes: Tuple[int, ...], t: float) -> None:
        if t < self.best_time or (
            t == self.best_time and sizes < self.best_sizes
        ):
            self.best_time = t
            self.best_sizes = sizes
            self.incumbent_updates += 1
        if self.best_time < self.bound:
            self.bound = self.best_time

    def sync(self) -> None:
        """Exchange incumbents with the other workers (no-op serially)."""
        if self.shared is not None:
            self.shared.publish(self.best_time)
            g = self.shared.peek()
            if g < self.bound:
                self.bound = g


def _stage_sums(
    fwd: Sequence[float], bwd: Sequence[float], sizes: Sequence[int]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Left-to-right per-stage slice sums (the brute force's summation)."""
    f_stages: List[float] = []
    b_stages: List[float] = []
    pos = 0
    for size in sizes:
        f_stages.append(sum(fwd[pos:pos + size]))
        b_stages.append(sum(bwd[pos:pos + size]))
        pos += size
    return tuple(f_stages), tuple(b_stages)


def _search_brute(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    sim_cache: Optional[SimCache],
    state: _SearchState,
    first_sizes: Optional[frozenset] = None,
) -> None:
    """The literal brute force: one scalar simulation per candidate.

    ``first_sizes`` restricts enumeration to candidates whose first
    stage holds one of the given block counts — the multiprocess
    oracle's shard shape (each worker covers a disjoint subset; their
    union is the full space).
    """
    n = len(fwd)
    for sizes in iter_partitions(n, num_stages):
        if first_sizes is not None and sizes[0] not in first_sizes:
            continue
        f_stages, b_stages = _stage_sums(fwd, bwd, sizes)
        times = StageTimes(f_stages, b_stages, comm)
        sim = sim_cache.peek(times, num_micro_batches, comm_mode) \
            if sim_cache is not None else None
        if sim is not None:
            state.cache_hits += 1
        else:
            sim = PipelineSim(
                times, num_micro_batches, comm_mode=comm_mode
            ).run()
            state.evaluations += 1
        state.offer(sizes, sim.iteration_time)


def _fold_tables(
    fwd: Sequence[float], bwd: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-fold slice sums ``S[pos, size - 1]`` of blocks ``pos..``.

    ``cumsum`` runs the same sequential accumulation as the brute
    force's per-stage fold, so every in-range entry is bitwise the
    stage cost :func:`_stage_sums` computes.  Entries past the last
    block repeat the row total; the admission grids never reach them.
    """
    n = len(fwd)
    src = np.arange(n)[:, None] + np.arange(n)[None, :]
    in_range = src < n
    clipped = np.minimum(src, n - 1)
    SF = np.where(in_range, np.asarray(fwd, dtype=np.float64)[clipped], 0.0)
    SB = np.where(in_range, np.asarray(bwd, dtype=np.float64)[clipped], 0.0)
    np.cumsum(SF, axis=1, out=SF)
    np.cumsum(SB, axis=1, out=SB)
    return SF, SB


def _size_grid(n: int, num_stages: int, s: int) -> np.ndarray:
    """``(pos, size - 1)`` grid of stage ``s`` sizes that leave every
    later stage at least one block."""
    k_row = np.arange(n)[None, :]
    return k_row < (n - np.arange(n)[:, None] - (num_stages - s - 1))


def _first_sizes_mask(n: int, first_sizes: frozenset) -> np.ndarray:
    return np.array(
        [(k + 1) in first_sizes for k in range(n)], dtype=bool
    )[None, :]


def _iter_lex_tiles(
    SF: np.ndarray,
    SB: np.ndarray,
    masks: Sequence[np.ndarray],
    width: int,
    dominance: Optional[_SearchState] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every admitted candidate, in lexicographic sizes order, in tiles.

    ``masks[s]`` is the ``(pos, size - 1)`` admission grid of stage
    ``s`` (``p - 1`` grids; the last stage takes the remaining blocks).
    Yields stage-major ``(sizes, fwd, bwd)`` tiles of ``width`` columns
    (the last one may be narrower), each column one candidate's stage
    sizes and left-fold stage costs (``SF``/``SB`` from
    :func:`_fold_tables`).  Tiles may be views; callers only read them.

    The walk is depth-first over bounded batches: a level's prefixes are
    expanded in groups of at most :data:`_PREFIX_BATCH` children, and
    each group is walked to the leaves before the next is expanded.
    ``np.nonzero`` lists each position's admitted sizes ascending and
    ``repeat`` keeps siblings together, so the leaves arrive in
    lexicographic order.  Memory is bounded by the batch and tile
    sizes, never by the number of admitted candidates.

    ``dominance`` (a search state) enables the dominance memo: a prefix
    whose ``(pos, f_stages, b_stages)`` repeats an earlier prefix of the
    same length is dropped with its subtree, counted on
    ``dominance.dominance_pruned`` with the DFS memo's ``comb``
    arithmetic.  The walk's lexicographic order makes the kept twin the
    first one seen — the one the serial DFS explores.  Twins can only
    differ at a stage whose fold is *flat* (another size at the same
    position has identical fwd and bwd sums: zero-cost or absorbed
    blocks), so only prefixes holding a flat stage are memoised; on
    profiles without such stages the memo stays empty.
    """
    n = SF.shape[0]
    p = len(masks) + 1
    levels = []
    for mk in masks:
        w = mk.sum(axis=1)
        levels.append((w, np.concatenate(([0], np.cumsum(w))),
                       np.nonzero(mk)[1]))
    q = np.arange(n)
    suf_f = SF[q, n - q - 1]
    suf_b = SB[q, n - q - 1]
    flat = None
    if dominance is not None:
        valid = _size_grid(n, 1, 0)
        same = (
            (SF[:, :, None] == SF[:, None, :])
            & (SB[:, :, None] == SB[:, None, :])
            & valid[:, :, None] & valid[:, None, :]
        )
        flat = same.sum(axis=2) > 1
        memo: List[set] = [set() for _ in range(p)]
    pend: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pend_cols = 0

    def emit(pos, sz, fs, bs):
        """Append the forced last stage and cut full tiles."""
        nonlocal pend, pend_cols
        k = pos.size
        S = np.empty((p, k), dtype=np.int64)
        F = np.empty((p, k))
        B = np.empty((p, k))
        S[:p - 1] = sz
        F[:p - 1] = fs
        B[:p - 1] = bs
        S[p - 1] = n - pos
        F[p - 1] = suf_f[pos]
        B[p - 1] = suf_b[pos]
        pend.append((S, F, B))
        pend_cols += k
        if pend_cols < width:
            return
        if len(pend) > 1:
            S, F, B = (np.concatenate(part, axis=1) for part in zip(*pend))
        full = pend_cols - pend_cols % width
        for c in range(0, full, width):
            yield S[:, c:c + width], F[:, c:c + width], B[:, c:c + width]
        pend = [(S[:, full:], F[:, full:], B[:, full:])] \
            if full < pend_cols else []
        pend_cols -= full

    def dedup(s, pos, fs, bs, fl) -> Optional[np.ndarray]:
        """Keep-mask over a child group at length ``s``, or None."""
        idx = np.flatnonzero(fl)
        if idx.size == 0:
            return None
        keys = np.concatenate(
            [pos[None, idx].astype(np.float64), fs[:, idx], bs[:, idx]]
        ).T.tolist()
        seen = memo[s]
        drop = []
        for i, key in zip(idx.tolist(), keys):
            key = tuple(key)
            if key in seen:
                drop.append(i)
                dominance.dominance_pruned += math.comb(
                    n - int(key[0]) - 1, p - s - 1
                )
            else:
                seen.add(key)
        if not drop:
            return None
        keep = np.ones(pos.size, dtype=bool)
        keep[drop] = False
        return keep

    def walk(s, pos, sz, fs, bs, fl):
        if s == p - 1:
            yield from emit(pos, sz, fs, bs)
            return
        w, off, fk = levels[s]
        wc = w[pos]
        ends = np.cumsum(wc)
        i = 0
        while i < pos.size:
            base = int(ends[i - 1]) if i else 0
            j = int(np.searchsorted(ends, base + _PREFIX_BATCH, side="right"))
            if j <= i:
                j = i + 1
            total = int(ends[j - 1]) - base
            if total:
                rep = np.repeat(np.arange(i, j), wc[i:j])
                r = np.arange(base, base + total) - (ends[rep] - wc[rep])
                prow = pos[rep]
                til = fk[off[prow] + r]
                cpos = prow + til + 1
                csz = np.empty((s + 1, total), dtype=np.int64)
                cfs = np.empty((s + 1, total))
                cbs = np.empty((s + 1, total))
                csz[:s] = sz[:, rep]
                cfs[:s] = fs[:, rep]
                cbs[:s] = bs[:, rep]
                csz[s] = til + 1
                cfs[s] = SF[prow, til]
                cbs[s] = SB[prow, til]
                cfl = None
                if flat is not None:
                    cfl = fl[rep] | flat[prow, til]
                    if s + 1 < p - 1:
                        keep = dedup(s + 1, cpos, cfs, cbs, cfl)
                        if keep is not None:
                            cpos, csz, cfs, cbs, cfl = (
                                cpos[keep], csz[:, keep], cfs[:, keep],
                                cbs[:, keep], cfl[keep],
                            )
                yield from walk(s + 1, cpos, csz, cfs, cbs, cfl)
            i = j

    yield from walk(
        0, np.zeros(1, dtype=np.int64), np.zeros((0, 1), dtype=np.int64),
        np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(1, dtype=bool),
    )
    if pend_cols:
        S, F, B = (np.concatenate(part, axis=1) for part in zip(*pend))
        yield S, F, B


def _search_robust(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
    chunk_size: int,
    robust: RobustObjective,
    first_sizes: Optional[frozenset] = None,
) -> None:
    """Exact robust oracle: tiled batched brute force over all candidates.

    The nominal lower bounds of the pruned search do not transfer to a
    robust objective — a perturbation draw can reorder candidates the
    bounds assumed dominated — so the robust oracle enumerates every
    candidate and scores whole tiles of them under all ``K`` draws
    through one ``(C*K, n)`` frontier-kernel pass
    (:func:`~repro.robustness.evaluate.robust_objective_batch`).
    Candidates come from the same lexicographic tile walk and left-fold
    ``cumsum`` tables as :func:`_search_analytic` (bitwise the brute
    force's stage sums), and tiles hold ``chunk_size // K`` candidates,
    so each pass scores about ``chunk_size`` *rows* (candidates x
    draws).  ``offer`` runs per candidate in enumeration order, so the
    argmin semantics (first lexicographic candidate achieving the
    minimum objective) match the nominal brute force's.
    ``first_sizes`` shards the enumeration by first-stage size for the
    multiprocess oracle; per-candidate objective values are independent
    of tile composition (the batched relaxation is row-independent), so
    sharded values are bitwise those of the full sweep.
    """
    n = len(fwd)
    p = num_stages
    factors = robust.factors(p)
    SF, SB = _fold_tables(fwd, bwd)
    masks = [_size_grid(n, p, s) for s in range(p - 1)]
    if first_sizes is not None and masks:
        masks[0] &= _first_sizes_mask(n, first_sizes)
    tel = _obs.current()
    for S, F, B in _iter_lex_tiles(
        SF, SB, masks, max(1, chunk_size // factors.draws)
    ):
        t_f = tel.clock() if tel is not None else 0
        values = robust_objective_batch(
            F.T, B.T, comm, num_micro_batches, factors, robust.statistic,
            comm_mode=comm_mode,
        )
        state.evaluations += S.shape[1]
        for sizes, v in zip(S.T.tolist(), values.tolist()):
            state.offer(tuple(sizes), v)
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f,
                rows=S.shape[1], draws=factors.draws,
            )


def _search_pruned(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    sim_cache: Optional[SimCache],
    state: _SearchState,
    chunk_size: int,
    prune_slack: float,
    first_sizes: Optional[frozenset] = None,
    preset_warm: Optional[Dict[Tuple[int, ...], float]] = None,
) -> None:
    """Branch-and-bound over cut positions with batched leaf evaluation.

    ``first_sizes`` restricts the top-level descent to the given
    first-stage sizes (one multiprocess shard); ``preset_warm`` replaces
    the in-search seed evaluation with already-simulated (sizes -> time)
    incumbents — the parallel driver evaluates the seeds once in the
    parent and hands every worker the same warm set.

    Lower bounds (all provable for both comm modes, which charge at least
    ``Comm`` on every cross-stage dependency edge):

    * **straggler bound** — for any stage ``x`` with load
      ``w_x = f_x + b_x``, micro-batch 0's forward must reach it
      (``sum_{y<x} f_y + x*Comm``), its 2m intra-chained ops need
      ``m * w_x``, and micro-batch m-1's backward must return to stage 0
      (``sum_{y<x} b_y + x*Comm``); so
      ``T >= prefixW(x) + 2*x*Comm + m*w_x``.
    * **max-stage-load relaxation** for the unassigned suffix: any
      completion of blocks ``pos..n-1`` into ``k`` stages has some stage
      with load ``>= minmax(pos, k)`` — the min-max DP value of the
      suffix, precomputed for every ``(pos, k)`` — so
      ``T >= prefixW(pos) + 2*s*Comm + m * minmax(pos, k)``.
    * **round-trip + tail bound** — micro-batch 0's backward reaches
      stage ``x`` no earlier than the full forward sweep plus the
      backward sweep up from the last stage
      (``sum_f + (p-1)*Comm + sum_{y>=x} b_y + (p-1-x)*Comm``); stage
      ``x`` then still owes its remaining 1F1B pairs and cooldown
      (``tail(x) = (s_x - 1)*(f_x + b_x) + w_x^{cnt} * b_x`` with
      ``w_x^{cnt} = min(m, p-1-x)`` warmup depth and ``s_x = m - w_x^{cnt}``
      steady pairs, or ``(m-1)*b_x`` when ``s_x = 0``), and micro-batch
      m-1's backward must return to stage 0 (``prefixB(x) + x*Comm``).
      Summing: ``T >= W_total + 2*(p-1)*Comm + tail(x)``.  For the
      unassigned suffix of ``k`` stages the relaxation
      ``tail >= (m - k) * minmax(pos, k)`` applies when ``m >= k``.
    """
    n = len(fwd)
    p = num_stages
    m = num_micro_batches
    weights = [f + b for f, b in zip(fwd, bwd)]
    # Float prefix sums drive the *bounds* only; candidate stage times
    # always use the brute force's left-to-right slice sums.
    prefw = [0.0]
    for x in weights:
        prefw.append(prefw[-1] + x)
    # minmax[k][pos]: smallest achievable max stage load when splitting
    # blocks pos..n-1 into k stages (inf where infeasible).  O(p * n^2).
    inf = float("inf")
    minmax = [[inf] * (n + 1) for _ in range(p + 1)]
    for pos in range(n + 1):
        minmax[1][pos] = prefw[n] - prefw[pos] if pos < n else inf
    for k in range(2, p + 1):
        for pos in range(n - k, -1, -1):
            best = inf
            for z in range(1, n - pos - k + 2):
                head = prefw[pos + z] - prefw[pos]
                if head >= best:
                    break  # head grows with z; no better split follows
                tail = minmax[k - 1][pos + z]
                cand = head if head > tail else tail
                if cand < best:
                    best = cand
            minmax[k][pos] = best
    #: round-trip constant of the tail bound; the last stage always
    #: contains block n-1, giving the global floor below.
    base_rt = prefw[n] + 2 * (p - 1) * comm
    floor = base_rt + (m - 1) * weights[n - 1]

    def tail(stage: int, f_sum: float, b_sum: float) -> float:
        """Work stage ``stage`` still owes after micro-batch 0 returns."""
        w_cnt = min(m, p - 1 - stage)
        steady = m - w_cnt
        if steady >= 1:
            return (steady - 1) * (f_sum + b_sum) + w_cnt * b_sum
        return (m - 1) * b_sum

    #: leaves awaiting evaluation: (sizes, per-stage fwd, per-stage bwd).
    buffer: List[Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]] = []
    #: warm-start results, so the DFS re-encounter is not double-counted.
    warm: dict = {}
    tel = _obs.current()

    def flush() -> None:
        if not buffer:
            return
        t_f = tel.clock() if tel is not None else 0
        resolved: List[Optional[float]] = [None] * len(buffer)
        misses: List[int] = []
        for j, (sizes, f_stages, b_stages) in enumerate(buffer):
            t = warm.get(sizes)
            if t is not None:
                resolved[j] = t
                continue
            if sim_cache is not None:
                hit = sim_cache.peek(
                    StageTimes(f_stages, b_stages, comm), m, comm_mode
                )
                if hit is not None:
                    resolved[j] = hit.iteration_time
                    state.cache_hits += 1
                    continue
            misses.append(j)
        if misses:
            batch = PipelineSimBatch(
                np.asarray([buffer[j][1] for j in misses]),
                np.asarray([buffer[j][2] for j in misses]),
                comm, m, comm_mode=comm_mode,
            )
            state.evaluations += len(misses)
            for j, t in zip(misses, batch.iteration_times().tolist()):
                resolved[j] = t
        for j, (sizes, _, _) in enumerate(buffer):
            state.offer(sizes, resolved[j])
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f,
                rows=len(buffer), misses=len(misses),
            )
        buffer.clear()
        state.sync()

    # Warm start: the Algorithm-1 min-max seed gives a strong incumbent
    # before the DFS begins, so the bounds prune from candidate one.
    if preset_warm is not None:
        for seed, t in preset_warm.items():
            warm[seed] = t
            state.offer(seed, t)
    else:
        seed = tuple(min_max_partition(weights, p))
        seed_f, seed_b = _stage_sums(fwd, bwd, seed)
        seed_times = StageTimes(seed_f, seed_b, comm)
        seed_sim = sim_cache.peek(seed_times, m, comm_mode) \
            if sim_cache is not None else None
        if seed_sim is not None:
            state.cache_hits += 1
        else:
            seed_sim = PipelineSim(seed_times, m, comm_mode=comm_mode).run()
            state.evaluations += 1
        warm[seed] = seed_sim.iteration_time
        state.offer(seed, seed_sim.iteration_time)

    def descend(
        s: int,
        pos: int,
        sizes: Tuple[int, ...],
        f_stages: Tuple[float, ...],
        b_stages: Tuple[float, ...],
        fixed_bound: float,
    ) -> None:
        rem_stages = p - s
        if rem_stages == 1:
            f_sum = sum(fwd[pos:n])
            b_sum = sum(bwd[pos:n])
            lb = max(
                fixed_bound,
                prefw[pos] + 2 * s * comm + m * (f_sum + b_sum),
                base_rt + tail(s, f_sum, b_sum),
                floor,
            )
            if lb > state.bound * prune_slack:
                return
            buffer.append(
                (sizes + (n - pos,), f_stages + (f_sum,), b_stages + (b_sum,))
            )
            if len(buffer) >= chunk_size:
                flush()
            return
        max_size = n - pos - (rem_stages - 1)
        base = prefw[pos] + 2 * s * comm
        f_sum = 0.0
        b_sum = 0.0
        restrict = first_sizes if s == 0 else None
        for size in range(1, max_size + 1):
            # Incremental accumulation == sum(fwd[pos:pos+size]) exactly.
            f_sum += fwd[pos + size - 1]
            b_sum += bwd[pos + size - 1]
            new_fixed = max(
                fixed_bound,
                base + m * (f_sum + b_sum),
                base_rt + tail(s, f_sum, b_sum),
            )
            if new_fixed > state.bound * prune_slack:
                # Both fixed-stage bounds grow with the stage, so every
                # larger size for this stage is pruned too.
                break
            if restrict is not None and size not in restrict:
                continue
            pos2 = pos + size
            rem = rem_stages - 1
            rem_bound = prefw[pos2] + 2 * (s + 1) * comm \
                + m * minmax[rem][pos2]
            if m > rem:
                rem_bound = max(
                    rem_bound, base_rt + (m - rem) * minmax[rem][pos2]
                )
            if max(new_fixed, rem_bound, floor) > state.bound * prune_slack:
                continue
            descend(
                s + 1, pos2, sizes + (size,),
                f_stages + (f_sum,), b_stages + (b_sum,), new_fixed,
            )

    descend(0, 0, (), (), (), 0.0)
    flush()


class _Bounds:
    """The pruned searches' shared bound preamble.

    Everything here is a pure function of ``(fwd, bwd, comm, p, m)`` —
    the prefix sums, the min-max suffix DP, the exact per-``(pos,
    size)`` slice sums and the per-``(s, pos)`` bound tables — computed
    with the identical float expressions :func:`_search_pruned` derives
    per node (see its docstring for the bound proofs).  Both the
    incremental search and the analytic-kernel search read their prune
    decisions from one instance, which is what keeps their admitted
    candidate sets nested and their results bitwise equal.
    """

    def __init__(
        self,
        fwd: Sequence[float],
        bwd: Sequence[float],
        comm: float,
        num_stages: int,
        num_micro_batches: int,
    ) -> None:
        n = len(fwd)
        p = num_stages
        m = num_micro_batches
        self._n = n
        self._p = p
        self._m = m
        self._comm = comm
        self.weights = [f + b for f, b in zip(fwd, bwd)]
        prefw = [0.0]
        for x in self.weights:
            prefw.append(prefw[-1] + x)
        self.prefw = prefw
        inf = float("inf")
        minmax = [[inf] * (n + 1) for _ in range(p + 1)]
        for pos in range(n + 1):
            minmax[1][pos] = prefw[n] - prefw[pos] if pos < n else inf
        for k in range(2, p + 1):
            for pos in range(n - k, -1, -1):
                best = inf
                for z in range(1, n - pos - k + 2):
                    head = prefw[pos + z] - prefw[pos]
                    if head >= best:
                        break
                    tail_v = minmax[k - 1][pos + z]
                    cand = head if head > tail_v else tail_v
                    if cand < best:
                        best = cand
                minmax[k][pos] = best
        self.minmax = minmax
        self.base_rt = prefw[n] + 2 * (p - 1) * comm
        self.floor = self.base_rt + (m - 1) * self.weights[n - 1]

        # Exact per-(pos, size) slice sums: left-fold accumulation
        # starting at ``pos`` — the brute force's arithmetic, *not*
        # prefix-sum differences, so candidate stage times stay bitwise
        # identical.
        slice_f: List[List[float]] = []
        slice_b: List[List[float]] = []
        for pos in range(n):
            accf: List[float] = []
            accb: List[float] = []
            fa = 0.0
            ba = 0.0
            for i in range(pos, n):
                fa += fwd[i]
                ba += bwd[i]
                accf.append(fa)
                accb.append(ba)
            slice_f.append(accf)
            slice_b.append(accb)
        self.slice_f = slice_f
        self.slice_b = slice_b

        # Leaf bounds: the last stage always starts at ``s = p - 1`` and
        # spans ``pos..n-1``, so its bound is a pure function of ``pos``.
        leaf_lb: List[float] = [inf] * n
        for pos in range(p - 1, n):
            f_sum = slice_f[pos][n - pos - 1]
            b_sum = slice_b[pos][n - pos - 1]
            leaf_lb[pos] = max(
                prefw[pos] + 2 * (p - 1) * comm + m * (f_sum + b_sum),
                self.base_rt + self.tail(p - 1, f_sum, b_sum),
                self.floor,
            )
        self.leaf_lb = leaf_lb

        #: (s, pos) -> (fixb, remb) bound lists, one entry per child
        #: size.  ``fixb`` is monotone nondecreasing, so the DFS can
        #: binary-search the largest admissible child size instead of
        #: scanning.  For leaf-parent tables (``s == p - 2``) ``remb``
        #: is pre-merged with the child leaf's own bound, collapsing the
        #: per-leaf test to one compare.
        self._tables: Dict[
            Tuple[int, int], Tuple[List[float], List[float]]
        ] = {}

    def tail(self, stage: int, f_sum: float, b_sum: float) -> float:
        """Work stage ``stage`` still owes after micro-batch 0 returns."""
        m = self._m
        w_cnt = min(m, self._p - 1 - stage)
        steady = m - w_cnt
        if steady >= 1:
            return (steady - 1) * (f_sum + b_sum) + w_cnt * b_sum
        return (m - 1) * b_sum

    def get_table(self, s: int, pos: int) -> Tuple[List[float], List[float]]:
        tab = self._tables.get((s, pos))
        if tab is None:
            n, p, m, comm = self._n, self._p, self._m, self._comm
            prefw, minmax = self.prefw, self.minmax
            base_rt, leaf_lb = self.base_rt, self.leaf_lb
            max_size = n - pos - (p - s - 1)
            base = prefw[pos] + 2 * s * comm
            sf = self.slice_f[pos]
            sb = self.slice_b[pos]
            rem = p - s - 1
            fixb: List[float] = []
            remb: List[float] = []
            for size in range(1, max_size + 1):
                f_sum = sf[size - 1]
                b_sum = sb[size - 1]
                a = base + m * (f_sum + b_sum)
                b = base_rt + self.tail(s, f_sum, b_sum)
                fixb.append(a if a > b else b)
                pos2 = pos + size
                rb = prefw[pos2] + 2 * (s + 1) * comm + m * minmax[rem][pos2]
                if m > rem:
                    alt = base_rt + (m - rem) * minmax[rem][pos2]
                    if alt > rb:
                        rb = alt
                if rem == 1 and leaf_lb[pos2] > rb:
                    rb = leaf_lb[pos2]
                remb.append(rb)
            tab = (fixb, remb)
            self._tables[(s, pos)] = tab
        return tab


def _search_incremental(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    sim_cache: Optional[SimCache],
    state: _SearchState,
    chunk_size: int,
    prune_slack: float,
    extra_seeds: Sequence[Tuple[int, ...]] = (),
    first_sizes: Optional[frozenset] = None,
    preset_warm: Optional[Dict[Tuple[int, ...], float]] = None,
) -> None:
    """Prefix-state branch-and-bound (the fast exact oracle path).

    Implements the *same* bounds and slack test as :func:`_search_pruned`
    — see its docstring for the derivations — and covers the same
    candidate space exactly, but restructured so the per-node cost
    collapses:

    * **bound tables** — ``new_fixed``'s stage component and
      ``rem_bound`` depend only on ``(s, pos, size)``, never on the path
      taken to the node, so they are computed once per ``(s, pos)`` with
      the identical float expressions (same left-fold slice sums, same
      operation order) and the DFS loop becomes two list reads and two
      compares per child.  The stage component is monotone nondecreasing
      in ``size`` (every term has non-negative coefficients in the
      accumulated slice sums), which preserves the early ``break``.
      Nodes one stage above the leaves handle their leaf children
      inline: the remaining-suffix bound of a size-``p-1`` prefix *is*
      the leaf's load bound, so the recursion stops one level early.
    * **dominance memo** — a node is uniquely characterised by
      ``(pos, f_stages, b_stages)``: every leaf below it only extends
      those stage times.  When a node repeats, its earlier twin (which
      the DFS visited with a lexicographically smaller ``sizes`` prefix,
      since sizes are enumerated in increasing order) either offered
      each twin leaf to the incumbent or bound-pruned it; a bound-pruned
      leaf has true time ``>= bound > incumbent_then * slack >=
      final_best``, so it can affect neither the argmin nor a tie.
      Skipping the repeat subtree is therefore exact.
    * **suffix flushes** — buffered leaves are resolved through
      :class:`SuffixSimBatch` over :class:`PrefixState` checkpoints at
      cut ``p - 2``: all leaves under one grandparent node share one
      checkpoint chain (the last stage's size is forced by the
      second-to-last cut, so cutting at ``p - 1`` would give every row
      its own chain and amortise nothing).  The batched relaxation
      skips the checkpointed free lattice but remains bit-identical to
      a cold batch (see ``analytic_sim``); each flush folds into the
      incumbent through one ``offer`` of its running min (the offer
      rule is associative, so the result is unchanged).
    * **extra warm seeds** — ``extra_seeds`` (the heuristic planner's
      partition, when the caller enables it) are evaluated up front like
      the Algorithm-1 seed.  Any valid candidate may seed the incumbent
      without affecting exactness: seeds are offered through the same
      tie-breaking rule, and a tighter incumbent only ever prunes
      candidates whose true time provably exceeds the final best.

    ``first_sizes`` / ``preset_warm`` serve the multiprocess oracle
    exactly as in :func:`_search_pruned`: the former restricts the
    top-level children to one shard's first-stage sizes, the latter
    substitutes parent-evaluated seed incumbents for the in-search seed
    evaluation.  Prune tests compare against ``state.bound`` — locally
    identical to the incumbent, and additionally tightened by the
    cluster-wide bound between chunk flushes when sharded.
    """
    n = len(fwd)
    p = num_stages
    m = num_micro_batches
    bounds = _Bounds(fwd, bwd, comm, p, m)
    weights = bounds.weights
    slice_f = bounds.slice_f
    slice_b = bounds.slice_b
    leaf_lb = bounds.leaf_lb
    get_table = bounds.get_table

    #: leaves awaiting evaluation: (sizes, per-stage fwd, per-stage bwd).
    buffer: List[Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]] = []
    warm: dict = {}
    tel = _obs.current()

    # Prefix-checkpoint chains at cut p-2, keyed by the checkpointed
    # stage-time prefix.  Chains build one stage at a time through
    # PrefixState.extend, so rows sharing a prefix share the work — and
    # at cut p-2 *all* leaves under one grandparent share one chain.
    cut = max(p - 2, 0)
    root = PrefixState.initial(p, m, comm, comm_mode=comm_mode)
    chains: Dict[
        Tuple[Tuple[float, ...], Tuple[float, ...]], PrefixState
    ] = {((), ()): root}

    def get_chain(
        f_pre: Tuple[float, ...], b_pre: Tuple[float, ...]
    ) -> PrefixState:
        st = chains.get((f_pre, b_pre))
        if st is None:
            parent = get_chain(f_pre[:-1], b_pre[:-1])
            st = parent.extend(f_pre[-1], b_pre[-1])
            if len(chains) >= _CHAIN_CAP:
                chains.clear()
                chains[((), ())] = root
            chains[(f_pre, b_pre)] = st
        return st

    def flush() -> None:
        if not buffer:
            return
        t_f = tel.clock() if tel is not None else 0
        n_chained = 0
        resolved: List[Optional[float]] = [None] * len(buffer)
        misses: List[int] = []
        for j, (sizes, f_stages, b_stages) in enumerate(buffer):
            t = warm.get(sizes)
            if t is not None:
                resolved[j] = t
                continue
            if sim_cache is not None:
                hit = sim_cache.peek(
                    StageTimes(f_stages, b_stages, comm), m, comm_mode
                )
                if hit is not None:
                    resolved[j] = hit.iteration_time
                    state.cache_hits += 1
                    continue
            misses.append(j)
        if misses:
            # Group rows by their cut prefix.  A prefix checkpoint only
            # pays for itself when enough sibling leaves share it (one
            # scalar ``extend`` against per-row level-skip savings), so
            # small groups fall through to the shared cut-0 state — the
            # same batched relaxation, seeded with nothing — instead of
            # building one-off chains.  Both paths are bit-identical.
            groups: Dict[
                Tuple[Tuple[float, ...], Tuple[float, ...]], List[int]
            ] = {}
            for j in misses:
                groups.setdefault(
                    (buffer[j][1][:cut], buffer[j][2][:cut]), []
                ).append(j)
            chained: List[int] = []
            cold: List[int] = []
            for key, js in groups.items():
                (chained if len(js) >= _CHAIN_MIN_GROUP else cold).extend(js)
            state.evaluations += len(misses)
            n_chained = len(chained)
            if chained:
                states = [get_chain(*key) for key in (
                    (buffer[j][1][:cut], buffer[j][2][:cut]) for j in chained
                )]
                batch = SuffixSimBatch(
                    states,
                    np.asarray([buffer[j][1][cut:] for j in chained]),
                    np.asarray([buffer[j][2][cut:] for j in chained]),
                    need_start=False,
                )
                state.suffix_sims += len(chained)
                for j, t in zip(chained, batch.iteration_times().tolist()):
                    resolved[j] = t
            if cold:
                batch = SuffixSimBatch(
                    root,
                    np.asarray([buffer[j][1] for j in cold]),
                    np.asarray([buffer[j][2] for j in cold]),
                    need_start=False,
                )
                for j, t in zip(cold, batch.iteration_times().tolist()):
                    resolved[j] = t
        # One offer per flush: the incumbent rule is a running min with a
        # lexicographic tie-break, so folding the flush's own min first
        # yields the identical final incumbent.
        best_t = min(resolved)
        best_sizes = min(
            buffer[j][0] for j in range(len(buffer)) if resolved[j] == best_t
        )
        state.offer(best_sizes, best_t)
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f, rows=len(buffer),
                misses=len(misses), chained=n_chained,
            )
        buffer.clear()
        state.sync()

    # Warm start: the Algorithm-1 seed (identical to _search_pruned's)
    # plus any caller-provided candidates (the planner's partition); the
    # tighter the initial incumbent, the more the bounds prune.
    if preset_warm is not None:
        for seed, t in preset_warm.items():
            warm[seed] = t
            state.offer(seed, t)
    else:
        seeds: List[Tuple[int, ...]] = [tuple(min_max_partition(weights, p))]
        for extra in extra_seeds:
            extra = tuple(extra)
            if (
                extra not in seeds
                and len(extra) == p
                and sum(extra) == n
                and all(sz >= 1 for sz in extra)
            ):
                seeds.append(extra)
        for seed in seeds:
            seed_f, seed_b = _stage_sums(fwd, bwd, seed)
            seed_times = StageTimes(seed_f, seed_b, comm)
            seed_sim = sim_cache.peek(seed_times, m, comm_mode) \
                if sim_cache is not None else None
            if seed_sim is not None:
                state.cache_hits += 1
            else:
                seed_sim = PipelineSim(seed_times, m, comm_mode=comm_mode).run()
                state.evaluations += 1
            warm[seed] = seed_sim.iteration_time
            state.offer(seed, seed_sim.iteration_time)

    # The dominance memo can only ever fire when two different cut
    # prefixes produce identical per-stage sum tuples — with all-distinct
    # float block costs that needs an exact arithmetic coincidence, so
    # the memo is engaged only when the profile has duplicate block
    # costs (tied/uniform profiles, where twin subtrees are plentiful).
    use_dominance = len(set(zip(fwd, bwd))) < n
    visited: set = set()
    comb = math.comb

    def descend(
        s: int,
        pos: int,
        sizes: Tuple[int, ...],
        f_stages: Tuple[float, ...],
        b_stages: Tuple[float, ...],
        fixed_bound: float,
    ) -> None:
        rem_stages = p - s
        if rem_stages == 1:
            # Only reachable when p == 1 (deeper searches stop at the
            # inline-leaf level below).
            lb = leaf_lb[pos]
            if fixed_bound > lb:
                lb = fixed_bound
            if lb > state.bound * prune_slack:
                return
            last = n - pos - 1
            buffer.append((
                sizes + (n - pos,),
                f_stages + (slice_f[pos][last],),
                b_stages + (slice_b[pos][last],),
            ))
            if len(buffer) >= chunk_size:
                flush()
            return
        if use_dominance:
            key = (pos, f_stages, b_stages)
            if key in visited:
                state.dominance_pruned += comb(n - pos - 1, rem_stages - 1)
                return
            if len(visited) < _DOMINANCE_CAP:
                visited.add(key)
        fixb, remb = get_table(s, pos)
        sf = slice_f[pos]
        sb = slice_b[pos]
        restrict = first_sizes if s == 0 else None
        limit = state.bound * prune_slack
        if fixed_bound > limit:
            return
        # fixb is monotone nondecreasing: every child past the insertion
        # point fails the fixed-stage test (the scanning loop's break).
        hi = bisect_right(fixb, limit)
        if rem_stages == 2:
            # Each child fully determines the leaf (the last stage takes
            # whatever remains), so append leaves inline instead of
            # recursing; remb already carries the leaf's own bound, so
            # one compare admits or rejects the candidate.
            idx = 0
            while idx < hi:
                if remb[idx] <= limit and (
                    restrict is None or idx + 1 in restrict
                ):
                    pos2 = pos + idx + 1
                    last = n - pos2 - 1
                    buffer.append((
                        sizes + (idx + 1, n - pos2),
                        f_stages + (sf[idx], slice_f[pos2][last]),
                        b_stages + (sb[idx], slice_b[pos2][last]),
                    ))
                    if len(buffer) >= chunk_size:
                        flush()
                        limit = state.bound * prune_slack
                        if fixed_bound > limit:
                            return
                        hi = bisect_right(fixb, limit, 0, hi)
                idx += 1
            return
        idx = 0
        while idx < hi:
            if remb[idx] <= limit and (
                restrict is None or idx + 1 in restrict
            ):
                nf = fixb[idx]
                size = idx + 1
                descend(
                    s + 1, pos + size, sizes + (size,),
                    f_stages + (sf[idx],), b_stages + (sb[idx],),
                    nf if nf > fixed_bound else fixed_bound,
                )
                new_limit = state.bound * prune_slack
                if new_limit != limit:
                    # A flush inside the subtree tightened the incumbent.
                    limit = new_limit
                    if fixed_bound > limit:
                        return
                    hi = bisect_right(fixb, limit, 0, hi)
            idx += 1

    descend(0, 0, (), (), (), 0.0)
    flush()


def _search_analytic(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    sim_cache: Optional[SimCache],
    state: _SearchState,
    chunk_size: int,
    prune_slack: float,
    extra_seeds: Sequence[Tuple[int, ...]] = (),
    first_sizes: Optional[frozenset] = None,
    preset_warm: Optional[Dict[Tuple[int, ...], float]] = None,
) -> None:
    """Branch-and-bound scored by the closed-form max-plus kernel.

    Same candidate admission as :func:`_search_incremental` — the
    identical :class:`_Bounds` tables, seeds, dominance memo and slack
    test — but leaves are *scored* by
    :func:`repro.sim.analytic.frontier_times_transposed`: admitted
    candidates stream through the kernel in stage-major ``(p,
    chunk_size)`` tiles (each column built from the exact left-fold
    slice sums, so it is bitwise the brute force's stage-time vector),
    and one frontier sweep per tile replaces thousands of lattice
    relaxations.  The kernel is bit-identical to
    :class:`PipelineSimBatch`, and each tile's ties are resolved by
    offering the lexicographically smallest minimum-time column — so
    the returned partition and time are the brute-force argmin,
    property-tested against it.

    Structural differences from the incremental path, all
    exactness-preserving:

    * the admission limit is **fixed** at the best warm seed's time
      times ``prune_slack`` instead of tightening per flush.  Every
      candidate the evolving-limit search admits is admitted here too
      (the set is a superset), so no optimum or tie can be lost; the
      extra admitted columns cost one kernel lane each, not a
      simulation.  The admitted set — hence ``evaluations`` — is
      therefore independent of tile width, batch size and job count
      (the limit reads the seeds, never the shared bound), and
      admission is *path-independent*: whether a child size is
      admitted depends only on ``(s, pos)``, so one ``(pos, size)``
      grid per level replaces the DFS's per-node tests and the
      recursion becomes :func:`_iter_lex_tiles`' vectorized
      depth-first walk over bounded prefix batches, with the dominance
      memo applied to its lexicographic prefix stream.
    * each tile's winner is offered before the next tile is swept, so
      ``state.bound`` (shared with the other workers when sharded)
      tightens as the sweep goes, and every tile hands the current
      bound to the kernel's mid-sweep sieve, which discards columns
      provably above it part-way through the sweep.  The sieve only
      ever drops columns whose lower bound exceeds a true candidate
      time (padded for rounding), so the argmin and all its ties always
      survive to the final frontier.  It is work saved, not admission:
      ``evaluations`` still counts every admitted column.
    * ``sim_cache`` interplay: the kernel scores every admitted column
      regardless, so per-column cache peeks would buy nothing and cost
      a Python loop.  Only the sweep's overall winner is peeked (one
      lookup), which keeps the "oracle harvests the planner's
      simulations" accounting observable without reintroducing
      per-candidate work; seed columns are excluded from
      ``evaluations`` exactly as the incremental path's warm rows are.
      Serially the best seed is itself admitted, so the sweep's winner
      never exceeds it and always survives the sieve: the peeked
      candidate does not depend on the tiling.

    Memory is O(tile + batch * p) — the tile matrices, the kernel's
    frontier scratch and one prefix batch per level — however many
    candidates the bounds admit.
    """
    from repro.sim.analytic import frontier_times_transposed

    n = len(fwd)
    p = num_stages
    m = num_micro_batches

    warm: Dict[Tuple[int, ...], float] = {}
    if preset_warm is not None:
        for seed, t in preset_warm.items():
            warm[seed] = t
            state.offer(seed, t)
    else:
        warm = _evaluate_seeds(
            fwd, bwd, comm, p, m, comm_mode, sim_cache, state, extra_seeds,
        )
    if p == 1:
        return  # the single candidate is the Algorithm-1 seed itself.

    bounds = _Bounds(fwd, bwd, comm, p, m)
    limit = min(warm.values()) * prune_slack
    inf = float("inf")
    SF, SB = _fold_tables(fwd, bwd)
    SS = SF + SB
    prefw_v = np.asarray(bounds.prefw)
    minmax_v = np.asarray(bounds.minmax)
    leaf_pad = np.asarray(bounds.leaf_lb + [inf])
    base_rt = bounds.base_rt
    pos2_grid = np.minimum(
        np.arange(n)[:, None] + np.arange(n)[None, :] + 1, n
    )

    def admitted_mask(s: int) -> np.ndarray:
        """``(pos, size - 1)`` admission grid at level ``s``.

        Elementwise the identical float expressions (same association
        order) as :meth:`_Bounds.get_table`, so the admitted set equals
        the DFS's bisect-plus-filter result at every ``pos`` — one grid
        replaces a level's worth of per-``(s, pos)`` table walks.
        """
        w_cnt = min(m, p - 1 - s)
        steady = m - w_cnt
        if steady >= 1:
            tail = (steady - 1) * SS + w_cnt * SB
        else:
            tail = (m - 1) * SB
        base = prefw_v[:n] + 2 * s * comm
        fixb = np.maximum(base[:, None] + m * SS, base_rt + tail)
        rem = p - s - 1
        mm = minmax_v[rem]
        remb = (prefw_v + 2 * (s + 1) * comm) + m * mm
        if m > rem:
            np.maximum(remb, base_rt + (m - rem) * mm, out=remb)
        if rem == 1:
            np.maximum(remb, leaf_pad, out=remb)
        return _size_grid(n, p, s) & (fixb <= limit) \
            & (remb[pos2_grid] <= limit)

    masks = [admitted_mask(s) for s in range(p - 1)]
    if first_sizes is not None:
        masks[0] &= _first_sizes_mask(n, first_sizes)
    # The memo can only fire when two cut prefixes produce identical
    # per-stage sum tuples, which needs duplicate block costs.
    use_dominance = len(set(zip(fwd, bwd))) < n

    # Seed columns ride the sweep too (the kernel reproduces their
    # simulated time bitwise) but are not fresh evaluations.  A seed
    # whose twin subtree was dominance-pruned is absent from the walk,
    # so the surviving twin's column counts as fresh.  Tiles arrive in
    # lexicographic order: a seed can only sit inside a tile whose
    # first and last columns bracket it.
    seeds = [
        (seed, np.asarray(seed, dtype=np.int64)[:, None]) for seed in warm
    ]
    warm_seen = 0
    leaf_best: Optional[Tuple[float, Tuple[int, ...]]] = None
    tel = _obs.current()
    for S, F, B in _iter_lex_tiles(
        SF, SB, masks, chunk_size, state if use_dominance else None
    ):
        t_f = tel.clock() if tel is not None else 0
        cols = S.shape[1]
        times, keepmap = frontier_times_transposed(
            F, B, comm, m, comm_mode=comm_mode,
            limit=state.bound * prune_slack,
        )
        state.evaluations += cols
        if seeds:
            lo = tuple(S[:, 0].tolist())
            hi = tuple(S[:, -1].tolist())
            for seed, col in seeds:
                if lo <= seed <= hi and (S == col).all(axis=0).any():
                    warm_seen += 1
        if times.size:
            tmin = times.min()
            ties = np.flatnonzero(times == tmin)
            if keepmap is not None:
                ties = keepmap[ties]
            if ties.size > 1:
                # lexsort's primary key is its last row: stage 0.
                ties = ties[np.lexsort(S[::-1, ties])]
            best = tuple(S[:, ties[0]].tolist())
            t_best = float(tmin)
            if leaf_best is None or (t_best, best) < leaf_best:
                leaf_best = (t_best, best)
            state.offer(best, t_best)
        if tel is not None:
            tel.record_since(
                "oracle.kernel_sweep", t_f, cols=cols, kept=int(times.size),
            )
        state.sync()
    state.evaluations -= warm_seen
    # One peek for the whole sweep: enough to observe "the planner
    # already simulated this winner" without a per-column Python loop
    # (the kernel scored every column either way).
    if sim_cache is not None and leaf_best is not None \
            and leaf_best[1] not in warm:
        best = leaf_best[1]
        if sim_cache.peek(
            StageTimes(*_stage_sums(fwd, bwd, best), comm), m, comm_mode,
        ) is not None:
            state.cache_hits += 1
            state.evaluations -= 1


def _evaluate_seeds(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    sim_cache: Optional[SimCache],
    state: _SearchState,
    extra_seeds: Sequence[Tuple[int, ...]],
) -> Dict[Tuple[int, ...], float]:
    """Parent-side warm-seed evaluation for the multiprocess oracle.

    Replicates the serial searches' in-search seed block — the same
    Algorithm-1 seed, the same extra-seed validation, the same scalar
    simulations counted on ``state`` — so the sharded search starts from
    the identical incumbent and no worker re-simulates a seed.  The
    returned ``(sizes -> time)`` map rides to every worker as
    ``preset_warm``.
    """
    n = len(fwd)
    tel = _obs.current()
    t_s = tel.clock() if tel is not None else 0
    weights = [f + b for f, b in zip(fwd, bwd)]
    seeds: List[Tuple[int, ...]] = [tuple(min_max_partition(weights, num_stages))]
    for extra in extra_seeds:
        extra = tuple(extra)
        if (
            extra not in seeds
            and len(extra) == num_stages
            and sum(extra) == n
            and all(sz >= 1 for sz in extra)
        ):
            seeds.append(extra)
    warm: Dict[Tuple[int, ...], float] = {}
    for seed in seeds:
        seed_f, seed_b = _stage_sums(fwd, bwd, seed)
        times = StageTimes(seed_f, seed_b, comm)
        sim = sim_cache.peek(times, num_micro_batches, comm_mode) \
            if sim_cache is not None else None
        if sim is not None:
            state.cache_hits += 1
        else:
            sim = PipelineSim(times, num_micro_batches, comm_mode=comm_mode).run()
            state.evaluations += 1
        warm[seed] = sim.iteration_time
        state.offer(seed, sim.iteration_time)
    if tel is not None:
        tel.record_since("oracle.warm_seeds", t_s, seeds=len(seeds))
    return warm


def exhaustive_partition(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    max_evaluations: Optional[int] = 2_000_000,
    prune: bool = True,
    incremental: bool = True,
    planner_warm_start: Optional[bool] = None,
    sim_cache: Optional[SimCache] = None,
    chunk_size: int = _DEFAULT_CHUNK,
    prune_slack: float = _PRUNE_SLACK,
    robust: Optional[RobustObjective] = None,
    scorer: str = "analytic",
    jobs: Optional[int] = None,
    cache=None,
    telemetry=None,
) -> ExhaustiveResult:
    """Find the optimal partition over every contiguous candidate.

    ``prune=True`` (default) runs the branch-and-bound + batched search;
    ``prune=False`` runs the literal scalar brute force.  Both return the
    identical partition and iteration time.  ``incremental=True``
    (default) further runs the pruned search through precomputed bound
    tables, the dominance memo and prefix-checkpointed suffix batches —
    same bounds, same result, several times less wall clock
    (``incremental=False`` keeps the per-node arithmetic path, mainly
    for comparison benches).  ``planner_warm_start`` (incremental path
    only) additionally evaluates the heuristic planner's partition as an
    extra warm candidate: its near-optimal iteration time tightens the
    incumbent from the first bound test on, typically pruning several
    times more of the space at depth >= 10 than the Algorithm-1 seed
    alone; the result is still the exact brute-force argmin, because
    warm candidates go through the same tie-breaking ``offer`` and
    bounds only ever discard provably worse subtrees.  The default
    ``None`` enables it automatically once the search space is large
    enough to amortise the planner's few dozen scalar simulations.
    ``sim_cache`` harvests
    vectors already simulated in-process (e.g. by the planner) and is
    reported via ``cache_hits``.  ``chunk_size`` is the kernel tile
    width of the analytic search (candidate columns per frontier sweep,
    default 4096), the robust oracle's scoring rows per pass
    (candidates x draws), and the batch size of the lattice paths'
    flushes; it never changes the returned partition or iteration
    time, and on the analytic path not ``evaluations`` either.  ``prune_slack`` is the relative slack
    of the pruning test (default ``1 + 1e-9``): a subtree is discarded
    only when its lower bound exceeds ``incumbent * prune_slack``, so
    values ``> 1`` keep the search exact under float rounding, while
    larger values trade exactness for speed (bench sweeps use this to
    study prune tightness).  Must be a finite float ``>= 1.0``.  Raises
    ``ValueError`` if the search space exceeds ``max_evaluations`` (pass
    ``None`` to force it anyway).
    ``robust`` replaces the objective with a
    :class:`~repro.robustness.evaluate.RobustObjective`: the oracle
    returns the first lexicographic partition minimising the configured
    statistic of the simulated iteration time over the objective's
    perturbation draws.  The nominal bounds do not transfer to a robust
    objective, so this path enumerates the full space with chunked
    batched evaluation (``prune``/``incremental``/``planner_warm_start``
    /``sim_cache`` are ignored); the winner's objective value is
    reported as ``ExhaustiveResult.robust_value``, while ``sim`` stays
    the winner's *nominal* simulation.

    ``scorer`` selects the candidate evaluator for the default
    (``prune=True, incremental=True, robust=None``) path:
    ``"analytic"`` (default) scores admitted candidates with the
    closed-form max-plus frontier kernel (:mod:`repro.sim.analytic`) —
    the same bound tables and dominance memo admit candidates, but one
    stage-major ``(p, chunk_size)`` tile sweep replaces the per-row
    suffix relaxations, and the kernel's mid-sweep sieve discards
    columns provably above the incumbent part-way through.  Candidates
    stream through the kernel tile by tile from bounded prefix batches,
    so the search's memory is O(tile + batch * p), independent of how
    many candidates the bounds admit.  ``"lattice"`` keeps the
    prefix-checkpointed :class:`SuffixSimBatch` path.  Both return the
    bit-identical partition and iteration time (the kernel is
    property-tested bitwise against the lattice executors); the knob is
    part of the plan-cache key because the observability counters
    differ.  Ignored (with no effect on the result) by the brute,
    pruned-only and robust paths, which have no batched scorer choice.

    ``jobs`` (default: the process-wide ``--plan-jobs`` setting, 1 when
    unset) shards the search over worker processes by top-level cut
    position, sharing the incumbent bound between chunk flushes — see
    :mod:`repro.core.parallel_search`.  The returned partition and
    iteration time are bit-identical to the serial search at any job
    count, in every mode including ``robust=``; only the observability
    counters (``jobs``, ``worker_subtrees``, ``evaluations``, which
    depend on incumbent-arrival timing) reflect the sharding.  Falls
    back to the serial search when worker processes are unavailable.

    ``cache`` is a persistent :class:`~repro.core.plan_cache.PlanCache`
    (default: the process-wide ``--plan-cache-dir`` cache, off when
    unset; pass ``False`` to force caching off for one call).  A warm
    hit replays the stored result — same partition, iteration time and
    original search statistics — without running any simulation; the
    key covers the full profile content and every search knob except
    ``jobs``/``sim_cache``, which cannot change the result.

    ``telemetry`` selects the :mod:`repro.obs` registry this call
    records spans/counters into: ``None`` uses the process-wide registry
    (no-op when none is installed), ``False`` forces telemetry off for
    this call, a :class:`~repro.obs.Telemetry` records into it, and a
    path writes a full sink directory (events.jsonl / counters.json /
    trace.json / summary.txt) when the call completes — with per-worker
    trace lanes when ``jobs > 1``.  Telemetry only reads clocks and
    counters: the returned partition, iteration time and every tie-break
    are bit-identical with it on or off (property-tested), and with no
    registry installed the instrumentation is a no-op costing <2% on the
    depth-8 oracle bench (guarded in
    ``benchmarks/test_bench_telemetry.py``).
    """
    tel, sink_dir = _obs.resolve_telemetry(telemetry)
    if tel is None:
        if telemetry is False and _obs.active():
            with _obs.disabled():
                return _exhaustive_impl(
                    profile, num_stages, num_micro_batches,
                    comm_mode=comm_mode, max_evaluations=max_evaluations,
                    prune=prune, incremental=incremental,
                    planner_warm_start=planner_warm_start,
                    sim_cache=sim_cache, chunk_size=chunk_size,
                    prune_slack=prune_slack, robust=robust, scorer=scorer,
                    jobs=jobs, cache=cache,
                )
        return _exhaustive_impl(
            profile, num_stages, num_micro_batches, comm_mode=comm_mode,
            max_evaluations=max_evaluations, prune=prune,
            incremental=incremental, planner_warm_start=planner_warm_start,
            sim_cache=sim_cache, chunk_size=chunk_size,
            prune_slack=prune_slack, robust=robust, scorer=scorer,
            jobs=jobs, cache=cache,
        )
    if robust is not None:
        mode = "robust"
    elif prune and incremental and scorer == "analytic":
        mode = "analytic"
    elif prune and incremental:
        mode = "incremental"
    elif prune:
        mode = "pruned"
    else:
        mode = "brute"
    with _obs.session(tel):
        t0 = tel.clock()
        result = _exhaustive_impl(
            profile, num_stages, num_micro_batches, comm_mode=comm_mode,
            max_evaluations=max_evaluations, prune=prune,
            incremental=incremental, planner_warm_start=planner_warm_start,
            sim_cache=sim_cache, chunk_size=chunk_size,
            prune_slack=prune_slack, robust=robust, scorer=scorer,
            jobs=jobs, cache=cache,
        )
        tel.record_since(
            "oracle.search", t0, mode=mode, depth=num_stages,
            m=num_micro_batches, space=result.space, jobs=result.jobs,
        )
        # Counters fold from the result's own fields, so the registry
        # and the ExhaustiveResult can never disagree.
        tel.add("oracle.searches", 1)
        tel.add("oracle.evaluations", result.evaluations)
        tel.add("oracle.search_seconds", result.search_seconds)
        tel.add("oracle.space", result.space)
        tel.add("oracle.cache_hits", result.cache_hits)
        tel.add("oracle.suffix_sims", result.suffix_sims)
        tel.add("oracle.dominance_pruned", result.dominance_pruned)
        tel.add("oracle.pruned", result.pruned)
        tel.add("oracle.incumbent_updates", result.incumbent_updates)
    if sink_dir is not None:
        tel.write(sink_dir)
    return result


def _exhaustive_impl(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    comm_mode: str,
    max_evaluations: Optional[int],
    prune: bool,
    incremental: bool,
    planner_warm_start: Optional[bool],
    sim_cache: Optional[SimCache],
    chunk_size: int,
    prune_slack: float,
    robust: Optional[RobustObjective],
    scorer: str,
    jobs: Optional[int],
    cache,
) -> ExhaustiveResult:
    """The oracle search body; ``exhaustive_partition`` wraps it."""
    n = profile.num_blocks
    space = count_partitions(n, num_stages)
    if max_evaluations is not None and space > max_evaluations:
        raise ValueError(
            f"search space C({n - 1},{num_stages - 1}) = {space} exceeds "
            f"max_evaluations={max_evaluations}"
        )
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    prune_slack = float(prune_slack)
    if not math.isfinite(prune_slack) or prune_slack < 1.0:
        raise ValueError(
            f"prune_slack must be a finite float >= 1.0, got {prune_slack!r}"
        )
    if scorer not in ("analytic", "lattice"):
        raise ValueError(
            f"scorer must be 'analytic' or 'lattice', got {scorer!r}"
        )
    # Lazy imports: parallel_search imports this module at top level.
    from repro.core.parallel_search import (
        ParallelUnavailable,
        resolve_plan_jobs,
        run_parallel_search,
    )
    from repro.core.plan_cache import resolve_plan_cache

    requested_jobs = resolve_plan_jobs(jobs)
    # Spawning more workers than the machine has cores is pure process
    # pool overhead (a single-core box pays 0.8-0.9x "speedups"): clamp
    # the effective fan-out and record the request on the result.
    jobs = min(requested_jobs, os.cpu_count() or 1)
    plan_cache = resolve_plan_cache(cache)
    cache_key = None
    if plan_cache is not None:
        cache_key = plan_cache.exhaustive_key(
            profile, num_stages, num_micro_batches,
            comm_mode=comm_mode, prune=prune, incremental=incremental,
            planner_warm_start=planner_warm_start, chunk_size=chunk_size,
            prune_slack=prune_slack, robust=repr(robust), scorer=scorer,
        )
        stored = plan_cache.load(cache_key, expect=ExhaustiveResult)
        if stored is not None:
            _obs.add("oracle.plan_cache.hits")
            return stored
        _obs.add("oracle.plan_cache.misses")

    t0 = _time.perf_counter()
    fwd = profile.fwd_times()
    bwd = profile.bwd_times()
    comm = profile.comm_time

    if robust is not None:
        mode = "robust"
    elif prune and incremental and scorer == "analytic":
        mode = "analytic"
    elif prune and incremental:
        mode = "incremental"
    elif prune:
        mode = "pruned"
    else:
        mode = "brute"

    extra_seeds: List[Tuple[int, ...]] = []
    if mode in ("incremental", "analytic"):
        if planner_warm_start is None:
            planner_warm_start = space >= _WARM_START_MIN_SPACE
        if planner_warm_start and num_stages > 1:
            try:
                with _obs.span("oracle.planner_warm_start", depth=num_stages):
                    heur = plan_partition(
                        profile, num_stages, num_micro_batches,
                        comm_mode=comm_mode, sim_cache=sim_cache,
                    )
                extra_seeds.append(
                    tuple(len(stage) for stage in heur.partition.stages)
                )
            except (ValueError, RuntimeError):
                # The heuristic can be infeasible where the oracle is not
                # (e.g. memory caps); the search just starts colder.
                pass

    state = _SearchState()
    used_jobs = 1
    worker_subtrees: Tuple[int, ...] = ()
    ran_parallel = False
    warm: Optional[Dict[Tuple[int, ...], float]] = None
    if jobs > 1 and num_stages > 1:
        if mode in ("incremental", "pruned", "analytic"):
            # Seeds are evaluated once, parent-side; every worker gets
            # the same warm incumbents the serial search would compute.
            warm = _evaluate_seeds(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state,
                extra_seeds if mode != "pruned" else (),
            )
        try:
            used_jobs, worker_subtrees = run_parallel_search(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                state, chunk_size, prune_slack,
                mode=mode, jobs=jobs, warm=warm, robust=robust,
            )
            ran_parallel = True
        except ParallelUnavailable:
            # Sandboxes without worker processes: serial, same result.
            pass
    if not ran_parallel:
        used_jobs = 1
        worker_subtrees = ()
        if mode == "robust":
            _search_robust(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                state, chunk_size, robust,
            )
        elif mode == "analytic":
            _search_analytic(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state, chunk_size, prune_slack, extra_seeds,
                preset_warm=warm,
            )
        elif mode == "incremental":
            _search_incremental(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state, chunk_size, prune_slack, extra_seeds,
                preset_warm=warm,
            )
        elif mode == "pruned":
            _search_pruned(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state, chunk_size, prune_slack,
                preset_warm=warm,
            )
        else:
            _search_brute(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state,
            )
    assert state.best_sizes is not None
    f_stages, b_stages = _stage_sums(fwd, bwd, state.best_sizes)
    times = StageTimes(f_stages, b_stages, comm)
    if sim_cache is not None:
        best_sim = sim_cache.simulate(times, num_micro_batches, comm_mode)
    else:
        best_sim = PipelineSim(
            times, num_micro_batches, comm_mode=comm_mode
        ).run()
    result = ExhaustiveResult(
        partition=PartitionScheme.from_sizes(state.best_sizes),
        sim=best_sim,
        evaluations=state.evaluations,
        search_seconds=_time.perf_counter() - t0,
        space=space,
        cache_hits=state.cache_hits,
        suffix_sims=state.suffix_sims,
        dominance_pruned=state.dominance_pruned,
        robust_value=state.best_time if robust is not None else None,
        jobs=used_jobs if ran_parallel else 1,
        requested_jobs=requested_jobs,
        worker_subtrees=worker_subtrees,
        incumbent_updates=state.incumbent_updates,
    )
    if plan_cache is not None and cache_key is not None:
        plan_cache.store(cache_key, result)
    return result
