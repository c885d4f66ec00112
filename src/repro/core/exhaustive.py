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
* ``prune=True`` (default) — branch-and-bound over cut positions scored
  by the closed-form max-plus kernel (:func:`_search_analytic`).  Lower
  bounds on every partial assignment (derived in :class:`_Bounds`)
  decide which candidates are admitted; admitted candidates stream
  through :func:`repro.sim.analytic.frontier_times_transposed` in tiles.
  A **dominance memo** drops a prefix whose per-stage time tuples repeat
  an earlier prefix at the same position: the earlier twin
  (lexicographically smaller) already covers every leaf the repeat
  could contribute.  Candidate stage times use the brute force's
  left-to-right slice summation and the kernel is bit-identical to the
  scalar simulator, so the returned partition and iteration time match
  the brute force exactly (property-tested in
  ``tests/core/test_search_properties.py``); ``dominance_pruned``
  reports how many candidates the memo skipped.

``robust=`` switches to :func:`_search_robust`, a tiled batched brute
force under seeded perturbation draws.

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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analytic_sim import PipelineSim, SimResult
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
    ``multiprocessing.Value``): :meth:`sync` — called after each kernel
    tile — publishes the local best and pulls the global minimum into
    ``bound``.  Pruning against another worker's incumbent is exact for
    the same reason warm seeds are: the bound is a *simulated* candidate
    time, so any subtree it discards holds only candidates provably
    worse than the final optimum (ties always survive because the prune
    test requires ``lb > bound * slack >= final_best``).
    """

    __slots__ = (
        "best_time", "best_sizes", "evaluations", "cache_hits",
        "dominance_pruned", "incumbent_updates", "bound", "shared",
    )

    def __init__(self, shared=None) -> None:
        self.best_time = float("inf")
        self.best_sizes: Optional[Tuple[int, ...]] = None
        self.evaluations = 0
        self.cache_hits = 0
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
    ``dominance.dominance_pruned`` as the ``comb`` count of the leaves
    under it.  The walk's lexicographic order makes the kept twin the
    lexicographically smallest one.  Twins can only
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


class _Bounds:
    """Lower-bound preamble of the pruned search.

    Everything here is a pure function of ``(fwd, bwd, comm, p, m)``:
    the prefix sums, the min-max suffix DP and the per-position leaf
    bounds.  :func:`_search_analytic` turns them into one ``(pos, size)``
    admission grid per level.  The bounds (all provable for both comm
    modes, which charge at least ``Comm`` on every cross-stage
    dependency edge):

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
        self._p = p
        self._m = m
        weights = [f + b for f, b in zip(fwd, bwd)]
        prefw = [0.0]
        for x in weights:
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
        floor = self.base_rt + (m - 1) * weights[n - 1]

        # Leaf bounds: the last stage always starts at ``s = p - 1`` and
        # spans ``pos..n-1``, so its bound is a pure function of ``pos``.
        # The suffix sums are left folds from ``pos`` — the brute force's
        # arithmetic, *not* prefix-sum differences.
        leaf_lb: List[float] = [inf] * n
        for pos in range(p - 1, n):
            f_sum = 0.0
            b_sum = 0.0
            for i in range(pos, n):
                f_sum += fwd[i]
                b_sum += bwd[i]
            leaf_lb[pos] = max(
                prefw[pos] + 2 * (p - 1) * comm + m * (f_sum + b_sum),
                self.base_rt + self.tail(p - 1, f_sum, b_sum),
                floor,
            )
        self.leaf_lb = leaf_lb

    def tail(self, stage: int, f_sum: float, b_sum: float) -> float:
        """Work stage ``stage`` still owes after micro-batch 0 returns."""
        m = self._m
        w_cnt = min(m, self._p - 1 - stage)
        steady = m - w_cnt
        if steady >= 1:
            return (steady - 1) * (f_sum + b_sum) + w_cnt * b_sum
        return (m - 1) * b_sum


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

    Candidates are admitted by the :class:`_Bounds` lower bounds, the
    warm seeds, the dominance memo and the slack test, and *scored* by
    :func:`repro.sim.analytic.frontier_times_transposed`: admitted
    candidates stream through the kernel in stage-major ``(p,
    chunk_size)`` tiles (each column built from the exact left-fold
    slice sums, so it is bitwise the brute force's stage-time vector),
    and one frontier sweep per tile scores thousands of candidates.  The
    kernel is bit-identical to the scalar :class:`PipelineSim`, and each
    tile's ties are resolved by offering the lexicographically smallest
    minimum-time column — so the returned partition and time are the
    brute-force argmin, property-tested against it.

    Why the admission stays exact and cheap:

    * the admission limit is **fixed** at the best warm seed's time
      times ``prune_slack``.  A bound-rejected candidate has true time
      ``> limit >= best seed >= final optimum``, so no optimum or tie
      can be lost.  The admitted set — hence ``evaluations`` — is
      therefore independent of tile width, batch size and job count
      (the limit reads the seeds, never the shared bound), and
      admission is *path-independent*: whether a child size is
      admitted depends only on ``(s, pos)``, so one ``(pos, size)``
      grid per level replaces per-node tests and the search becomes
      :func:`_iter_lex_tiles`' vectorized depth-first walk over bounded
      prefix batches, with the dominance memo applied to its
      lexicographic prefix stream.
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
      ``evaluations`` because the seeds were already simulated.
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

        A child of size ``size`` at ``pos`` is admitted when both its
        fixed-stage bound (straggler and round-trip + tail terms of the
        new stage) and its remaining-suffix bound (min-max relaxation,
        merged with the leaf bound one level above the leaves) stay
        within ``limit`` — the :class:`_Bounds` terms, evaluated for
        every ``(pos, size)`` at once.
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
    """Simulate the warm seeds and offer them to ``state``.

    The Algorithm-1 seed plus every valid ``extra_seeds`` candidate, each
    one scalar simulation (or a ``sim_cache`` hit) counted on ``state``.
    The serial pruned search calls this itself; the multiprocess oracle
    calls it once in the parent and hands the returned ``(sizes ->
    time)`` map to every worker as ``preset_warm``, so the sharded
    search starts from the identical incumbent and no worker
    re-simulates a seed.
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
    planner_warm_start: Optional[bool] = None,
    sim_cache: Optional[SimCache] = None,
    chunk_size: int = _DEFAULT_CHUNK,
    prune_slack: float = _PRUNE_SLACK,
    robust: Optional[RobustObjective] = None,
    jobs: Optional[int] = None,
    cache=None,
    telemetry=None,
) -> ExhaustiveResult:
    """Find the optimal partition over every contiguous candidate.

    ``prune=True`` (default) runs the branch-and-bound search scored by
    the closed-form max-plus frontier kernel (:mod:`repro.sim.analytic`):
    lower bounds and a dominance memo admit candidates, admitted
    candidates stream through the kernel in stage-major ``(p,
    chunk_size)`` tiles from bounded prefix batches, and the kernel's
    mid-sweep sieve discards columns provably above the incumbent
    part-way through.  The search's memory is O(tile + batch * p),
    independent of how many candidates the bounds admit.
    ``prune=False`` runs the literal scalar brute force.  Both return the
    identical partition and iteration time.  ``planner_warm_start``
    (pruned search only) additionally evaluates the heuristic planner's
    partition as an extra warm candidate: its near-optimal iteration
    time tightens the admission limit, typically admitting several times
    fewer candidates at depth >= 10 than the Algorithm-1 seed alone; the
    result is still the exact brute-force argmin, because warm
    candidates go through the same tie-breaking ``offer`` and bounds
    only ever discard provably worse candidates.  The default ``None``
    enables it automatically once the search space is large enough to
    amortise the planner's few dozen scalar simulations.
    ``sim_cache`` harvests
    vectors already simulated in-process (e.g. by the planner) and is
    reported via ``cache_hits``.  ``chunk_size`` is the kernel tile
    width of the pruned search (candidate columns per frontier sweep,
    default 4096) and the robust oracle's scoring rows per pass
    (candidates x draws); it never changes the returned partition or
    iteration time, and on the pruned search not ``evaluations``
    either.  ``prune_slack`` is the relative slack
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
    batched evaluation (``prune``/``planner_warm_start``/``sim_cache``
    are ignored); the winner's objective value is
    reported as ``ExhaustiveResult.robust_value``, while ``sim`` stays
    the winner's *nominal* simulation.

    ``jobs`` (default: the process-wide ``--plan-jobs`` setting, 1 when
    unset) shards the search over worker processes by top-level cut
    position, sharing the incumbent bound between kernel tiles — see
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
    if robust is not None:
        mode = "robust"
    elif prune:
        mode = "analytic"
    else:
        mode = "brute"
    kwargs = dict(
        comm_mode=comm_mode, max_evaluations=max_evaluations, prune=prune,
        planner_warm_start=planner_warm_start, sim_cache=sim_cache,
        chunk_size=chunk_size, prune_slack=prune_slack, robust=robust,
        mode=mode, jobs=jobs, cache=cache,
    )
    tel, sink_dir = _obs.resolve_telemetry(telemetry)
    if tel is None:
        if telemetry is False and _obs.active():
            with _obs.disabled():
                return _exhaustive_impl(
                    profile, num_stages, num_micro_batches, **kwargs
                )
        return _exhaustive_impl(
            profile, num_stages, num_micro_batches, **kwargs
        )
    with _obs.session(tel):
        t0 = tel.clock()
        result = _exhaustive_impl(
            profile, num_stages, num_micro_batches, **kwargs
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
    planner_warm_start: Optional[bool],
    sim_cache: Optional[SimCache],
    chunk_size: int,
    prune_slack: float,
    robust: Optional[RobustObjective],
    mode: str,
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
            comm_mode=comm_mode, prune=prune,
            planner_warm_start=planner_warm_start, chunk_size=chunk_size,
            prune_slack=prune_slack, robust=repr(robust),
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

    extra_seeds: List[Tuple[int, ...]] = []
    if mode == "analytic":
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
        if mode == "analytic":
            # Seeds are evaluated once, parent-side; every worker gets
            # the same warm incumbents the serial search would compute.
            warm = _evaluate_seeds(
                fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
                sim_cache, state, extra_seeds,
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
