"""Closed-form max-plus evaluation of 1F1B pipelines.

The 1F1B schedule over ``n`` stages and ``m`` micro-batches is a
*regular* lattice: every op's start is the max of its cross-stage
predecessor (plus comm) and its intra-stage predecessor.  Walking the
lattice op by op (:class:`~repro.core.analytic_sim.PipelineSim`) or
relaxing its compiled DAG (:mod:`repro.sim.graph_exec`) therefore does
``2*n*m`` tiny max/add steps per candidate.  This module collapses the
whole walk into ``O(n + m)`` *frontier* updates over a ``(n, K)`` matrix
of stage costs — ``K`` candidate partitions are scored by one sweep of
fused numpy ops, with no event loop, no graph assembly and no
per-candidate Python objects.

Frontier recurrence
-------------------

Write ``F(x, j)`` / ``B(x, j)`` for the end time of stage ``x``'s
``j``-th forward / backward micro-batch.  1F1B orders each stage's ops
as ``w_x = min(m, n - 1 - x)`` warmup forwards, then ``m - w_x``
steady (F, B) pairs, then ``w_x`` cooldown backwards.  Three facts make
a frontier sweep possible:

* warmup forwards fill anti-diagonals: at warmup step ``u`` exactly the
  ops ``F(x, u - x)`` for ``max(0, u - m + 1) <= x <= u`` start, and
  each depends only on the *previous* frontier (``F(x-1, j)`` cross,
  ``F(x, j-1)`` intra);
* steady (F, B) pairs fill alternating anti-diagonals: at steady step
  ``t`` the stages ``x = n - 1 - d`` for ``d <= t``, ``d ≡ t (mod 2)``
  each run one F then one B, F depending on the neighbour's latest F
  (cross) and the stage's latest B (intra), B on the neighbour's latest
  B (cross) and the stage's *just-computed* F (intra);
* cooldown backwards drain anti-diagonals symmetrically to warmup.

So two rolling vectors — ``F[x]`` = latest forward end of stage ``x``,
``B[x]`` = latest backward end — carry the whole dependence state, and
each update touches a strided row range of the ``(n, K)`` matrices.
The *fix rows*: the first steady F of a stage follows its last warmup
forward (not a backward), and the first cooldown B of a stage can trail
the warmup frontier; both are handled by one extra ``np.maximum``
against the stored forward frontier (exact, because the stale ``B``
entry is ``0.0`` and times are non-negative).

Bit-identity contract
---------------------

Every update uses the same IEEE max/add expressions, in the same
association order, as :class:`~repro.core.analytic_sim.PipelineSim`'s
``_relax_scalar`` (both comm modes), so :func:`frontier_times` is
bit-for-bit equal to ``K`` scalar ``PipelineSim(...).run()`` iteration
times — property-tested in ``tests/sim/test_analytic.py``.

Applicability matrix
--------------------

====================================  =========================================
schedule / question                   evaluator
====================================  =========================================
plain 1F1B iteration + startup        :func:`frontier_times` (this module)
oracle candidate frontier (K at once) :func:`frontier_times_transposed`
robust draws, ``(K,)`` comm vectors   :func:`frontier_times` (vector comm)
DAPPLE candidates, per stage count    :func:`frontier_times` (edges mode)
per-stage busy / bubble / memory      :func:`stage_busy_times` /
                                      :func:`bubble_fractions` /
                                      :func:`peak_inflight_memory`
per-op critical path, master stage    :class:`~repro.core.analytic_sim.
                                      PipelineSim` (the planner's shift loop
                                      consumes critical paths; a frontier has
                                      none, so the planner's *nominal*
                                      evaluation stays on the scalar sim)
DES semantics (rendezvous exchange,   :func:`~repro.sim.slice_eval.
eager sends, memory ledger); 1f1b /   compile_slice_graph` (cached skeleton
sliced / gpipe / interleaved          + atom gather) for ``run_pipeline``'s
                                      1f1b / sliced / gpipe;
                                      :func:`~repro.sim.graph_exec.
                                      compile_graph` fills the same
                                      skeletons for builder-made schedules
                                      (interleaved included) and lowers +
                                      walks hand-built or edited ones
cyclic comm, deadlocking programs     the event engine
                                      (:class:`~repro.sim.engine.Engine`),
                                      which diagnoses the deadlock
====================================  =========================================
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "frontier_times",
    "frontier_times_transposed",
    "stage_busy_times",
    "bubble_fractions",
    "peak_inflight_memory",
]


#: Relative pad applied to the mid-sweep sieve limit: a column is only
#: dropped when its lower bound exceeds ``limit`` by more than float
#: rounding could account for, so optimal candidates always survive —
#: even under ``prune_slack=1.0`` exactness requirements.
_SIEVE_PAD = 1.0 + 1e-9

#: Only compact the working matrices when the sieve removed at least
#: this fraction of the surviving columns (copying costs a full pass).
_COMPACT_FRACTION = 0.10


def _as_cost_matrix(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a (K, num_stages) matrix")
    return out


def _check_comm(comm, k: int):
    """Validate/normalise comm: one scalar or a ``(K,)`` row vector."""
    if np.ndim(comm) == 0:
        return float(comm)
    vec = np.ascontiguousarray(comm, dtype=np.float64)
    if vec.shape != (k,):
        raise ValueError(
            f"comm vector must have one entry per candidate row, "
            f"got shape {vec.shape} for {k} rows"
        )
    return vec


def frontier_times(
    fwd,
    bwd,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    want_startup: bool = False,
):
    """Iteration time of ``K`` 1F1B candidates from their stage costs.

    ``fwd`` / ``bwd`` are ``(K, num_stages)`` matrices of per-stage
    forward / backward times (one candidate per row);
    ``comm`` is a scalar or a ``(K,)`` per-candidate vector.  Returns a
    ``(K,)`` array of iteration times, bit-identical to ``K`` scalar
    ``PipelineSim(StageTimes(fwd[k], bwd[k], comm[k]), m).run()``
    iteration times; with ``want_startup=True`` also returns the ``(K,)``
    startup overheads (when the last stage starts its first forward),
    matching each run's ``startup_overhead``.
    """
    fwd = _as_cost_matrix(fwd, "fwd")
    bwd = _as_cost_matrix(bwd, "bwd")
    if fwd.shape != bwd.shape:
        raise ValueError(
            f"fwd and bwd must have matching shapes, got {fwd.shape} "
            f"and {bwd.shape}"
        )
    comm = _check_comm(comm, fwd.shape[0])
    times, startup, _ = _sweep(
        np.ascontiguousarray(fwd.T),
        np.ascontiguousarray(bwd.T),
        comm,
        num_micro_batches,
        comm_mode,
        want_startup=want_startup,
    )
    if want_startup:
        return times, startup
    return times


def frontier_times_transposed(
    fwd_t: np.ndarray,
    bwd_t: np.ndarray,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    limit: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stage-major frontier sweep: the oracle's zero-copy entry point.

    ``fwd_t`` / ``bwd_t`` are ``(num_stages, K)`` — each *row* is one
    stage's cost across all candidates, which is exactly how the oracle
    assembles its chunk matrices and how the sweep touches memory.

    ``limit`` arms the mid-sweep sieve: at a few frontier checkpoints a
    per-column lower bound (finished-frontier state + remaining work +
    comm and drain chains) discards candidates that provably exceed
    ``limit`` (padded by :data:`_SIEVE_PAD`, so rounding can never drop
    a true optimum).  Returns ``(times, keep)`` where ``times`` are the
    surviving columns' iteration times — bitwise equal to the unsieved
    sweep's values at those columns — and ``keep`` maps them back to
    input column indices (``None`` when no sieve ran).
    """
    times, _, keep = _sweep(
        fwd_t, bwd_t, _check_comm(comm, fwd_t.shape[1]),
        num_micro_batches, comm_mode, limit=limit,
    )
    return times, keep


def _fused_window(n: int, m: int) -> Optional[Tuple[int, int]]:
    """Steady steps ``(lo, hi)`` bounding the fused middle phase.

    The phase starts at the first even step ``>= n`` (every steady
    diagonal full, the fix rows passed) and may run F-halves up to step
    ``hi = 2 * m - n - 1``, the last full diagonal.  ``None`` when no
    fused iteration fits.
    """
    lo = n + (n & 1)
    hi = 2 * m - n - 1
    if n < 2 or lo + 2 > hi:
        return None
    return lo, hi


def _sweep(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm,
    m: int,
    comm_mode: str,
    *,
    want_startup: bool = False,
    limit: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The frontier kernel over stage-major ``(n, K)`` cost matrices."""
    if comm_mode not in ("paper", "edges"):
        raise ValueError(f"unknown comm_mode {comm_mode!r}")
    if m < 1:
        raise ValueError("need at least one micro-batch")
    if want_startup and limit is not None:
        raise ValueError("the sieve cannot preserve startup overheads")
    n, num_cols = fwd.shape
    paper = comm_mode == "paper"
    vec_comm = np.ndim(comm) == 1

    # F[x + 1] = latest forward end of stage x (F[0] is a zero pad for
    # the "no cross predecessor" row); B[x] = latest backward end of
    # stage x (B[n] pads symmetrically).  tF/tB are reusable scratch.
    F = np.zeros((n + 1, num_cols))
    B = np.zeros((n + 1, num_cols))
    tF = np.empty((n, num_cols))
    tB = np.empty((n, num_cols))
    keep: Optional[np.ndarray] = None
    drain: Optional[np.ndarray] = None
    startup = None

    if limit is not None:
        keep = np.arange(num_cols)
        # Static drain chain: once stage x finishes, the final backward
        # still has to traverse stages x-1 .. 0 — at least one backward
        # plus one comm hop per stage.  Computed once, compacted along
        # with the cost matrices.
        drain = np.empty_like(bwd)
        drain[0] = 0.0
        np.cumsum(bwd[:-1], axis=0, out=drain[1:])
        drain += np.arange(n, dtype=np.float64)[:, None] * comm

    def _rem_counts(step_f: int, step_b: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-stage remaining forward/backward counts, closed-form.

        ``step_f``/``step_b`` are the last completed steady steps of the
        forward and backward halves — they differ by one inside the
        fused middle phase, where F runs a half-step ahead of B.  Using
        one matched step against the advanced F rows would double-count
        the forward just completed and over-prune.
        """
        d = np.arange(n - 1, -1, -1)
        steady = m - np.minimum(m, d)
        done_f = np.where(
            step_f >= d, np.minimum((step_f - d) // 2 + 1, steady), 0
        )
        done_b = np.where(
            step_b >= d, np.minimum((step_b - d) // 2 + 1, steady), 0
        )
        return (
            (steady - done_f).astype(np.float64)[:, None],
            (m - done_b).astype(np.float64)[:, None],
        )

    def sieve(step_f: int, step_b: int) -> None:
        """Drop columns whose lower bound exceeds the limit.

        ``step_f`` / ``step_b`` are the last completed steady steps of
        the forward and backward halves (``-1`` right after warmup; the
        fused middle phase leaves F one half-step ahead).  For each stage
        the number of finished steady pairs is closed-form, so
        "remaining work" needs no simulation state.
        """
        nonlocal F, B, tF, tB, fwd, bwd, drain, keep, comm
        rem_f, rem_b = _rem_counts(step_f, step_b)
        lb = np.maximum(F[1:], B[:n])
        lb += rem_f * fwd
        lb += rem_b * bwd
        lb += drain
        mask = lb.max(axis=0) <= limit * _SIEVE_PAD
        survivors = int(mask.sum())
        if survivors >= keep.size * (1.0 - _COMPACT_FRACTION):
            return
        F = np.ascontiguousarray(F[:, mask])
        B = np.ascontiguousarray(B[:, mask])
        fwd = np.ascontiguousarray(fwd[:, mask])
        bwd = np.ascontiguousarray(bwd[:, mask])
        drain = np.ascontiguousarray(drain[:, mask])
        keep = keep[mask]
        tF = np.empty((n, survivors))
        tB = np.empty((n, survivors))
        if vec_comm:
            comm = comm[mask]

    # -- warmup: anti-diagonal u starts F(x, u - x) ------------------------
    for u in range(n - 1):
        lo = u - m + 1
        if lo < 0:
            lo = 0
        t = tF[:u + 1 - lo]
        if paper:
            np.maximum(F[lo:u + 1], F[lo + 1:u + 2], out=t)
            if lo == 0:
                t[1:] += comm
            else:
                t += comm
        else:
            np.add(F[lo:u + 1], comm, out=t)
            if lo == 0:
                t[0] = 0.0
            np.maximum(t, F[lo + 1:u + 2], out=t)
        np.add(t, fwd[lo:u + 1], out=F[lo + 1:u + 2])

    if limit is not None:
        sieve(-1, -1)
        checkpoints = set()
        for q in (n + 1, n + 7, (2 * m - 2) // 2, 3 * (2 * m - 2) // 4):
            if 0 < q < 2 * m - 2:
                checkpoints.add(q)
    else:
        checkpoints = ()

    # -- steady: alternating anti-diagonals of (F, B) pairs ----------------
    # A stage's first steady forward may trail its *own last warmup
    # forward* rather than a backward; while ``step <= fix_lim`` the top
    # stage of the diagonal is in that situation and gets an extra max
    # against the stored forward frontier (its B entry is still 0.0, so
    # the plain maximum would under-constrain; the fix is exact).
    fix_lim = m - 1 if m - 1 < n - 1 else n - 1

    def _diag(step: int):
        parity = step & 1
        dmax = step
        if 2 * m - 2 - step < dmax:
            dmax = 2 * m - 2 - step
        if n - 1 < dmax:
            dmax = n - 1
        if parity > dmax:
            return None
        dtop = dmax - ((dmax - parity) & 1)
        lo = n - 1 - dtop
        hi = n - 1 - parity
        return lo, hi

    def f_part(step: int) -> None:
        nonlocal startup
        d = _diag(step)
        if d is None:
            return
        lo, hi = d
        X = slice(lo, hi + 1, 2)
        X1 = slice(lo + 1, hi + 2, 2)
        a = tF[:(hi - lo) // 2 + 1]
        if paper:
            np.maximum(F[X], B[X], out=a)
            if step <= fix_lim:
                np.maximum(a[0], F[n - step], out=a[0])
            if lo == 0:
                a[1:] += comm
            else:
                a += comm
        else:
            np.add(F[X], comm, out=a)
            if lo == 0:
                a[0] = 0.0
            np.maximum(a, B[X], out=a)
            if step <= fix_lim:
                np.maximum(a[0], F[n - step], out=a[0])
        if step == 0 and want_startup:
            startup = a[0].copy()
        np.add(a, fwd[X], out=F[X1])

    def b_part(step: int) -> None:
        d = _diag(step)
        if d is None:
            return
        lo, hi = d
        X = slice(lo, hi + 1, 2)
        X1 = slice(lo + 1, hi + 2, 2)
        b = tB[:(hi - lo) // 2 + 1]
        if paper:
            np.maximum(F[X1], B[X1], out=b)
            if hi == n - 1:
                b[:-1] += comm
            else:
                b += comm
        else:
            np.add(B[X1], comm, out=b)
            if hi == n - 1:
                b[-1] = 0.0
            np.maximum(b, F[X1], out=b)
        np.add(b, bwd[X], out=B[X])

    # The fused middle phase.  Once every steady diagonal is full
    # (``dmax == n - 1``) and past the fix rows, row ``r``'s frontier
    # pair ``(F[r], B[r])`` feeds exactly two half-steps: stage ``r``'s
    # forward and stage ``r - 1``'s backward.  For even ``t``, the B-half
    # of step ``t`` and the F-half of step ``t + 1`` read the rows of
    # parity ``n`` ("P", which holds pad row ``n``); the F-half of
    # ``t + 2`` and the B-half of ``t + 1`` read the other parity ("Q");
    # each pass writes only the parity it does not read.  Interleaving
    # the halves so leaves the dataflow unchanged and runs two
    # half-steps per pass over parity-split contiguous arrays.  Paper
    # mode shares one ``max(F, B) + comm`` between the two halves and
    # adds no comm on the pad rows, row 0 (no forward cross predecessor)
    # and row ``n`` (no backward one); edges mode needs
    # ``max(F + comm, B)`` for the F-half and ``max(B + comm, F)`` for
    # the B-half.  Every element still flows through the per-step
    # expression, so the fused phase is bit-identical to the halves it
    # replaces.
    window = _fused_window(n, m)

    def fused(count: int) -> None:
        """Run ``count`` fused iterations from the merged ``F`` / ``B``.

        Entry state: F-halves through some even step ``t``, B-halves
        through ``t - 1``; exit state: the same, ``2 * count`` steps on.
        """
        p0 = n & 1          # parity of pad row n (pad row 0 is even)
        q0 = 1 - p0
        # XS[0] / XS[1] = the F / B rows of parity S, stacked so edges
        # mode forms both arrival terms with one add and one max.
        XP = np.stack((F[p0::2], B[p0::2]))
        XQ = np.stack((F[q0::2], B[q0::2]))
        (FP, BP), (FQ, BQ) = XP, XQ
        hp, hq = FP.shape[0], FQ.shape[0]
        fwd_p = np.ascontiguousarray(fwd[p0::2])
        bwd_p = np.ascontiguousarray(bwd[p0::2])
        fwd_q = np.ascontiguousarray(fwd[q0::2])
        bwd_q = np.ascontiguousarray(bwd[q0::2])
        # Source rows and destination views of both passes: the P -> Q
        # pass ("a"), then the Q -> P pass ("b").
        fa_src, fa_dst = slice(0, hp - 1), FQ[p0:p0 + hp - 1]
        ba_src, ba_dst = slice(1 - p0, hp), BQ
        fb_src, fb_dst = slice(0, hq), FP[q0:q0 + hq]
        bb_src, bb_dst = slice(1 - q0, hq), BP[:hp - 1]
        if paper:
            MP = np.empty_like(FP)
            MQ = np.empty_like(FQ)
            mp_comm, mq_comm = MP[1 - p0:hp - 1], MQ[1 - q0:]
            mp_f, mp_b, mq_b = MP[fa_src], MP[ba_src], MQ[bb_src]
            for _ in range(count):
                np.maximum(FP, BP, out=MP)
                np.add(mp_comm, comm, out=mp_comm)
                np.add(mp_f, fwd_p, out=fa_dst)
                np.add(mp_b, bwd_q, out=ba_dst)
                np.maximum(FQ, BQ, out=MQ)
                np.add(mq_comm, comm, out=mq_comm)
                np.add(MQ, fwd_q, out=fb_dst)
                np.add(mq_b, bwd_p, out=bb_dst)
        else:
            # CS[0] = max(F + comm, B) feeds forwards, CS[1] =
            # max(B + comm, F) backwards.  The pads need no zeroed
            # arrival here: their arrival term is ``0.0 + comm``, and in
            # the full phase the value it is compared with -- B[0] for
            # stage 0's forward, F[n] for stage n-1's backward -- already
            # includes a comm hop on non-negative times, so the max
            # returns that value either way.
            CP = np.empty_like(XP)
            CQ = np.empty_like(XQ)
            XP_swap, XQ_swap = XP[::-1], XQ[::-1]
            cp_f, cp_b = CP[0, fa_src], CP[1, ba_src]
            cq_f, cq_b = CQ[0, fb_src], CQ[1, bb_src]
            for _ in range(count):
                np.add(XP, comm, out=CP)
                np.maximum(CP, XP_swap, out=CP)
                np.add(cp_f, fwd_p, out=fa_dst)
                np.add(cp_b, bwd_q, out=ba_dst)
                np.add(XQ, comm, out=CQ)
                np.maximum(CQ, XQ_swap, out=CQ)
                np.add(cq_f, fwd_q, out=fb_dst)
                np.add(cq_b, bwd_p, out=bb_dst)
        F[p0::2] = FP
        F[q0::2] = FQ
        B[p0::2] = BP
        B[q0::2] = BQ

    if window is None:
        for step in range(2 * m - 1):
            f_part(step)
            b_part(step)
            if step in checkpoints:
                sieve(step, step)
    else:
        fuse_lo, fuse_hi = window
        for step in range(fuse_lo):
            f_part(step)
            b_part(step)
            if step in checkpoints:
                sieve(step, step)
        f_part(fuse_lo)
        # A checkpoint inside the fused phase sieves at the first
        # iteration boundary whose completed B-halves reach it.
        cps = sorted(c for c in checkpoints if c >= fuse_lo)
        t = fuse_lo
        while t + 2 <= fuse_hi:
            if cps and t - 1 >= cps[0]:
                while cps and t - 1 >= cps[0]:
                    cps.pop(0)
                sieve(t, t - 1)
            count = (fuse_hi - t) // 2
            if cps:
                count = min(count, (cps[0] - t) // 2 + 1)
            fused(count)
            t += 2 * count
        # Completed: F-halves through ``t``, B-halves through ``t - 1``.
        b_part(t)
        if cps and cps[0] <= t:
            sieve(t, t)
        for step in range(t + 1, 2 * m - 1):
            f_part(step)
            b_part(step)
            if step in checkpoints and step > t:
                sieve(step, step)

    # -- cooldown: anti-diagonal v drains B(x, m - 1 - ...) ----------------
    # Symmetric fix rows: a stage's first cooldown backward can trail
    # the forward frontier while ``v <= n - 1``.
    for v in range(m, n + m - 1):
        lo = n - 1 - v
        if lo < 0:
            lo = 0
        hi = n + m - 2 - v
        if hi > n - 2:
            hi = n - 2
        if lo > hi:
            continue
        t = tB[:hi - lo + 1]
        if paper:
            np.maximum(B[lo + 1:hi + 2], B[lo:hi + 1], out=t)
            if v <= n - 1:
                np.maximum(t[0], F[lo + 1], out=t[0])
            t += comm
        else:
            np.add(B[lo + 1:hi + 2], comm, out=t)
            np.maximum(t, B[lo:hi + 1], out=t)
            if v <= n - 1:
                np.maximum(t[0], F[lo + 1], out=t[0])
        np.add(t, bwd[lo:hi + 1], out=B[lo:hi + 1])

    return B[0].copy(), startup, keep


# -- per-stage summary helpers ----------------------------------------------


def stage_busy_times(fwd, bwd, num_micro_batches: int) -> np.ndarray:
    """Per-stage compute-busy seconds, ``(K, num_stages)``.

    Mirrors :meth:`~repro.core.analytic_sim.SimResult.stage_busy_time`:
    every stage runs each micro-batch's forward and backward exactly
    once, so busy time is ``m * (f + b)`` regardless of schedule gaps.
    """
    fwd = _as_cost_matrix(fwd, "fwd")
    bwd = _as_cost_matrix(bwd, "bwd")
    return num_micro_batches * (fwd + bwd)


def bubble_fractions(
    fwd, bwd, iteration_times, num_micro_batches: int
) -> np.ndarray:
    """Per-stage idle fraction, ``(K, num_stages)``.

    ``iteration_times`` is the ``(K,)`` output of
    :func:`frontier_times`; non-positive iteration times report ``0.0``
    idle, like :meth:`SimResult.bubble_fraction`.
    """
    busy = stage_busy_times(fwd, bwd, num_micro_batches)
    it = np.asarray(iteration_times, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = 1.0 - busy / it
    return np.where(it > 0, frac, 0.0)


def peak_inflight_memory(
    static, stash, workspace, num_micro_batches: int
) -> np.ndarray:
    """Peak per-stage memory of ``K`` candidates, ``(K, num_stages)``.

    Closed form of the 1F1B in-flight bound the planner's memory filter
    uses (``_UnitSpace.stage_memory``): stage ``s`` holds at most
    ``min(m, n - s)`` stashed activations at once, on top of its static
    parameter/optimizer bytes and one transient workspace.  ``static`` /
    ``stash`` are per-stage *sums* over the stage's blocks and
    ``workspace`` the per-stage *max*, all ``(K, num_stages)``.
    """
    static = _as_cost_matrix(static, "static")
    stash = _as_cost_matrix(stash, "stash")
    workspace = _as_cost_matrix(workspace, "workspace")
    n = static.shape[1]
    in_flight = np.minimum(
        num_micro_batches, n - np.arange(n, dtype=np.float64)
    )
    return static + in_flight * stash + workspace

