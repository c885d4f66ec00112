"""Property suite: analytic max-plus kernel == scalar sim == event engine.

Bit-identity (not approximate equality) is the contract that lets
:mod:`repro.sim.analytic` stand in for the scalar simulator as the
scorer of the oracle, the robust planner and the robustness batch
evaluators.  Hypothesis drives randomized stage-cost matrices,
micro-batch counts, both comm accounting modes, cost jitter and
perturbation factors, and asserts:

* :func:`frontier_times` / :func:`frontier_times_transposed` reproduce
  ``K`` scalar :class:`PipelineSim` runs bit for bit, including the
  startup overheads and the mid-sweep sieve;
* :func:`robust_iteration_times` / :func:`robust_objective_batch` match
  per-draw scalar sims under compute-noise, straggler and
  comm-degradation factors (the contract the robustness docstrings cite);
* the default (kernel-scored) ``exhaustive_partition`` returns the
  identical argmin, tie-breaks and iteration time as the unpruned brute
  force;
* the closed-form busy/bubble/memory helpers agree with
  :meth:`SimResult.stage_busy_time` / :meth:`SimResult.bubble_fraction`
  and the planner's 1F1B memory model.
"""

import random

import numpy as np
from hypothesis import event, given, settings, strategies as st

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.models.blocks import Block, BlockKind
from repro.parallel import stage_memory
from repro.profiling.modelconfig import BlockProfile, ModelProfile
from repro.robustness.evaluate import (
    reduce_statistic,
    robust_iteration_times,
    robust_objective_batch,
)
from repro.robustness.perturbation import (
    CommDegradation,
    StageCostNoise,
    Straggler,
    draw_factors,
)
from repro.sim.analytic import (
    _fused_window,
    bubble_fractions,
    frontier_times,
    frontier_times_transposed,
    peak_inflight_memory,
    stage_busy_times,
)


def _cost_matrices(k, n, seed, tie_heavy=False):
    rng = np.random.default_rng(seed)
    if tie_heavy:
        pool = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        fwd = pool[rng.integers(0, pool.size, size=(k, n))]
        bwd = pool[rng.integers(0, pool.size, size=(k, n))]
    else:
        fwd = rng.uniform(0.3, 4.0, size=(k, n))
        bwd = rng.uniform(0.5, 6.0, size=(k, n))
    return fwd, bwd


# -- frontier sweep vs K scalar sims ----------------------------------------


def _note_phase(n, m, comm_mode):
    """Label the example by which steady-phase path the kernel takes."""
    if _fused_window(n, m) is None:
        event(f"per-step {comm_mode}")
    else:
        event(f"fused {comm_mode}, {'odd' if n % 2 else 'even'} depth")


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    k=st.integers(min_value=1, max_value=7),
    mb_per_stage=st.integers(min_value=1, max_value=8),
    m_offset=st.integers(min_value=-1, max_value=1),
    comm_mode=st.sampled_from(("paper", "edges")),
    comm_kind=st.sampled_from(("zero", "scalar", "vector")),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_frontier_equals_lattice_batch(
    n, k, mb_per_stage, m_offset, comm_mode, comm_kind, tie_heavy, seed
):
    # m from below n up to ~8n: long fused middles of both parities.
    m = max(1, n * mb_per_stage + m_offset)
    _note_phase(n, m, comm_mode)
    fwd, bwd = _cost_matrices(k, n, seed, tie_heavy)
    rng = np.random.default_rng(seed + 1)
    if comm_kind == "zero":
        comm = 0.0
    elif comm_kind == "scalar":
        comm = float(rng.uniform(0.0, 0.6))
    else:
        comm = rng.uniform(0.0, 0.6, size=k)
    times, startup = frontier_times(
        fwd, bwd, comm, m, comm_mode=comm_mode, want_startup=True
    )
    # Bitwise what K scalar sims produce.
    comm_vec = np.broadcast_to(np.asarray(comm, dtype=np.float64), (k,))
    for i in range(k):
        sim = PipelineSim(
            StageTimes(tuple(fwd[i]), tuple(bwd[i]), float(comm_vec[i])),
            m,
            comm_mode=comm_mode,
        ).run()
        assert times[i] == sim.iteration_time
        assert startup[i] == sim.startup_overhead


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=2, max_value=24),
    m=st.integers(min_value=2, max_value=72),
    comm_mode=st.sampled_from(("paper", "edges")),
    comm_kind=st.sampled_from(("scalar", "vector")),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_transposed_sweep_and_sieve_never_drop_the_optimum(
    n, k, m, comm_mode, comm_kind, tie_heavy, seed
):
    _note_phase(n, m, comm_mode)
    fwd, bwd = _cost_matrices(k, n, seed, tie_heavy)
    rng = np.random.default_rng(seed + 2)
    if comm_kind == "scalar":
        comm = float(rng.uniform(0.0, 0.5))
    else:
        comm = rng.uniform(0.0, 0.5, size=k)
    full = frontier_times(fwd, bwd, comm, m, comm_mode=comm_mode)
    fwd_t = np.ascontiguousarray(fwd.T)
    bwd_t = np.ascontiguousarray(bwd.T)
    times, keep = frontier_times_transposed(
        fwd_t, bwd_t, comm, m, comm_mode=comm_mode
    )
    assert keep is None
    assert np.array_equal(times, full)
    # Sieve with the median as incumbent: survivors are bitwise equal to
    # the unsieved sweep, and no column at or under the limit is dropped.
    limit = float(np.median(full))
    sieved, keep = frontier_times_transposed(
        fwd_t, bwd_t, comm, m, comm_mode=comm_mode, limit=limit
    )
    if keep is None:
        keep = np.arange(k)
    assert np.array_equal(sieved, full[keep])
    dropped = np.setdiff1d(np.arange(k), keep)
    assert np.all(full[dropped] > limit)
    assert full.min() == sieved.min()


# -- robustness evaluators vs perturbed scalar sims -------------------------


_PERTURBATIONS = (
    (StageCostNoise(sigma=0.08),),
    (Straggler(slowdown=1.7, probability=0.5),),
    (Straggler(slowdown=2.0, stage=0), CommDegradation(factor=3.0)),
    (
        StageCostNoise(sigma=0.05),
        Straggler(slowdown=1.4, probability=0.3),
        CommDegradation(factor=2.0, probability=0.4),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=2, max_value=10),
    comm_mode=st.sampled_from(("paper", "edges")),
    models=st.sampled_from(_PERTURBATIONS),
    draws=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_robust_times_match_perturbed_scalar_sims(
    n, m, comm_mode, models, draws, seed
):
    rng = np.random.default_rng(seed)
    times = StageTimes(
        tuple(rng.uniform(0.3, 4.0, size=n)),
        tuple(rng.uniform(0.5, 6.0, size=n)),
        float(rng.uniform(0.0, 0.5)),
    )
    factors = draw_factors(models, n, draws, seed)
    got = robust_iteration_times(times, m, factors, comm_mode=comm_mode)
    fwd, bwd, comm = factors.apply(times)
    for i in range(draws):
        sim = PipelineSim(
            StageTimes(tuple(fwd[i]), tuple(bwd[i]), float(comm[i])),
            m,
            comm_mode=comm_mode,
        ).run()
        assert got[i] == sim.iteration_time


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    c=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=2, max_value=8),
    comm_mode=st.sampled_from(("paper", "edges")),
    statistic=st.sampled_from(("mean", "p95", "max")),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_robust_objective_batch_matches_per_candidate(
    n, c, m, comm_mode, statistic, seed
):
    rng = np.random.default_rng(seed)
    fwd = rng.uniform(0.3, 4.0, size=(c, n))
    bwd = rng.uniform(0.5, 6.0, size=(c, n))
    comm = float(rng.uniform(0.0, 0.5))
    factors = draw_factors(_PERTURBATIONS[3], n, 8, seed)
    got = robust_objective_batch(
        fwd, bwd, comm, m, factors, statistic, comm_mode=comm_mode
    )
    for i in range(c):
        times = StageTimes(tuple(fwd[i]), tuple(bwd[i]), comm)
        draws = robust_iteration_times(times, m, factors, comm_mode=comm_mode)
        assert got[i] == reduce_statistic(draws, statistic)


# -- oracle equivalence: kernel-scored search == brute force ----------------

_ORACLE_MODEL = ModelConfig(
    name="prop", num_layers=1, hidden_size=64, num_heads=4
)
_ORACLE_HW = HardwareConfig()
_ORACLE_TRAIN = TrainConfig(micro_batch_size=1, global_batch_size=8)


def _synthetic_profile(costs, comm):
    blocks = tuple(
        BlockProfile(
            block=Block(index=i, kind=BlockKind.ATTENTION, layer_index=i),
            fwd_time=f, bwd_time=b,
            params=1.0, activation_out_bytes=1.0,
            stash_bytes=1.0, workspace_bytes=1.0,
        )
        for i, (f, b) in enumerate(costs)
    )
    return ModelProfile(
        model=_ORACLE_MODEL, hardware=_ORACLE_HW, train=_ORACLE_TRAIN,
        blocks=blocks, comm_time=comm, boundary_bytes=1.0,
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    p=st.integers(min_value=2, max_value=5),
    m=st.sampled_from((2, 4, 6, 9)),
    comm=st.sampled_from((0.0, 0.05, 0.4)),
    comm_mode=st.sampled_from(("paper", "edges")),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_oracle_identical_argmin_and_tiebreaks(
    n, p, m, comm, comm_mode, tie_heavy, seed
):
    p = min(p, n)
    rng = random.Random(seed)
    if tie_heavy:
        pool = (0.5, 1.0, 1.5, 2.0, 3.0)
        costs = [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
    else:
        costs = [
            (rng.uniform(0.5, 4.0), rng.uniform(0.8, 6.0)) for _ in range(n)
        ]
    prof = _synthetic_profile(costs, comm)
    kw = dict(comm_mode=comm_mode, planner_warm_start=False)
    ana = exhaustive_partition(prof, p, m, **kw)
    bru = exhaustive_partition(prof, p, m, prune=False, **kw)
    assert ana.partition.sizes == bru.partition.sizes
    assert ana.iteration_time == bru.iteration_time
    assert ana.evaluations <= bru.evaluations


# -- closed-form busy / bubble / memory helpers -----------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=10),
    comm_mode=st.sampled_from(("paper", "edges")),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_busy_and_bubble_match_sim_result(n, m, comm_mode, seed):
    fwd, bwd = _cost_matrices(3, n, seed)
    comm = float(np.random.default_rng(seed + 3).uniform(0.0, 0.4))
    times = frontier_times(fwd, bwd, comm, m, comm_mode=comm_mode)
    busy = stage_busy_times(fwd, bwd, m)
    bubble = bubble_fractions(fwd, bwd, times, m)
    for i in range(3):
        sim = PipelineSim(
            StageTimes(tuple(fwd[i]), tuple(bwd[i]), comm),
            m,
            comm_mode=comm_mode,
        ).run()
        for s in range(n):
            assert busy[i, s] == sim.stage_busy_time(s)
            assert bubble[i, s] == sim.bubble_fraction(s)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.integers(min_value=4, max_value=12),
    p=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_peak_memory_matches_planner_model(blocks, p, m, seed):
    p = min(p, blocks)
    rng = random.Random(seed)
    costs = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
             for _ in range(blocks)]
    prof = _synthetic_profile(costs, 0.1)
    cuts = sorted(rng.sample(range(1, blocks), p - 1))
    partition = PartitionScheme.from_boundaries(blocks, cuts)
    state = prof.train.bytes_per_param_state
    static = [[sum(prof.blocks[i].params for i in blk) * state
               for blk in partition.stages]]
    stash = [[sum(prof.blocks[i].stash_bytes for i in blk)
              for blk in partition.stages]]
    work = [[max(prof.blocks[i].workspace_bytes for i in blk)
             for blk in partition.stages]]
    peaks = peak_inflight_memory(static, stash, work, m)
    for s in range(p):
        assert peaks[0, s] == stage_memory(prof, partition, s, m)
