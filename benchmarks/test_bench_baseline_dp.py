"""Baseline-planner DP kernels: vectorized vs scalar, DAPPLE's batched
candidate scoring, and the batched slice-count autotune sweep vs one
event-engine run per slice count.

Writes the ``baseline_dp``, ``dapple_scoring`` and ``autotune_batched``
sections of ``BENCH_search.json``.  Guards:

* vectorized Piper and DAPPLE must return plans identical to the scalar
  loops at both scales (always asserted — bit-equal predicted time);
* at the 64-GPU synthetic scale the vectorized DPs must be >= 5x faster
  (the recorded numbers land well above 10x; the asserted bar leaves
  headroom for runner noise);
* DAPPLE's per-stage-count kernel sweeps must return the plan that one
  scalar ``PipelineSim`` per candidate picks (bit-equal predicted time)
  and plan the 64-GPU cell >= 3x faster than that reference;
* the batched slice sweep must pick the identical autotune winner and
  run >= 3x faster than the same search with each slice count executed
  by ``run_pipeline(..., executor="event")``.
"""

from __future__ import annotations

import time
from unittest import mock

from benchmarks.conftest import run_and_print
from benchmarks.test_bench_ablation_search import (
    TINY12,
    merge_into_search_results,
)
from repro.baselines.dapple import dapple_candidates, plan_dapple
from repro.baselines.piper import plan_piper
from repro.config import TrainConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.partition import StageTimes
from repro.core.slicer import SlicePlan
from repro.core.strategy import autotune_config
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.models.zoo import GPT2_1_3B, GPT2_345M
from repro.profiling import profile_model
from repro.runtime.trainer import run_pipeline
from repro.sim import slice_eval

#: Table III scale: the paper's full 4x4 testbed (16 GPUs) on the
#: GPT-2 345M sweep cell.
_TABLE3 = ("table3", GPT2_345M, DEFAULT_CLUSTER_HW, 4, 512, 16)
#: 64-GPU synthetic scale: the ROADMAP's scale-out target, on a cluster
#: large enough that the 64-way plans exist.
_SCALE64 = ("64-gpu", GPT2_1_3B, rtx3090_cluster(8, 8), 16, 2048, 64)

_PLANNERS = {"piper": plan_piper, "dapple": plan_dapple}

#: DAPPLE scoring cells: the cluster-execute workload's Table IV-style
#: gpt2-1.3b cell (8 GPUs, m=512) and the 64-GPU synthetic scale (m=128).
_TABLE4_M512 = ("table4-8gpu", GPT2_1_3B, DEFAULT_CLUSTER_HW, 2, 1024, 8)
_DAPPLE_SCORING_CELLS = (_TABLE4_M512, _SCALE64)

#: plan_dapple wall time before batched scoring, when every candidate
#: ran one scalar PipelineSim through the process-wide SimCache: cold
#: cache, best of 5 (8 GPUs) and 3 (64 GPUs) on a 2-vCPU x86 VM,
#: Python 3.11.7.
_PER_CANDIDATE_SECONDS = {"table4-8gpu": 0.597, "64-gpu": 5.72}


def _plan_outcome(cfg):
    return (cfg.partition, cfg.replicas, cfg.predicted, cfg.notes)


def _best_of(fn, reps):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_baseline_dp():
    result = ExperimentResult(
        name="Baseline planner DPs: scalar loops vs vectorized kernels",
        headers=["planner", "scale", "G", "scalar (ms)", "vector (ms)",
                 "speedup", "identical"],
    )
    for scale, model, hw, mbs, gbs, G in (_TABLE3, _SCALE64):
        train = TrainConfig(micro_batch_size=mbs, global_batch_size=gbs)
        profile = profile_model(model, hw, train)
        for name, planner in _PLANNERS.items():
            # The scalar reference at 64 GPUs runs seconds per call: one
            # measured rep there, two at table scale; the vectorized
            # path is cheap enough for best-of-3.
            s_s, s_cfg = _best_of(
                lambda: planner(profile, G, gbs, impl="scalar"),
                reps=1 if scale == "64-gpu" else 2,
            )
            v_s, v_cfg = _best_of(
                lambda: planner(profile, G, gbs, impl="vector"), reps=3,
            )
            identical = _plan_outcome(s_cfg) == _plan_outcome(v_cfg)
            result.rows.append([
                name, scale, G, f"{s_s * 1e3:.1f}", f"{v_s * 1e3:.1f}",
                f"{s_s / v_s:.1f}x", "yes" if identical else "NO",
            ])
    return result


def test_bench_baseline_dp(benchmark):
    result = run_and_print(benchmark, run_baseline_dp)
    assert all(row[6] == "yes" for row in result.rows), (
        "vectorized baseline DP diverged from the scalar reference"
    )
    for row in result.rows:
        if row[1] == "64-gpu":
            speedup = float(row[5].rstrip("x"))
            assert speedup >= 5.0, (
                f"{row[0]} vectorized DP managed only {speedup:.1f}x at "
                "the 64-GPU scale — below the 5x acceptance bar"
            )
    merge_into_search_results("baseline_dp", {
        "setting": "scalar reference loops vs numpy DP kernels "
                   "(bit-identical plans asserted)",
        "scales": {
            "table3": "gpt2-345m, 4x4 cluster, mbs=4, gbs=512, G=16",
            "64-gpu": "gpt2-1.3b, 8x8 cluster, mbs=16, gbs=2048, G=64",
        },
        "rows": [
            {
                "planner": row[0], "scale": row[1], "num_gpus": row[2],
                "scalar_ms": float(row[3]), "vector_ms": float(row[4]),
                "speedup": float(row[5].rstrip("x")),
                "identical_plan": row[6] == "yes",
            }
            for row in result.rows
        ],
    })


def _scalar_scored_dapple(profile, num_gpus, gbs):
    """DAPPLE's plan with one scalar ``PipelineSim`` per candidate."""
    m = gbs // profile.train.micro_batch_size
    best_cost, best = float("inf"), None
    for cand in dapple_candidates(profile, num_gpus, gbs):
        times = StageTimes(cand.fwd, cand.bwd, profile.comm_time)
        cost = PipelineSim(times, m, comm_mode="edges").run().iteration_time
        cost += cand.unhidden
        if cost < best_cost:
            best_cost, best = cost, cand
    return (best.partition(profile), best.replicas, best_cost)


def run_dapple_scoring():
    result = ExperimentResult(
        name="DAPPLE candidate scoring: one scalar sim per candidate vs "
             "one kernel sweep per stage count",
        headers=["scale", "G", "m", "candidates", "scalar sims (ms)",
                 "kernel (ms)", "speedup", "before (ms)", "vs before",
                 "identical"],
    )
    for scale, model, hw, mbs, gbs, G in _DAPPLE_SCORING_CELLS:
        train = TrainConfig(micro_batch_size=mbs, global_batch_size=gbs)
        profile = profile_model(model, hw, train)
        count = sum(1 for _ in dapple_candidates(profile, G, gbs))
        ref_s, ref = _best_of(
            lambda: _scalar_scored_dapple(profile, G, gbs), reps=1,
        )
        new_s, cfg = _best_of(lambda: plan_dapple(profile, G, gbs), reps=3)
        identical = (cfg.partition, cfg.replicas, cfg.predicted) == ref
        before = _PER_CANDIDATE_SECONDS[scale]
        result.rows.append([
            scale, G, gbs // mbs, count, f"{ref_s * 1e3:.1f}",
            f"{new_s * 1e3:.1f}", f"{ref_s / new_s:.1f}x",
            f"{before * 1e3:.0f}", f"{before / new_s:.1f}x",
            "yes" if identical else "NO",
        ])
    return result


def test_bench_dapple_scoring(benchmark):
    result = run_and_print(benchmark, run_dapple_scoring)
    assert all(row[-1] == "yes" for row in result.rows), (
        "kernel-scored DAPPLE diverged from the scalar-scored reference"
    )
    for row in result.rows:
        if row[0] == "64-gpu":
            speedup = float(row[6].rstrip("x"))
            assert speedup >= 3.0, (
                f"batched DAPPLE scoring managed only {speedup:.1f}x over "
                "one scalar sim per candidate at 64 GPUs — below 3x"
            )
    merge_into_search_results("dapple_scoring", {
        "setting": "plan_dapple (one frontier_times sweep per stage count, "
                   "edges comm mode) vs the same candidates scored by one "
                   "scalar PipelineSim each (identical plan asserted); "
                   "'before' is plan_dapple's recorded wall time when it "
                   "scored per candidate through the shared SimCache",
        "scales": {
            "table4-8gpu": "gpt2-1.3b, 4x4 cluster, mbs=2, gbs=1024, G=8",
            "64-gpu": "gpt2-1.3b, 8x8 cluster, mbs=16, gbs=2048, G=64",
        },
        "rows": [
            {
                "scale": row[0], "num_gpus": row[1], "micro_batches": row[2],
                "candidates": row[3], "scalar_sims_ms": float(row[4]),
                "kernel_ms": float(row[5]),
                "speedup": float(row[6].rstrip("x")),
                "before_ms": float(row[7]),
                "speedup_vs_before": float(row[8].rstrip("x")),
                "identical_plan": row[9] == "yes",
            }
            for row in result.rows
        ],
    })


def _event_slice_sweep(
    profile, partition, m, slice_counts, *, cluster=None, **_unused
):
    """The per-count reference: one event-engine run per slice count."""
    executions = []
    for num_sliced in slice_counts:
        if num_sliced == 0:
            executions.append(run_pipeline(
                profile, partition, m, cluster=cluster, executor="event",
            ))
        else:
            executions.append(run_pipeline(
                profile, partition, m, schedule="sliced",
                slice_plan=SlicePlan(
                    num_sliced=num_sliced, num_micro_batches=m
                ),
                cluster=cluster, executor="event",
            ))
    return executions


def _autotune_per_count_event(profile, num_gpus):
    with mock.patch.object(
        slice_eval, "evaluate_slice_counts", _event_slice_sweep
    ):
        return autotune_config(profile, num_gpus)


def run_autotune_batched():
    train = TrainConfig(micro_batch_size=4, global_batch_size=4 * 32)
    profile = profile_model(TINY12, DEFAULT_CLUSTER_HW, train)
    per_s, per = _best_of(
        lambda: _autotune_per_count_event(profile, 8), reps=3,
    )
    bat_s, bat = _best_of(lambda: autotune_config(profile, 8), reps=3)
    result = ExperimentResult(
        name="Autotune slice sweep: one event-engine run per count vs "
             "batched skeleton relaxation (tiny12, 8 GPUs, m=32)",
        headers=["mode", "wall (ms)", "speedup", "best layout", "slices"],
    )
    result.rows.append([
        "per-count-event", f"{per_s * 1e3:.1f}", "1.0x",
        str(per.best.layout), per.best.slice_count,
    ])
    result.rows.append([
        "batched", f"{bat_s * 1e3:.1f}", f"{per_s / bat_s:.1f}x",
        str(bat.best.layout), bat.best.slice_count,
    ])
    result.meta["identical_best"] = (
        str(per.best.layout) == str(bat.best.layout)
        and per.best.slice_count == bat.best.slice_count
        and per.best.iteration_seconds == bat.best.iteration_seconds
    )
    result.meta["speedup"] = per_s / bat_s
    return result


def test_bench_autotune_batched(benchmark):
    result = run_and_print(benchmark, run_autotune_batched)
    assert result.meta["identical_best"], (
        "batched slice evaluation changed the autotune winner"
    )
    assert result.meta["speedup"] >= 3.0, (
        f"batched slice sweep managed only {result.meta['speedup']:.1f}x "
        "over one event-engine run per count — below the 3x acceptance bar"
    )
    merge_into_search_results("autotune_batched", {
        "setting": "tiny12 (27 blocks), 8 GPUs, m=32, joint search; "
                   "slice sweep batched through cached graph skeletons "
                   "vs run_pipeline(executor='event') per slice count",
        "rows": [
            {
                "mode": row[0], "wall_ms": float(row[1]),
                "speedup": float(row[2].rstrip("x")),
                "best_layout": row[3], "best_slices": row[4],
            }
            for row in result.rows
        ],
        "identical_best": result.meta["identical_best"],
    })
