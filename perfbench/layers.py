"""Per-layer attribution for the traced run.

:class:`Tracer` wraps the public entry points of each layer of the library
from the outside, at the attribute every caller resolves: a method on its
class (``PipelineSim.run``), and a module function in every loaded
``repro`` module that bound it (``plan_partition`` is both
``repro.core.planner.plan_partition`` and the name
``repro.core.exhaustive`` imported; ``frontier_times_transposed`` is looked
up on :mod:`repro.sim.analytic` at call time).  Each wrapper records calls,
self time (its duration minus the wrapped calls it made) and the counts the
result objects expose.  Wrappers only record inside :meth:`Tracer.query`;
elsewhere they pass straight through.

Which end-to-end metric each layer should move on its heavy workload (on
the light one, after the slash, it should move nothing):

* core.planner, core.analytic_sim, core.balance_dp, core.slicer:
  query_p50_ms, queries_per_s; plan-stream / cluster-execute.
* core.plan_cache: query_p50_ms; plan-stream / the others (cache off).
* core.exhaustive: query_tail_ms, peak_rss_mb; oracle-deep / plan-stream.
* sim.analytic, robustness: query_tail_ms; oracle-deep / plan-stream.
* schedules, sim.graph_exec, sim.engine, sim.slice_eval: query_p50_ms,
  sim_ops_per_s; cluster-execute / oracle-deep.
* core.strategy, baselines: query_tail_ms; cluster-execute / plan-stream.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


def _n_ops(schedule) -> int:
    return sum(len(program) for program in schedule.programs)


def _columns(args, kwargs, transposed: bool) -> int:
    fwd = args[0] if args else kwargs["fwd_t" if transposed else "fwd"]
    return int(fwd.shape[1] if transposed else fwd.shape[0])


# layer -> [(module, qualified attribute, counts hook or None)].  A hook
# maps (args, kwargs, result) of one call to the counts it adds.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "core.planner": [
        ("repro.core.planner", "plan_partition",
         lambda a, k, r: {"evaluations": r.evaluations}),
    ],
    "core.analytic_sim": [
        ("repro.core.analytic_sim", "PipelineSim.run", None),
    ],
    "core.balance_dp": [
        ("repro.core.balance_dp", "BalanceTable.__init__", None),
        ("repro.core.balance_dp", "BalanceTable.sizes", None),
        ("repro.core.balance_dp", "min_max_partition", None),
    ],
    "core.slicer": [
        ("repro.core.slicer", "make_slice_plan", None),
        ("repro.core.slicer", "solve_slice_count", None),
    ],
    "core.plan_cache": [
        ("repro.core.plan_cache", "PlanCache.load",
         lambda a, k, r: {"misses" if r is None else "hits": 1}),
        ("repro.core.plan_cache", "PlanCache.store", None),
    ],
    "core.exhaustive": [
        ("repro.core.exhaustive", "exhaustive_partition",
         lambda a, k, r: {"evaluations": r.evaluations, "space": r.space}),
    ],
    "sim.analytic": [
        ("repro.sim.analytic", "frontier_times",
         lambda a, k, r: {"columns": _columns(a, k, False)}),
        ("repro.sim.analytic", "frontier_times_transposed",
         lambda a, k, r: {"columns": _columns(a, k, True)}),
    ],
    "robustness": [
        ("repro.robustness.evaluate", "robust_objective_batch",
         lambda a, k, r: {"draw_sims": int(a[0].shape[0]) * a[4].draws}),
        ("repro.robustness.evaluate", "robust_objective_value",
         lambda a, k, r: {"draw_sims": a[2].draws}),
    ],
    "schedules": [
        (f"repro.schedules.{mod}", fn,
         lambda a, k, r: {"ops_built": _n_ops(r)})
        for mod, fn in (("one_f_one_b", "build_1f1b"),
                        ("gpipe", "build_gpipe"),
                        ("sliced", "build_sliced"),
                        ("interleaved", "build_interleaved"))
    ],
    "sim.graph_exec": [
        ("repro.sim.graph_exec", "compile_graph", None),
        ("repro.sim.graph_exec", "CompiledGraph.run", None),
        ("repro.sim.graph_exec", "run_batch", None),
        # Constructed once per structure-cache miss.
        ("repro.sim.graph_exec", "GraphStructure.__init__", None),
    ],
    "sim.engine": [
        ("repro.sim.engine", "Engine.run", None),
    ],
    "sim.slice_eval": [
        ("repro.sim.slice_eval", "evaluate_slice_counts", None),
        ("repro.sim.slice_eval", "compile_slice_graph", None),
    ],
    "core.strategy": [
        ("repro.core.strategy", "autotune_config",
         lambda a, k, r: {"candidates": len(r.candidates)}),
    ],
    "baselines": [
        # DP cells: layer units x GPUs of the profile the DP fills over.
        (f"repro.baselines.{mod}", fn,
         lambda a, k, r: {"dp_cells": a[0].model.num_layers * a[1]})
        for mod, fn in (("dapple", "plan_dapple"), ("piper", "plan_piper"))
    ] + [("repro.baselines.common", "evaluate_config", None)],
}


class Tracer:
    """Installs the layer wrappers and accumulates their measurements."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.target_calls: Dict[str, int] = defaultdict(int)
        self.target_self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.query_ns = 0
        self.unattributed_ns = 0
        self._stack: List[List[int]] = []
        self._undo: List[Callable[[], None]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module, attr, hook in targets:
                self._wrap(layer, module, attr, hook)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, module: str, attr: str,
              hook: Optional[Callable]) -> None:
        mod = importlib.import_module(module)
        target = f"{module.rsplit('.', 1)[-1]}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrapper(layer, target, original, hook))
            self._undo.append(lambda: setattr(cls, meth, original))
            return
        original = getattr(mod, attr)
        wrapper = self._wrapper(layer, target, original, hook)
        for name, other in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(other, attr, None) is original:
                setattr(other, attr, wrapper)
                self._undo.append(
                    lambda other=other: setattr(other, attr, original))

    def _wrapper(self, layer: str, target: str, fn: Callable,
                 hook: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                own = dur - frame[0]
                self.calls[layer] += 1
                self.self_ns[layer] += own
                self.target_calls[target] += 1
                self.target_self_ns[target] += own
            if hook is not None:
                counts = self.counts[layer]
                for name, value in hook(args, kwargs, result).items():
                    counts[name] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- query scope ------------------------------------------------------

    @contextmanager
    def query(self):
        """Attribute the wrapped calls made inside one timed query."""
        root = [0]
        self._stack.append(root)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dur = time.perf_counter_ns() - t0
            self._stack.pop()
            self.query_ns += dur
            self.unattributed_ns += dur - root[0]

    # -- report -----------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (float(self.calls[layer]), "count")
            out[f"{layer}.self_ms"] = (self.self_ns[layer] / 1e6, "ms")
        c = self.counts
        out["core.planner.evaluations"] = (
            c["core.planner"]["evaluations"], "count")
        out["core.analytic_sim.sim_runs"] = (
            float(self.target_calls["analytic_sim.PipelineSim.run"]), "count")
        out["core.plan_cache.hits"] = (c["core.plan_cache"]["hits"], "count")
        out["core.plan_cache.misses"] = (
            c["core.plan_cache"]["misses"], "count")
        out["core.plan_cache.load_ms"] = (
            self.target_self_ns["plan_cache.PlanCache.load"] / 1e6, "ms")
        out["core.plan_cache.store_ms"] = (
            self.target_self_ns["plan_cache.PlanCache.store"] / 1e6, "ms")
        ex = c["core.exhaustive"]
        out["core.exhaustive.evaluations"] = (ex["evaluations"], "count")
        out["core.exhaustive.space"] = (ex["space"], "count")
        out["core.exhaustive.admitted_ratio"] = (
            ex["evaluations"] / ex["space"] if ex["space"] else 0.0, "ratio")
        cols = c["sim.analytic"]["columns"]
        out["sim.analytic.columns"] = (cols, "count")
        out["sim.analytic.columns_per_call"] = (
            cols / self.calls["sim.analytic"]
            if self.calls["sim.analytic"] else 0.0, "count")
        out["robustness.draw_sims"] = (c["robustness"]["draw_sims"], "count")
        out["schedules.ops_built"] = (c["schedules"]["ops_built"], "count")
        out["sim.graph_exec.compile_ms"] = (
            self.target_self_ns["graph_exec.compile_graph"] / 1e6, "ms")
        out["sim.graph_exec.run_ms"] = (
            (self.target_self_ns["graph_exec.CompiledGraph.run"]
             + self.target_self_ns["graph_exec.run_batch"]) / 1e6, "ms")
        compiles = (self.target_calls["graph_exec.compile_graph"]
                    + self.target_calls["slice_eval.compile_slice_graph"])
        misses = self.target_calls["graph_exec.GraphStructure.__init__"]
        out["sim.graph_exec.structure_hit_ratio"] = (
            1.0 - misses / compiles if compiles else 0.0, "ratio")
        out["core.strategy.autotune_candidates"] = (
            c["core.strategy"]["candidates"], "count")
        out["baselines.dp_cells"] = (c["baselines"]["dp_cells"], "count")
        out["unattributed_ms"] = (self.unattributed_ns / 1e6, "ms")
        return out
