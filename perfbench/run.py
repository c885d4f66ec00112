"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-stream --seed 1 --seconds 10 \\
        --trace 0 [--out result.json]

The load is a closed loop: one client in one process sends the next query
when the previous one has returned.  Each pass runs in a fresh child
process with BLAS pinned to one thread and the library's telemetry off:

* ``--trace 0`` measures set-up in ``SETUP_REPS`` set-up-only children
  (reporting the median as ``setup_s``) and runs one timed pass; it prints
  the end-to-end metrics.
* ``--trace 1`` runs the same queries twice, once plain and once with the
  per-layer wrappers of :mod:`perfbench.layers` installed, and prints the
  per-layer metrics plus the tracing overhead.

Timings are CPU times of the one-threaded client, put at a nominal host
speed by a reference task timed between the queries (see
:mod:`perfbench.hostspeed`); the record keeps the uncalibrated values.
Each query starts from a fully collected, frozen heap, so no query pays
for garbage that earlier ones left.

Every answer is checked after the timed loop (see
:func:`perfbench.workloads.check`).  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (environment, answers digest, tail
percentile, failures), which ``--out`` also writes to a file that
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

SETUP_REPS = 7
# Host-speed probes after each set-up (see perfbench.hostspeed).
SETUP_PROBES = 25
# A run must end within this many seconds, children included.
DEADLINE_S = 170.0
# Samples the tail percentile leaves beyond it.
TAIL_SAMPLES = 10
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# ---------------------------------------------------------------------------
# child roles


def _setup(workload: str):
    """Set-up a user pays once: imports, profile construction, warm-up."""
    from perfbench import workloads as wl

    for q in wl.warmup_queries(workload):
        wl.execute(wl.prepare(q))
    return wl


def _child_setup(workload: str) -> dict:
    # CPU time, as for the queries (see perfbench.workloads.run_stream).
    t0 = time.process_time()
    _setup(workload)
    setup_s = time.process_time() - t0
    from perfbench import hostspeed

    return {"setup_s": setup_s,
            "probe_s": statistics.median(hostspeed.probes(SETUP_PROBES))}


def _child_pass(workload: str, seed: int, seconds: float, traced: bool,
                deadline: float) -> dict:
    import resource
    import shutil
    import tempfile

    t0 = time.process_time()
    wl = _setup(workload)
    import numpy

    setup_s = time.process_time() - t0
    from perfbench import hostspeed

    hostspeed.probes(3)  # first calls pay numpy's own warm-up
    probe_log: list = []
    queries = wl.make_queries(workload, seed, wl.rounds_for(workload, seconds))
    tracer = None
    if traced:
        from perfbench.layers import Tracer

        tracer = Tracer()
        tracer.install()
    cache_dir = None
    plan_cache = None
    if workload == "plan-stream":
        from repro.core.plan_cache import PlanCache

        cache_dir = tempfile.mkdtemp(prefix=".perfbench-cache-",
                                     dir=os.getcwd())
        plan_cache = PlanCache(cache_dir)
    try:
        times, answers, errors = wl.run_stream(queries, plan_cache, tracer,
                                               deadline, probe_log)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    queries = queries[:len(times)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, facts = wl.check(workload, queries, answers, seed)
    ops = sum(a.extra.get("ops", 0) for a in answers if a is not None)
    exec_s = sum(t for t, q in zip(times, queries) if q.kind == "execute")
    # DAPPLE's over-replicated Table III/IV plans fail to execute (the
    # paper's "-" and OOM cells); they have no iteration time to average.
    plan_times = [a.iteration_time for q, a in zip(queries, answers)
                  if a is not None and q.repeat_of < 0
                  and math.isfinite(a.iteration_time)]
    out = {
        "setup_in_pass_s": setup_s,
        "numpy": numpy.__version__,
        "times": times,
        "probe_log": probe_log,
        "errors": errors,
        "problems": problems,
        "digest": wl.answers_digest(answers),
        "peak_rss_mb": peak_rss_mb,
        "plan_iter_geomean_ms": 1e3 * math.exp(
            sum(math.log(t) for t in plan_times) / len(plan_times))
        if plan_times else float("nan"),
        "planner_gap_pct": facts["planner_gap_pct"],
        "gap_samples": facts["gap_samples"],
        "sim_ops_per_s": ops / exec_s if exec_s > 0 else 0.0,
    }
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
    return out


# ---------------------------------------------------------------------------
# orchestration


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run one child to completion and parse its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.perf_counter()),
                          check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child {args} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def _tail(times: list) -> tuple:
    """(value, percentile): the highest percentile of ``times`` with
    ``TAIL_SAMPLES`` samples beyond it (fewer when there are not enough)."""
    k = max(0, len(times) - TAIL_SAMPLES - 1)
    return sorted(times)[k], 100.0 * (k + 1) / len(times)


def _at_nominal(result: dict) -> list:
    """A pass's query times at the nominal host speed."""
    from perfbench.hostspeed import factors

    times = result["times"]
    return [t * f for t, f in zip(times, factors(len(times),
                                                 result["probe_log"]))]


def _environment(args: argparse.Namespace, numpy_version: str) -> dict:
    h = hashlib.sha256()
    for path in sorted((Path.cwd() / "src").rglob("*.py")):
        h.update(str(path.relative_to(Path.cwd())).encode())
        h.update(path.read_bytes())
    head = Path.cwd() / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path.cwd() / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() \
                else ref
        else:
            commit = ref
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "seed": args.seed,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def orchestrate(args: argparse.Namespace) -> int:
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{list(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("no library source under ./src/repro: run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    # Every child gets the same absolute deadline, as seconds from now.
    def child(role: str, trace: int) -> dict:
        left = deadline - time.perf_counter()
        return _spawn([*base, "--role", role, "--trace", str(trace),
                       "--child-budget", f"{left:.3f}"], deadline)

    from perfbench.hostspeed import NOMINAL_PROBE_S

    record: dict = {"workload": args.workload}
    setups = []
    if not args.trace:
        setups = [child("setup", 0) for _ in range(SETUP_REPS)]
    main = child("pass", 0)
    traced = child("pass", 1) if args.trace else None

    times = main["times"]
    attempted = len(times)
    if not attempted:
        print(f"no query ran: {main['errors']}", file=sys.stderr)
        return 1
    wrong = len(main["problems"])
    raised = len(main["errors"])
    failed = min(attempted, wrong + raised)
    # Timings are CPU times at the nominal host speed (perfbench.hostspeed):
    # each query's scaled by the probes around it, each set-up child's by
    # its own probes.
    scaled = _at_nominal(main)
    raw = {
        "queries_per_s": attempted / sum(times),
        "query_p50_ms": 1e3 * statistics.median(times),
        "query_tail_ms": 1e3 * _tail(times)[0],
    }
    tail, tail_pct = _tail(scaled)
    metrics = {}
    if args.trace:
        layers = {k: _metric(v, u) for k, (v, u) in traced["layers"].items()}
        layers["tracing_overhead_pct"] = _metric(
            100.0 * (sum(_at_nominal(traced)) / sum(scaled) - 1.0), "%")
        layers["planner_gap_pct"] = _metric(main["planner_gap_pct"], "%")
        layers["sim_ops_per_s"] = _metric(main["sim_ops_per_s"], "1/s")
        metrics = layers
        if traced["digest"] != main["digest"]:
            main["problems"].append("traced answers differ from untraced")
            failed = min(attempted, failed + 1)
    else:
        raw["setup_s"] = statistics.median(c["setup_s"] for c in setups)
        metrics = {
            "setup_s": _metric(statistics.median(
                c["setup_s"] * NOMINAL_PROBE_S / c["probe_s"]
                for c in setups), "s"),
            "queries_per_s": _metric(attempted / sum(scaled), "1/s"),
            "query_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
            "query_tail_ms": _metric(1e3 * tail, "ms"),
            "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
            "plan_iter_geomean_ms": _metric(main["plan_iter_geomean_ms"],
                                            "ms"),
        }
    record.update({
        "environment": _environment(args, main["numpy"]),
        "answers_digest": main["digest"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": main["errors"][:20],
        "problems": main["problems"][:20],
        "query_tail": {"percentile": tail_pct,
                       "beyond": sum(t > tail for t in scaled),
                       "samples": attempted},
        "host": {"probe_ms": 1e3 * statistics.median(
                     t for _, t in main["probe_log"]),
                 "probes": len(main["probe_log"]),
                 "nominal_probe_ms": 1e3 * NOMINAL_PROBE_S,
                 "uncalibrated": raw},
        "planner_gap_pct": main["planner_gap_pct"],
        "gap_samples": main["gap_samples"],
        "sim_ops_per_s": main["sim_ops_per_s"],
        "setup_samples": setups,
        "metrics": metrics,
    })
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--role", choices=("setup", "pass"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is None:
        return orchestrate(args)
    if args.role == "setup":
        out = _child_setup(args.workload)
    else:
        deadline = time.perf_counter() + args.child_budget - 20.0
        out = _child_pass(args.workload, args.seed, args.seconds,
                          bool(args.trace), deadline)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
