"""Benchmark workloads: seeded query streams, execution and answer checks.

A workload is a list of :class:`Query` specs generated from ``(seed,
rounds)``.  Each round walks a fixed grid of cells (model, depth, ``m``,
micro-batch size) in a seeded order, with a per-block jitter of the fwd/bwd
times that differs from round to round, so total work per round stays
steady while repeats are never free (every jittered profile hashes
differently).  Queries are
materialised into program inputs outside the timed region; ``execute``
times only the calls a user of the library would make; ``check`` re-derives
every answer from the reference paths, again outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

# Relative std-dev of the seeded log-normal per-block jitter.  Small enough
# that every round plans the same kind of problem; large enough that no two
# rounds share a profile hash, so the plan and simulator caches only hit on
# the deliberate repeats.  The exact oracle runs unjittered: any jitter, even
# 0.1%, flips the planner warm start on the depth-12 cells and swings their
# search work 2-4x from seed to seed, and no cache sits on its path, so its
# repeats are not free anyway.
JITTER = 0.01
UNJITTERED_KINDS = ("oracle", "robust")

PLAN_STREAM_MODELS = ("gpt2-345m", "gpt2-762m", "gpt2-1.3b", "bert-large")
PLAN_STREAM_DEPTHS = tuple(range(2, 17))
PLAN_STREAM_M_MULTS = (1, 2, 4, 8)
PLAN_STREAM_MBS = (1, 2, 4, 8)
# Share of the stream that repeats an earlier query through the cache.
PLAN_STREAM_REPEAT = 0.3
# Deepest plan-stream cells whose jitter the seed draws.
PLAN_STREAM_SEEDED_DEPTH = 8

# Paper depths on the paper's models; gpt2-762m (75 blocks) stops at 12,
# where its search already peaks near the 345m depth-12 memory high-water.
ORACLE_CELLS = (
    *(("gpt2-345m", d) for d in range(8, 15)),
    *(("bert-large", d) for d in range(8, 15)),
    *(("gpt2-762m", d) for d in range(8, 13)),
)
# Robust-objective queries (model, depth): full enumeration under P95 over
# 64 seeded draws.
ROBUST_CELLS = (("bert-large", 3), ("gpt2-345m", 4))
ROBUST_DRAWS = 64
ORACLE_MBS = 4

# cluster-execute cells.  Schedules execute on a 32-GPU cluster so depth 32
# fits; the interleaved cells are the (model, depth, chunks) whose layers
# divide evenly into depth x chunks virtual stages.
EXEC_SCHEDULE_DEPTHS = (8, 16, 32)
EXEC_SCHEDULES = ("1f1b", "gpipe", "sliced")
EXEC_MODELS = ("gpt2-345m", "bert-large", "gpt2-1.3b")
INTERLEAVED_CELLS = (("gpt2-345m", 8, 3), ("gpt2-345m", 12, 2),
                     ("gpt2-762m", 18, 2))
AUTOTUNE_CELLS = (("gpt2-345m", 8), ("gpt2-345m", 16))
AUTOTUNE_GLOBAL_BATCH = 64
# Table III (gpt2-345m, mbs 4) and Table IV (gpt2-1.3b, mbs 2) style cells.
BASELINE_CELLS = (("gpt2-345m", 4, 4, 256), ("gpt2-345m", 4, 16, 256),
                  ("gpt2-1.3b", 2, 4, 1024), ("gpt2-1.3b", 2, 8, 1024))
EXEC_MBS = 4

# Seconds of one round at the nominal host speed (perfbench.hostspeed);
# rounds per run are ``seconds / ROUND_SECONDS``, so every run does the
# same amount of work.
ROUND_SECONDS = {"plan-stream": 2.0, "oracle-deep": 3.0,
                 "cluster-execute": 1.8}
# Query time between two host-speed probes (each takes ~7 ms).
PROBE_EVERY_S = 0.2
# Checks run the oracle on at most this many plan-stream queries, and the
# event engine on this many cluster-execute executions, per run.
ORACLE_CHECK_SAMPLE = 8
ENGINE_CHECK_SAMPLE = 6
# Largest search space a plan-stream oracle check (or brute force) takes on.
ORACLE_CHECK_MAX_SPACE = 2_000_000
BRUTE_MAX_SPACE = 1_300

WORKLOADS = tuple(ROUND_SECONDS)


@dataclass(frozen=True)
class Query:
    """One request of a workload: what to call and on which inputs."""

    kind: str
    model: str
    mbs: int
    depth: int
    m: int
    #: seed of the per-block jitter; equal specs give equal profiles.
    jitter_seed: int
    gpus: int = 0
    global_batch: int = 0
    schedule: str = ""
    chunks: int = 0
    robust_seed: int = -1
    #: index of the query this one repeats (plan-stream), else -1.
    repeat_of: int = -1
    #: round of the stream the query belongs to.
    round: int = 0

    def key(self) -> Tuple:
        return (self.kind, self.model, self.mbs, self.depth, self.m,
                self.jitter_seed, self.gpus, self.global_batch,
                self.schedule, self.chunks, self.robust_seed)


@dataclass
class Answer:
    """What one query returned, reduced to the comparable facts."""

    kind: str
    #: stage sizes in blocks of the returned partition ((), if none).
    sizes: Tuple[int, ...]
    #: simulated iteration time of the returned plan, seconds.
    iteration_time: float
    #: Slicer count of the plan (0 when the query has none).
    slices: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def record(self) -> list:
        return [self.kind, list(self.sizes), float(self.iteration_time).hex(),
                int(self.slices)]


# ---------------------------------------------------------------------------
# query generation


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def _round_rng(seed: int, workload: str, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def _plan_stream(seed: int, rounds: int) -> List[Query]:
    out: List[Query] = []
    originals: List[int] = []
    for r in range(rounds):
        # Round r's micro-batch sizes, and the jitter of its cells deeper
        # than PLAN_STREAM_SEEDED_DEPTH, are the same for every seed: the
        # planner's work on the deep cells swings with the jitter, and the
        # run's tail sits on those few queries, so a per-seed jitter there
        # moved query_tail_ms by a third between seeds.  The seed jitters
        # the shallower cells, orders the stream and picks the repeats.
        cell_rng = random.Random(f"plan-stream/cells/{r}")
        rng = _round_rng(seed, "plan-stream", r)
        cells = [(model, d, mult) for model in PLAN_STREAM_MODELS
                 for d in PLAN_STREAM_DEPTHS for mult in PLAN_STREAM_M_MULTS]
        # Every micro-batch size plans the same number of cells per round.
        mbs = [PLAN_STREAM_MBS[i % len(PLAN_STREAM_MBS)]
               for i in range(len(cells))]
        cell_rng.shuffle(mbs)
        problems = []
        for (model, d, mult), b in zip(cells, mbs):
            fixed, seeded = cell_rng.getrandbits(31), rng.getrandbits(31)
            jitter = seeded if d <= PLAN_STREAM_SEEDED_DEPTH else fixed
            problems.append(Query("plan", model, b, d, mult * d, jitter,
                                  round=r))
        rng.shuffle(problems)
        fresh = iter(problems)
        total = round(len(cells) / (1 - PLAN_STREAM_REPEAT))
        # Position 0 of every round is fresh, so there is always an
        # earlier query to repeat.
        slots = set(rng.sample(range(1, total), total - len(cells)))
        for pos in range(total):
            if pos in slots:
                j = rng.choice(originals)
                out.append(replace(out[j], repeat_of=j, round=r))
            else:
                originals.append(len(out))
                out.append(next(fresh))
    return out


def _oracle_round(seed: int, r: int) -> List[Query]:
    rng = _round_rng(seed, "oracle-deep", r)
    queries = [Query("oracle", model, ORACLE_MBS, d, 4 * d,
                     rng.getrandbits(31), round=r)
               for model, d in ORACLE_CELLS]
    for model, d in ROBUST_CELLS:
        queries.append(Query("robust", model, ORACLE_MBS, d, 4 * d,
                             rng.getrandbits(31),
                             robust_seed=rng.getrandbits(31), round=r))
    rng.shuffle(queries)
    return queries


def _exec_round(seed: int, r: int) -> List[Query]:
    rng = _round_rng(seed, "cluster-execute", r)
    queries: List[Query] = []
    for model, gpus in AUTOTUNE_CELLS:
        queries.append(Query("autotune", model, EXEC_MBS, 0, 0,
                             rng.getrandbits(31), gpus=gpus,
                             global_batch=AUTOTUNE_GLOBAL_BATCH))
    for model, mbs, gpus, gbs in BASELINE_CELLS:
        for kind in ("dapple", "piper"):
            queries.append(Query(kind, model, mbs, 0, 0, rng.getrandbits(31),
                                 gpus=gpus, global_batch=gbs))
    for i, schedule in enumerate(EXEC_SCHEDULES):
        for j, d in enumerate(EXEC_SCHEDULE_DEPTHS):
            model = EXEC_MODELS[(i + j) % len(EXEC_MODELS)]
            queries.append(Query("execute", model, EXEC_MBS, d, 2 * d,
                                 rng.getrandbits(31), schedule=schedule))
    for model, d, chunks in INTERLEAVED_CELLS:
        queries.append(Query("execute", model, EXEC_MBS, d, 2 * d,
                             rng.getrandbits(31), schedule="interleaved",
                             chunks=chunks))
    rng.shuffle(queries)
    return [replace(q, round=r) for q in queries]


def make_queries(workload: str, seed: int, rounds: int) -> List[Query]:
    """The workload's query stream: ``rounds`` seeded rounds of its grid."""
    if workload not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {list(ROUND_SECONDS)}")
    if workload == "plan-stream":
        return _plan_stream(seed, rounds)
    make_round = _oracle_round if workload == "oracle-deep" else _exec_round
    return [q for r in range(rounds) for q in make_round(seed, r)]


def warmup_queries(workload: str) -> List[Query]:
    """A few fixed small queries that load code paths before timing."""
    if workload == "plan-stream":
        return [Query("plan", "gpt2-345m", 4, d, 2 * d, 1) for d in (2, 8)]
    if workload == "oracle-deep":
        return [Query("oracle", "gpt2-345m", 4, 6, 24, 1),
                Query("robust", "gpt2-345m", 4, 2, 8, 1, robust_seed=1)]
    return [Query("execute", "gpt2-345m", 4, 4, 8, 1, schedule="1f1b"),
            Query("dapple", "gpt2-345m", 4, 0, 0, 1, gpus=4,
                  global_batch=64)]


# ---------------------------------------------------------------------------
# materialisation (untimed)


def _hardware(kind: str):
    from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster

    return rtx3090_cluster(8, 4) if kind == "execute" else DEFAULT_CLUSTER_HW


@lru_cache(maxsize=None)
def _train(mbs: int, global_batch: int):
    from repro.config import TrainConfig

    return TrainConfig(micro_batch_size=mbs, global_batch_size=global_batch)


def profile_for(q: Query):
    """The jittered profile a query runs on (same spec, same profile)."""
    from repro.models.zoo import get_model
    from repro.profiling import profile_model

    gbs = q.global_batch or q.mbs * max(q.m, 1)
    noise = 0.0 if q.kind in UNJITTERED_KINDS else JITTER
    return profile_model(get_model(q.model), _hardware(q.kind),
                         _train(q.mbs, gbs), noise=noise,
                         seed=q.jitter_seed if noise else None)


def _robust_objective(q: Query):
    from repro.robustness.evaluate import RobustObjective
    from repro.robustness.perturbation import StageCostNoise, Straggler

    return RobustObjective(
        models=(StageCostNoise(sigma=0.05),
                Straggler(slowdown=1.3, probability=0.1)),
        draws=ROBUST_DRAWS, seed=q.robust_seed, statistic="p95",
    )


@dataclass
class Prepared:
    """A query's program inputs, built before its timed call."""

    query: Query
    profile: object
    partition: object = None
    slice_plan: object = None
    robust: object = None


def prepare(q: Query) -> Prepared:
    profile = profile_for(q)
    prep = Prepared(q, profile)
    if q.kind == "robust":
        prep.robust = _robust_objective(q)
    if q.kind == "execute" and q.schedule != "interleaved":
        from repro.core.balance_dp import min_max_partition
        from repro.core.partition import PartitionScheme, stage_times
        from repro.core.slicer import make_slice_plan

        sizes = min_max_partition(profile.block_times(), q.depth)
        prep.partition = PartitionScheme.from_sizes(sizes)
        if q.schedule == "sliced":
            prep.slice_plan = make_slice_plan(
                stage_times(prep.partition, profile), q.m)
    return prep


# ---------------------------------------------------------------------------
# execution (timed)


def _sizes(partition) -> Tuple[int, ...]:
    return tuple(int(s) for s in partition.sizes)


def execute(prep: Prepared, plan_cache=None) -> Answer:
    """Run one query through the library's public entry points."""
    q = prep.query
    profile = prep.profile
    if q.kind == "plan":
        from repro.core.partition import stage_times
        from repro.core.planner import plan_partition
        from repro.core.slicer import make_slice_plan

        res = plan_partition(profile, q.depth, q.m, jobs=1,
                             cache=plan_cache if plan_cache is not None
                             else False)
        plan = make_slice_plan(stage_times(res.partition, profile), q.m)
        return Answer("plan", _sizes(res.partition), res.iteration_time,
                      plan.num_sliced)
    if q.kind == "oracle":
        from repro.core.exhaustive import exhaustive_partition
        from repro.core.planner import plan_partition

        exact = exhaustive_partition(profile, q.depth, q.m,
                                     max_evaluations=None, jobs=1,
                                     cache=False)
        heur = plan_partition(profile, q.depth, q.m, jobs=1, cache=False)
        return Answer("oracle", _sizes(exact.partition), exact.iteration_time,
                      0, {"planner_time": heur.iteration_time})
    if q.kind == "robust":
        from repro.core.exhaustive import exhaustive_partition

        exact = exhaustive_partition(profile, q.depth, q.m,
                                     max_evaluations=None, jobs=1,
                                     cache=False, robust=prep.robust)
        return Answer("robust", _sizes(exact.partition), exact.robust_value)
    if q.kind == "autotune":
        from repro.core.strategy import autotune_config

        res = autotune_config(profile, q.gpus, jobs=1, cache=False)
        best = res.best
        return Answer("autotune", _sizes(best.partition),
                      best.iteration_seconds, best.slice_count)
    if q.kind in ("dapple", "piper"):
        from repro.baselines.common import evaluate_config
        from repro.baselines.dapple import plan_dapple
        from repro.baselines.piper import plan_piper

        planner = plan_dapple if q.kind == "dapple" else plan_piper
        config = planner(profile, q.gpus, q.global_batch)
        ev = evaluate_config(profile, config, q.global_batch)
        return Answer(q.kind, _sizes(config.partition), ev.iteration_seconds)
    if q.kind == "execute":
        return _execute_schedule(prep)
    raise ValueError(f"unknown query kind {q.kind!r}")


def _execute_schedule(prep: Prepared,
                      executor: Optional[str] = None) -> Answer:
    q = prep.query
    if q.schedule == "interleaved":
        from repro.hardware.cluster import Cluster
        from repro.schedules.interleaved import build_interleaved
        from repro.sim.engine import Engine
        from repro.sim.graph_exec import execute_fast

        cluster = Cluster(prep.profile.hardware)
        built = build_interleaved(prep.profile, q.depth, q.m,
                                  num_chunks=q.chunks)
        devices = cluster.pipeline_devices(q.depth)
        if executor == "event":
            res = Engine(built, cluster, device_map=devices).run()
        else:
            res = execute_fast(built, cluster, device_map=devices)
        ops = 2 * q.m * q.depth * q.chunks
        return Answer("execute", (), res.iteration_time, 0,
                      {"ops": ops, "peak": tuple(res.peak_memory)})
    from repro.runtime.trainer import run_pipeline

    res = run_pipeline(prep.profile, prep.partition, q.m,
                       schedule=q.schedule, slice_plan=prep.slice_plan,
                       executor=executor)
    sliced = prep.slice_plan.num_sliced if prep.slice_plan is not None else 0
    ops = 2 * q.depth * (q.m + sliced)
    return Answer("execute", _sizes(prep.partition), res.iteration_time,
                  sliced, {"ops": ops, "peak": tuple(res.peak_memory)})


def run_stream(queries: List[Query], plan_cache=None, tracer=None,
               deadline: float = math.inf,
               probe_log: Optional[List[Tuple[int, float]]] = None):
    """The closed loop: one query at a time, each timed around its call.

    A query's time is the CPU time (user + system) the process spends in
    it.  The client is one thread, so on an idle core this is its wall
    latency; on a shared virtual host it leaves out the time the
    hypervisor gives the core to other guests (steal), which otherwise
    swings wall times by several times from minute to minute.

    With ``probe_log``, the host-speed probe of :mod:`perfbench.hostspeed`
    runs (untimed) after every ``PROBE_EVERY_S`` of query time and appends
    ``(queries done, probe time)`` there.

    Returns ``(times, answers, errors)``; a query that raises is counted as
    a ``None`` answer with its error message, never ending the stream.  The
    stream stops early, with an error, once ``deadline`` (a
    ``time.perf_counter`` value) has passed.
    """
    from perfbench import hostspeed

    clock = time.process_time
    times: List[float] = []
    answers: List[Optional[Answer]] = []
    errors: List[str] = []
    since_probe = PROBE_EVERY_S
    for i, q in enumerate(queries):
        if time.perf_counter() > deadline:
            errors.append(f"deadline reached after {i} of {len(queries)} "
                          "queries")
            break
        t = clock()
        try:
            prep = prepare(q)  # input materialisation: not timed
            # Every query starts from the same collector state, so that it
            # pays for the collections its own allocations trigger and not
            # for a full collection of what earlier queries left behind.
            gc.collect()
            gc.freeze()
            t = clock()
            if tracer is not None:
                with tracer.query():
                    ans = execute(prep, plan_cache)
            else:
                ans = execute(prep, plan_cache)
        except Exception as exc:  # a failing query is counted, not fatal
            ans = None
            errors.append(f"query {i} ({q.kind}): {type(exc).__name__}: "
                          f"{exc}")
        times.append(clock() - t)
        answers.append(ans)
        since_probe += times[-1]
        if probe_log is not None and since_probe >= PROBE_EVERY_S:
            since_probe = 0.0
            probe_log.append((len(times), hostspeed.probe()))
    gc.unfreeze()
    return times, answers, errors


# ---------------------------------------------------------------------------
# answer checks (untimed)


def check(workload: str, queries: List[Query], answers: List[Optional[Answer]],
          seed: int) -> Tuple[List[str], Dict[str, float]]:
    """Re-derive answers from the reference paths.

    Returns ``(problems, facts)``: one message per wrong answer, plus the
    facts the checks measured (the planner's gap to the exact optimum).
    Every check catches its own exceptions, so a check that raises counts as
    a wrong answer instead of ending the run.
    """
    problems: List[str] = []
    gaps: List[float] = []
    rng = random.Random(f"check/{workload}/{seed}")

    def guarded(label: str, fn) -> None:
        try:
            msg = fn()
        except Exception as exc:  # a raising check is a failed answer
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            problems.append(f"{label}: {msg}")

    def label(i: int) -> str:
        return f"query {i} ({queries[i].kind})"

    by_key: Dict[Tuple, Answer] = {}
    for i, (q, a) in enumerate(zip(queries, answers)):
        if a is None:
            continue
        # A repeat is checked against the answer it replays, below.
        if q.kind in ("plan", "oracle") and q.repeat_of < 0:
            guarded(label(i), lambda q=q, a=a: _check_resim(q, a))
        if q.kind == "oracle":
            guarded(label(i), lambda a=a: _check_oracle_le_planner(a, gaps))
        if q.kind == "plan":
            first = by_key.setdefault(q.key(), a)
            if first is not a and first.record() != a.record():
                problems.append(f"{label(i)}: cached replay differs from "
                                "the original answer")

    if workload == "plan-stream":
        fresh = [i for i, q in enumerate(queries)
                 if q.repeat_of < 0 and answers[i] is not None
                 and _space(q) <= ORACLE_CHECK_MAX_SPACE]
        for i in sorted(rng.sample(fresh, min(ORACLE_CHECK_SAMPLE,
                                              len(fresh)))):
            guarded(label(i), lambda i=i: _check_against_oracle(
                queries[i], answers[i], gaps))
    if workload in ("plan-stream", "oracle-deep"):
        smallest = sorted(
            (i for i, q in enumerate(queries)
             if q.kind in ("plan", "oracle") and answers[i] is not None
             and _space(q) <= BRUTE_MAX_SPACE),
            key=lambda i: (_space(queries[i]), i))[:2]
        small = [queries[i] for i in smallest] or [
            # No query is small enough for brute force: check the pruned
            # search on a seeded depth-3 input instead.
            Query("oracle", "gpt2-345m", ORACLE_MBS, 3, 12,
                  rng.getrandbits(31))]
        for q in small:
            guarded("brute-force check", lambda q=q: _check_brute(q))
    if workload == "cluster-execute":
        runs = [i for i, q in enumerate(queries)
                if q.kind == "execute" and answers[i] is not None]
        for i in sorted(rng.sample(runs, min(ENGINE_CHECK_SAMPLE,
                                             len(runs)))):
            guarded(label(i), lambda i=i: _check_engine(queries[i],
                                                         answers[i]))
    facts = {"planner_gap_pct": (100.0 * sum(gaps) / len(gaps)) if gaps
             else 0.0, "gap_samples": float(len(gaps))}
    return problems, facts


def _space(q: Query) -> int:
    return math.comb(_num_blocks(q.model) - 1, q.depth - 1)


@lru_cache(maxsize=None)
def _num_blocks(model: str) -> int:
    from repro.models.transformer import build_blocks
    from repro.models.zoo import get_model

    return len(build_blocks(get_model(model)))


def _check_resim(q: Query, a: Answer) -> Optional[str]:
    from repro.core.analytic_sim import simulate_partition
    from repro.core.partition import PartitionScheme

    profile = profile_for(q)
    spec = simulate_partition(profile, PartitionScheme.from_sizes(a.sizes),
                              q.m).iteration_time
    if spec != a.iteration_time:
        return (f"re-simulated {spec!r} != reported "
                f"{a.iteration_time!r}")
    return None


def _check_oracle_le_planner(a: Answer, gaps: List[float]) -> Optional[str]:
    heur = a.extra["planner_time"]
    gaps.append(heur / a.iteration_time - 1.0)
    if a.iteration_time > heur:
        return f"oracle {a.iteration_time!r} > planner {heur!r}"
    return None


def _check_against_oracle(q: Query, a: Answer,
                          gaps: List[float]) -> Optional[str]:
    from repro.core.exhaustive import exhaustive_partition

    exact = exhaustive_partition(profile_for(q), q.depth, q.m,
                                 max_evaluations=None, jobs=1, cache=False)
    gaps.append(a.iteration_time / exact.iteration_time - 1.0)
    if exact.iteration_time > a.iteration_time:
        return (f"oracle {exact.iteration_time!r} > planner "
                f"{a.iteration_time!r}")
    return None


def _check_brute(q: Query) -> Optional[str]:
    from repro.core.exhaustive import exhaustive_partition

    profile = profile_for(q)
    fast = exhaustive_partition(profile, q.depth, q.m, max_evaluations=None,
                                jobs=1, cache=False)
    brute = exhaustive_partition(profile, q.depth, q.m, max_evaluations=None,
                                 jobs=1, cache=False, prune=False)
    if (fast.partition.sizes, fast.iteration_time) != \
            (brute.partition.sizes, brute.iteration_time):
        return (f"pruned search {fast.partition.sizes} "
                f"{fast.iteration_time!r} != brute force "
                f"{brute.partition.sizes} {brute.iteration_time!r}")
    return None


def _check_engine(q: Query, a: Answer) -> Optional[str]:
    ref = _execute_schedule(prepare(q), executor="event")
    if (ref.iteration_time, ref.extra["peak"]) != \
            (a.iteration_time, a.extra["peak"]):
        return (f"compiled executor {a.iteration_time!r} != event engine "
                f"{ref.iteration_time!r}")
    return None


# ---------------------------------------------------------------------------
# digest


def answers_digest(answers: List[Optional[Answer]]) -> str:
    """SHA-256 over every answer's partition, iteration time and slices."""
    h = hashlib.sha256()
    for a in answers:
        rec = a.record() if a is not None else None
        h.update(json.dumps(rec).encode())
        h.update(b"\n")
    return h.hexdigest()
