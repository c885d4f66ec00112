"""Tests of the benchmark itself: determinism, tracing transparency, failures.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import compare, run, workloads as wl  # noqa: E402
from perfbench.layers import LAYERS, Tracer  # noqa: E402


def _first(queries, **fields):
    """The first query whose fields equal ``fields``."""
    return next(q for q in queries
                if all(getattr(q, k) == v for k, v in fields.items()))


def _stream(queries, tmp_path, tracer=None):
    from repro.core.plan_cache import PlanCache

    cache = PlanCache(tmp_path)
    times, answers, errors = wl.run_stream(queries, cache, tracer)
    return answers, errors


def test_same_seed_same_queries_and_digest(tmp_path):
    for workload in wl.WORKLOADS:
        assert wl.make_queries(workload, 7, 2) == \
            wl.make_queries(workload, 7, 2)
    assert wl.make_queries("plan-stream", 7, 1) != \
        wl.make_queries("plan-stream", 8, 1)
    queries = wl.make_queries("plan-stream", 7, 1)
    # Keep each repeat together with the query it repeats.
    picked = [q for q in queries[:60] if q.depth <= 8]
    first, errors1 = _stream(picked, tmp_path / "a")
    second, errors2 = _stream(picked, tmp_path / "b")
    assert not errors1 and not errors2
    assert wl.answers_digest(first) == wl.answers_digest(second)


def test_plan_stream_repeats_earlier_queries():
    queries = wl.make_queries("plan-stream", 3, 2)
    repeats = [q for q in queries if q.repeat_of >= 0]
    share = len(repeats) / len(queries)
    assert 0.25 < share < 0.35
    for i, q in enumerate(queries):
        if q.repeat_of >= 0:
            assert q.repeat_of < i
            assert queries[q.repeat_of].key() == q.key()


def test_traced_answers_equal_untraced(tmp_path):
    plans = [q for q in wl.make_queries("plan-stream", 5, 1)[:40]
             if q.depth <= 6]
    cluster = wl.make_queries("cluster-execute", 5, 1)
    queries = plans + [
        _first(wl.make_queries("oracle-deep", 5, 1), kind="oracle", depth=8),
        wl.Query("robust", "gpt2-345m", 4, 2, 8, 1, robust_seed=3),
        _first(cluster, kind="autotune", gpus=8),
        _first(cluster, kind="piper", gpus=4),
        _first(cluster, kind="execute", schedule="sliced", depth=8),
        _first(cluster, kind="execute", schedule="interleaved", depth=8),
    ]
    plain, errors = _stream(queries, tmp_path / "plain")
    assert not errors
    tracer = Tracer()
    import repro.core.exhaustive as exhaustive
    import repro.core.planner as planner

    original = planner.plan_partition
    tracer.install()
    try:
        assert exhaustive.plan_partition is not original
        traced, errors = _stream(queries, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert planner.plan_partition is original
    assert exhaustive.plan_partition is original
    assert not errors
    assert wl.answers_digest(traced) == wl.answers_digest(plain)
    metrics = tracer.metrics()
    for layer in ("core.planner", "core.analytic_sim", "core.exhaustive",
                  "sim.analytic", "robustness", "schedules",
                  "sim.graph_exec", "core.strategy", "baselines"):
        assert metrics[f"{layer}.calls"][0] > 0, layer
    assert set(LAYERS) <= {name.rsplit(".", 1)[0] for name in metrics}
    assert 0 <= metrics["unattributed_ms"][0] <= tracer.query_ns / 1e6


def test_wrappers_pass_through_outside_queries():
    tracer = Tracer()
    tracer.install()
    try:
        q = wl.Query("plan", "gpt2-345m", 4, 4, 8, 1)
        wl.execute(wl.prepare(q))
    finally:
        tracer.uninstall()
    assert tracer.metrics()["core.planner.calls"][0] == 0


def test_raising_query_is_counted_not_fatal(tmp_path):
    good = wl.Query("plan", "gpt2-345m", 4, 2, 4, 1)
    # 60 stages cannot be cut from 51 blocks: the planner raises.
    too_deep = wl.Query("plan", "gpt2-345m", 4, 60, 60, 1)
    unknown = wl.Query("no-such-kind", "gpt2-345m", 4, 2, 4, 1)
    answers, errors = _stream([good, too_deep, unknown, good], tmp_path)
    assert answers[0] is not None and answers[3] is not None
    assert answers[1] is None and answers[2] is None
    assert len(errors) == 2
    assert "ValueError" in errors[0] and "no-such-kind" in errors[1]


def test_wrong_answer_is_reported_by_checks():
    q = wl.Query("plan", "gpt2-345m", 4, 3, 6, 1)
    answer = wl.execute(wl.prepare(q))
    answer.iteration_time *= 1.5
    problems, _ = wl.check("cluster-execute", [q], [answer], 0)
    assert len(problems) == 1 and "re-simulated" in problems[0]


def test_host_probes_leave_answers_alone(tmp_path):
    queries = [q for q in wl.make_queries("plan-stream", 5, 1)
               if q.repeat_of < 0 and q.depth <= 4][:12]
    plain, errors = _stream(queries, tmp_path / "a")
    probes = []
    _, answers, errors2 = wl.run_stream(queries, None, None, probe_log=probes)
    assert not errors and not errors2
    assert wl.answers_digest(answers) == wl.answers_digest(plain)
    assert probes and all(t > 0 for _, t in probes)
    from perfbench.hostspeed import NOMINAL_PROBE_S, factors

    # Each query takes the median of the probes around it.
    nominal = NOMINAL_PROBE_S
    assert factors(3, [(0, nominal), (1, nominal), (2, nominal / 2)]) == \
        [1.0, 1.0, 1.0]
    assert factors(2, [(0, 2 * nominal)]) == [0.5, 0.5]


def test_tail_percentile_leaves_ten_samples_beyond():
    times = [float(i) for i in range(105, 0, -1)]
    value, pct = run._tail(times)
    assert value == 95.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 95 / 105)
    assert run._tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3))


def test_compare_flags_worse_than_bound():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = {"workload": "w", "answers_digest": "x", "metrics": {
        "query_p50_ms": {"value": 10.0, "unit": "ms"},
        "queries_per_s": {"value": 100.0, "unit": "1/s"}}}
    new = {"workload": "w", "answers_digest": "x", "metrics": {
        "query_p50_ms": {"value": 10.5, "unit": "ms"},
        "queries_per_s": {"value": 50.0, "unit": "1/s"}}}
    lines, regressions = compare.compare(base, new, spec)
    assert regressions == 1
    assert any("queries_per_s" in line and "WORSE" in line for line in lines)
    assert any("digest equal" in line for line in lines)


def test_run_refuses_without_library_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "plan-stream", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
