"""Property suite: seeded perturbations and batched robustness evaluation.

The contracts the robustness stack stands on:

* draws are a pure function of ``(models, num_stages, draws, seed)`` —
  bit-identical across calls (and therefore across processes);
* zero-magnitude perturbations produce factors that are *exactly* 1.0,
  so the perturbed evaluation reproduces the nominal simulation bit for
  bit (``x * 1.0 == x``);
* one batched ``(K, n)`` relaxation equals ``K`` scalar perturbed
  :class:`PipelineSim` runs bit for bit, in both comm modes, on both the
  cold-batch and the shared-nominal-prefix (SuffixSimBatch) routes;
* the oracle's chunked candidate evaluation equals the per-candidate
  path, and the robust searches return exactly what the definitions say.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic_sim import PipelineSim, PipelineSimBatch
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.core.planner import plan_partition
from repro.robustness import (
    CommDegradation,
    RobustObjective,
    StageCostNoise,
    Straggler,
    draw_factors,
    robust_iteration_times,
    robust_objective_batch,
    robust_objective_value,
    robustness_profile,
)

_TIME = st.floats(0.01, 5.0)
_COMM_MODES = ("paper", "edges")


def _times(draw, n):
    fwd = tuple(draw(st.lists(_TIME, min_size=n, max_size=n)))
    bwd = tuple(draw(st.lists(_TIME, min_size=n, max_size=n)))
    comm = draw(st.floats(0.0, 0.5))
    return StageTimes(fwd=fwd, bwd=bwd, comm=comm)


def _models(draw, n):
    """A random stack of perturbation models for an n-stage pipeline."""
    stack = []
    if draw(st.booleans()):
        stack.append(StageCostNoise(draw(st.floats(0.0, 0.5))))
    if draw(st.booleans()):
        stack.append(Straggler(
            draw(st.floats(1.0, 3.0)),
            stage=draw(st.one_of(st.none(), st.integers(0, n - 1))),
            probability=draw(st.floats(0.0, 1.0)),
        ))
    if draw(st.booleans()):
        stack.append(CommDegradation(
            draw(st.floats(1.0, 4.0)),
            probability=draw(st.floats(0.0, 1.0)),
        ))
    if not stack:
        stack.append(StageCostNoise(0.1))
    return tuple(stack)


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_same_seed_bit_identical(self, data):
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(1, 32))
        seed = data.draw(st.integers(0, 2**31))
        models = _models(data.draw, n)
        a = draw_factors(models, n, k, seed)
        b = draw_factors(models, n, k, seed)
        assert np.array_equal(a.fwd, b.fwd)
        assert np.array_equal(a.bwd, b.bwd)
        assert np.array_equal(a.comm, b.comm)
        times = _times(data.draw, n)
        m = data.draw(st.integers(2, 10))
        mode = data.draw(st.sampled_from(_COMM_MODES))
        ta = robust_iteration_times(times, m, a, comm_mode=mode)
        tb = robust_iteration_times(times, m, b, comm_mode=mode)
        assert np.array_equal(ta, tb)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_different_seeds_differ(self, data):
        n = data.draw(st.integers(2, 6))
        models = (StageCostNoise(0.2),)
        a = draw_factors(models, n, 64, 0)
        b = draw_factors(models, n, 64, 1)
        assert not np.array_equal(a.fwd, b.fwd)


class TestZeroNoiseIsNominal:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_factors_exactly_one(self, data):
        n = data.draw(st.integers(2, 6))
        models = (
            StageCostNoise(0.0),
            Straggler(2.0, probability=0.0),
            CommDegradation(3.0, probability=0.0),
        )
        factors = draw_factors(models, n, 16, data.draw(st.integers(0, 99)))
        assert np.all(factors.fwd == 1.0)
        assert np.all(factors.bwd == 1.0)
        assert np.all(factors.comm == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_zero_noise_reproduces_nominal_bitwise(self, data):
        n = data.draw(st.integers(2, 6))
        times = _times(data.draw, n)
        m = data.draw(st.integers(2, 10))
        factors = draw_factors((StageCostNoise(0.0),), n, 8, 0)
        for mode in _COMM_MODES:
            nominal = PipelineSim(times, m, comm_mode=mode).run().iteration_time
            perturbed = robust_iteration_times(times, m, factors, comm_mode=mode)
            assert np.all(perturbed == nominal)

    def test_zero_noise_profile_value(self):
        times = StageTimes(fwd=(1.0, 2.0, 1.5), bwd=(2.0, 4.0, 3.0), comm=0.1)
        profile = robustness_profile(
            times, 6, [StageCostNoise(0.0)], draws=8, seed=3
        )
        assert profile.mean == profile.p95 == profile.worst == profile.nominal_time


class TestBatchedEqualsScalar:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batched_matches_k_scalar_perturbed_sims(self, data):
        """The tentpole contract: one (K, n) relaxation == K scalar sims."""
        n = data.draw(st.integers(2, 6))
        times = _times(data.draw, n)
        m = data.draw(st.integers(2, 10))
        models = _models(data.draw, n)
        factors = draw_factors(models, n, data.draw(st.integers(1, 16)),
                               data.draw(st.integers(0, 99)))
        fwd, bwd, comm = factors.apply(times)
        for mode in _COMM_MODES:
            batched = robust_iteration_times(times, m, factors, comm_mode=mode)
            for k in range(factors.draws):
                scalar = PipelineSim(
                    StageTimes(
                        fwd=tuple(fwd[k]), bwd=tuple(bwd[k]),
                        comm=float(comm[k]),
                    ),
                    m, comm_mode=mode,
                ).run().iteration_time
                assert batched[k] == scalar

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_suffix_route_matches_cold_batch(self, data):
        """Fixed late straggler: shared-nominal-prefix == full batch."""
        n = data.draw(st.integers(3, 6))
        times = _times(data.draw, n)
        m = data.draw(st.integers(2, 10))
        stage = data.draw(st.integers(n // 2, n - 1))
        factors = draw_factors(
            (Straggler(data.draw(st.floats(1.1, 3.0)), stage=stage,
                       probability=data.draw(st.floats(0.1, 1.0))),),
            n, 16, data.draw(st.integers(0, 99)),
        )
        assert factors.prefix_cut() >= 1  # the route under test is taken
        fwd, bwd, comm = factors.apply(times)
        for mode in _COMM_MODES:
            routed = robust_iteration_times(times, m, factors, comm_mode=mode)
            cold = PipelineSimBatch(
                fwd, bwd, comm, m, comm_mode=mode
            ).iteration_times()
            assert np.array_equal(routed, cold)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_objective_batch_matches_per_candidate(self, data):
        n = data.draw(st.integers(2, 5))
        c = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(2, 8))
        comm = data.draw(st.floats(0.0, 0.5))
        cands = [_times(data.draw, n) for _ in range(c)]
        cands = [
            StageTimes(fwd=t.fwd, bwd=t.bwd, comm=comm) for t in cands
        ]
        models = _models(data.draw, n)
        statistic = data.draw(st.sampled_from(("mean", "p95", "max")))
        factors = draw_factors(models, n, 8, data.draw(st.integers(0, 99)))
        for mode in _COMM_MODES:
            batch = robust_objective_batch(
                np.array([t.fwd for t in cands]),
                np.array([t.bwd for t in cands]),
                comm, m, factors, statistic, comm_mode=mode,
            )
            for i, t in enumerate(cands):
                assert batch[i] == robust_objective_value(
                    t, m, factors, statistic, comm_mode=mode
                )


def _all_partitions(num_blocks, num_stages):
    for cuts in itertools.combinations(range(1, num_blocks), num_stages - 1):
        yield PartitionScheme.from_boundaries(num_blocks, cuts)


class TestRobustSearch:
    OBJECTIVE = RobustObjective((StageCostNoise(0.15),), draws=32, seed=7)

    def test_oracle_matches_brute_reference(self, tiny_profile):
        """The robust oracle returns the literal argmin of the objective,
        at any tile width (1 and 3 candidates per tile split the
        enumeration at every possible boundary)."""
        depth, m = 3, 6
        factors = self.OBJECTIVE.factors(depth)
        best = min(
            _all_partitions(tiny_profile.num_blocks, depth),
            key=lambda p: robust_objective_value(
                stage_times(p, tiny_profile), m, factors,
                self.OBJECTIVE.statistic,
            ),
        )
        for chunk_size in (32, 96, 4096):
            result = exhaustive_partition(
                tiny_profile, depth, m, robust=self.OBJECTIVE,
                chunk_size=chunk_size,
            )
            assert result.partition.sizes == best.sizes
            assert result.robust_value == robust_objective_value(
                stage_times(best, tiny_profile), m, factors,
                self.OBJECTIVE.statistic,
            )
            assert result.evaluations == result.space
            # The reported sim is the winner's *nominal* simulation.
            assert result.iteration_time == PipelineSim(
                stage_times(best, tiny_profile), m
            ).run().iteration_time

    def test_planner_robust_value_is_winners_objective(self, tiny_profile):
        result = plan_partition(tiny_profile, 3, 6, robust=self.OBJECTIVE)
        factors = self.OBJECTIVE.factors(3)
        assert result.robust_value == robust_objective_value(
            stage_times(result.partition, tiny_profile), 6, factors,
            self.OBJECTIVE.statistic,
        )

    def test_nominal_mode_unchanged(self, tiny_profile):
        plain = plan_partition(tiny_profile, 3, 6)
        assert plain.robust_value is None
        assert exhaustive_partition(tiny_profile, 3, 6).robust_value is None

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="statistic"):
            RobustObjective((StageCostNoise(0.1),), statistic="median")
        with pytest.raises(ValueError, match="draw"):
            RobustObjective((StageCostNoise(0.1),), draws=0)
        with pytest.raises(ValueError, match="sigma"):
            StageCostNoise(-0.1)
        with pytest.raises(ValueError, match="probability"):
            Straggler(2.0, probability=1.5)
        with pytest.raises(ValueError, match="factor"):
            CommDegradation(0.0)
