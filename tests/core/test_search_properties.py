"""Property tests for the batched simulator and the pruned oracle.

Two equivalences the perf work must never break:

* :class:`PipelineSimBatch` is bit-for-bit identical to ``K`` scalar
  :class:`PipelineSim` runs — iteration times, startup overheads and the
  materialised winner ``SimResult``;
* the branch-and-bound oracle (``prune=True``) returns the exact
  brute-force argmin — same partition, same iteration time — including
  on tie-heavy profiles where many partitions share the optimum.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim, PipelineSimBatch
from repro.core import exhaustive
from repro.core.exhaustive import exhaustive_partition, iter_partitions
from repro.core.partition import StageTimes
from repro.models.blocks import Block, BlockKind
from repro.profiling.modelconfig import BlockProfile, ModelProfile

_MODEL = ModelConfig(name="synthetic", num_layers=1, hidden_size=64, num_heads=4)
_HW = HardwareConfig()
_TRAIN = TrainConfig(micro_batch_size=1, global_batch_size=8)

#: discrete time values — draws collide constantly, so random profiles are
#: saturated with exact ties (the argmin tie-break's worst case).
_TIE_HEAVY = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
#: zero-cost blocks: different cut prefixes reach identical per-stage
#: sums, so the dominance memo has twins to prune.
_ZERO_HEAVY = st.sampled_from([0.0, 0.0, 1.0, 2.0])
_CONTINUOUS = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)


def make_profile(fwd, bwd, comm):
    """A synthetic ModelProfile carrying exactly these block times."""
    blocks = tuple(
        BlockProfile(
            block=Block(index=i, kind=BlockKind.ATTENTION, layer_index=i),
            fwd_time=f,
            bwd_time=b,
            params=1.0,
            activation_out_bytes=1.0,
            stash_bytes=1.0,
            workspace_bytes=1.0,
        )
        for i, (f, b) in enumerate(zip(fwd, bwd))
    )
    return ModelProfile(
        model=_MODEL, hardware=_HW, train=_TRAIN, blocks=blocks,
        comm_time=comm, boundary_bytes=1.0,
    )


class TestBatchMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),     # stages
        st.integers(min_value=1, max_value=8),     # micro-batches
        st.integers(min_value=1, max_value=4),     # candidates
        st.sampled_from(["paper", "edges"]),
        st.booleans(),                             # tie-heavy vs continuous
        st.data(),
    )
    def test_bit_exact(self, p, m, k, comm_mode, ties, data):
        value = _TIE_HEAVY if ties else _CONTINUOUS
        comm = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        candidates = [
            StageTimes(
                tuple(data.draw(value) for _ in range(p)),
                tuple(data.draw(value) for _ in range(p)),
                comm,
            )
            for _ in range(k)
        ]
        batch = PipelineSimBatch.from_stage_times(
            candidates, m, comm_mode=comm_mode
        )
        its = batch.iteration_times()
        starts = batch.startup_overheads()
        for i, times in enumerate(candidates):
            scalar = PipelineSim(times, m, comm_mode=comm_mode).run()
            assert its[i] == scalar.iteration_time          # bitwise
            assert starts[i] == scalar.startup_overhead     # bitwise
            winner = batch.result(i)
            assert winner.iteration_time == scalar.iteration_time
            assert winner.startup_overhead == scalar.startup_overhead
            assert winner.master_stage == scalar.master_stage
            assert winner.critical_path == scalar.critical_path

    def test_mixed_comm_rejected(self):
        with pytest.raises(ValueError, match="share one comm"):
            PipelineSimBatch.from_stage_times(
                [StageTimes((1.0,), (2.0,), 0.1),
                 StageTimes((1.0,), (2.0,), 0.2)],
                4,
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PipelineSimBatch(
                np.ones((2, 3)), np.ones((2, 4)), 0.1, 4
            )


class TestPrunedMatchesBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),     # blocks
        st.data(),
    )
    def test_same_argmin(self, n, data):
        p = data.draw(st.integers(min_value=1, max_value=min(n, 5)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        ties = data.draw(st.booleans())
        value = _TIE_HEAVY if ties else _CONTINUOUS
        fwd = [data.draw(value) for _ in range(n)]
        bwd = [data.draw(value) for _ in range(n)]
        comm = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        profile = make_profile(fwd, bwd, comm)
        brute = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=False
        )
        pruned = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=True
        )
        assert pruned.partition.sizes == brute.partition.sizes
        assert pruned.iteration_time == brute.iteration_time  # bitwise
        assert pruned.evaluations <= brute.evaluations

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_small_chunks_change_nothing(self, data):
        """Tile width and prefix batch size are pure tuning.

        The analytic oracle streams admitted candidates through the
        kernel in ``chunk_size``-column tiles, expanded from prefix
        batches of ``_PREFIX_BATCH``; its admission limit is fixed by the
        warm seeds, so the result *and* the counters must not move.
        Width 1 and 7 put equal-time columns in different tiles, so the
        tie-break runs across tile boundaries; zero-cost blocks make the
        dominance memo fire across prefix batches.
        """
        n = data.draw(st.integers(min_value=5, max_value=9))
        p = data.draw(st.integers(min_value=2, max_value=5))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        value = _TIE_HEAVY if data.draw(st.booleans()) else _ZERO_HEAVY
        fwd = [data.draw(value) for _ in range(n)]
        bwd = [data.draw(value) for _ in range(n)]
        profile = make_profile(fwd, bwd, 0.25)
        p = min(p, n)
        runs = []
        for batch in (1, exhaustive._PREFIX_BATCH):
            with mock.patch.object(exhaustive, "_PREFIX_BATCH", batch):
                for width in (1, 7, exhaustive._DEFAULT_CHUNK):
                    runs.append(exhaustive_partition(
                        profile, p, m, comm_mode=comm_mode, chunk_size=width
                    ))
        ref = runs[-1]
        for res in runs:
            assert res.partition.sizes == ref.partition.sizes
            assert res.iteration_time == ref.iteration_time  # bitwise
            assert res.evaluations == ref.evaluations
            assert res.dominance_pruned == ref.dominance_pruned
        brute = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=False
        )
        assert ref.partition.sizes == brute.partition.sizes
        assert ref.iteration_time == brute.iteration_time
        parallel = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, chunk_size=7, jobs=2
        )
        assert parallel.partition.sizes == ref.partition.sizes
        assert parallel.iteration_time == ref.iteration_time

    def test_tie_break_across_tile_boundaries(self):
        """Uniform blocks: many partitions tie for the optimum, and
        one-column tiles put every tied candidate in its own tile."""
        profile = make_profile([1.0] * 9, [2.0] * 9, 0.25)
        p, m = 4, 2
        times = {
            sizes: PipelineSim(
                StageTimes(
                    tuple(1.0 * k for k in sizes),
                    tuple(2.0 * k for k in sizes), 0.25,
                ), m,
            ).run().iteration_time
            for sizes in iter_partitions(9, p)
        }
        best = min(times.values())
        tied = sorted(s for s, t in times.items() if t == best)
        assert len(tied) > 1
        for width in (1, 2, exhaustive._DEFAULT_CHUNK):
            res = exhaustive_partition(profile, p, m, chunk_size=width)
            assert res.partition.sizes == tied[0]
            assert res.iteration_time == best
