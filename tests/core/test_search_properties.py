"""Property tests for the pruned oracle against brute force.

The equivalence the perf work must never break: the kernel-scored
branch-and-bound oracle (``prune=True``) returns the exact brute-force
argmin — same partition, same iteration time — including on tie-heavy
profiles where many partitions share the optimum and on zero-cost
profiles where the dominance memo prunes twin subtrees.  (The kernel
itself is checked bitwise against ``K`` scalar :class:`PipelineSim`
runs in ``tests/sim/test_analytic.py``.)
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim
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


class TestPrunedMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),     # blocks
        st.data(),
    )
    def test_same_argmin(self, n, data):
        p = data.draw(st.integers(min_value=1, max_value=min(n, 5)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        value = data.draw(st.sampled_from(
            [_TIE_HEAVY, _ZERO_HEAVY, _CONTINUOUS]
        ))
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

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=5, max_value=8),        # blocks
        st.integers(min_value=2, max_value=4),        # stages
        st.integers(min_value=1, max_value=6),        # micro-batches
        st.sampled_from(["paper", "edges"]),
        st.data(),
    )
    def test_zero_cost_profiles_equal_brute(
        self, blocks, stages, m, comm_mode, data
    ):
        # zeros included: the regime where distinct cuts share identical
        # stage-time tuples and the dominance memo can actually prune.
        times = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        fwd = [data.draw(times, label="fwd") for _ in range(blocks)]
        bwd = [data.draw(times, label="bwd") for _ in range(blocks)]
        profile = make_profile(fwd, bwd, data.draw(st.sampled_from([0.0, 0.1])))
        pruned = exhaustive_partition(profile, stages, m, comm_mode=comm_mode)
        brute = exhaustive_partition(
            profile, stages, m, comm_mode=comm_mode, prune=False
        )
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.partition.stages == brute.partition.stages

    def test_dominance_memo_fires_and_stays_exact(self):
        fwd = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        bwd = [2.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0]
        prof = make_profile(fwd, bwd, 0.1)
        pruned = exhaustive_partition(prof, 4, 4)
        brute = exhaustive_partition(prof, 4, 4, prune=False)
        assert pruned.dominance_pruned > 0
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.partition.stages == brute.partition.stages

    def test_planner_warm_start_preserves_argmin(self):
        fwd = [0.8, 1.2, 1.0, 0.7, 1.1, 0.9, 1.3, 0.6, 1.0, 0.8]
        bwd = [1.6, 2.1, 1.9, 1.5, 2.2, 1.8, 2.4, 1.3, 2.0, 1.7]
        prof = make_profile(fwd, bwd, 0.05)
        base = exhaustive_partition(prof, 4, 6, planner_warm_start=False)
        warm = exhaustive_partition(prof, 4, 6, planner_warm_start=True)
        brute = exhaustive_partition(prof, 4, 6, prune=False)
        for res in (base, warm):
            assert res.iteration_time == brute.iteration_time
            assert res.partition.stages == brute.partition.stages
