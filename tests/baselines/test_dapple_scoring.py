"""DAPPLE's batched kernel scoring == one scalar ``PipelineSim`` per candidate.

:func:`plan_dapple` scores each stage count's candidates with one
:func:`~repro.sim.analytic.frontier_times` sweep in edges comm mode.  The
reference here scores the same :func:`dapple_candidates` stream one
candidate at a time with the paper's scalar simulator and keeps the first
strict minimum of ``time + unhidden`` in enumeration order.  The plans
must agree exactly: partition, replicas and the bitwise ``predicted``
value, across stage-count groups and on jittered profiles.
"""

import pytest

from repro.baselines.dapple import dapple_candidates, plan_dapple
from repro.config import TrainConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.partition import StageTimes
from repro.core.planner import default_sim_cache
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import BERT_LARGE, GPT2_1_3B, GPT2_345M, GPT2_762M
from repro.profiling import profile_model

_MODELS = {
    m.name: m for m in (GPT2_345M, GPT2_762M, GPT2_1_3B, BERT_LARGE)
}

#: (model, micro-batch size, GPUs, global batch): the Table III and
#: Table IV sweeps and the four Fig. 12 cells.
_CELLS = (
    [("gpt2-345m", 4, g, b) for g in (4, 16) for b in (128, 256, 512)]
    + [(model, mbs, g, b)
       for model, mbs in (("gpt2-345m", 32), ("gpt2-1.3b", 16))
       for g in (4, 8) for b in (512, 1024, 2048)]
    + [("gpt2-345m", 32, 16, 512), ("gpt2-762m", 32, 16, 512),
       ("gpt2-1.3b", 16, 16, 512), ("bert-large", 64, 16, 512)]
)

#: 1%-jittered profiles: (model, micro-batch size, GPUs, global batch, seed).
_JITTERED = [
    ("gpt2-345m", 4, 8, 256, seed) for seed in (1, 2, 3)
] + [
    ("gpt2-1.3b", 16, 8, 1024, seed) for seed in (4, 5)
] + [
    ("bert-large", 64, 16, 512, 6),
]


def _profile(model, mbs, gbs, noise=0.0, seed=None):
    train = TrainConfig(micro_batch_size=mbs, global_batch_size=gbs)
    return profile_model(
        _MODELS[model], DEFAULT_CLUSTER_HW, train, noise=noise, seed=seed
    )


def _scalar_reference(profile, num_gpus, gbs):
    """First strict minimum of scalar-simulated cost, in enumeration order."""
    m = gbs // profile.train.micro_batch_size
    best_cost, best = float("inf"), None
    for cand in dapple_candidates(profile, num_gpus, gbs):
        times = StageTimes(cand.fwd, cand.bwd, profile.comm_time)
        sim = PipelineSim(times, m, comm_mode="edges").run()
        cost = sim.iteration_time + cand.unhidden
        if cost < best_cost:
            best_cost, best = cost, cand
    return best, best_cost


def _assert_same_plan(profile, num_gpus, gbs):
    cfg = plan_dapple(profile, num_gpus, gbs)
    ref, ref_cost = _scalar_reference(profile, num_gpus, gbs)
    assert cfg.partition == ref.partition(profile)
    assert cfg.replicas == ref.replicas
    assert cfg.predicted.hex() == ref_cost.hex()


@pytest.mark.parametrize("model,mbs,gpus,gbs", _CELLS)
def test_kernel_scoring_matches_scalar_sims(model, mbs, gpus, gbs):
    _assert_same_plan(_profile(model, mbs, gbs), gpus, gbs)


@pytest.mark.parametrize("model,mbs,gpus,gbs,seed", _JITTERED)
def test_kernel_scoring_matches_scalar_sims_jittered(model, mbs, gpus, gbs,
                                                     seed):
    profile = _profile(model, mbs, gbs, noise=0.01, seed=seed)
    _assert_same_plan(profile, gpus, gbs)


def test_candidate_stream_groups_stage_counts_in_order():
    profile = _profile("gpt2-345m", 4, 512)
    depths = [len(c.sizes) for c in dapple_candidates(profile, 16, 512)]
    assert depths == sorted(depths)
    assert depths[0] == 2


def test_plan_dapple_leaves_the_shared_sim_cache_alone():
    cache = default_sim_cache()
    profile = _profile("gpt2-1.3b", 16, 1024)
    before = (len(cache), cache.hits, cache.misses)
    plan_dapple(profile, 8, 1024)
    assert (len(cache), cache.hits, cache.misses) == before
