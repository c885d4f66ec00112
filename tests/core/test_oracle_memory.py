"""Memory regression guard for the default (analytic) exact oracle.

The analytic search streams admitted candidates through the frontier
kernel in fixed-width tiles, expanded depth-first from bounded prefix
batches, so its working set is O(tile + batch * p) — independent of how
many candidates the bounds admit.  gpt2-762m at depth 12 admits ~169k
candidates (a 75-block model, m = 48); materialising them as full cost
matrices traced a ~240 MB Python-heap peak, and streaming only the leaf
level still traced ~80 MB.  The bound below is well above the measured
~17-19 MB of the tiled walk, and far below either regression.
"""

import tracemalloc

from repro.config import TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import get_model
from repro.profiling import profile_model

#: traced-allocation ceiling for the depth-12 gpt2-762m search.
PEAK_LIMIT_MB = 32.0


def test_deep_oracle_traced_peak_is_bounded():
    depth, m = 12, 48
    profile = profile_model(
        get_model("gpt2-762m"), DEFAULT_CLUSTER_HW,
        TrainConfig(micro_batch_size=4, global_batch_size=4 * m),
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = exhaustive_partition(
            profile, depth, m, max_evaluations=None, jobs=1, cache=False,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The search really is deep: >100k admitted kernel columns.
    assert result.evaluations > 100_000
    assert peak / 2**20 <= PEAK_LIMIT_MB, (
        f"traced peak {peak / 2**20:.1f} MB exceeds {PEAK_LIMIT_MB} MB"
    )
