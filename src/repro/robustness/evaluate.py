"""Batched robustness evaluation: K perturbed sims for the price of one.

A robustness profile of a candidate partition answers "what does the
iteration time look like across ``K`` perturbation draws?".  Evaluating
it naively costs ``K`` scalar :class:`~repro.core.analytic_sim.PipelineSim`
runs; here the ``K`` perturbed stage-time vectors are stacked into one
``(K, n)`` matrix and scored in a single closed-form max-plus frontier
sweep (:func:`repro.sim.analytic.frontier_times`) — no lattice, no graph,
one ``(n, K)`` broadcast recurrence — so a 256-draw profile costs a few
fused numpy passes (benchmarks/test_bench_robustness.py guards the win).
The ``(K,)`` per-draw comm degradations map directly onto the kernel's
vector-comm broadcast.

The oracle's brute-force sweep evaluates whole *chunks* of candidates
under all draws at once (:func:`robust_objective_batch`): ``C``
candidates x ``K`` draws become one ``(C*K, n)`` kernel call.

Everything here is bit-for-bit identical to ``K`` scalar perturbed sims
(tests/robustness/test_perturbation.py property-checks both comm modes;
the kernel itself is property-tested bitwise against ``K`` scalar
:class:`~repro.core.analytic_sim.PipelineSim` runs in
tests/sim/test_analytic.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.analytic_sim import PipelineSim
from repro.core.partition import StageTimes
from repro.obs import telemetry as _obs
from repro.sim.analytic import frontier_times
from repro.robustness.perturbation import (
    PerturbationModel,
    StageFactors,
    draw_factors,
)

#: Supported robust statistics over the per-draw iteration times.
STATISTICS = ("mean", "p95", "max")


def reduce_statistic(times, statistic: str, axis: Optional[int] = None):
    """Reduce per-draw iteration times to one robust objective value."""
    arr = np.asarray(times, dtype=np.float64)
    if statistic == "mean":
        return np.mean(arr, axis=axis)
    if statistic == "p95":
        return np.quantile(arr, 0.95, axis=axis)
    if statistic == "max":
        return np.max(arr, axis=axis)
    raise ValueError(
        f"unknown statistic {statistic!r} (choose from {STATISTICS})"
    )


@dataclass(frozen=True)
class RobustObjective:
    """A robust planning objective: statistic over seeded perturbation draws.

    Passed to ``plan_partition(robust=...)`` / ``exhaustive_partition(
    robust=...)``: candidates are ranked by ``statistic`` (``"mean"``,
    ``"p95"`` or ``"max"``) of their simulated iteration time over
    ``draws`` deterministic perturbation draws instead of the nominal
    time.  The draws are a pure function of ``(models, num_stages,
    draws, seed)``, so two searches with the same objective see the same
    scenarios.
    """

    models: Tuple[PerturbationModel, ...]
    draws: int = 256
    seed: int = 0
    statistic: str = "p95"

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        if self.draws < 1:
            raise ValueError("need at least one draw")
        if self.statistic not in STATISTICS:
            raise ValueError(
                f"unknown statistic {self.statistic!r} "
                f"(choose from {STATISTICS})"
            )

    def factors(self, num_stages: int) -> StageFactors:
        """The objective's factor draws for an ``n``-stage pipeline."""
        return draw_factors(self.models, num_stages, self.draws, self.seed)


def robust_iteration_times(
    times: StageTimes,
    num_micro_batches: int,
    factors: StageFactors,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Iteration time of one candidate under every draw, shape ``(K,)``.

    One closed-form frontier sweep over the ``K`` perturbed stage-time
    vectors — the per-draw comm degradations ride the kernel's ``(K,)``
    vector-comm broadcast.  Values are bitwise what ``K`` scalar
    perturbed :class:`PipelineSim` runs produce (the kernel's contract,
    property-tested in ``tests/sim/test_analytic.py``).
    """
    fwd, bwd, comm = factors.apply(times)
    return frontier_times(
        fwd, bwd, comm, num_micro_batches, comm_mode=comm_mode
    )


def robust_objective_value(
    times: StageTimes,
    num_micro_batches: int,
    factors: StageFactors,
    statistic: str,
    *,
    comm_mode: str = "paper",
) -> float:
    """The robust objective of one candidate (scalar)."""
    draws = robust_iteration_times(
        times, num_micro_batches, factors, comm_mode=comm_mode
    )
    return float(reduce_statistic(draws, statistic))


def robust_objective_batch(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm: float,
    num_micro_batches: int,
    factors: StageFactors,
    statistic: str,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Robust objective of ``C`` candidates at once, shape ``(C,)``.

    Stacks the ``C x K`` perturbed vectors into one ``(C*K, n)`` batch:
    candidate ``i``'s draws occupy rows ``i*K .. (i+1)*K - 1``.  Each
    row's entries are bitwise identical to the per-candidate path's
    (``np.repeat``/``np.tile`` copy bits; the multiplies see the same
    operands), so the reduced values match
    :func:`robust_objective_value` exactly.
    """
    fwd = np.ascontiguousarray(fwd, dtype=np.float64)
    bwd = np.ascontiguousarray(bwd, dtype=np.float64)
    if fwd.ndim != 2 or fwd.shape != bwd.shape:
        raise ValueError(
            f"need matching (C, num_stages) matrices, got {fwd.shape} "
            f"and {bwd.shape}"
        )
    num_candidates, n = fwd.shape
    if n != factors.num_stages:
        raise ValueError(
            f"factors cover {factors.num_stages} stages, candidates have {n}"
        )
    k = factors.draws
    tel = _obs.current()
    t0 = tel.clock() if tel is not None else 0
    pf = np.repeat(fwd, k, axis=0) * np.tile(factors.fwd, (num_candidates, 1))
    pb = np.repeat(bwd, k, axis=0) * np.tile(factors.bwd, (num_candidates, 1))
    pc = np.tile(factors.comm * comm, num_candidates)
    per_draw = frontier_times(
        pf, pb, pc, num_micro_batches, comm_mode=comm_mode
    ).reshape(num_candidates, k)
    values = np.asarray(reduce_statistic(per_draw, statistic, axis=1))
    if tel is not None:
        tel.record_since(
            "robust.objective_batch", t0,
            candidates=num_candidates, rows=num_candidates * k,
        )
        tel.add("robust.candidates", num_candidates)
        tel.add("robust.draw_sims", num_candidates * k)
    return values


@dataclass(frozen=True)
class RobustnessProfile:
    """Distributional summary of one candidate under perturbation draws."""

    nominal_time: float
    draw_times: np.ndarray  # (K,) per-draw iteration times
    statistic: str

    @property
    def mean(self) -> float:
        return float(np.mean(self.draw_times))

    @property
    def p95(self) -> float:
        return float(np.quantile(self.draw_times, 0.95))

    @property
    def worst(self) -> float:
        return float(np.max(self.draw_times))

    @property
    def value(self) -> float:
        """The profile reduced by its configured statistic."""
        return float(reduce_statistic(self.draw_times, self.statistic))


def robustness_profile(
    times: StageTimes,
    num_micro_batches: int,
    models: Sequence[PerturbationModel],
    *,
    draws: int = 256,
    seed: int = 0,
    statistic: str = "p95",
    comm_mode: str = "paper",
) -> RobustnessProfile:
    """Profile one candidate: nominal time plus ``K`` perturbed times."""
    factors = draw_factors(models, times.num_stages, draws, seed)
    nominal = PipelineSim(
        times, num_micro_batches, comm_mode=comm_mode
    ).run().iteration_time
    draw_times = robust_iteration_times(
        times, num_micro_batches, factors, comm_mode=comm_mode
    )
    return RobustnessProfile(
        nominal_time=nominal, draw_times=draw_times, statistic=statistic
    )
