"""Schedule intermediate representation executed by the DES.

A :class:`Schedule` is one ordered program per device.  Programs contain:

* :class:`ComputeOp` — a forward/backward pass of one *unit* (a micro-batch
  or a sliced half) with a concrete duration and memory behaviour;
* :class:`CommOp` — a point-to-point exchange with one peer device.  With
  ``rendezvous=True`` (NCCL synchronous p2p) both sides must reach their
  matching op before the transfer starts — this is what makes the Slicer's
  warmup blockage observable.  With ``rendezvous=False`` the sender deposits
  the payload eagerly and only the receiver waits (buffered isend
  semantics, used by the interleaved and GPipe schedules).

Matching rule: a ``CommOp`` on device A matches the first unmatched
``CommOp`` on peer B whose transfer tag set is identical.  Builders must
emit mirror-image ops; the engine verifies the invariant and raises on
deadlock instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: A schedule unit: (micro_batch, half) where half is -1 (whole), 0 or 1.
Unit = Tuple[int, int]


class ScheduleMutationError(RuntimeError):
    """A schedule was mutated after an executor compiled it.

    Both the event engine and the static-graph executor cache their
    compiled form on the schedule object.  The cached structure encodes
    the exact op sequence at compile time, so mutating ``programs`` (or
    ``static_bytes``) afterwards would silently execute stale state —
    executors detect the mutation via :meth:`Schedule.identity_signature`
    and raise this instead.  Build a fresh :class:`Schedule` per variant.
    """


def full_units(num_micro_batches: int) -> List[Unit]:
    """The trivial unit sequence: every micro-batch whole."""
    if num_micro_batches <= 0:
        raise ValueError("need at least one micro-batch")
    return [(mb, -1) for mb in range(num_micro_batches)]


def unit_fraction(unit: Unit) -> float:
    """Fraction of a full micro-batch this unit carries."""
    return 1.0 if unit[1] == -1 else 0.5


def unit_label(unit: Unit) -> str:
    mb, half = unit
    return f"{mb}" if half == -1 else f"{mb}{'ab'[half]}"


@dataclass(frozen=True)
class ComputeOp:
    """One forward or backward pass executed on a device."""

    kind: str                 # "F" or "B"
    unit: Unit
    duration: float
    #: bytes allocated when the op starts and held until released by a
    #: later op (activation stash for "F"; zero for "B").
    alloc_bytes: float = 0.0
    #: bytes released when the op ends (the stash freed by a "B").
    free_bytes: float = 0.0
    #: transient bytes live only while the op runs.
    workspace_bytes: float = 0.0
    #: warmup / steady / cooldown — drives the startup-overhead metric.
    phase: str = "steady"
    #: which model chunk the op belongs to (interleaved schedules).
    chunk: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("F", "B"):
            raise ValueError(f"compute kind must be F or B, got {self.kind!r}")
        if self.duration < 0:
            raise ValueError("negative duration")

    def label(self) -> str:
        return f"{self.kind}({unit_label(self.unit)})"


@dataclass(frozen=True)
class Transfer:
    """One directed payload inside a CommOp."""

    tag: str
    src: int
    dst: int
    bytes: float

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ValueError("negative transfer size")
        if self.src == self.dst:
            raise ValueError("transfer to self")


@dataclass(frozen=True)
class CommOp:
    """A (possibly bidirectional) exchange with a single peer device."""

    device: int
    peer: int
    transfers: Tuple[Transfer, ...]
    rendezvous: bool = True

    def __post_init__(self) -> None:
        if not self.transfers:
            raise ValueError("CommOp needs at least one transfer")
        for t in self.transfers:
            if {t.src, t.dst} != {self.device, self.peer}:
                raise ValueError(
                    f"transfer {t.tag} endpoints {t.src}->{t.dst} do not "
                    f"match op pair ({self.device}, {self.peer})"
                )

    @property
    def tag_set(self) -> frozenset:
        return frozenset(t.tag for t in self.transfers)

    def sends(self) -> List[Transfer]:
        return [t for t in self.transfers if t.src == self.device]

    def receives(self) -> List[Transfer]:
        return [t for t in self.transfers if t.dst == self.device]

    def label(self) -> str:
        parts = [
            ("→" if t.src == self.device else "←") + t.tag for t in self.transfers
        ]
        return "comm[" + ",".join(parts) + "]"


def family_key(
    family: str,
    num_stages: int,
    num_micro_batches: int,
    num_sliced: int = 0,
    aggregate: bool = False,
    num_chunks: int = 1,
) -> Tuple:
    """The skeleton key of one schedule-family shape.

    ``family`` is ``"1f1b"`` (sliced when ``num_sliced > 0``),
    ``"gpipe"`` or ``"interleaved"`` (``num_chunks`` model chunks per
    device).  Aggregation only changes the sends of sliced halves, so it
    is dropped from the key when nothing is sliced.
    """
    return (
        family, num_stages, num_micro_batches, num_sliced,
        aggregate and num_sliced > 0, num_chunks,
    )


@dataclass(frozen=True)
class SkeletonTag:
    """What a family builder records about the schedule it returned.

    ``key`` is the :func:`family_key` of the shape it emitted,
    ``stage_costs`` the builder's per-stage
    :class:`~repro.schedules.one_f_one_b._StageCosts` (one per virtual
    stage ``c * n + x`` for interleaved schedules), ``boundary_bytes``
    the payload of a whole unit, and ``signature`` the schedule's
    :meth:`Schedule.identity_signature` when the builder returned it.
    The static-graph executor fills the cached skeleton of ``key`` from
    these costs while the signature still matches; a schedule edited
    after it was built compiles from its ops instead.
    """

    key: Tuple
    stage_costs: Tuple[object, ...] = field(repr=False)
    boundary_bytes: float = field(repr=False)
    signature: Tuple = field(repr=False)


@dataclass
class Schedule:
    """Per-device programs plus bookkeeping for metrics."""

    name: str
    programs: List[List[object]]           # ComputeOp | CommOp per device
    #: static (weights + optimizer state) bytes resident per device.
    static_bytes: List[float] = field(default_factory=list)
    #: set by the family builders (:meth:`tag_family`); None when built
    #: by hand.
    skeleton: Optional[SkeletonTag] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.programs:
            raise ValueError("a schedule needs at least one device program")
        if not self.static_bytes:
            self.static_bytes = [0.0] * len(self.programs)
        if len(self.static_bytes) != len(self.programs):
            raise ValueError("static_bytes length mismatch")
        for dev, program in enumerate(self.programs):
            for op in program:
                if isinstance(op, CommOp) and op.device != dev:
                    raise ValueError(
                        f"CommOp for device {op.device} placed on device {dev}"
                    )

    @property
    def num_devices(self) -> int:
        return len(self.programs)

    def tag_family(
        self, key: Tuple, stage_costs: Sequence[object],
        boundary_bytes: float,
    ) -> "Schedule":
        """Record the skeleton this builder emitted (see :class:`SkeletonTag`)."""
        self.skeleton = SkeletonTag(
            key, tuple(stage_costs), boundary_bytes,
            self.identity_signature(),
        )
        return self

    def identity_signature(self) -> Tuple:
        """A cheap fingerprint of the exact op objects in every program.

        Ops are frozen dataclasses, so a schedule can only change through
        its ``programs`` lists (append/remove/replace) or ``static_bytes``
        — both visible as a change of this signature.  Executors record it
        at compile time and raise :class:`ScheduleMutationError` when a
        later run sees a different one.  (Best-effort: a replacement op
        that reuses the freed op's memory address is indistinguishable.)
        """
        return (
            tuple(tuple(map(id, program)) for program in self.programs),
            tuple(self.static_bytes),
        )

    def shape_signature(self) -> Tuple:
        """The cost-free structure of the schedule.

        Two schedules with equal shape signatures have identical op
        sequences, labels, phases and communication matching — they may
        differ only in durations and byte counts (the "cost vector").
        The static-graph executor shares one compiled dependency DAG
        across all schedules of a shape, re-extracting only the costs.
        """
        sig = []
        for program in self.programs:
            ops = []
            for op in program:
                if isinstance(op, ComputeOp):
                    ops.append(("C", op.kind, op.unit, op.phase, op.chunk))
                else:
                    ops.append((
                        "R" if op.rendezvous else "E",
                        op.peer,
                        tuple((t.tag, t.src, t.dst) for t in op.transfers),
                    ))
            sig.append(tuple(ops))
        return tuple(sig)

    def compute_ops(self, device: int) -> List[ComputeOp]:
        return [op for op in self.programs[device] if isinstance(op, ComputeOp)]

    def validate_comm_symmetry(self) -> None:
        """Every CommOp must have exactly one mirror op on its peer."""
        from collections import Counter

        sides: Dict[Tuple[int, int], Counter] = {}
        for dev, program in enumerate(self.programs):
            for op in program:
                if isinstance(op, CommOp):
                    pair = (min(dev, op.peer), max(dev, op.peer))
                    sides.setdefault(pair, Counter())[(dev, op.tag_set)] += 1
        for pair, counter in sides.items():
            a, b = pair
            for (dev, tags), count in counter.items():
                other = a if dev == b else b
                if counter.get((other, tags), 0) != count:
                    raise ValueError(
                        f"unmatched comm between {a} and {b}: tags {sorted(tags)} "
                        f"appear {count}x on {dev} but "
                        f"{counter.get((other, tags), 0)}x on {other}"
                    )
