"""Partition flows: sequences ordered by coarse graining or refinement.

A coarse-graining flow satisfies P_{n+1} <= P_n at every step, a
refinements' flow the opposite, and entropy is monotone along both
(nonincreasing under coarse graining, nondecreasing under refinement).
Reversing a flow swaps the two readings.

A limit point is diagnosed through the entropy pseudo-distance alone, so
the detector below looks for an entropy plateau. That is deliberately a
certificate about entropies, not partitions: it can witness convergence
in pseudo-distance while the underlying atoms keep moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FlowDirectionError, SpaceMismatchError, ValidationError
from .partitions import FiniteProbabilitySpace, Partition, entropy, is_coarsening

__all__ = [
    "COARSE_GRAINING",
    "REFINEMENT",
    "UNVALIDATED",
    "DEFAULT_EPSILON",
    "DEFAULT_WINDOW",
    "DEFAULT_HORIZON",
    "LimitPointVerdict",
    "PartitionFlow",
    "detect_entropy_plateau",
    "detect_limit_point",
    "entropy_sequence",
    "reverse",
]

COARSE_GRAINING = "coarse-graining"
REFINEMENT = "refinement"
UNVALIDATED = "unvalidated"
_DIRECTIONS = (COARSE_GRAINING, REFINEMENT, UNVALIDATED)

DEFAULT_EPSILON = 1e-9
DEFAULT_WINDOW = 8
DEFAULT_HORIZON = 64


@dataclass(frozen=True)
class PartitionFlow:
    """A materialized sequence of partitions of one space.

    The declared direction is validated on construction; a violation
    raises :class:`FlowDirectionError` naming the offending step rather
    than passing silently. Use direction ``"unvalidated"`` to skip the
    check.
    """

    space: FiniteProbabilitySpace
    sequence: tuple[Partition, ...]
    direction: str = UNVALIDATED

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValidationError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if not self.sequence:
            raise ValidationError("a flow needs at least one partition")
        for p in self.sequence:
            if p.space != self.space:
                raise SpaceMismatchError("flow members must share the flow's space")
        if self.direction == UNVALIDATED:
            return
        for n, (a, b) in enumerate(zip(self.sequence, self.sequence[1:])):
            coarse, fine = (b, a) if self.direction == COARSE_GRAINING else (a, b)
            if not is_coarsening(coarse, fine):
                raise FlowDirectionError(
                    f"{self.direction} violated at step {n} -> {n + 1}"
                )

    def __len__(self) -> int:
        return len(self.sequence)

    def __getitem__(self, n: int) -> Partition:
        return self.sequence[n]


def reverse(flow: PartitionFlow) -> PartitionFlow:
    """Reverse a flow, swapping coarse-graining and refinement.

    Reversal is an involution: ``reverse(reverse(flow))`` equals ``flow``.
    """
    swapped = {COARSE_GRAINING: REFINEMENT, REFINEMENT: COARSE_GRAINING}
    return PartitionFlow(
        flow.space,
        flow.sequence[::-1],
        swapped.get(flow.direction, flow.direction),
    )


def entropy_sequence(flow: PartitionFlow, horizon: int | None = None) -> list[float]:
    """Entropies H(P_n) in bits for n < horizon (default: whole flow)."""
    if horizon is None:
        horizon = len(flow)
    if not 1 <= horizon <= len(flow):
        raise ValidationError(
            f"horizon {horizon} outside the materialized range 1..{len(flow)}"
        )
    return [entropy(p) for p in flow.sequence[:horizon]]


@dataclass(frozen=True)
class LimitPointVerdict:
    """Outcome of limit-point detection on an entropy sequence.

    status is one of "witnessed", "refuted", "inconclusive". A witnessed
    verdict carries the earliest plateau start in ``witness_index``;
    ``tail_entropy_spread`` always reports the spread over the final
    window (against the target entropy when one was supplied).
    """

    status: str
    witness_index: int | None
    tail_entropy_spread: float

    def to_record(self) -> dict[str, object]:
        return {
            "status": self.status,
            "witness_index": self.witness_index,
            "tail_spread": self.tail_entropy_spread,
        }


def detect_entropy_plateau(
    values: Sequence[float],
    *,
    epsilon: float = DEFAULT_EPSILON,
    window: int | None = None,
    horizon: int | None = None,
    target_entropy: float | None = None,
) -> LimitPointVerdict:
    """Classify an entropy sequence as witnessed, refuted, or inconclusive.

    witnessed: the spread over the final ``window`` entries (or their
    maximum distance to ``target_entropy`` when given) is below epsilon.
    The witness index is the earliest N from which the whole suffix stays
    within epsilon.

    refuted: the sequence is monotone over the full horizon with every
    increment at least epsilon in magnitude, so it is running away from
    any plateau at the probed scale. Anything weaker is inconclusive.

    ``window`` defaults to 8 clipped to the horizon; an explicit window
    longer than the horizon is an error rather than silently shrunk.
    """
    if not epsilon > 0.0:  # NaN fails too
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    if horizon is None:
        horizon = min(DEFAULT_HORIZON, len(values))
    if window is None:
        window = min(DEFAULT_WINDOW, horizon)
    if window < 2:
        raise ValidationError(f"window must be at least 2, got {window}")
    if horizon > len(values):
        raise ValidationError(
            f"horizon {horizon} exceeds the materialized length {len(values)}"
        )
    if horizon < window:
        raise ValidationError(f"horizon {horizon} is shorter than window {window}")
    h = np.asarray(values[:horizon], dtype=float)

    def suffix_spread(start: int) -> float:
        tail = h[start:]
        if target_entropy is None:
            return float(tail.max() - tail.min())
        return float(np.abs(tail - target_entropy).max())

    tail_spread = suffix_spread(horizon - window)
    if tail_spread < epsilon:
        witness = horizon - window
        while witness > 0 and suffix_spread(witness - 1) < epsilon:
            witness -= 1
        return LimitPointVerdict("witnessed", witness, tail_spread)

    steps = np.diff(h)
    if steps.size and (np.all(steps >= epsilon) or np.all(steps <= -epsilon)):
        return LimitPointVerdict("refuted", None, tail_spread)
    return LimitPointVerdict("inconclusive", None, tail_spread)


def detect_limit_point(
    flow: PartitionFlow,
    *,
    epsilon: float = DEFAULT_EPSILON,
    window: int | None = None,
    horizon: int | None = None,
    target: Partition | None = None,
) -> LimitPointVerdict:
    """Run plateau detection on the entropy sequence of a flow.

    When ``target`` is given the plateau must sit at H(target), which
    reads the flow as converging to that partition in pseudo-distance;
    without it any plateau level counts. ``horizon`` defaults to the
    materialized length capped at 64.
    """
    if horizon is None:
        horizon = min(DEFAULT_HORIZON, len(flow))
    values = entropy_sequence(flow, horizon)
    target_entropy = None if target is None else entropy(target)
    return detect_entropy_plateau(
        values,
        epsilon=epsilon,
        window=window,
        horizon=horizon,
        target_entropy=target_entropy,
    )
