"""Hesitant elements: ordered multisets of unit intervals.

An IVHFE holds every membership degree a decision maker hesitates between.
Elements are kept in canonical ascending rank order with duplicates
preserved; all binary operations come in the two semantics the source
material uses: ``ALIGNED`` (pad to equal length, combine index-wise — the
semantics of every worked example) and ``PAIRWISE`` (all-pairs set-builder
form, deduplicated).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import _kernels_py as kernels
from .errors import EmptyElement
from .intervals import (
    OPERATOR_KINDS,
    RankOutcome,
    UnitInterval,
    construct_interval,
    rank_compare,
)

DEFAULT_TOLERANCE = 1e-9


class AlignmentPolicy(Enum):
    """How the shorter element is padded: repeat its largest or smallest interval."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class CombineMode(Enum):
    ALIGNED = "aligned"
    PAIRWISE = "pairwise"


@dataclass(frozen=True, slots=True)
class IVHFE:
    """Nonempty multiset of UnitIntervals in canonical ascending order."""

    intervals: tuple[UnitInterval, ...]

    @property
    def size(self) -> int:
        return len(self.intervals)

    def as_tuples(self) -> tuple[tuple[float, float], ...]:
        return tuple(iv.as_tuple() for iv in self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __str__(self) -> str:
        return "{" + ",".join(str(iv) for iv in self.intervals) + "}"


EMPTY_MEMBERSHIP = ((0.0, 0.0),)
FULL_MEMBERSHIP = ((1.0, 1.0),)


def _from_raw(raw: Iterable[tuple[float, float]]) -> IVHFE:
    return IVHFE(tuple(UnitInterval(lo, up) for lo, up in raw))


def canonicalize(intervals: Iterable[UnitInterval]) -> IVHFE:
    """Sort ascending by rank; duplicates survive.  Idempotent."""
    items = tuple(intervals)
    if not items:
        raise EmptyElement("an element needs at least one interval")
    raw = kernels.sort_element(tuple(iv.as_tuple() for iv in items))
    return _from_raw(raw)


def element_of(*pairs: tuple[float, float]) -> IVHFE:
    """Convenience constructor from (lower, upper) pairs, validated."""
    return canonicalize([construct_interval(lo, up) for lo, up in pairs])


def empty_element() -> IVHFE:
    """The {[0,0]} membership standing in for 'no membership'."""
    return _from_raw(EMPTY_MEMBERSHIP)


def full_element() -> IVHFE:
    return _from_raw(FULL_MEMBERSHIP)


def align(
    a: IVHFE,
    b: IVHFE,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
) -> tuple[IVHFE, IVHFE]:
    """Pad the shorter element to the longer's size; equal sizes pass through."""
    if a.size == b.size:
        return a, b
    optimistic = policy is AlignmentPolicy.OPTIMISTIC
    if a.size < b.size:
        return _from_raw(kernels.extend_element(a.as_tuples(), b.size, optimistic)), b
    return a, _from_raw(kernels.extend_element(b.as_tuples(), a.size, optimistic))


def score(mu: IVHFE) -> UnitInterval:
    """Componentwise mean interval; always lands back inside [0,1]."""
    return UnitInterval(*kernels.score_element(mu.as_tuples()))


def compare_by_score(mu1: IVHFE, mu2: IVHFE) -> RankOutcome:
    return rank_compare(score(mu1), score(mu2))


def complement(mu: IVHFE) -> IVHFE:
    """Interval complement memberwise; re-sorted since complement reverses order."""
    return _from_raw(kernels.complement_element(mu.as_tuples()))


def combine(
    kind: str,
    mu1: IVHFE,
    mu2: IVHFE,
    mode: CombineMode = CombineMode.ALIGNED,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
) -> IVHFE:
    """Union or intersection of two elements under the requested semantics."""
    if kind not in ("union", "intersection"):
        raise KeyError(f"kind must be 'union' or 'intersection', got {kind!r}")
    union = kind == "union"
    if mode is CombineMode.ALIGNED:
        raw = kernels.combine_aligned(
            union, mu1.as_tuples(), mu2.as_tuples(), policy is AlignmentPolicy.OPTIMISTIC
        )
    else:
        raw = kernels.combine_pairwise(union, mu1.as_tuples(), mu2.as_tuples())
    return _from_raw(raw)


def ring_sum(mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs a+b-ab on both endpoints; dedup and sort."""
    return _from_raw(kernels.ring_sum_element(mu1.as_tuples(), mu2.as_tuples()))


def ring_product(mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs product on both endpoints; dedup and sort."""
    return _from_raw(kernels.ring_product_element(mu1.as_tuples(), mu2.as_tuples()))


def apply_operator(kind: str, mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs O1..O4; pairwise by construction, no alignment involved."""
    if kind not in OPERATOR_KINDS:
        raise KeyError(f"unknown operator kind {kind!r}")
    return _from_raw(kernels.operator_element(kind, mu1.as_tuples(), mu2.as_tuples()))


def _close(a: tuple[float, float], b: tuple[float, float], tol: float) -> bool:
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def strict_equal(mu1: IVHFE, mu2: IVHFE, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Multiset equality: same size, sorted members pairwise within tol."""
    if mu1.size != mu2.size:
        return False
    return all(_close(a, b, tol) for a, b in zip(mu1.as_tuples(), mu2.as_tuples()))


def equivalent(mu1: IVHFE, mu2: IVHFE, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Equality after collapsing duplicate intervals; the weaker predicate."""
    d1 = kernels.dedup_element(mu1.as_tuples())
    d2 = kernels.dedup_element(mu2.as_tuples())
    if len(d1) != len(d2):
        return False
    return all(_close(a, b, tol) for a, b in zip(d1, d2))
