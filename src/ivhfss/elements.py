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
from .intervals import OPERATOR_KINDS, UnitInterval, construct_interval

DEFAULT_TOLERANCE = 1e-9


class AlignmentPolicy(Enum):
    """How the shorter element is padded: repeat its largest or smallest interval."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class CombineMode(Enum):
    ALIGNED = "aligned"
    PAIRWISE = "pairwise"


# Reading an enum member as a class attribute costs a descriptor call; the
# per-operation dispatch compares against these instead.
_ALIGNED = CombineMode.ALIGNED
_OPTIMISTIC = AlignmentPolicy.OPTIMISTIC


@dataclass(frozen=True, slots=True, init=False)
class IVHFE:
    """Nonempty multiset of unit intervals in canonical ascending order.

    The members are stored as the (lower, upper) float pairs the kernels work
    on; ``intervals`` builds UnitIntervals from them on each read.  The
    constructor trusts its pairs to be valid intervals in rank order, as every
    operation result is built with it; ``element_of`` and ``canonicalize``
    are the validating paths for outside data.
    """

    pairs: tuple[tuple[float, float], ...]

    def __init__(self, pairs: tuple[tuple[float, float], ...]):
        # every operation result is wrapped: the slot's own setter is cheaper
        # than the object.__setattr__ call of a frozen dataclass's __init__
        _set_pairs(self, pairs)

    @property
    def intervals(self) -> tuple[UnitInterval, ...]:
        return tuple(UnitInterval(lo, up) for lo, up in self.pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return "{" + ",".join(str(iv) for iv in self.intervals) + "}"


_set_pairs = IVHFE.pairs.__set__

EMPTY_MEMBERSHIP = ((0.0, 0.0),)
FULL_MEMBERSHIP = ((1.0, 1.0),)


def canonicalize(intervals: Iterable[UnitInterval]) -> IVHFE:
    """Sort ascending by rank; duplicates survive.  Idempotent."""
    items = tuple(intervals)
    if not items:
        raise EmptyElement("an element needs at least one interval")
    return IVHFE(kernels.sort_element(tuple(iv.as_tuple() for iv in items)))


def element_of(*pairs: tuple[float, float]) -> IVHFE:
    """Convenience constructor from (lower, upper) pairs, validated."""
    return canonicalize([construct_interval(lo, up) for lo, up in pairs])


def align(
    a: IVHFE,
    b: IVHFE,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
) -> tuple[IVHFE, IVHFE]:
    """Pad the shorter element to the longer's size; equal sizes pass through."""
    if a.size == b.size:
        return a, b
    optimistic = policy is _OPTIMISTIC
    if a.size < b.size:
        return IVHFE(kernels.extend_element(a.pairs, b.size, optimistic)), b
    return a, IVHFE(kernels.extend_element(b.pairs, a.size, optimistic))


def score(mu: IVHFE) -> UnitInterval:
    """Componentwise mean interval, correctly rounded; lands back inside [0,1]."""
    return UnitInterval(*kernels.mean_element(mu.pairs))


def complement(mu: IVHFE) -> IVHFE:
    """Interval complement memberwise; re-sorted since complement reverses order."""
    return IVHFE(kernels.complement_element(mu.pairs))


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
    return IVHFE(pairs_combine(kind == "union", mode, policy)(mu1.pairs, mu2.pairs))


def pairs_combine(union: bool, mode: CombineMode, policy: AlignmentPolicy):
    """``combine`` as a function of two elements' pairs."""
    if mode is _ALIGNED:
        optimistic = policy is _OPTIMISTIC
        return lambda a, b: kernels.combine_aligned(union, a, b, optimistic)
    return lambda a, b: kernels.combine_pairwise(union, a, b)


def ring_sum(mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs a+b-ab on both endpoints; dedup and sort."""
    return IVHFE(kernels.ring_sum_element(mu1.pairs, mu2.pairs))


def ring_product(mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs product on both endpoints; dedup and sort."""
    return IVHFE(kernels.ring_product_element(mu1.pairs, mu2.pairs))


def apply_operator(kind: str, mu1: IVHFE, mu2: IVHFE) -> IVHFE:
    """All-pairs O1..O4; pairwise by construction, no alignment involved."""
    if kind not in OPERATOR_KINDS:
        raise KeyError(f"unknown operator kind {kind!r}")
    return IVHFE(kernels.operator_element(kind, mu1.pairs, mu2.pairs))


def _all_close(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    for (al, au), (bl, bu) in zip(a, b):
        if not (abs(al - bl) <= tol and abs(au - bu) <= tol):
            return False
    return True


def pairs_strict_equal(a, b, tol: float) -> bool:
    """``strict_equal`` on two pair tuples, which need not be sorted.

    Equal tuples are accepted without sorting them: the sort makes the same
    comparisons on both, so the sorted sides differ by 0 at every endpoint
    (``-0.0`` against ``0.0`` included).  A negative ``tol`` still rejects
    them.  The one input where ``==`` and the endpoint comparison disagree is
    a NaN endpoint, which no validated interval holds.
    """
    if tol >= 0 and a == b:
        return True
    return len(a) == len(b) and _all_close(kernels.sort_element(a), kernels.sort_element(b), tol)


def pairs_equivalent(a, b, tol: float) -> bool:
    """``equivalent`` on two pair tuples, which need not be sorted.

    Equal tuples are accepted without deduplicating them, as in
    ``pairs_strict_equal``.
    """
    if tol >= 0 and a == b:
        return True
    return _all_close(kernels.dedup_element(a), kernels.dedup_element(b), tol)


def strict_equal(mu1: IVHFE, mu2: IVHFE, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Multiset equality: same size, rank-sorted members pairwise within tol."""
    return pairs_strict_equal(mu1.pairs, mu2.pairs, tol)


def equivalent(mu1: IVHFE, mu2: IVHFE, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Equality after collapsing duplicate intervals; the weaker predicate."""
    return pairs_equivalent(mu1.pairs, mu2.pairs, tol)
