"""Closed subintervals of [0,1]: arithmetic, ranking, and scalar kernels.

``UnitInterval`` is the atom every higher structure is built from.  The
comparison machinery implements the possibility-degree ranking: an interval
ranks above another exactly when its midpoint is larger, with midpoint ties
broken by the lower endpoint (then the upper).  Midpoints are quantized to
12 decimals so that decimal-valued data ties exactly despite IEEE noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

from . import _kernels_py as kernels
from .errors import Inverted, OutOfRange

OPERATOR_KINDS = ("O1", "O2", "O3", "O4")


@dataclass(frozen=True, slots=True)
class UnitInterval:
    """A closed interval [lower, upper] within [0, 1].

    The constructor trusts its input, as every operation result is built
    with it; ``construct_interval`` is the validating path for outside data.
    """

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def __str__(self) -> str:
        return f"[{self.lower:g},{self.upper:g}]"


class Verdict(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True, slots=True)
class RankOutcome:
    """Possibility degree of a >= b together with the total-order verdict."""

    possibility: float
    verdict: Verdict


def construct_interval(lower: float, upper: float) -> UnitInterval:
    """The only validating constructor; everything downstream assumes it."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise OutOfRange(f"endpoints must be finite, got ({lower}, {upper})")
    if lower < 0.0 or lower > 1.0 or upper < 0.0 or upper > 1.0:
        raise OutOfRange(f"endpoints must lie in [0,1], got ({lower}, {upper})")
    if lower > upper:
        raise Inverted(f"lower {lower} exceeds upper {upper}")
    return UnitInterval(float(lower), float(upper))


def possibility_ge(a: UnitInterval, b: UnitInterval) -> float:
    """p(a >= b) by relative overlap; point-vs-point compares values, 0.5 on equality."""
    return kernels.possibility_ge(a.lower, a.upper, b.lower, b.upper)


def rank_key(a: UnitInterval):
    """Sort key realizing the rank_compare total order."""
    return kernels.rank_key(a.lower, a.upper)


def rank_compare(a: UnitInterval, b: UnitInterval) -> RankOutcome:
    """Total order: possibility against 0.5, midpoint ties broken by endpoints."""
    p = possibility_ge(a, b)
    ka = kernels.rank_key(a.lower, a.upper)
    kb = kernels.rank_key(b.lower, b.upper)
    if ka > kb:
        verdict = Verdict.GREATER
    elif ka < kb:
        verdict = Verdict.LESS
    else:
        verdict = Verdict.EQUAL
    return RankOutcome(p, verdict)


def interval_complement(a: UnitInterval) -> UnitInterval:
    lo, up = kernels.complement_kernel(a.lower, a.upper)
    return UnitInterval(lo, up)


def interval_join(a: UnitInterval, b: UnitInterval) -> UnitInterval:
    return UnitInterval(*kernels.join_kernel(a.lower, a.upper, b.lower, b.upper))


def interval_meet(a: UnitInterval, b: UnitInterval) -> UnitInterval:
    return UnitInterval(*kernels.meet_kernel(a.lower, a.upper, b.lower, b.upper))


def ring_sum_kernel(a: UnitInterval, b: UnitInterval) -> UnitInterval:
    return UnitInterval(*kernels.ring_sum_kernel(a.lower, a.upper, b.lower, b.upper))


def ring_product_kernel(a: UnitInterval, b: UnitInterval) -> UnitInterval:
    return UnitInterval(*kernels.ring_product_kernel(a.lower, a.upper, b.lower, b.upper))


def star_kernel(a: float, b: float) -> float:
    """(a+b) / (2(ab+1)); lands in [0, 0.5]."""
    return kernels.star_kernel(a, b)


def operator_kernel(kind: str, a: UnitInterval, b: UnitInterval) -> UnitInterval:
    """Endpointwise difference operator O1..O4.

    The endpoint kernels can produce an inverted pair (the lower-endpoint
    difference may exceed the upper-endpoint one); the result is
    canonicalized.
    """
    if kind not in OPERATOR_KINDS:
        raise KeyError(f"unknown operator kind {kind!r}")
    return UnitInterval(*kernels.operator_kernel(kind, a.lower, a.upper, b.lower, b.upper))
