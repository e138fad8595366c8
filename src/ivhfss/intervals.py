"""Closed subintervals of [0,1]: arithmetic, ranking, and scalar kernels.

``UnitInterval`` is the atom every higher structure is built from.  The
comparison machinery implements the possibility-degree ranking: an interval
ranks above another exactly when its midpoint is larger, with midpoint ties
broken by the lower endpoint (then the upper).  Midpoints are quantized to
12 decimals so that decimal-valued data ties exactly despite IEEE noise.
"""

from __future__ import annotations

from enum import Enum
import math

from . import _kernels_py as kernels
from .errors import Inverted, OutOfRange

OPERATOR_KINDS = ("O1", "O2", "O3", "O4")


class _Fields:
    """Equality and repr by the fields a subclass names in ``__slots__``.

    They behave as a dataclass's do: equal only to an instance of the same
    class, printed as ``Name(field=value, ...)``, and unhashable.  Plain
    classes, because importing ``dataclasses`` costs every CLI process
    several milliseconds.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Fields):
    """An immutable ``_Fields``: hashed by its field tuple, pickled by its constructor.

    Assignment and deletion raise ``AttributeError``; a subclass's
    ``__init__`` sets its slots through their descriptors.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class UnitInterval(_Frozen):
    """A closed interval [lower, upper] within [0, 1].

    The constructor trusts its input, as every operation result is built
    with it; ``construct_interval`` is the validating path for outside data.
    """

    __slots__ = __match_args__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        _set_lower(self, lower)
        _set_upper(self, upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def __str__(self) -> str:
        return f"[{self.lower:g},{self.upper:g}]"


_set_lower, _set_upper = UnitInterval.lower.__set__, UnitInterval.upper.__set__


class Verdict(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class RankOutcome(_Frozen):
    """Possibility degree of a >= b together with the total-order verdict."""

    __slots__ = __match_args__ = ("possibility", "verdict")

    def __init__(self, possibility: float, verdict: Verdict):
        _set_possibility(self, possibility)
        _set_verdict(self, verdict)


_set_possibility, _set_verdict = RankOutcome.possibility.__set__, RankOutcome.verdict.__set__


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
