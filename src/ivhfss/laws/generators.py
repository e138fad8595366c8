"""Operand generation for law checking.

Element-level laws get exhaustive grid streams (all endpoint pairs on the
configured grid, elements up to the configured size) followed by seeded
random trials.  Soft-set laws cannot be enumerated exhaustively, so they get
a single-cell exhaustive stream where the arity allows, a handful of curated
seed instances that exercise the structurally interesting corners (absent
parameters, forced padding, midpoint ties, duplicated intervals), and then
random trials over bounded shapes.  Everything is a pure function of the
configured seed.

Random sizes and parameter choices are drawn straight from ``getrandbits``
(``below``), with exactly the calls ``Random.randint`` and ``Random.sample``
make in CPython, so the streams are the ones those methods would give, draw
for draw, without their per-call overhead.  ``tests/test_laws.py`` checks
that equivalence against the public methods, so a CPython change to them
shows there.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations_with_replacement

from .. import _kernels_py as kernels
from ..elements import IVHFE, element_of
from ..softsets import IVHFSoftSet, common_parameters, make_soft_set


def rng_for(seed: int, law_id: str) -> random.Random:
    digest = hashlib.sha256(law_id.encode("utf-8")).digest()
    return random.Random(seed ^ int.from_bytes(digest[:8], "big"))


def grid_intervals(step: float) -> list[tuple[float, float]]:
    n = round(1.0 / step)
    points = [round(i * step, 12) for i in range(n + 1)]
    return [(lo, up) for lo in points for up in points if lo <= up]


def grid_element_count(step: float, max_size: int) -> int:
    """``len(grid_elements(step, max_size))``, counted without building any."""
    n = round(1.0 / step)
    intervals = (n + 1) * (n + 2) // 2
    return sum(math.comb(intervals + size - 1, size) for size in range(1, max_size + 1))


def grid_elements(step: float, max_size: int) -> list[IVHFE]:
    ivs = grid_intervals(step)
    out: list[IVHFE] = []
    for size in range(1, max_size + 1):
        out.extend(IVHFE(kernels.sort_element(c)) for c in combinations_with_replacement(ivs, size))
    return out


def below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, by the same ``getrandbits`` calls.

    A copy of ``Random._randbelow_with_getrandbits``: draw ``n.bit_length()``
    bits until the value is below ``n``.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# a random stream snaps endpoints by table lookup up to this many grid points;
# a finer grid snaps by arithmetic, so a tiny step never builds a table
SNAP_TABLE_MAX = 4096


class _ArithmeticPoints:
    """``snap_points``' answer above ``SNAP_TABLE_MAX`` points: each one computed."""

    __slots__ = ("step",)

    def __init__(self, step: float):
        self.step = step

    def __getitem__(self, i: int) -> float:
        return min(1.0, round(i * self.step, 12))


def snap_points(step: float):
    """The grid points as a sequence indexed by ``round(x / step)``.

    Point ``i`` is ``min(1.0, round(i * step, 12))``, so ``points[round(x / step)]``
    is the arithmetic snap ``min(1.0, round(round(x / step) * step, 12))``.
    For ``0 <= x < 1``, ``round(x / step)`` is at most ``round(1 / step)``, the
    last index, because division and ``round`` are monotone.
    """
    n = round(1.0 / step)
    if n >= SNAP_TABLE_MAX:
        return _ArithmeticPoints(step)
    return [min(1.0, round(i * step, 12)) for i in range(n + 1)]


def _random_pairs(rng: random.Random, step: float, max_size: int, points) -> tuple:
    """A random element's pairs: ``rng.randint(1, max_size)`` intervals, each two
    ``rng.random()`` endpoints, ordered and, unless ``points`` is None, snapped
    to those grid points (``snap_points``).

    Snapping is monotone, so it never reorders an interval's endpoints.
    """
    random_, getrandbits = rng.random, rng.getrandbits
    k = max_size.bit_length()  # below(rng, max_size), inlined
    size = getrandbits(k)
    while size >= max_size:
        size = getrandbits(k)
    out = []
    for _ in range(size + 1):
        a, b = random_(), random_()
        if a > b:
            a, b = b, a
        if points is not None:
            a, b = points[round(a / step)], points[round(b / step)]
        out.append((a, b))
    if size == 0:
        return (out[0],)
    return kernels.sort_element(out)


def random_element(rng: random.Random, step: float, max_size: int, points) -> IVHFE:
    return IVHFE(_random_pairs(rng, step, max_size, points))


def random_soft(
    rng: random.Random,
    params: tuple[str, ...],
    universe: tuple[str, ...],
    step: float,
    max_size: int,
    points,
) -> IVHFSoftSet:
    pairs = {}
    for e in params:
        for h in universe:
            pairs[e, h] = _random_pairs(rng, step, max_size, points)
    return IVHFSoftSet(universe, params, pairs)


def _random_names(rng: random.Random, pool: tuple[str, ...]) -> tuple[str, ...]:
    """``sorted(rng.sample(pool, rng.randint(1, len(pool))))`` as a tuple.

    ``sample`` keeps a list of the names not yet chosen when the pool has at
    most 21 names, as every pool here does; this is that path.
    """
    getrandbits = rng.getrandbits
    n = len(pool)
    k = n.bit_length()  # below(rng, n), inlined here and below
    size = getrandbits(k)
    while size >= n:
        size = getrandbits(k)
    left = list(pool)
    chosen = []
    for i in range(size + 1):
        m = n - i
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        chosen.append(left[j])
        left[j] = left[m - 1]
    chosen.sort()
    return tuple(chosen)


def random_param_sets(
    rng: random.Random, count: int, max_parameters: int, shared: bool
) -> list[tuple[str, ...]]:
    pool = tuple(f"e{i + 1}" for i in range(max_parameters))
    if shared:
        return [_random_names(rng, pool)] * count
    return [_random_names(rng, pool) for _ in range(count)]


# ---------------------------------------------------------------------------
# curated seed instances: parameter structure, forced padding, midpoint ties
# ---------------------------------------------------------------------------


def _soft(universe, table) -> IVHFSoftSet:
    values = {e: {h: element_of(*row[h]) for h in universe} for e, row in table.items()}
    return make_soft_set(universe, tuple(table), values)


_U = ("h1", "h2")

SEED_F = _soft(
    _U,
    {
        "e1": {"h1": [(0.3, 0.8)], "h2": [(0.3, 0.6), (0.3, 0.8), (0.5, 0.6)]},
        "e2": {"h1": [(0.2, 0.9), (0.7, 1.0)], "h2": [(0.2, 0.6), (0.8, 1.0)]},
    },
)

SEED_G = _soft(
    _U,
    {
        "e1": {"h1": [(0.0, 0.6), (0.7, 0.9)], "h2": [(0.4, 0.5), (0.4, 0.7), (0.4, 0.7)]},
        "e2": {"h1": [(0.6, 0.8)], "h2": [(0.3, 0.6), (0.3, 0.8)]},
        "e3": {"h1": [(0.3, 0.6), (0.5, 0.6)], "h2": [(0.1, 0.6), (0.3, 0.6), (0.3, 0.9)]},
    },
)

SEED_H = _soft(
    _U,
    {
        "e2": {"h1": [(0.2, 0.6), (0.4, 0.6), (0.7, 1.0)], "h2": [(0.3, 0.8)]},
        "e3": {"h1": [(0.2, 0.5), (0.3, 0.5)], "h2": [(0.2, 0.5), (0.6, 0.8)]},
    },
)

# single-cell triple that breaks mixed-parameter distributivity of
# intersection over union through a midpoint tie and a padded chain
SEED_TIE_F = _soft(("h1",), {"e1": {"h1": [(0.25, 0.5), (0.0, 1.0)]}})
SEED_TIE_G = _soft(("h1",), {"e1": {"h1": [(0.25, 0.25), (0.25, 0.5)]}})
SEED_TIE_H = _soft(("h1",), {"e1": {"h1": [(0.0, 0.0), (1.0, 1.0)]}})


def restrict(soft: IVHFSoftSet, params) -> IVHFSoftSet:
    keep = tuple(e for e in soft.parameters if e in set(params))
    pairs = {(e, h): soft.pairs[(e, h)] for e in keep for h in soft.universe}
    return IVHFSoftSet(soft.universe, keep, pairs)


def _as_shared(ops):
    shared = tuple(sorted(common_parameters(ops)))
    return tuple(restrict(o, shared) for o in ops) if shared else None


def seed_instances(level: str, arity: int, parameter_mode: str) -> list[tuple]:
    """Deterministic curated operand tuples, tried before anything else."""
    if level != "soft":
        return []
    if arity == 1:
        tuples = [(SEED_F,), (SEED_G,), (SEED_H,)]
    elif arity == 2:
        tuples = [(SEED_F, SEED_G), (SEED_G, SEED_H), (SEED_F, SEED_H)]
    else:
        tuples = [
            (SEED_F, SEED_G, SEED_H),
            (SEED_TIE_F, SEED_TIE_G, SEED_TIE_H),
        ]
    if parameter_mode == "shared":
        shared = [_as_shared(ops) for ops in tuples]
        return [ops for ops in shared if ops is not None]
    return tuples
