"""Law checking: enumeration, random trials, shrinking, reports.

Operands and counterexamples are the public types: ``IVHFE`` elements and
``IVHFSoftSet`` soft sets.  An ``aligned`` or ``pairwise`` law is evaluated
by the public operations and comparisons alone.  A ``sequence`` or
``synchronized`` law is evaluated in its private regime (:mod:`.evaluate`)
and, where that fails, again through the public API.  Sequence sides are
soft sets with unsorted cells, synchronized sides unsorted elements; the
public comparisons sort both.  All the checker knows of a law is its ``Law``.

For each law three stages run in order: curated seed instances, the bounded
exhaustive grid stream (where the law's arity allows one), and seeded random
trials.  The first operand tuple that violates the law both in the
registered regime and through the public API is shrunk to a locally minimal
counterexample and reported; reports are therefore self-validating by
construction.  ``replay`` decodes stored operands with :mod:`ivhfss.io`, so
they pass the same validation as CLI inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional

from .. import elements as E
from .. import io
from .. import softsets as S
from .. import _kernels_py as kernels
from ..errors import BudgetExceeded, SchemaError
from ..elements import IVHFE
from ..softsets import IVHFSoftSet
from . import generators as gen
from .registry import Law, registry

ENUMERATION_CAP = 300_000
# the operand shapes searched, and the slack of every comparison
MAX_ELEMENT_SIZE = 2
MAX_PARAMETERS = 2
MAX_OBJECTS = 2
TOLERANCE = 1e-12
# the random universes, ("h1",) to ("h1", ..., "hN") for N = MAX_OBJECTS
_UNIVERSES = tuple(tuple(f"h{i + 1}" for i in range(n)) for n in range(1, MAX_OBJECTS + 1))


@dataclass(frozen=True)
class CheckConfig:
    grid_step: float = 0.25
    random_trials: int = 10000
    seed: int = 52417

    def __post_init__(self):
        if not (0.0 < self.grid_step <= 1.0):
            raise ValueError(f"grid_step must be in (0,1], got {self.grid_step}")
        if 1.0 / self.grid_step == math.inf:
            raise ValueError(f"grid_step {self.grid_step} is too small: its point count overflows a float")
        # the last point of generators.grid_intervals; short of 1.0, 1.0 is never checked
        last = round(round(1.0 / self.grid_step) * self.grid_step, 12)
        if last != 1.0:
            raise ValueError(f"grid_step {self.grid_step} does not divide [0,1]: its grid ends at {last}")
        if self.random_trials < 1:
            raise ValueError("random_trials must be >= 1")


@dataclass
class LawReport:
    law_id: str
    status: str  # "holds" | "violated"
    trials_run: int
    equality_used: str
    mode: str
    shrink_steps: int = 0
    exhaustive: bool = False  # set only when the law held
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        """The fields in order; ``counterexample`` only when there is one."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.counterexample is None:
            del out["counterexample"]
        return out


# --- evaluation ---


def _holds(law: Law, lhs, rhs, tol: float) -> bool:
    """Compare a law's two sides with the public comparison it names."""
    if law.level == "element":
        if law.equality == "strict":
            return E.strict_equal(lhs, rhs, tol)
        return E.equivalent(lhs, rhs, tol)
    if law.equality == "strict":
        return S.soft_strict_equal(lhs, rhs, tol)
    if law.equality == "equivalent":
        return S.soft_equivalent(lhs, rhs, tol)
    return S.is_subset(lhs, rhs, tol=tol)


def _public_violates(law: Law, ops, tol: float) -> bool:
    return not _holds(law, *law.build_public(ops), tol)


def _violates(law: Law, ops, tol: float) -> bool:
    """Violated in the law's regime and, if that is a private one, publicly too."""
    if _holds(law, *law.build_raw(ops), tol):
        return False
    return not law.private_regime or _public_violates(law, ops, tol)


def _valid(law: Law, ops) -> bool:
    if law.level == "soft":
        if any(not o.parameters for o in ops):
            return False
        if law.parameter_mode == "shared":
            first = set(ops[0].parameters)
            if any(set(o.parameters) != first for o in ops[1:]):
                return False
    return law.constraint(ops)


# --- operand streams ---


def _over_cap(law: Law, total: int, what: str) -> None:
    if total > ENUMERATION_CAP:
        raise BudgetExceeded(f"{law.law_id}: {total} {what} exceeds cap {ENUMERATION_CAP}")


def _element_enumeration(law: Law, config: CheckConfig) -> tuple[Iterable, bool]:
    count = gen.grid_element_count(config.grid_step, MAX_ELEMENT_SIZE)
    if law.arity == 2:
        _over_cap(law, count**2, "pairs")
        elems = gen.grid_elements(config.grid_step, MAX_ELEMENT_SIZE)
        return itertools.product(elems, elems), True
    _over_cap(law, gen.grid_element_count(config.grid_step, 1) ** 2 * count, "triples")
    elems = gen.grid_elements(config.grid_step, MAX_ELEMENT_SIZE)
    singles = [e for e in elems if e.size == 1]
    return itertools.product(singles, singles, elems), False


def _soft_enumeration(law: Law, config: CheckConfig) -> tuple[Iterable, bool]:
    if law.arity > 2:
        return (), False
    count = gen.grid_element_count(config.grid_step, MAX_ELEMENT_SIZE)
    _over_cap(law, count**law.arity, "pairs" if law.arity == 2 else "elements")
    softs = [
        IVHFSoftSet(("h1",), ("e1",), {("e1", "h1"): e.pairs})
        for e in gen.grid_elements(config.grid_step, MAX_ELEMENT_SIZE)
    ]
    return itertools.product(softs, repeat=law.arity), False


def _random_stream(law: Law, config: CheckConfig, grid_checked: bool = False) -> Iterator:
    """Seeded random operand tuples, at most one per trial; each passes ``_valid``.

    A soft trial redraws parameters and cells until the tuple is valid, at
    most 50 times, and yields nothing when all 50 are invalid.  With
    ``grid_checked`` (an element law whose exhaustive grid has held), a
    snapped trial is a tuple of that grid: its operands are drawn as usual,
    but it yields ``None``, to be counted and not evaluated again.
    """
    rng = gen.rng_for(config.seed, law.law_id)
    random_, step, arity, counts = rng.random, config.grid_step, law.arity, law.operand_counts
    grid = gen.snap_points(step)
    if law.level == "element":  # every element law takes any operands
        for _ in range(config.random_trials):
            points = grid if random_() < 0.5 else None
            ops = tuple([gen.random_element(rng, step, MAX_ELEMENT_SIZE, points) for _ in range(arity)])
            yield None if grid_checked and points is not None else ops
        return
    shared = law.parameter_mode == "shared"
    for _ in range(config.random_trials):
        points = grid if random_() < 0.5 else None
        # one count draws nothing: below(rng, 1) would still take a bit
        count = counts[gen.below(rng, len(counts))] if len(counts) > 1 else arity
        universe = _UNIVERSES[gen.below(rng, MAX_OBJECTS)]
        for _ in range(50):
            candidate = tuple([
                gen.random_soft(rng, ps, universe, step, MAX_ELEMENT_SIZE, points)
                for ps in gen.random_param_sets(rng, count, MAX_PARAMETERS, shared)
            ])
            if _valid(law, candidate):
                yield candidate
                break


# --- shrinking ---


def _shrink_candidates_element(ops, snap):
    for i, elem in enumerate(ops):
        pairs = elem.pairs
        if len(pairs) > 1:
            for j in range(len(pairs)):
                yield ops[:i] + (IVHFE(pairs[:j] + pairs[j + 1 :]),) + ops[i + 1 :]
    for i, elem in enumerate(ops):
        snapped = snap(elem.pairs)
        if snapped != elem.pairs:
            yield ops[:i] + (IVHFE(snapped),) + ops[i + 1 :]


def _drop_object(soft: IVHFSoftSet, h: str) -> IVHFSoftSet:
    universe = tuple(x for x in soft.universe if x != h)
    pairs = {k: v for k, v in soft.pairs.items() if k[1] != h}
    return IVHFSoftSet(universe, soft.parameters, pairs)


def _replace_cell(soft: IVHFSoftSet, key, cell) -> IVHFSoftSet:
    return IVHFSoftSet(soft.universe, soft.parameters, {**soft.pairs, key: cell})


def _shrink_candidates_soft(ops, snap):
    for i, soft in enumerate(ops):
        if len(soft.parameters) > 1:
            for e in soft.parameters:
                kept = [p for p in soft.parameters if p != e]
                yield ops[:i] + (gen.restrict(soft, kept),) + ops[i + 1 :]
    universe = ops[0].universe
    if len(universe) > 1:
        for h in universe:
            yield tuple(_drop_object(o, h) for o in ops)
    for i, soft in enumerate(ops):
        for key in sorted(soft.pairs):
            cell = soft.pairs[key]
            if len(cell) > 1:
                for j in range(len(cell)):
                    smaller = cell[:j] + cell[j + 1 :]
                    yield ops[:i] + (_replace_cell(soft, key, smaller),) + ops[i + 1 :]
    for i, soft in enumerate(ops):
        snapped = {k: snap(v) for k, v in soft.pairs.items()}
        if snapped != soft.pairs:
            yield ops[:i] + (IVHFSoftSet(soft.universe, soft.parameters, snapped),) + ops[i + 1 :]


def _shrink(law: Law, ops, config: CheckConfig) -> tuple[tuple, int]:
    step = config.grid_step
    points = gen.snap_points(step)

    def snap(pairs):
        # snapping is monotone, so every interval stays ordered
        return kernels.sort_element([(points[round(lo / step)], points[round(up / step)]) for lo, up in pairs])

    candidates_of = _shrink_candidates_element if law.level == "element" else _shrink_candidates_soft
    steps = 0
    improved = True
    while improved:
        improved = False
        for cand in candidates_of(ops, snap):
            if not _valid(law, cand) or not _violates(law, cand, TOLERANCE):
                continue
            ops = cand
            steps += 1
            improved = True
            break
    return ops, steps


# --- serialization ---


def _counterexample_json(law: Law, ops) -> dict:
    lhs, rhs = law.build_raw(ops)
    if law.level == "element":
        # report the sides as they were compared: deduplicated for an
        # ``equivalent`` law
        canonical = kernels.dedup_element if law.equality == "equivalent" else kernels.sort_element
        return {
            "operands": [[list(iv) for iv in o.pairs] for o in ops],
            "lhs": [list(iv) for iv in canonical(lhs.pairs)],
            "rhs": [list(iv) for iv in canonical(rhs.pairs)],
        }
    return {
        "operands": [io.encode_soft_set(o) for o in ops],
        "lhs": io.encode_soft_set(lhs),
        "rhs": io.encode_soft_set(rhs),
    }


def _operands_from_json(law: Law, counterexample: dict) -> tuple:
    """The stored operands, validated by io as any input document is."""
    stored = counterexample.get("operands") if isinstance(counterexample, dict) else None
    counts = law.operand_counts
    if not isinstance(stored, list) or len(stored) not in counts:
        raise SchemaError(f"a counterexample of {law.law_id} needs a list of {' or '.join(map(str, counts))} operands")
    ops = []
    for i, op in enumerate(stored, 1):
        try:
            ops.append(IVHFE(io.decode_cell(op, "element")) if law.level == "element" else io.decode_soft_set(op))
        except SchemaError as exc:
            raise SchemaError(f"operand {i}: {exc}") from exc
    return tuple(ops)


def replay(law: Law, counterexample: dict) -> bool:
    """True when the stored counterexample still violates via the public API.

    A malformed counterexample raises ``SchemaError``.
    """
    return _public_violates(law, _operands_from_json(law, counterexample), TOLERANCE)


# --- driving ---


def _grid(law: Law, config: CheckConfig, report: LawReport, allow_partial: bool) -> Iterable:
    """The grid stream, counted against the cap before any of it is built;
    records in ``report`` whether it is exhaustive.  Over the cap it raises
    ``BudgetExceeded``, or is empty when ``allow_partial``."""
    enumeration = _element_enumeration if law.level == "element" else _soft_enumeration
    try:
        grid, report.exhaustive = enumeration(law, config)
    except BudgetExceeded:
        if not allow_partial:
            raise
        return ()
    return grid


def check_law(law: Law, config: CheckConfig | None = None, allow_partial: bool = False) -> LawReport:
    """Classify one law; deterministic given the config."""
    config = config or CheckConfig()
    report = LawReport(law.law_id, "holds", 0, law.equality, law.mode)
    valid = functools.partial(_valid, law)
    # each stage is built only once every tuple before it held; random
    # tuples come validated, or as None for one the exhaustive grid checked
    stages = (
        lambda: filter(valid, gen.seed_instances(law.level, law.arity, law.parameter_mode)),
        lambda: filter(valid, _grid(law, config, report, allow_partial)),
        lambda: _random_stream(law, config, grid_checked=report.exhaustive),
    )
    for stage in stages:
        for ops in stage():
            report.trials_run += 1
            if ops is not None and _violates(law, ops, TOLERANCE):
                shrunk, report.shrink_steps = _shrink(law, ops, config)
                report.status, report.exhaustive = "violated", False
                report.counterexample = _counterexample_json(law, shrunk)
                return report
    return report


def run_suite(config: CheckConfig | None = None) -> list[LawReport]:
    """Check every registered law; a pure function of (registry, config)."""
    config = config or CheckConfig()
    return [check_law(law, config, allow_partial=True) for law in registry()]


def suite_to_json(reports: list[LawReport]) -> list[dict]:
    return [r.to_json() for r in reports]
