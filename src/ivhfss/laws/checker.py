"""Law checking: enumeration, random trials, shrinking, reports.

For each law the search order is: curated seed instances, then the bounded
exhaustive grid stream (where the law's arity allows one), then seeded
random trials.  The first operand tuple that violates the law both in the
registered regime and when replayed through the public API is shrunk to a
locally minimal counterexample and reported; reports are therefore
self-validating by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .. import elements as E
from .. import softsets as S
from .. import _kernels_py as kernels
from ..errors import BudgetExceeded
from ..intervals import UnitInterval
from . import evaluate as ev
from . import generators as gen
from .evaluate import RawSoft
from .registry import Law, registry

ENUMERATION_CAP = 300_000


@dataclass(frozen=True)
class CheckConfig:
    grid_step: float = 0.25
    max_element_size: int = 2
    max_parameters: int = 2
    max_objects: int = 2
    random_trials: int = 10000
    seed: int = 52417
    tolerance: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.grid_step <= 1.0):
            raise ValueError(f"grid_step must be in (0,1], got {self.grid_step}")
        # the last point of generators.grid_intervals; short of 1.0, 1.0 is never checked
        last = round(round(1.0 / self.grid_step) * self.grid_step, 12)
        if last != 1.0:
            raise ValueError(f"grid_step {self.grid_step} does not divide [0,1]: its grid ends at {last}")
        for name in ("max_element_size", "max_parameters", "max_objects", "random_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class LawReport:
    law_id: str
    status: str  # "holds" | "violated"
    trials_run: int
    equality_used: str
    mode: str
    shrink_steps: int = 0
    counterexample: Optional[dict] = None
    exhaustive: bool = False

    def to_json(self) -> dict:
        out = {
            "law_id": self.law_id,
            "status": self.status,
            "trials_run": self.trials_run,
            "equality_used": self.equality_used,
            "mode": self.mode,
            "shrink_steps": self.shrink_steps,
            "exhaustive": self.exhaustive,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# --- raw/public bridging ---


def _raw_compare(law: Law, lhs, rhs, tol: float) -> bool:
    if law.level == "element":
        if law.equality == "strict":
            return ev.elements_strict_equal(lhs, rhs, tol)
        if law.equality == "equivalent":
            return ev.elements_equivalent(lhs, rhs, tol)
        return ev.element_leq(lhs, rhs, tol)
    if law.equality == "strict":
        return ev.soft_strict_equal(lhs, rhs, tol)
    if law.equality == "equivalent":
        return ev.soft_equivalent(lhs, rhs, tol)
    return ev.soft_subset(lhs, rhs, tol)


def _to_public_element(raw) -> E.IVHFE:
    return E.canonicalize([UnitInterval(lo, up) for lo, up in raw])


def _to_public_soft(raw: RawSoft) -> S.IVHFSoftSet:
    values = {
        e: {h: _to_public_element(raw.cell(e, h)) for h in raw.universe}
        for e in raw.params
    }
    return S.make_soft_set(raw.universe, raw.params, values)


def _public_violates(law: Law, ops, tol: float) -> bool:
    if law.level == "element":
        pops = tuple(_to_public_element(o) for o in ops)
        lhs, rhs = law.build_public(pops)
        if law.equality == "strict":
            return not E.strict_equal(lhs, rhs, tol)
        return not E.equivalent(lhs, rhs, tol)
    pops = tuple(_to_public_soft(o) for o in ops)
    lhs, rhs = law.build_public(pops)
    if law.equality == "strict":
        return not S.soft_strict_equal(lhs, rhs, tol)
    if law.equality == "equivalent":
        return not S.soft_equivalent(lhs, rhs, tol)
    return not S.is_subset(lhs, rhs, tol=tol)


def _valid(law: Law, ops) -> bool:
    if law.level == "soft":
        if any(not o.params for o in ops):
            return False
        if law.parameter_mode == "shared":
            first = set(ops[0].params)
            if any(set(o.params) != first for o in ops[1:]):
                return False
    return law.constraint(ops)


def _violates(law: Law, ops, tol: float) -> bool:
    lhs, rhs = law.build_raw(ops)
    return not _raw_compare(law, lhs, rhs, tol)


# --- operand streams ---


def _element_enumeration(law: Law, config: CheckConfig) -> tuple[Iterable, bool]:
    elems = gen.grid_elements(config.grid_step, config.max_element_size)
    singles = [e for e in elems if len(e) == 1]
    if law.arity == 2:
        total = len(elems) ** 2
        if total > ENUMERATION_CAP:
            raise BudgetExceeded(f"{law.law_id}: {total} pairs exceeds cap {ENUMERATION_CAP}")
        return itertools.product(elems, elems), True
    total = len(singles) ** 2 * len(elems)
    if total > ENUMERATION_CAP:
        raise BudgetExceeded(f"{law.law_id}: {total} triples exceeds cap {ENUMERATION_CAP}")
    return itertools.product(singles, singles, elems), False


def _soft_enumeration(law: Law, config: CheckConfig) -> tuple[Iterable, bool]:
    if law.arity > 2:
        return (), False
    elems = gen.grid_elements(config.grid_step, config.max_element_size)
    universe = ("h1",)

    def wrap(elem):
        return RawSoft(("e1",), universe, {("e1", "h1"): elem})

    if law.arity == 1:
        return ((wrap(e),) for e in elems), False
    total = len(elems) ** 2
    if total > ENUMERATION_CAP:
        raise BudgetExceeded(f"{law.law_id}: {total} pairs exceeds cap {ENUMERATION_CAP}")
    return ((wrap(a), wrap(b)) for a, b in itertools.product(elems, elems)), False


def _random_stream(law: Law, config: CheckConfig) -> Iterator:
    rng = gen.rng_for(config.seed, law.law_id)
    produced = 0
    while produced < config.random_trials:
        snap = rng.random() < 0.5
        if law.level == "element":
            ops = tuple(
                gen.random_element(rng, config.grid_step, config.max_element_size, snap)
                for _ in range(law.arity)
            )
            produced += 1
            yield ops
            continue
        count = rng.randint(1, 3) if law.law_id.startswith(("P3.16", "P3.17")) else law.arity
        universe = tuple(f"h{i + 1}" for i in range(rng.randint(1, config.max_objects)))
        ops = None
        for _ in range(50):
            param_sets = gen.random_param_sets(
                rng, count, config.max_parameters, law.parameter_mode == "shared"
            )
            candidate = tuple(
                gen.random_soft(rng, ps, universe, config.grid_step, config.max_element_size, snap)
                for ps in param_sets
            )
            if _valid(law, candidate):
                ops = candidate
                break
        if ops is None:
            produced += 1
            continue
        produced += 1
        yield ops


# --- shrinking ---


def _snap_value(x: float, step: float) -> float:
    snapped = round(round(x / step) * step, 12)
    return min(1.0, max(0.0, snapped))


def _snap_element(elem, step):
    out = []
    for lo, up in elem:
        a, b = _snap_value(lo, step), _snap_value(up, step)
        if a > b:
            a, b = b, a
        out.append((a, b))
    return kernels.sort_element(out)


def _shrink_candidates_element(ops, step):
    for i, elem in enumerate(ops):
        if len(elem) > 1:
            for j in range(len(elem)):
                smaller = elem[:j] + elem[j + 1 :]
                yield ops[:i] + (kernels.sort_element(smaller),) + ops[i + 1 :]
    for i, elem in enumerate(ops):
        snapped = _snap_element(elem, step)
        if snapped != elem:
            yield ops[:i] + (snapped,) + ops[i + 1 :]


def _drop_param(soft: RawSoft, e: str) -> RawSoft:
    params = tuple(p for p in soft.params if p != e)
    cells = {k: v for k, v in soft.cells.items() if k[0] != e}
    return RawSoft(params, soft.universe, cells)


def _drop_object(soft: RawSoft, h: str) -> RawSoft:
    universe = tuple(x for x in soft.universe if x != h)
    cells = {k: v for k, v in soft.cells.items() if k[1] != h}
    return RawSoft(soft.params, universe, cells)


def _replace_cell(soft: RawSoft, key, elem) -> RawSoft:
    cells = dict(soft.cells)
    cells[key] = elem
    return RawSoft(soft.params, soft.universe, cells)


def _shrink_candidates_soft(ops, step):
    for i, soft in enumerate(ops):
        if len(soft.params) > 1:
            for e in soft.params:
                yield ops[:i] + (_drop_param(soft, e),) + ops[i + 1 :]
    universe = ops[0].universe
    if len(universe) > 1:
        for h in universe:
            yield tuple(_drop_object(o, h) for o in ops)
    for i, soft in enumerate(ops):
        for key in sorted(soft.cells):
            elem = soft.cells[key]
            if len(elem) > 1:
                for j in range(len(elem)):
                    smaller = kernels.sort_element(elem[:j] + elem[j + 1 :])
                    yield ops[:i] + (_replace_cell(soft, key, smaller),) + ops[i + 1 :]
    for i, soft in enumerate(ops):
        snapped_cells = {k: _snap_element(v, step) for k, v in soft.cells.items()}
        if snapped_cells != soft.cells:
            yield ops[:i] + (RawSoft(soft.params, soft.universe, snapped_cells),) + ops[i + 1 :]


def _shrink(law: Law, ops, config: CheckConfig) -> tuple[tuple, int]:
    steps = 0
    improved = True
    while improved:
        improved = False
        candidates = (
            _shrink_candidates_element(ops, config.grid_step)
            if law.level == "element"
            else _shrink_candidates_soft(ops, config.grid_step)
        )
        for cand in candidates:
            if not _valid(law, cand):
                continue
            if not _violates(law, cand, config.tolerance):
                continue
            if not _public_violates(law, cand, config.tolerance):
                continue
            ops = cand
            steps += 1
            improved = True
            break
    return ops, steps


# --- serialization ---


def _element_json(elem) -> list:
    return [[lo, up] for lo, up in elem]


def _soft_json(soft: RawSoft) -> dict:
    return {
        "universe": list(soft.universe),
        "parameters": list(soft.params),
        "values": {
            e: {h: _element_json(soft.cell(e, h)) for h in soft.universe}
            for e in soft.params
        },
    }


def _counterexample_json(law: Law, ops) -> dict:
    lhs, rhs = law.build_raw(ops)
    if law.level == "element":
        # report the sides as they were compared: deduplicated for an
        # ``equivalent`` law (a synchronized side is a per-pair list)
        canonical = kernels.dedup_element if law.equality == "equivalent" else kernels.sort_element
        return {
            "operands": [_element_json(o) for o in ops],
            "lhs": _element_json(canonical(lhs)),
            "rhs": _element_json(canonical(rhs)),
        }
    return {
        "operands": [_soft_json(o) for o in ops],
        "lhs": _soft_json(lhs),
        "rhs": _soft_json(rhs),
    }


def _operands_from_json(law: Law, counterexample: dict):
    if law.level == "element":
        return tuple(
            tuple((float(lo), float(up)) for lo, up in op)
            for op in counterexample["operands"]
        )
    out = []
    for doc in counterexample["operands"]:
        params = tuple(doc["parameters"])
        universe = tuple(doc["universe"])
        cells = {
            (e, h): tuple((float(lo), float(up)) for lo, up in doc["values"][e][h])
            for e in params
            for h in universe
        }
        out.append(RawSoft(params, universe, cells))
    return tuple(out)


def replay(law: Law, counterexample: dict, tolerance: float = 1e-12) -> bool:
    """True when the stored counterexample still violates via the public API."""
    ops = _operands_from_json(law, counterexample)
    return _public_violates(law, ops, tolerance)


# --- driving ---


def check_law(law: Law, config: CheckConfig | None = None, allow_partial: bool = False) -> LawReport:
    """Classify one law; deterministic given the config."""
    config = config or CheckConfig()
    trials = 0
    exhaustive = False

    def streams():
        nonlocal exhaustive
        yield from gen.seed_instances(law.level, law.arity, law.parameter_mode)
        try:
            enum_stream, exhaustive_flag = (
                _element_enumeration(law, config)
                if law.level == "element"
                else _soft_enumeration(law, config)
            )
        except BudgetExceeded:
            if not allow_partial:
                raise
            enum_stream, exhaustive_flag = (), False
        exhaustive = exhaustive_flag
        yield from enum_stream
        yield from _random_stream(law, config)

    for ops in streams():
        if not _valid(law, ops):
            continue
        trials += 1
        if _violates(law, ops, config.tolerance):
            if not _public_violates(law, ops, config.tolerance):
                # regime-only mismatch; not reportable as a public counterexample
                continue
            shrunk, steps = _shrink(law, ops, config)
            return LawReport(
                law_id=law.law_id,
                status="violated",
                trials_run=trials,
                equality_used=law.equality,
                mode=law.mode,
                shrink_steps=steps,
                counterexample=_counterexample_json(law, shrunk),
            )
    return LawReport(
        law_id=law.law_id,
        status="holds",
        trials_run=trials,
        equality_used=law.equality,
        mode=law.mode,
        exhaustive=exhaustive,
    )


def run_suite(config: CheckConfig | None = None) -> list[LawReport]:
    """Check every registered law; a pure function of (registry, config)."""
    config = config or CheckConfig()
    return [check_law(law, config, allow_partial=True) for law in registry()]


def suite_to_json(reports: list[LawReport]) -> list[dict]:
    return [r.to_json() for r in reports]
