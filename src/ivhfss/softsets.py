"""Parameterized families of hesitant sets over a fixed universe.

An ``IVHFSoftSet`` assigns an element to every (parameter, object) cell.
Union follows the three-case rule over the united parameter set (copy where
only one side knows the parameter, combine where both do); intersection
restricts to the shared parameters.  Family versions fold the binary
operations.  Objects are ranked by their mean score across parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import _kernels_py as kernels
from .elements import (
    DEFAULT_TOLERANCE,
    EMPTY_MEMBERSHIP,
    FULL_MEMBERSHIP,
    AlignmentPolicy,
    CombineMode,
    IVHFE,
    pairs_combine,
    pairs_equivalent,
    pairs_strict_equal,
)
from .errors import (
    EmptyFamily,
    EmptyParameterIntersection,
    EmptyUniverse,
    ParameterMismatch,
    UniverseMismatch,
)
from .intervals import OPERATOR_KINDS, UnitInterval, Verdict, rank_compare, rank_key

Pairs = tuple  # an element's (lower, upper) pairs, as IVHFE.pairs holds them


@dataclass(slots=True)
class IVHFSoftSet:
    """Universe, parameter list, and the (parameter, object) -> cell table.

    Each cell is stored as its element's (lower, upper) pairs; ``cell`` builds
    the IVHFE view of one.  No operation modifies a soft set it is given.  The
    constructor trusts its names and cells, as every operation result is built
    with it; ``make_soft_set`` and, for documents, ``ivhfss.io`` are the
    validating paths for outside data.
    """

    universe: tuple[str, ...]
    parameters: tuple[str, ...]
    pairs: dict[tuple[str, str], Pairs]

    def cell(self, parameter: str, obj: str) -> IVHFE:
        return IVHFE(self.pairs[(parameter, obj)])


def _check_names(universe: tuple[str, ...], parameters: tuple[str, ...]) -> None:
    if not universe:
        raise EmptyUniverse("universe must be nonempty")
    if not parameters:
        raise ParameterMismatch("parameters must be nonempty")
    if len(set(universe)) != len(universe):
        raise UniverseMismatch(f"duplicate object names in {universe}")
    if len(set(parameters)) != len(parameters):
        raise ParameterMismatch(f"duplicate parameter names in {parameters}")


def make_soft_set(
    universe: Sequence[str],
    parameters: Sequence[str],
    values: Mapping[str, Mapping[str, IVHFE]],
) -> IVHFSoftSet:
    """Validating constructor: unique names, full coverage, canonical cells."""
    universe = tuple(universe)
    parameters = tuple(parameters)
    _check_names(universe, parameters)
    if set(values) != set(parameters):
        raise ParameterMismatch(
            f"table keys {sorted(values)} do not match parameters {sorted(parameters)}"
        )
    pairs = {}
    for e in parameters:
        row = values[e]
        if set(row) != set(universe):
            raise UniverseMismatch(
                f"parameter {e!r} covers {sorted(row)}, expected {sorted(universe)}"
            )
        for h in universe:
            pairs[(e, h)] = row[h].pairs
    return IVHFSoftSet(universe, parameters, pairs)


def _require_same_universe(f: IVHFSoftSet, g: IVHFSoftSet) -> tuple[str, ...]:
    if f.universe != g.universe and set(f.universe) != set(g.universe):
        raise UniverseMismatch(
            f"universes differ: {sorted(f.universe)} vs {sorted(g.universe)}"
        )
    return f.universe


def _shared_parameters(f: IVHFSoftSet, g: IVHFSoftSet) -> tuple[str, ...]:
    gset = set(g.parameters)
    shared = tuple(e for e in f.parameters if e in gset)
    if not shared:
        raise EmptyParameterIntersection(
            f"no shared parameters between {f.parameters} and {g.parameters}"
        )
    return shared


def union_rule(
    f: IVHFSoftSet, g: IVHFSoftSet, combine: Callable[[Pairs, Pairs], Pairs]
) -> IVHFSoftSet:
    """The union over the united parameters, with ``combine`` on shared cells."""
    universe = _require_same_universe(f, g)
    fset, gset = set(f.parameters), set(g.parameters)
    parameters = f.parameters + tuple(e for e in g.parameters if e not in fset)
    fpairs, gpairs = f.pairs, g.pairs
    pairs = {}
    for e in parameters:
        if e in fset and e in gset:
            for h in universe:
                key = (e, h)
                pairs[key] = combine(fpairs[key], gpairs[key])
        else:
            owner = fpairs if e in fset else gpairs
            for h in universe:
                key = (e, h)
                pairs[key] = owner[key]
    return IVHFSoftSet(universe, parameters, pairs)


def intersection_rule(
    f: IVHFSoftSet, g: IVHFSoftSet, combine: Callable[[Pairs, Pairs], Pairs]
) -> IVHFSoftSet:
    """The intersection over the shared parameters, cells by ``combine``."""
    universe = _require_same_universe(f, g)
    shared = _shared_parameters(f, g)
    fpairs, gpairs = f.pairs, g.pairs
    pairs = {}
    for e in shared:
        for h in universe:
            key = (e, h)
            pairs[key] = combine(fpairs[key], gpairs[key])
    return IVHFSoftSet(universe, shared, pairs)


def soft_union(
    f: IVHFSoftSet,
    g: IVHFSoftSet,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
    mode: CombineMode = CombineMode.ALIGNED,
) -> IVHFSoftSet:
    """Parameters unite; sole-owner parameters copy, shared ones combine."""
    return union_rule(f, g, pairs_combine(True, mode, policy))


def soft_intersection(
    f: IVHFSoftSet,
    g: IVHFSoftSet,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
    mode: CombineMode = CombineMode.ALIGNED,
) -> IVHFSoftSet:
    """Restrict to shared parameters and combine cellwise."""
    return intersection_rule(f, g, pairs_combine(False, mode, policy))


def soft_complement(f: IVHFSoftSet) -> IVHFSoftSet:
    pairs = {key: kernels.complement_element(cell) for key, cell in f.pairs.items()}
    return IVHFSoftSet(f.universe, f.parameters, pairs)


def _constant_soft_set(
    parameters: Sequence[str], universe: Sequence[str], cell: Pairs
) -> IVHFSoftSet:
    parameters, universe = tuple(parameters), tuple(universe)
    _check_names(universe, parameters)
    return IVHFSoftSet(universe, parameters, {(e, h): cell for e in parameters for h in universe})


def empty_of(parameters: Sequence[str], universe: Sequence[str]) -> IVHFSoftSet:
    """Every cell is {[0,0]}."""
    return _constant_soft_set(parameters, universe, EMPTY_MEMBERSHIP)


def full_of(parameters: Sequence[str], universe: Sequence[str]) -> IVHFSoftSet:
    """Every cell is {[1,1]}."""
    return _constant_soft_set(parameters, universe, FULL_MEMBERSHIP)


def is_subset(
    f: IVHFSoftSet,
    g: IVHFSoftSet,
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Parameter containment plus k-th-wise componentwise <= after alignment."""
    _require_same_universe(f, g)
    if not set(f.parameters) <= set(g.parameters):
        return False
    optimistic = policy is AlignmentPolicy.OPTIMISTIC
    for e in f.parameters:
        for h in f.universe:
            a, b = f.pairs[(e, h)], g.pairs[(e, h)]
            size = max(len(a), len(b))
            a = kernels.extend_element(a, size, optimistic)
            b = kernels.extend_element(b, size, optimistic)
            for x, y in zip(a, b):
                if x[0] > y[0] + tol or x[1] > y[1] + tol:
                    return False
    return True


def _cellwise_same_parameters(
    f: IVHFSoftSet, g: IVHFSoftSet, op: Callable[[Pairs, Pairs], Pairs]
) -> IVHFSoftSet:
    universe = _require_same_universe(f, g)
    if set(f.parameters) != set(g.parameters):
        raise ParameterMismatch(
            f"parameter sets differ: {sorted(f.parameters)} vs {sorted(g.parameters)}"
        )
    pairs = {(e, h): op(f.pairs[(e, h)], g.pairs[(e, h)]) for e in f.parameters for h in universe}
    return IVHFSoftSet(universe, f.parameters, pairs)


def soft_ring_sum(f: IVHFSoftSet, g: IVHFSoftSet) -> IVHFSoftSet:
    return _cellwise_same_parameters(f, g, kernels.ring_sum_element)


def soft_ring_product(f: IVHFSoftSet, g: IVHFSoftSet) -> IVHFSoftSet:
    return _cellwise_same_parameters(f, g, kernels.ring_product_element)


def soft_apply_operator(kind: str, f: IVHFSoftSet, g: IVHFSoftSet) -> IVHFSoftSet:
    """O1..O4 cellwise on the shared parameters."""
    if kind not in OPERATOR_KINDS:
        raise KeyError(f"unknown operator kind {kind!r}")
    return intersection_rule(f, g, lambda a, b: kernels.operator_element(kind, a, b))


def common_parameters(members: Sequence[IVHFSoftSet]) -> set[str]:
    """The parameters every member of a nonempty family has."""
    shared = set(members[0].parameters)
    for m in members[1:]:
        shared.intersection_update(m.parameters)
    return shared


def family_union(
    members: Iterable[IVHFSoftSet],
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
    mode: CombineMode = CombineMode.ALIGNED,
) -> IVHFSoftSet:
    """Left fold of soft_union; absent parameters are skipped, not padded."""
    members = list(members)
    if not members:
        raise EmptyFamily("family union needs at least one member")
    acc = members[0]
    for m in members[1:]:
        acc = soft_union(acc, m, policy, mode)
    return acc


def family_intersection(
    members: Iterable[IVHFSoftSet],
    policy: AlignmentPolicy = AlignmentPolicy.OPTIMISTIC,
    mode: CombineMode = CombineMode.ALIGNED,
) -> IVHFSoftSet:
    """Left fold of soft_intersection over the shared parameter core."""
    members = list(members)
    if not members:
        raise EmptyFamily("family intersection needs at least one member")
    if not common_parameters(members):
        raise EmptyParameterIntersection("family has no common parameter")
    acc = members[0]
    for m in members[1:]:
        acc = soft_intersection(acc, m, policy, mode)
    return acc


def _same_names(f: IVHFSoftSet, g: IVHFSoftSet) -> bool:
    return (f.parameters == g.parameters or set(f.parameters) == set(g.parameters)) and (
        f.universe == g.universe or set(f.universe) == set(g.universe)
    )


def _cellwise_equal(
    f: IVHFSoftSet, g: IVHFSoftSet, tol: float, cell_equal: Callable[[Pairs, Pairs, float], bool]
) -> bool:
    """Same names and ``cell_equal`` on every cell; equal tables pass in one
    dict comparison, for the reason ``pairs_strict_equal`` gives per cell."""
    if not _same_names(f, g):
        return False
    if tol >= 0 and f.pairs == g.pairs:
        return True
    gpairs = g.pairs
    return all(cell_equal(cell, gpairs[key], tol) for key, cell in f.pairs.items())


def soft_strict_equal(
    f: IVHFSoftSet, g: IVHFSoftSet, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Same parameters and cellwise strict multiset equality."""
    return _cellwise_equal(f, g, tol, pairs_strict_equal)


def soft_equivalent(
    f: IVHFSoftSet, g: IVHFSoftSet, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Same parameters and cellwise dedup equivalence."""
    return _cellwise_equal(f, g, tol, pairs_equivalent)


# --- ranking ---


def score_table(soft_set: IVHFSoftSet) -> dict:
    """The score interval of every cell, as [lower, upper], by parameter and object."""
    return {
        e: {h: list(kernels.score_element(soft_set.pairs[(e, h)])) for h in soft_set.universe}
        for e in soft_set.parameters
    }


def mean_scores(soft_set: IVHFSoftSet) -> dict[str, UnitInterval]:
    """Mean of the per-parameter score intervals, per object, rounded once."""
    out = {}
    for h in soft_set.universe:
        cells = [soft_set.pairs[(e, h)] for e in soft_set.parameters]
        out[h] = UnitInterval(
            kernels.exact_mean([[l for l, _ in c] for c in cells]),
            kernels.exact_mean([[u for _, u in c] for c in cells]),
        )
    return out


def rank_objects(soft_set: IVHFSoftSet) -> list[dict]:
    """Best-first groups of objects; a group holds rank ties."""
    means = mean_scores(soft_set)
    ordered = sorted(soft_set.universe, key=lambda h: rank_key(means[h]), reverse=True)
    groups: list[dict] = []
    for h in ordered:
        if groups:
            prev = groups[-1]["objects"][0]
            if rank_compare(means[h], means[prev]).verdict is Verdict.EQUAL:
                groups[-1]["objects"].append(h)
                continue
        groups.append({"rank": len(groups) + 1, "objects": [h]})
    for g in groups:
        g["mean_score"] = [means[g["objects"][0]].lower, means[g["objects"][0]].upper]
    return groups
