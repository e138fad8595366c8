"""Raw-value evaluation layer for law checking.

Law checking runs millions of small operations, so this layer works on plain
tuples (elements are tuples of (lower, upper) pairs, soft sets are a small
dataclass of dicts) and calls the same kernels the public API wraps.  The
public object API is used only to confirm and replay counterexamples.

A law's body is written once against an algebra; the algebras here evaluate
it in one of four regimes:

* ``aligned`` / ``pairwise`` mirror the public combine modes exactly.
* ``sequence`` evaluates a whole expression with one alignment pass and no
  re-sorting between steps, the way chained decision tables are computed in
  practice; re-canonicalizing between steps scrambles index pairing and
  makes associativity/distributivity fail spuriously.
* ``synchronized`` pairs both sides of the difference-operator identities
  over the single (gamma1, gamma2) index set they quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import _kernels_py as kernels

Element = tuple  # tuple of (lower, upper) pairs


@dataclass
class RawSoft:
    """Lean soft set: parameter tuple, universe tuple, (param, obj) -> element."""

    params: tuple[str, ...]
    universe: tuple[str, ...]
    cells: dict[tuple[str, str], Element]

    def cell(self, e: str, h: str) -> Element:
        return self.cells[(e, h)]


# --- element and soft-set comparisons (tolerance-aware) ---


def elements_strict_equal(a: Element, b: Element, tol: float) -> bool:
    if len(a) != len(b):
        return False
    sa = kernels.sort_element(a)
    sb = kernels.sort_element(b)
    return all(
        abs(x[0] - y[0]) <= tol and abs(x[1] - y[1]) <= tol for x, y in zip(sa, sb)
    )


def elements_equivalent(a: Element, b: Element, tol: float) -> bool:
    da = kernels.dedup_element(a)
    db = kernels.dedup_element(b)
    if len(da) != len(db):
        return False
    return all(
        abs(x[0] - y[0]) <= tol and abs(x[1] - y[1]) <= tol for x, y in zip(da, db)
    )


def element_leq(a: Element, b: Element, tol: float) -> bool:
    """k-th-wise componentwise <= after optimistic alignment."""
    n = max(len(a), len(b))
    ea = kernels.extend_element(kernels.sort_element(a), n, True)
    eb = kernels.extend_element(kernels.sort_element(b), n, True)
    return all(
        x[0] <= y[0] + tol and x[1] <= y[1] + tol for x, y in zip(ea, eb)
    )


def soft_strict_equal(f: RawSoft, g: RawSoft, tol: float) -> bool:
    if set(f.params) != set(g.params):
        return False
    return all(
        elements_strict_equal(f.cell(e, h), g.cell(e, h), tol)
        for e in f.params
        for h in f.universe
    )


def soft_equivalent(f: RawSoft, g: RawSoft, tol: float) -> bool:
    if set(f.params) != set(g.params):
        return False
    return all(
        elements_equivalent(f.cell(e, h), g.cell(e, h), tol)
        for e in f.params
        for h in f.universe
    )


def soft_subset(f: RawSoft, g: RawSoft, tol: float) -> bool:
    if not set(f.params) <= set(g.params):
        return False
    return all(
        element_leq(f.cell(e, h), g.cell(e, h), tol)
        for e in f.params
        for h in f.universe
    )


# --- algebras: the operations a law's body is written against, per regime ---


class SoftSets:
    """Soft-set operations on ``RawSoft`` in the ``aligned``, ``pairwise`` or
    ``sequence`` regime, numerically identical to the public ones."""

    def __init__(self, mode: str):
        self.mode = mode

    def _combine(self, union: bool, a: Element, b: Element) -> Element:
        if self.mode == "aligned":
            return kernels.combine_aligned(union, a, b, True)
        if self.mode == "pairwise":
            return kernels.combine_pairwise(union, a, b)
        # sequence: positional, padded, not re-sorted
        return kernels.zip_combine(union, a, b, True)

    def union(self, f: RawSoft, g: RawSoft) -> RawSoft:
        fset, gset = set(f.params), set(g.params)
        params = f.params + tuple(e for e in g.params if e not in fset)
        cells = {}
        for e in params:
            for h in f.universe:
                if e in fset and e in gset:
                    cells[(e, h)] = self._combine(True, f.cell(e, h), g.cell(e, h))
                elif e in fset:
                    cells[(e, h)] = f.cell(e, h)
                else:
                    cells[(e, h)] = g.cell(e, h)
        return RawSoft(params, f.universe, cells)

    def intersection(self, f: RawSoft, g: RawSoft) -> RawSoft:
        gset = set(g.params)
        params = tuple(e for e in f.params if e in gset)
        if not params:
            raise ValueError("empty parameter intersection")
        cells = {
            (e, h): self._combine(False, f.cell(e, h), g.cell(e, h))
            for e in params
            for h in f.universe
        }
        return RawSoft(params, f.universe, cells)

    def complement(self, f: RawSoft) -> RawSoft:
        return RawSoft(
            f.params,
            f.universe,
            {k: kernels.complement_element(v) for k, v in f.cells.items()},
        )

    def empty(self, f: RawSoft) -> RawSoft:
        return _constant_like(f, (0.0, 0.0))

    def full(self, f: RawSoft) -> RawSoft:
        return _constant_like(f, (1.0, 1.0))

    def family_union(self, members) -> RawSoft:
        acc = members[0]
        for m in members[1:]:
            acc = self.union(acc, m)
        return acc

    def family_intersection(self, members) -> RawSoft:
        acc = members[0]
        for m in members[1:]:
            acc = self.intersection(acc, m)
        return acc


def _constant_like(f: RawSoft, value: tuple[float, float]) -> RawSoft:
    cells = {(e, h): (value,) for e in f.params for h in f.universe}
    return RawSoft(f.params, f.universe, cells)


class PairwiseElements:
    """All-pairs element operations; every result is deduplicated and sorted."""

    def union(self, a: Element, b: Element) -> Element:
        return kernels.combine_pairwise(True, a, b)

    def intersection(self, a: Element, b: Element) -> Element:
        return kernels.combine_pairwise(False, a, b)

    def complement(self, a: Element) -> Element:
        return kernels.complement_element(a)

    def operator(self, kind: str, a: Element, b: Element) -> Element:
        return kernels.operator_element(kind, a, b)


class SynchronizedElements:
    """Ring and O results stay per-pair lists over gamma1 x gamma2, in one
    fixed pair order; join and meet combine two such lists pair by pair and
    then deduplicate.  A per-pair list is deduplicated only when it is
    compared or reported."""

    def union(self, a: Element, b: Element) -> Element:
        return kernels.dedup_element(
            [kernels.join_kernel(s[0], s[1], o[0], o[1]) for s, o in zip(a, b)]
        )

    def intersection(self, a: Element, b: Element) -> Element:
        return kernels.dedup_element(
            [kernels.meet_kernel(s[0], s[1], o[0], o[1]) for s, o in zip(a, b)]
        )

    def ring_sum(self, a: Element, b: Element) -> Element:
        return tuple([kernels.ring_sum_kernel(x[0], x[1], y[0], y[1]) for x in a for y in b])

    def ring_product(self, a: Element, b: Element) -> Element:
        return tuple([kernels.ring_product_kernel(x[0], x[1], y[0], y[1]) for x in a for y in b])

    def operator(self, kind: str, a: Element, b: Element) -> Element:
        return tuple([kernels.operator_kernel(kind, x[0], x[1], y[0], y[1]) for x in a for y in b])
