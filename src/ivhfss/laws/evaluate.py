"""The two evaluation regimes the public API does not offer.

Laws are checked through the public ``elements`` and ``softsets`` API,
except where a law's claim is about a reading the public operations do not
implement.  The two such regimes live here, private to the law checker:

* ``sequence`` evaluates a whole expression with one alignment pass and no
  re-sorting between steps, the way chained decision tables are computed in
  practice; re-canonicalizing between steps scrambles index pairing and
  makes associativity/distributivity fail spuriously.  It is ``softsets``'
  union and intersection rule with ``zip_combine`` as the cell combine, so
  its cells are left unsorted; the soft-set comparisons sort them.
* ``synchronized`` pairs both sides of the difference-operator identities
  over the single (gamma1, gamma2) index set they quantify over.  Its
  results are ``IVHFE``s that hold the per-pair list as it is, unsorted and
  not deduplicated, as ``sequence`` cells are unsorted; the element
  comparisons sort and deduplicate both sides.
"""

from __future__ import annotations

from .. import _kernels_py as kernels
from .. import softsets as S
from ..elements import IVHFE


class SequenceSoftSets:
    """Union and intersection in the ``sequence`` regime: positional, padded,
    not re-sorted."""

    def union(self, f, g):
        return S.union_rule(f, g, lambda a, b: kernels.zip_combine(True, a, b, True))

    def intersection(self, f, g):
        return S.intersection_rule(f, g, lambda a, b: kernels.zip_combine(False, a, b, True))


class SynchronizedElements:
    """Ring and O results keep the per-pair list over gamma1 x gamma2, in one
    fixed pair order; join and meet combine two such lists pair by pair and
    then deduplicate."""

    def union(self, a: IVHFE, b: IVHFE):
        return IVHFE(kernels.dedup_element(kernels.zip_combine(True, a.pairs, b.pairs, True)))

    def intersection(self, a: IVHFE, b: IVHFE):
        return IVHFE(kernels.dedup_element(kernels.zip_combine(False, a.pairs, b.pairs, True)))

    def ring_sum(self, a: IVHFE, b: IVHFE):
        return IVHFE(kernels.ring_sum_pairs(a.pairs, b.pairs))

    def ring_product(self, a: IVHFE, b: IVHFE):
        return IVHFE(kernels.ring_product_pairs(a.pairs, b.pairs))

    def operator(self, kind: str, a: IVHFE, b: IVHFE):
        return IVHFE(kernels.operator_pairs(kind, a.pairs, b.pairs))
