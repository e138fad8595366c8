"""The registry of checkable identities.

Every sub-item of every claimed identity gets one ``Law``.  A law pins the
evaluation regime under which its claim is checked:

* ``pairwise`` — the set-builder reading; used for the complement/De Morgan
  family, which is exact for the all-pairs operations, and for the
  distribution claims of the difference operators.
* ``aligned`` — the padded index-wise reading of the worked examples; used
  for idempotence/identity laws, commutativity, and the mixed-parameter
  distributivity claims (the ones refuted by instance).
* ``sequence`` — one alignment pass, no re-sorting between steps; used for
  associativity and shared-parameter distributivity, which chain several
  combines the way the worked tables are computed.
* ``synchronized`` — both sides indexed by the same (gamma1, gamma2) pair
  set; used for the ring-vs-operator absorption claims, whose content is a
  pair-by-pair comparison of the two unions.

Each law's composition is written once, as a body ``body(A, *operands)``
over an algebra ``A`` (``union``, ``intersection``, ``complement``, the
``empty``/``full`` constants, the family folds, ``ring_sum``/``ring_product``
and ``operator``).  There is one algebra, the public API, bound to one combine
mode; ``aligned`` and ``pairwise`` laws are evaluated by it alone.  The
``sequence`` and ``synchronized`` regimes, which the public API does not
offer, are private to the checker (:mod:`.evaluate`).  ``_law`` binds the
body twice: ``build_raw`` evaluates it in the pinned regime; ``build_public``
evaluates it through the public API in its literal mode (``ALIGNED`` for the
``aligned`` and ``sequence`` regimes, ``PAIRWISE`` for the others), and is
what reported counterexamples are validated against.  For ``aligned`` and
``pairwise`` laws the two are the same evaluation.

A ``Law`` is all the checker knows of a law, down to whether its regime is
private and how many operands it takes (1 to 3 for P3.16 and P3.17).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .. import elements as E
from .. import softsets as S
from ..elements import CombineMode
from . import evaluate as ev

ALIGNED = CombineMode.ALIGNED
PAIRWISE = CombineMode.PAIRWISE


def _anything(ops) -> bool:
    return True


@dataclass(frozen=True)
class Law:
    law_id: str
    level: str  # "element" | "soft"
    parameter_mode: str  # "shared" | "mixed"
    equality: str  # "strict" | "equivalent" | "subset"
    mode: str  # "aligned" | "pairwise" | "sequence" | "synchronized"
    arity: int
    build_raw: Callable  # operands -> (lhs, rhs) in the pinned regime
    build_public: Callable  # operands -> (lhs, rhs) through the public API
    private_regime: bool  # the pinned regime is one the public API does not offer
    operand_counts: tuple[int, ...]  # the operand counts searched and replayed
    constraint: Callable = _anything


# ---------------------------------------------------------------------------
# the public API as an algebra, in one literal combine mode
# ---------------------------------------------------------------------------


class _PublicElements:
    def __init__(self, mode: CombineMode):
        self.mode = mode

    def union(self, a, b):
        return E.combine("union", a, b, self.mode)

    def intersection(self, a, b):
        return E.combine("intersection", a, b, self.mode)

    def complement(self, a):
        return E.complement(a)

    def ring_sum(self, a, b):
        return E.ring_sum(a, b)

    def ring_product(self, a, b):
        return E.ring_product(a, b)

    def operator(self, kind, a, b):
        return E.apply_operator(kind, a, b)


class _PublicSoftSets:
    def __init__(self, mode: CombineMode):
        self.mode = mode

    def union(self, f, g):
        return S.soft_union(f, g, mode=self.mode)

    def intersection(self, f, g):
        return S.soft_intersection(f, g, mode=self.mode)

    def complement(self, f):
        return S.soft_complement(f)

    def empty(self, f):
        return S.empty_of(f.parameters, f.universe)

    def full(self, f):
        return S.full_of(f.parameters, f.universe)

    def family_union(self, members):
        return S.family_union(members, mode=self.mode)

    def family_intersection(self, members):
        return S.family_intersection(members, mode=self.mode)


def _algebras(level: str, mode: str):
    """(algebra of the regime ``mode``, public algebra in its literal mode)."""
    literal = ALIGNED if mode in ("aligned", "sequence") else PAIRWISE
    public = _PublicSoftSets(literal) if level == "soft" else _PublicElements(literal)
    if mode == "sequence":
        return ev.SequenceSoftSets(), public
    if mode == "synchronized":
        return ev.SynchronizedElements(), public
    return public, public


def _law(
    law_id: str,
    level: str,
    parameter_mode: str,
    equality: str,
    mode: str,
    arity: int,
    body: Callable,
    constraint: Callable = _anything,
    operand_counts: tuple[int, ...] | None = None,
) -> Law:
    """The one factory: bind ``body`` to the regime's and the public algebra."""
    regime, public = _algebras(level, mode)
    return Law(
        law_id,
        level,
        parameter_mode,
        equality,
        mode,
        arity,
        lambda ops: body(regime, *ops),
        lambda ops: body(public, *ops),
        regime is not public,
        operand_counts or (arity,),
        constraint,
    )


def _inter_nonempty(*groups):
    picks = [operator.itemgetter(*idxs) for idxs in groups]  # every group has 2+ indices

    def check(ops: Sequence[S.IVHFSoftSet]):
        return all(S.common_parameters(pick(ops)) for pick in picks)

    return check


# ---------------------------------------------------------------------------
# element-level De Morgan (two sub-items)
# ---------------------------------------------------------------------------


def _e212(i: str) -> Law:
    union_first = i == "ii"

    def body(A, m1, m2):
        outer, inner = (A.intersection, A.union) if union_first else (A.union, A.intersection)
        return outer(A.complement(m1), A.complement(m2)), A.complement(inner(m1, m2))

    return _law(f"P2.12.{i}", "element", "shared", "equivalent", "pairwise", 2, body)


# ---------------------------------------------------------------------------
# idempotence and empty/full identities (one operand)
# ---------------------------------------------------------------------------

_P35_SPECS = {
    "i": ("union", "self", "left", "strict"),
    "ii": ("intersection", "self", "left", "strict"),
    "iii": ("union", "empty", "left", "equivalent"),
    "iv": ("intersection", "empty", "other", "equivalent"),
    "v": ("union", "full", "other", "equivalent"),
    "vi": ("intersection", "full", "left", "equivalent"),
}


def _e35(i: str) -> Law:
    kind, partner, keep, equality = _P35_SPECS[i]

    def body(A, f):
        if partner == "self":
            g = f
        elif partner == "empty":
            g = A.empty(f)
        else:
            g = A.full(f)
        lhs = A.union(f, g) if kind == "union" else A.intersection(f, g)
        return lhs, (f if keep == "left" else g)

    return _law(f"P3.5.{i}", "soft", "shared", equality, "aligned", 1, body)


# ---------------------------------------------------------------------------
# De Morgan for soft sets: shared-parameter equalities and mixed inclusions
# ---------------------------------------------------------------------------


def _e36(i: str) -> Law:
    union_inside = i == "i"

    def body(A, f, g):
        inner, outer = (A.union, A.intersection) if union_inside else (A.intersection, A.union)
        return A.complement(inner(f, g)), outer(A.complement(f), A.complement(g))

    return _law(f"P3.6.{i}", "soft", "shared", "strict", "pairwise", 2, body)


# sides: mc = meet of complements, jc = join of complements,
#        cu = complement of union, ci = complement of intersection
_P37_SPECS = {
    "i": ("mc", "cu"),
    "ii": ("ci", "jc"),
    "iii": ("mc", "ci"),
    "iv": ("cu", "jc"),
}


def _e37(i: str) -> Law:
    lhs_side, rhs_side = _P37_SPECS[i]

    def body(A, f, g):
        fc, gc = A.complement(f), A.complement(g)
        sides = {
            "mc": lambda: A.intersection(fc, gc),
            "jc": lambda: A.union(fc, gc),
            "cu": lambda: A.complement(A.union(f, g)),
            "ci": lambda: A.complement(A.intersection(f, g)),
        }
        return sides[lhs_side](), sides[rhs_side]()

    needs_overlap = i in ("i", "ii", "iii")
    constraint = _inter_nonempty((0, 1)) if needs_overlap else _anything
    return _law(f"P3.7.{i}", "soft", "mixed", "subset", "pairwise", 2, body, constraint)


# ---------------------------------------------------------------------------
# commutativity / associativity (mixed = 3.8, shared = 3.9)
# ---------------------------------------------------------------------------


def _comm_assoc(prop: str, i: str, parameter_mode: str) -> Law:
    union = i in ("i", "iii")
    is_comm = i in ("i", "ii")
    restrict = not union and parameter_mode == "mixed"

    if is_comm:

        def body(A, f, g):
            op = A.union if union else A.intersection
            return op(f, g), op(g, f)

        return _law(
            f"{prop}.{i}", "soft", parameter_mode, "strict", "aligned", 2, body,
            _inter_nonempty((0, 1)) if restrict else _anything,
        )

    def body(A, f, g, h):
        op = A.union if union else A.intersection
        return op(f, op(g, h)), op(op(f, g), h)

    return _law(
        f"{prop}.{i}", "soft", parameter_mode, "strict", "sequence", 3, body,
        _inter_nonempty((0, 1, 2)) if restrict else _anything,
    )


# ---------------------------------------------------------------------------
# distributivity: shared (3.10, sequence) and mixed (3.11, aligned)
# ---------------------------------------------------------------------------


def _distrib(prop: str, i: str, parameter_mode: str, mode: str, equality: str) -> Law:
    union_outer = i == "i"

    def body(A, f, g, h):
        outer, inner = (A.union, A.intersection) if union_outer else (A.intersection, A.union)
        return outer(f, inner(g, h)), inner(outer(f, g), outer(f, h))

    if parameter_mode == "mixed":
        constraint = _inter_nonempty((1, 2)) if union_outer else _inter_nonempty((0, 1), (0, 2))
    else:
        constraint = _anything
    return _law(f"{prop}.{i}", "soft", parameter_mode, equality, mode, 3, body, constraint)


# ---------------------------------------------------------------------------
# family De Morgan: mixed inclusions (3.16) and shared equalities (3.17)
# ---------------------------------------------------------------------------


def _common_parameter(ops) -> bool:
    return bool(S.common_parameters(ops))


def _family(prop: str, i: str, parameter_mode: str, equality: str) -> Law:
    inter_of_comps_first = i == "i"

    def body(A, *members):
        members = list(members)
        comps = [A.complement(f) for f in members]
        if inter_of_comps_first:
            return A.family_intersection(comps), A.complement(A.family_union(members))
        return A.complement(A.family_intersection(members)), A.family_union(comps)

    return _law(
        f"{prop}.{i}", "soft", parameter_mode, equality, "pairwise", 3, body, _common_parameter,
        operand_counts=(1, 2, 3),
    )


# ---------------------------------------------------------------------------
# difference-operator identities (O1..O4)
# ---------------------------------------------------------------------------


def _op_absorption(prop: str, i: str, kind: str) -> Law:
    which = "sum" if i in ("i", "ii") else "prod"
    meet_side = i in ("i", "iii")

    def body(A, m1, m2):
        ring = A.ring_sum(m1, m2) if which == "sum" else A.ring_product(m1, m2)
        oper = A.operator(kind, m1, m2)
        if meet_side:
            return A.intersection(ring, oper), oper
        return A.union(ring, oper), ring

    return _law(f"{prop}.{i}", "element", "shared", "equivalent", "synchronized", 2, body)


def _op_distribution(prop: str, i: str, kind: str) -> Law:
    union = i == "v"

    def body(A, m1, m2, m3):
        op = A.union if union else A.intersection
        return A.operator(kind, op(m1, m2), m3), op(A.operator(kind, m1, m3), A.operator(kind, m2, m3))

    return _law(f"{prop}.{i}", "element", "shared", "equivalent", "pairwise", 3, body)


def registry() -> list[Law]:
    """All 54 laws, grouped by identity family."""
    laws: list[Law] = []
    laws += [_e212(i) for i in ("i", "ii")]
    laws += [_e35(i) for i in ("i", "ii", "iii", "iv", "v", "vi")]
    laws += [_e36(i) for i in ("i", "ii")]
    laws += [_e37(i) for i in ("i", "ii", "iii", "iv")]
    laws += [_comm_assoc("P3.8", i, "mixed") for i in ("i", "ii", "iii", "iv")]
    laws += [_comm_assoc("P3.9", i, "shared") for i in ("i", "ii", "iii", "iv")]
    laws += [_distrib("P3.10", i, "shared", "sequence", "equivalent") for i in ("i", "ii")]
    laws += [_distrib("P3.11", i, "mixed", "aligned", "strict") for i in ("i", "ii")]
    laws += [_family("P3.16", i, "mixed", "subset") for i in ("i", "ii")]
    laws += [_family("P3.17", i, "shared", "strict") for i in ("i", "ii")]
    for prop, kind in (("P4.2", "O1"), ("P4.3", "O2"), ("P4.4", "O3"), ("P4.5", "O4")):
        laws += [_op_absorption(prop, i, kind) for i in ("i", "ii", "iii", "iv")]
        laws += [_op_distribution(prop, i, kind) for i in ("v", "vi")]
    ids = [law.law_id for law in laws]
    assert len(ids) == 54 and len(set(ids)) == 54
    return laws
