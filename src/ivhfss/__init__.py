"""Interval-valued hesitant fuzzy soft sets: algebra, I/O, and law checking."""

from .elements import (
    IVHFE,
    AlignmentPolicy,
    CombineMode,
    align,
    apply_operator,
    canonicalize,
    combine,
    complement,
    element_of,
    equivalent,
    ring_product,
    ring_sum,
    score,
    strict_equal,
)
from .intervals import (
    OPERATOR_KINDS,
    RankOutcome,
    UnitInterval,
    Verdict,
    construct_interval,
    interval_complement,
    interval_join,
    interval_meet,
    operator_kernel,
    possibility_ge,
    rank_compare,
    ring_product_kernel,
    ring_sum_kernel,
    star_kernel,
)
from .io import load_file, parse_document, serialize_document
from .softsets import (
    IVHFSoftSet,
    empty_of,
    family_intersection,
    family_union,
    full_of,
    is_subset,
    make_soft_set,
    mean_scores,
    rank_objects,
    score_table,
    soft_apply_operator,
    soft_complement,
    soft_equivalent,
    soft_intersection,
    soft_ring_product,
    soft_ring_sum,
    soft_strict_equal,
    soft_union,
)

__version__ = "0.1.0"
