"""Scalar and element kernels, in pure Python.

This is the package's one kernel implementation: the public API and the law
checker both call it.  Intervals are plain ``(lower, upper)`` float tuples,
elements are tuples of intervals.  Higher layers wrap these in richer types;
the law-check inner loops call straight into this module.

The complement, ring and O1..O4 expressions hold integer constants only, so
on ``fractions.Fraction`` endpoints they compute exactly, and on floats they
give the same bits as float constants would.
"""

from __future__ import annotations

import math

# Midpoints are quantized to 12 decimals before ordering so that decimal data
# ties exactly (0.4+0.8 and 0.5+0.7 differ by 2e-16 in IEEE arithmetic but
# must rank as a tie, broken by the lower endpoint).
_MID_DECIMALS = 12


def rank_key(lo, up):
    """Total-order sort key: quantized midpoint, then lower, then upper."""
    return (round(lo + up, _MID_DECIMALS), lo, up)


def possibility_ge(al, au, bl, bu):
    """Degree of possibility that [al,au] >= [bl,bu], in [0,1].

    Exactly 0.5 when the quantized midpoints tie as ``rank_key`` compares
    them: the raw formula lands a rounding error off 0.5 on such a tie (0.4+0.8
    against 0.5+0.7), on either side of it.
    """
    if round(al + au, _MID_DECIMALS) == round(bl + bu, _MID_DECIMALS):
        return 0.5
    span = (au - al) + (bu - bl)
    if span == 0.0:  # two points with different values
        return 1.0 if al > bl else 0.0
    inner = (bu - al) / span
    if inner < 0.0:
        inner = 0.0
    p = 1.0 - inner
    if p < 0.0:
        p = 0.0
    return p


def join_kernel(al, au, bl, bu):
    return (al if al >= bl else bl, au if au >= bu else bu)


def meet_kernel(al, au, bl, bu):
    return (al if al <= bl else bl, au if au <= bu else bu)


def complement_kernel(al, au):
    return (1 - au, 1 - al)


def ring_sum_kernel(al, au, bl, bu):
    return (al + bl - al * bl, au + bu - au * bu)


def ring_product_kernel(al, au, bl, bu):
    return (al * bl, au * bu)


def star_kernel(a, b):
    return (a + b) / (2 * (a * b + 1))


def _o1(a, b):
    d = a - b if a >= b else b - a
    return d / (1 + d)


def _o2(a, b):
    d = a - b if a >= b else b - a
    return d / (1 + 2 * d)


def _o3(a, b):
    d = a - b if a >= b else b - a
    return d / 2


def _o4(a, b):
    return star_kernel(a, b) / 2


_OP_SCALAR = {"O1": _o1, "O2": _o2, "O3": _o3, "O4": _o4}


def operator_kernel(kind, al, au, bl, bu):
    """Endpointwise O-kernel, canonicalized to lower <= upper."""
    f = _OP_SCALAR[kind]
    lo, up = f(al, bl), f(au, bu)
    if lo > up:
        lo, up = up, lo
    return (lo, up)


# --- element-level helpers (elements are tuples of (lo, up) tuples) ---


# Two raw midpoint sums further apart than this always round apart.  round()
# moves a sum by at most half a unit in the 12th decimal (plus half an ulp), so
# two sums more than 10 such units apart keep a gap after rounding; and
# rounding is monotone, so the rounded sums order as the raw sums do.  Only a
# near-tie needs the full quantized key.  The argument holds for exact
# (``Fraction``) endpoints too, where round() adds no ulp.
_NEAR_TIE = 10 ** -(_MID_DECIMALS - 1)


def _near_tie_runs(sums):
    """The ``(start, stop)`` slices of ``sums`` that are runs of near ties.

    A run is two or more neighbours with no gap above ``_NEAR_TIE`` between
    adjacent ones.  ``sums`` are the raw sums ``lo + up`` of intervals in
    ascending order of those sums, or in rank order.  Everything before a
    larger gap ranks below everything after it, so only the members of one
    run can change places under a finer key.
    """
    runs = []
    start = 0
    for i in range(1, len(sums)):
        if sums[i] - sums[i - 1] > _NEAR_TIE:
            if i - start > 1:
                runs.append((start, i))
            start = i
    if len(sums) - start > 1:
        runs.append((start, len(sums)))
    return runs


def _rank_order(intervals):
    """The ``sorted(intervals, key=rank_key)`` tuple, for intervals without NaN.

    Sorted by raw sum, then each near-tie run by ``rank_key``; 2 intervals are
    the same rule written out, which is several times faster for that size.
    """
    n = len(intervals)
    if n < 2:
        return tuple(intervals)
    if n == 2:
        a, b = intervals
        d = (a[0] + a[1]) - (b[0] + b[1])
        if d > _NEAR_TIE:
            return (b, a)
        if d < -_NEAR_TIE:
            return (a, b)
        # near-tie (or NaN): the exact comparison sorted() would make
        if rank_key(b[0], b[1]) < rank_key(a[0], a[1]):
            return (b, a)
        return (a, b)
    ordered = sorted(intervals, key=lambda iv: iv[0] + iv[1])
    for start, stop in _near_tie_runs([lo + up for lo, up in ordered]):
        ordered[start:stop] = sorted(ordered[start:stop], key=lambda iv: rank_key(iv[0], iv[1]))
    return tuple(ordered)


def sort_element(intervals):
    """Canonical ascending order under the possibility-degree ranking."""
    return _rank_order(intervals)


def dedup_element(intervals):
    """Sorted element with exact-duplicate intervals collapsed."""
    return _rank_order(set(intervals))


def extend_element(intervals, size, optimistic):
    """Pad to ``size`` by repeating the largest (optimistic) or smallest interval."""
    pad = size - len(intervals)
    if pad <= 0:
        return tuple(intervals)
    if optimistic:
        return tuple(intervals) + (intervals[-1],) * pad
    return (intervals[0],) * pad + tuple(intervals)


# The element kernels below write each scalar kernel's expression inline, in
# the same operand order, so every result is bit-identical to calling the
# scalar kernel per interval, without the call.


def zip_combine(union, e1, e2, optimistic):
    """Index-wise join/meet after padding; result is NOT re-sorted."""
    n1, n2 = len(e1), len(e2)
    if n1 < n2:
        e1 = extend_element(e1, n2, optimistic)
    elif n2 < n1:
        e2 = extend_element(e2, n1, optimistic)
    if union:  # join_kernel
        return tuple([
            (al if al >= bl else bl, au if au >= bu else bu) for (al, au), (bl, bu) in zip(e1, e2)
        ])
    return tuple([  # meet_kernel
        (al if al <= bl else bl, au if au <= bu else bu) for (al, au), (bl, bu) in zip(e1, e2)
    ])


def combine_aligned(union, e1, e2, optimistic):
    """Aligned union/intersection: pad, combine index-wise, re-canonicalize."""
    return sort_element(zip_combine(union, e1, e2, optimistic))


def combine_pairwise(union, e1, e2):
    """All-pairs union/intersection, deduplicated and canonicalized."""
    if union:  # join_kernel
        return dedup_element([
            (al if al >= bl else bl, au if au >= bu else bu) for al, au in e1 for bl, bu in e2
        ])
    return dedup_element([  # meet_kernel
        (al if al <= bl else bl, au if au <= bu else bu) for al, au in e1 for bl, bu in e2
    ])


def complement_element(e):
    return sort_element([(1 - au, 1 - al) for al, au in e])  # complement_kernel


# The all-pairs operations as un-deduplicated tuples over e1 x e2, in the
# pair order (x0,y0), (x0,y1), ..., (x1,y0), ...


def ring_sum_pairs(e1, e2):
    return tuple([(al + bl - al * bl, au + bu - au * bu) for al, au in e1 for bl, bu in e2])


def ring_product_pairs(e1, e2):
    return tuple([(al * bl, au * bu) for al, au in e1 for bl, bu in e2])


def operator_pairs(kind, e1, e2):
    """``operator_kernel`` over every pair."""
    f = _OP_SCALAR[kind]
    out = []
    for al, au in e1:
        for bl, bu in e2:
            lo, up = f(al, bl), f(au, bu)
            out.append((up, lo) if lo > up else (lo, up))
    return tuple(out)


def ring_sum_element(e1, e2):
    return dedup_element(ring_sum_pairs(e1, e2))


def ring_product_element(e1, e2):
    return dedup_element(ring_product_pairs(e1, e2))


def operator_element(kind, e1, e2):
    return dedup_element(operator_pairs(kind, e1, e2))


def exact_mean(groups):
    """Mean over ``groups`` of each group's mean, rounded once to a float.

    The sums are exact: every float is an integer over a power of two, so the
    largest denominator is a common one.  ``int / int`` rounds correctly, so
    an element repeated k times has exactly the element's mean, and a mean
    never drops below another by a rounding error when its terms are larger.
    """
    ratios = [[v.as_integer_ratio() for v in g] for g in groups]
    den = max(d for g in ratios for _, d in g)
    counts = math.lcm(*(len(g) for g in ratios))
    num = sum(p * (den // d) * (counts // len(g)) for g in ratios for p, d in g)
    return num / (den * counts * len(ratios))


def mean_element(e):
    """Componentwise mean interval of all member intervals, correctly rounded."""
    return (exact_mean([[l for l, _ in e]]), exact_mean([[u for _, u in e]]))


def score_element(e):
    """Componentwise mean interval by a left-to-right float sum.

    This is what the ``score`` command prints; it can land one ulp off the
    true mean (three copies of ``[0, 0.8501629148293597]`` sum to an upper
    mean of ``0.8501629148293596``).  Comparisons use ``mean_element``.
    """
    lo = 0.0
    up = 0.0
    for l, u in e:
        lo += l
        up += u
    n = float(len(e))
    return (lo / n, up / n)
