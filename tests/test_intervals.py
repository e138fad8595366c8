"""Interval primitives against independently derived values.

Expected constants were computed with exact rational arithmetic before being
frozen here; the implementation is double precision with 1e-9 test tolerance.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from ivhfss import (
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
from ivhfss.errors import Inverted, OutOfRange

TOL = 1e-9


def iv(lo, up):
    return construct_interval(lo, up)


def grid(step):
    n = round(1 / step)
    pts = [round(i * step, 12) for i in range(n + 1)]
    return [iv(lo, up) for lo in pts for up in pts if lo <= up]


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = sorted((draw(unit), draw(unit)))
    return iv(a, b)


@st.composite
def decimal_intervals(draw):
    # arbitrary floats, or decimals whose sums tie only up to IEEE noise
    point = unit | st.integers(0, 10).map(lambda k: k / 10)
    a, b = sorted((draw(point), draw(point)))
    return iv(a, b)


class TestConstruction:
    def test_basic(self):
        assert iv(0.6, 0.8) == UnitInterval(0.6, 0.8)
        assert iv(0.5, 0.5).width == 0.0

    def test_inverted_rejected(self):
        with pytest.raises(Inverted):
            construct_interval(0.8, 0.6)

    @pytest.mark.parametrize("lo,up", [(-0.1, 0.5), (0.5, 1.2), (2.0, 3.0), (float("nan"), 0.5)])
    def test_out_of_range(self, lo, up):
        with pytest.raises(OutOfRange):
            construct_interval(lo, up)


class TestPossibility:
    def test_frozen_values(self):
        assert possibility_ge(iv(0.3, 0.8), iv(0.3, 0.6)) == pytest.approx(0.625, abs=TOL)
        assert possibility_ge(iv(0.3, 0.8), iv(0.5, 0.6)) == pytest.approx(0.5, abs=TOL)
        assert possibility_ge(iv(0.1, 0.6), iv(0.3, 0.6)) == pytest.approx(0.375, abs=TOL)

    def test_degenerate_points(self):
        assert possibility_ge(iv(0.4, 0.4), iv(0.4, 0.4)) == 0.5
        assert possibility_ge(iv(0.5, 0.5), iv(0.4, 0.4)) == 1.0
        assert possibility_ge(iv(0.3, 0.3), iv(0.4, 0.4)) == 0.0

    def test_complementarity_on_grid(self):
        for a, b in product(grid(0.25), repeat=2):
            if a.width + b.width > 0:
                assert abs(possibility_ge(a, b) + possibility_ge(b, a) - 1.0) <= 1e-12

    @given(intervals(), intervals())
    def test_complementarity_random(self, a, b):
        if a.width + b.width > 0:
            assert abs(possibility_ge(a, b) + possibility_ge(b, a) - 1.0) <= 1e-9

    def test_matches_exact_rational_formula(self):
        # independent oracle: the same outcome from Fraction arithmetic
        pts = [Fraction(i, 10) for i in range(11)]
        cases = [
            ((pts[1], pts[6]), (pts[3], pts[6])),
            ((pts[2], pts[9]), (pts[7], pts[10])),
            ((pts[0], pts[10]), (pts[5], pts[5])),
        ]
        for (al, au), (bl, bu) in cases:
            span = (au - al) + (bu - bl)
            exact = max(1 - max((bu - al) / span, Fraction(0)), Fraction(0))
            got = possibility_ge(iv(float(al), float(au)), iv(float(bl), float(bu)))
            assert got == pytest.approx(float(exact), abs=TOL)


class TestRankCompare:
    def test_examples(self):
        assert rank_compare(iv(0.3, 0.8), iv(0.5, 0.6)).verdict is Verdict.LESS
        assert rank_compare(iv(0.1, 0.6), iv(0.3, 0.6)).verdict is Verdict.LESS
        assert rank_compare(iv(0.2, 0.5), iv(0.2, 0.5)).verdict is Verdict.EQUAL

    def test_tie_break_uses_lower_endpoint(self):
        # equal midpoints: possibility is exactly one half, lower decides
        out = rank_compare(iv(0.4, 0.8), iv(0.5, 0.7))
        assert out.possibility == pytest.approx(0.5, abs=TOL)
        assert out.verdict is Verdict.LESS

    def test_midpoint_tie_is_exactly_half_in_both_orders(self):
        # 0.5+0.7 and 0.4+0.8 differ by one ulp but tie once quantized
        out = rank_compare(iv(0.5, 0.7), iv(0.4, 0.8))
        assert (out.possibility, out.verdict) == (0.5, Verdict.GREATER)
        out = rank_compare(iv(0.4, 0.8), iv(0.5, 0.7))
        assert (out.possibility, out.verdict) == (0.5, Verdict.LESS)

    @given(decimal_intervals(), decimal_intervals())
    @example(iv(0.5, 0.7), iv(0.4, 0.8))
    def test_possibility_never_contradicts_verdict(self, a, b):
        out = rank_compare(a, b)
        if out.possibility > 0.5:
            assert out.verdict is Verdict.GREATER
        if out.possibility < 0.5:
            assert out.verdict is Verdict.LESS

    def test_verdict_tracks_possibility(self):
        for a, b in product(grid(0.25), repeat=2):
            p = possibility_ge(a, b)
            v = rank_compare(a, b).verdict
            if p > 0.5 + 1e-12:
                assert v is Verdict.GREATER
            elif p < 0.5 - 1e-12:
                assert v is Verdict.LESS

    def test_total_order_on_fine_grid(self):
        # antisymmetry and transitivity; the full 66^3 sweep lives in acceptance
        g = grid(0.2)
        for a, b in product(g, repeat=2):
            va = rank_compare(a, b).verdict
            vb = rank_compare(b, a).verdict
            if va is Verdict.EQUAL:
                assert vb is Verdict.EQUAL and a == b
            else:
                assert {va, vb} == {Verdict.LESS, Verdict.GREATER}


class TestLattice:
    def test_frozen_values(self):
        assert interval_join(iv(0.2, 0.9), iv(0.6, 0.8)) == iv(0.6, 0.9)
        assert interval_meet(iv(0.3, 0.8), iv(0.0, 0.6)) == iv(0.0, 0.6)
        assert interval_join(iv(0.4, 0.5), iv(0.4, 0.5)) == iv(0.4, 0.5)

    def test_lattice_laws_on_grid(self):
        g = grid(0.25)
        for a, b in product(g, repeat=2):
            assert interval_join(a, b) == interval_join(b, a)
            assert interval_meet(a, b) == interval_meet(b, a)
            assert interval_join(a, interval_meet(a, b)) == a
            assert interval_meet(a, interval_join(a, b)) == a
        for a, b, c in product(g[::3], g[::3], g[::3]):
            assert interval_join(a, interval_join(b, c)) == interval_join(interval_join(a, b), c)
            assert interval_meet(a, interval_meet(b, c)) == interval_meet(interval_meet(a, b), c)

    def test_de_morgan_exact(self):
        for a, b in product(grid(0.25), repeat=2):
            assert interval_complement(interval_join(a, b)) == interval_meet(
                interval_complement(a), interval_complement(b)
            )

    def test_complement(self):
        assert interval_complement(iv(0.6, 0.8)).as_tuple() == pytest.approx((0.2, 0.4), abs=TOL)
        assert interval_complement(iv(0, 0)) == iv(1, 1)

    def test_complement_involution_exact_on_dyadic_grid(self):
        for a in grid(0.25):
            assert interval_complement(interval_complement(a)) == a

    @given(intervals())
    def test_complement_involution(self, a):
        # 1-(1-x) can be off by one ulp for non-dyadic doubles
        back = interval_complement(interval_complement(a))
        assert back.as_tuple() == pytest.approx(a.as_tuple(), abs=1e-12)


class TestRingKernels:
    def test_frozen_values(self):
        assert ring_sum_kernel(iv(0.3, 0.5), iv(0.5, 0.5)).as_tuple() == pytest.approx(
            (0.65, 0.75), abs=TOL
        )
        assert ring_sum_kernel(iv(0, 0), iv(0.4, 0.7)) == iv(0.4, 0.7)
        assert ring_product_kernel(iv(1, 1), iv(0.4, 0.7)) == iv(0.4, 0.7)

    def test_monotone_and_dominates_join(self):
        g = grid(0.25)
        for a, b in product(g, repeat=2):
            s = ring_sum_kernel(a, b)
            p = ring_product_kernel(a, b)
            assert s == ring_sum_kernel(b, a)
            assert p == ring_product_kernel(b, a)
            j = interval_join(a, b)
            assert s.lower >= j.lower - 1e-12 and s.upper >= j.upper - 1e-12
            assert j.lower >= a.lower and j.upper >= a.upper


class TestStarAndOperators:
    def test_star_frozen(self):
        assert star_kernel(0.6, 0.2) == pytest.approx(0.35714285714285715, abs=TOL)
        assert star_kernel(0.0, 0.0) == 0.0
        assert star_kernel(1.0, 1.0) == 0.5

    @given(unit, unit)
    def test_star_bounds_and_symmetry(self, a, b):
        v = star_kernel(a, b)
        assert 0.0 <= v <= 0.5
        assert v == star_kernel(b, a)

    def test_operator_frozen(self):
        assert operator_kernel("O1", iv(0.5, 0.7), iv(0.2, 0.3)).as_tuple() == pytest.approx(
            (0.23076923076923078, 0.2857142857142857), abs=TOL
        )
        assert operator_kernel("O3", iv(0.6, 0.8), iv(0.2, 0.4)).as_tuple() == pytest.approx(
            (0.2, 0.2), abs=TOL
        )
        assert operator_kernel("O4", iv(0.6, 0.8), iv(0.2, 0.4)).as_tuple() == pytest.approx(
            (0.17857142857142858, 0.22727272727272727), abs=TOL
        )
        a = iv(0.3, 0.9)
        assert operator_kernel("O2", a, a) == iv(0, 0)

    def test_operator_canonicalizes_inverted_output(self):
        raw = (0.9 / 1.9, 0.45 / 1.45)  # O1 endpointwise: |0.0-0.9|, |0.5-0.95|
        assert raw[0] > raw[1]
        out = operator_kernel("O1", iv(0.0, 0.5), iv(0.9, 0.95))
        assert out.lower == pytest.approx(min(raw), abs=TOL)
        assert out.upper == pytest.approx(max(raw), abs=TOL)

    def test_operator_bounds_symmetry_and_ring_sum_domination(self):
        bounds = {"O1": 0.5, "O2": 1 / 3, "O3": 0.5, "O4": 0.25}
        g = grid(0.25)
        for kind, hi in bounds.items():
            for a, b in product(g, repeat=2):
                o = operator_kernel(kind, a, b)
                assert operator_kernel(kind, b, a) == o
                assert -1e-12 <= o.lower <= o.upper <= hi + 1e-12
                s = ring_sum_kernel(a, b)
                assert o.lower <= s.lower + 1e-12 and o.upper <= s.upper + 1e-12
