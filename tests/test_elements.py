"""Element-level operations against the worked-example cells."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ivhfss import _kernels_py as kernels
from ivhfss import (
    AlignmentPolicy,
    CombineMode,
    align,
    apply_operator,
    canonicalize,
    combine,
    complement,
    construct_interval,
    element_of,
    equivalent,
    rank_compare,
    ring_product,
    ring_sum,
    score,
    strict_equal,
    Verdict,
)
from ivhfss.elements import pairs_equivalent, pairs_strict_equal
from ivhfss.errors import EmptyElement

TOL = 1e-9


def elem(*pairs):
    return element_of(*pairs)


def tuples(e):
    return e.pairs


def assert_cells(got, want, tol=TOL):
    got = tuple(got)
    assert len(got) == len(want)
    for (a, b), (c, d) in zip(got, want):
        assert abs(a - c) <= tol and abs(b - d) <= tol, (got, want)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def elems(draw, max_size=3):
    n = draw(st.integers(1, max_size))
    pairs = []
    for _ in range(n):
        a, b = sorted((draw(unit), draw(unit)))
        pairs.append((a, b))
    return element_of(*pairs)


class TestCanonicalize:
    def test_worked_example_orders(self):
        assert tuples(elem((0.3, 0.8), (0.5, 0.6), (0.3, 0.6))) == (
            (0.3, 0.6),
            (0.3, 0.8),
            (0.5, 0.6),
        )
        assert tuples(elem((0.7, 0.9), (0.0, 0.6))) == ((0.0, 0.6), (0.7, 0.9))
        assert tuples(elem((0.4, 0.4))) == ((0.4, 0.4),)

    def test_duplicates_preserved_and_idempotent(self):
        e = elem((0.4, 0.7), (0.4, 0.7), (0.4, 0.5))
        assert e.size == 3
        assert canonicalize(e.intervals) == e

    def test_empty_rejected(self):
        with pytest.raises(EmptyElement):
            canonicalize([])


class TestAlign:
    def test_optimistic_repeats_largest(self):
        a = elem((0.4, 0.5), (0.4, 0.7))
        b = elem((0.3, 0.6), (0.3, 0.8), (0.5, 0.6))
        ea, eb = align(a, b)
        assert tuples(ea) == ((0.4, 0.5), (0.4, 0.7), (0.4, 0.7))
        assert eb is b

    def test_singleton_extension(self):
        a = elem((0.6, 0.8))
        b = elem((0.2, 0.9), (0.7, 1.0))
        ea, _ = align(a, b)
        assert tuples(ea) == ((0.6, 0.8), (0.6, 0.8))

    def test_pessimistic_prepends_smallest(self):
        a = elem((0.4, 0.5), (0.4, 0.7))
        ea, _ = align(a, elem((0.1, 0.1), (0.2, 0.2), (0.3, 0.3)), AlignmentPolicy.PESSIMISTIC)
        assert tuples(ea) == ((0.4, 0.5), (0.4, 0.5), (0.4, 0.7))

    def test_equal_sizes_untouched(self):
        a = elem((0.1, 0.2), (0.3, 0.4))
        assert align(a, a) == (a, a)


class TestScore:
    def test_mean(self):
        assert score(elem((0.6, 0.8), (0.2, 0.7))).as_tuple() == pytest.approx((0.4, 0.75), abs=TOL)
        assert score(elem((0.1, 0.4))).as_tuple() == (0.1, 0.4)
        assert score(elem((0, 0), (1, 1))).as_tuple() == (0.5, 0.5)

    def test_compare_by_score(self):
        assert rank_compare(score(elem((0.8, 1.0))), score(elem((0.1, 0.2)))).verdict is Verdict.GREATER
        mu = elem((0.3, 0.4), (0.5, 0.9))
        assert rank_compare(score(mu), score(mu)).verdict is Verdict.EQUAL
        out = rank_compare(score(elem((0.1, 0.4))), score(elem((0.6, 0.8), (0.2, 0.7))))
        assert out.verdict is Verdict.LESS
        assert out.possibility == pytest.approx(0.0, abs=TOL)


    @given(elems(), st.integers(1, 6))
    @example(element_of((0.0, 0.8501629148293597)), 3)
    @example(element_of((0.1, 0.3)), 3)
    def test_repeated_element_scores_identically(self, a, k):
        repeated = element_of(*(a.pairs * k))
        assert score(repeated) == score(a)
        assert rank_compare(score(repeated), score(a)).verdict is Verdict.EQUAL

    @given(st.lists(st.lists(unit, min_size=1, max_size=6), min_size=1, max_size=4))
    def test_exact_mean_is_correctly_rounded(self, groups):
        want = sum(sum(map(Fraction, g)) / len(g) for g in groups) / len(groups)
        assert kernels.exact_mean(groups) == float(want)


class TestComplement:
    def test_worked_example(self):
        assert_cells(tuples(complement(elem((0.2, 0.9), (0.7, 1.0)))), ((0.0, 0.3), (0.1, 0.8)))
        assert complement(element_of((0, 0))) == element_of((1, 1))

    @given(elems())
    def test_involution_within_ulp(self, mu):
        back = complement(complement(mu))
        assert strict_equal(back, mu, tol=1e-12)


class TestCombine:
    def test_union_aligned_worked_cells(self):
        got = combine("union", elem((0.2, 0.9), (0.7, 1.0)), elem((0.6, 0.8)))
        assert_cells(tuples(got), ((0.6, 0.9), (0.7, 1.0)))

    def test_intersection_aligned_worked_cells(self):
        got = combine(
            "intersection",
            elem((0.3, 0.6), (0.3, 0.8), (0.5, 0.6)),
            elem((0.4, 0.5), (0.4, 0.7), (0.4, 0.7)),
        )
        assert_cells(tuples(got), ((0.3, 0.5), (0.3, 0.7), (0.4, 0.6)))

    def test_union_idempotent(self):
        mu = elem((0.1, 0.2), (0.5, 0.9))
        assert combine("union", mu, mu) == mu

    def test_pairwise_dedups(self):
        got = combine("union", elem((0.2, 0.2), (0.4, 0.4)), elem((0.4, 0.4)), CombineMode.PAIRWISE)
        assert tuples(got) == ((0.4, 0.4),)

    def test_bad_kind(self):
        with pytest.raises(KeyError):
            combine("xor", element_of((0, 0)), element_of((0, 0)))


class TestRingOps:
    def test_ring_sum(self):
        assert_cells(tuples(ring_sum(elem((0.3, 0.5)), elem((0.5, 0.5)))), ((0.65, 0.75),))
        mu = elem((0.2, 0.4), (0.6, 0.9))
        assert ring_sum(element_of((0, 0)), mu) == mu

    def test_ring_product(self):
        assert_cells(tuples(ring_product(elem((0.5, 0.5)), elem((0.4, 0.8)))), ((0.2, 0.4),))
        mu = elem((0.2, 0.4), (0.6, 0.9))
        assert ring_product(element_of((1, 1)), mu) == mu

    @given(elems(), elems())
    def test_commutative_up_to_equivalence(self, a, b):
        assert equivalent(ring_sum(a, b), ring_sum(b, a))
        assert equivalent(ring_product(a, b), ring_product(b, a))


class TestOperators:
    def test_single_pair(self):
        got = apply_operator("O1", elem((0.5, 0.7)), elem((0.2, 0.3)))
        assert_cells(tuples(got), ((0.23076923076923078, 0.2857142857142857),))

    def test_two_pairs(self):
        got = apply_operator("O3", elem((0.6, 0.8)), elem((0.2, 0.4), (0.6, 0.8)))
        assert_cells(tuples(got), ((0.0, 0.0), (0.2, 0.2)))

    def test_self_is_zero(self):
        mu = elem((0.3, 0.9))
        assert apply_operator("O2", mu, mu) == canonicalize([construct_interval(0, 0)])

    @given(st.sampled_from(["O1", "O2", "O3", "O4"]), elems(), elems())
    def test_commutative_up_to_equivalence(self, kind, a, b):
        assert equivalent(apply_operator(kind, a, b), apply_operator(kind, b, a))


class TestElementProperties:
    @given(elems(), elems())
    def test_align_preserves_distinct_intervals(self, a, b):
        ea, eb = align(a, b)
        assert set(ea.pairs) == set(a.pairs)
        assert set(eb.pairs) == set(b.pairs)
        assert ea.size == eb.size == max(a.size, b.size)

    @given(elems(), elems())
    def test_aligned_combine_commutes_strictly(self, a, b):
        for kind in ("union", "intersection"):
            assert strict_equal(combine(kind, a, b), combine(kind, b, a), tol=0.0)

    @given(elems(), elems())
    @example(element_of((0.0, 0.8501629148293597)), element_of((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
    @example(element_of((0.1, 0.3)), element_of((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
    def test_union_score_dominates_arguments(self, a, b):
        u = combine("union", a, b)
        for arg in (a, b):
            assert rank_compare(score(u), score(arg)).verdict is not Verdict.LESS


class TestEquality:
    def test_dedup_collapse(self):
        assert equivalent(elem((0.3, 0.8)), elem((0.3, 0.8), (0.3, 0.8)))
        assert not strict_equal(elem((0.3, 0.8)), elem((0.3, 0.8), (0.3, 0.8)))

    def test_plain(self):
        assert equivalent(elem((0.3, 0.8)), elem((0.3, 0.8)))
        assert not equivalent(elem((0.3, 0.8)), elem((0.3, 0.7)))

    def test_tolerance(self):
        assert strict_equal(elem((0.3, 0.8)), elem((0.3 + 1e-12, 0.8)))
        assert not strict_equal(elem((0.3, 0.8)), elem((0.3 + 1e-6, 0.8)))


# intervals as raw float pairs: the kernels order any pair, so -0.0 and
# endpoints outside [0,1] (from a near-tie partner) are fair inputs
endpoint = st.one_of(unit, st.sampled_from([0.0, -0.0, 0.4, 0.5, 0.7, 0.8]))


@st.composite
def tie_prone(draw, min_size=0, max_size=6):
    """Interval lists planted with exact duplicates and midpoint near-ties."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "near_tie"])) if out else "fresh"
        if kind == "fresh":
            out.append((draw(endpoint), draw(endpoint)))
        elif kind == "duplicate":
            out.append(draw(st.sampled_from(out)))
        else:
            lo, up = draw(st.sampled_from(out))
            total = lo + up + draw(st.floats(-1e-10, 1e-10))
            other = draw(endpoint)
            out.append((other, total - other))
    return out


def unit_tie_prone():
    """``tie_prone`` lists kept to endpoints in [0,1], where O4's denominator is nonzero."""
    return tie_prone().map(lambda ivs: [iv for iv in ivs if 0.0 <= min(iv) and max(iv) <= 1.0])


def by_rank(intervals):
    return tuple(sorted(intervals, key=lambda iv: kernels.rank_key(iv[0], iv[1])))


def pad_then_zip(union, e1, e2, optimistic):
    n = max(len(e1), len(e2))

    def pad(e):
        extra = n - len(e)
        return tuple(e) + (e[-1],) * extra if optimistic else (e[0],) * extra + tuple(e)

    k = kernels.join_kernel if union else kernels.meet_kernel
    return tuple(k(x[0], x[1], y[0], y[1]) for x, y in zip(pad(e1), pad(e2)))


@st.composite
def near_tie_chains(draw):
    """3-64 intervals with chains of near ties: each link moves the raw sum by
    1e-16 to 1e-11, so a long chain's ends can lie more than ``_NEAR_TIE``
    apart while every neighbour pair lies within it.  Duplicates, -0.0, and
    sometimes ``Fraction`` endpoints throughout."""
    size = draw(st.integers(3, 64))
    out = [(draw(endpoint), draw(endpoint))]
    while len(out) < size:
        kind = draw(st.sampled_from(["fresh", "duplicate", "chain", "chain"]))
        if kind == "fresh":
            out.append((draw(endpoint), draw(endpoint)))
        elif kind == "duplicate":
            out.append(draw(st.sampled_from(out)))
        else:
            lo, up = draw(st.sampled_from(out))
            gap = draw(st.floats(1e-16, 1e-11)) * draw(st.sampled_from([1, -1]))
            for _ in range(draw(st.integers(1, 8))):
                other = draw(endpoint)
                lo, up = other, (lo + up + gap) - other
                out.append((lo, up))
    out = draw(st.permutations(out[:size]))
    if draw(st.booleans()):
        out = [(Fraction(lo), Fraction(up)) for lo, up in out]
    return out


# raw sums 0, T, 2T with T = _NEAR_TIE: neighbours exactly T apart (in floats
# as well as exactly), so one run spans 2T; (T, T) and (0, 2T) tie
_T = kernels._NEAR_TIE
EXACT_GAP_CHAIN = [(0.0, 2 * _T), (_T, _T), (0.0, 0.0), (-0.0, _T), (0.0, 0.0)]


class TestCanonicalOrderKernels:
    @given(tie_prone())
    @example([(0.4, 0.8), (0.5, 0.7)])
    @example([(0.5, 0.7), (0.4, 0.8)])
    @example([(0.0, 0.5), (-0.0, 0.5), (0.0, 0.5)])
    @example([(-0.0, 0.3), (0.3, 0.0)])
    def test_sort_and_dedup_follow_rank_key(self, intervals):
        for given_as in (intervals, tuple(intervals)):
            # repr tells -0.0 from 0.0, which == does not
            assert repr(kernels.sort_element(given_as)) == repr(by_rank(given_as))
            assert repr(kernels.dedup_element(given_as)) == repr(by_rank(set(given_as)))

    @given(near_tie_chains())
    @example(EXACT_GAP_CHAIN)
    @example([(Fraction(lo), Fraction(up)) for lo, up in EXACT_GAP_CHAIN])
    @example([(0.4, 0.8), (0.5, 0.7), (0.0, 0.5), (-0.0, 0.5), (0.4, 0.8), (0.6, 0.6)])
    def test_sort_and_dedup_follow_rank_key_on_long_near_tie_chains(self, intervals):
        assert repr(kernels.sort_element(intervals)) == repr(by_rank(intervals))
        assert repr(kernels.dedup_element(intervals)) == repr(by_rank(set(intervals)))

    @given(st.booleans(), st.booleans(), tie_prone(min_size=1), tie_prone(min_size=1))
    def test_zip_combine_is_pad_then_zip(self, union, optimistic, e1, e2):
        for a, b in ((e1, e2), (e1, e1), (e2, e1)):
            assert repr(kernels.zip_combine(union, a, b, optimistic)) == repr(
                pad_then_zip(union, a, b, optimistic)
            )

    # Each element kernel against its composition through the scalar kernel,
    # which is how the kernels were first written: the inlined expressions
    # must give the same floats, -0.0 included.

    @given(st.booleans(), tie_prone(), tie_prone())
    @example(True, [(0.0, 0.5)], [(-0.0, 0.5)])
    @example(False, [(-0.0, 0.5)], [(0.0, 0.5)])
    def test_combine_pairwise_is_all_pairs_through_the_scalar_kernel(self, union, e1, e2):
        k = kernels.join_kernel if union else kernels.meet_kernel
        want = kernels.dedup_element([k(x[0], x[1], y[0], y[1]) for x in e1 for y in e2])
        assert repr(kernels.combine_pairwise(union, e1, e2)) == repr(want)

    @given(tie_prone())
    def test_complement_element_is_the_scalar_kernel(self, e):
        want = kernels.sort_element([kernels.complement_kernel(lo, up) for lo, up in e])
        assert repr(kernels.complement_element(e)) == repr(want)

    @given(tie_prone(), tie_prone())
    def test_ring_elements_are_all_pairs_through_the_scalar_kernels(self, e1, e2):
        for pairs, element, scalar in (
            (kernels.ring_sum_pairs, kernels.ring_sum_element, kernels.ring_sum_kernel),
            (kernels.ring_product_pairs, kernels.ring_product_element, kernels.ring_product_kernel),
        ):
            want = tuple(scalar(x[0], x[1], y[0], y[1]) for x in e1 for y in e2)
            assert repr(pairs(e1, e2)) == repr(want)
            assert repr(element(e1, e2)) == repr(kernels.dedup_element(want))

    @given(st.sampled_from(["O1", "O2", "O3", "O4"]), unit_tie_prone(), unit_tie_prone())
    @example("O1", [(0.0, 0.5)], [(-0.0, 0.5), (0.5, 0.0)])
    def test_operator_element_is_all_pairs_through_the_scalar_kernel(self, kind, e1, e2):
        want = tuple(kernels.operator_kernel(kind, x[0], x[1], y[0], y[1]) for x in e1 for y in e2)
        assert repr(kernels.operator_pairs(kind, e1, e2)) == repr(want)
        assert repr(kernels.operator_element(kind, e1, e2)) == repr(kernels.dedup_element(want))


def reference_close(a, b, tol):
    return len(a) == len(b) and all(
        abs(al - bl) <= tol and abs(au - bu) <= tol for (al, au), (bl, bu) in zip(a, b)
    )


@st.composite
def compared_sides(draw):
    """Two pair tuples of one number type, mostly equal or nearly so."""
    a = draw(tie_prone(min_size=1))
    if draw(st.booleans()):
        a = [(Fraction(lo), Fraction(up)) for lo, up in a]
    kind = draw(st.sampled_from(["equal", "permuted", "duplicated", "signed_zero", "fresh"]))
    if kind == "equal":
        b = list(a)
    elif kind == "permuted":
        b = draw(st.permutations(a))
    elif kind == "duplicated":
        b = a + [draw(st.sampled_from(a))]
    elif kind == "signed_zero":
        b = [(-lo if lo == 0 else lo, -up if up == 0 else up) for lo, up in a]
    else:
        b = draw(tie_prone(min_size=1))
    return tuple(a), tuple(b)


class TestPairsComparisons:
    """The comparisons against sort (or dedup) both sides, then compare within tol."""

    @given(compared_sides(), st.sampled_from([0.0, 1e-12, 1e-9, -1.0]))
    @example((((-0.0, 0.5), (0.3, 0.4)), ((0.0, 0.5), (0.3, 0.4))), 0.0)
    @example((((0.5, 0.7), (0.4, 0.8)), ((0.4, 0.8), (0.5, 0.7))), -1.0)
    @example((((0.1, 0.2), (0.3, 0.4)), ((0.1, 0.2), (0.3, 0.4))), -1.0)
    @example((((Fraction(1, 3), Fraction(1, 2)),) * 2, ((Fraction(1, 3), Fraction(1, 2)),)), 0.0)
    def test_match_the_sorting_reference(self, sides, tol):
        a, b = sides
        assert pairs_strict_equal(a, b, tol) == reference_close(by_rank(a), by_rank(b), tol)
        assert pairs_equivalent(a, b, tol) == reference_close(
            by_rank(set(a)), by_rank(set(b)), tol
        )
