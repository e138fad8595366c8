"""Soft-set layer against the full worked tables."""

import pytest

import conftest as golden
from conftest import assert_table
from ivhfss import (
    AlignmentPolicy,
    CombineMode,
    element_of,
    empty_of,
    family_intersection,
    family_union,
    full_of,
    is_subset,
    make_soft_set,
    soft_apply_operator,
    soft_complement,
    soft_equivalent,
    soft_intersection,
    soft_ring_product,
    soft_ring_sum,
    soft_strict_equal,
    soft_union,
)
from ivhfss.softsets import intersection_rule, union_rule
from ivhfss.errors import (
    EmptyFamily,
    EmptyParameterIntersection,
    EmptyUniverse,
    ParameterMismatch,
    UniverseMismatch,
)


def single_cell(*pairs, param="e1", obj="h1"):
    return make_soft_set([obj], [param], {param: {obj: element_of(*pairs)}})


class TestConstruction:
    def test_missing_object_rejected(self):
        with pytest.raises(UniverseMismatch):
            make_soft_set(["h1", "h2"], ["e1"], {"e1": {"h1": element_of((0, 1))}})

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ParameterMismatch):
            make_soft_set(["h1"], ["e1", "e1"], {"e1": {"h1": element_of((0, 1))}})

    def test_empty_universe_rejected(self):
        with pytest.raises(EmptyUniverse):
            empty_of(["e1"], [])

    @pytest.mark.parametrize("build", [
        lambda: make_soft_set(["h1", "h2"], [], {}),
        lambda: empty_of([], ["h1"]),
        lambda: full_of([], ["h1"]),
    ])
    def test_empty_parameters_rejected(self, build):
        # io rejects a parameterless document, so no such soft set may exist
        with pytest.raises(ParameterMismatch, match="parameters must be nonempty"):
            build()


class TestUnion:
    def test_worked_table(self, fa, gb):
        assert_table(soft_union(fa, gb), golden.UNION_FA_GB)

    def test_rearranged_operand_gives_same_table(self, fa, gbx):
        assert_table(soft_union(fa, gbx), golden.UNION_FA_GB)

    def test_sole_owner_parameters_copied(self, fa, gb):
        out = soft_union(fa, gb)
        for h in gb.universe:
            assert out.cell("e3", h) == gb.cell("e3", h)

    def test_union_with_empty(self, fa):
        out = soft_union(fa, empty_of(fa.parameters, fa.universe))
        assert soft_strict_equal(out, fa)

    def test_universe_mismatch(self, fa):
        other = single_cell((0.1, 0.2), obj="x1")
        with pytest.raises(UniverseMismatch):
            soft_union(fa, other)


class TestIntersection:
    def test_worked_table(self, fa, gb):
        assert_table(soft_intersection(fa, gb), golden.INTER_FA_GB)

    def test_self_intersection(self, fa):
        assert soft_strict_equal(soft_intersection(fa, fa), fa)

    def test_empty_overlap_rejected(self, fa):
        other = single_cell((0.1, 0.2), param="e9", obj="h1")
        other = make_soft_set(
            fa.universe, ["e9"], {"e9": {h: element_of((0.1, 0.2)) for h in fa.universe}}
        )
        with pytest.raises(EmptyParameterIntersection):
            soft_intersection(fa, other)

    def test_full_identity_up_to_duplicates(self, fa):
        out = soft_intersection(fa, full_of(fa.parameters, fa.universe))
        assert soft_equivalent(out, fa)


class TestComplement:
    def test_worked_tables(self, fa, gbx, gb):
        assert_table(soft_complement(fa), golden.COMP_FA)
        assert_table(soft_complement(gbx), golden.COMP_GBX)
        assert_table(soft_complement(soft_union(fa, gb)), golden.COMP_UNION_FA_GB)

    def test_involution(self, fa):
        assert soft_strict_equal(soft_complement(soft_complement(fa)), fa, tol=1e-12)

    def test_full_to_empty(self, fa):
        out = soft_complement(full_of(fa.parameters, fa.universe))
        assert soft_strict_equal(out, empty_of(fa.parameters, fa.universe))


class TestSubset:
    def test_reflexive_and_full(self, fa):
        assert is_subset(fa, fa)
        assert is_subset(fa, full_of(fa.parameters, fa.universe))
        assert not is_subset(full_of(fa.parameters, fa.universe), fa)

    def test_de_morgan_inclusions_on_worked_instance(self, fa, gbx):
        fc, gc = soft_complement(fa), soft_complement(gbx)
        lhs = soft_intersection(fc, gc)
        assert_table(lhs, golden.INTER_COMP_FA_COMP_GBX)
        rhs = soft_complement(soft_union(fa, gbx))
        assert is_subset(lhs, rhs)

        lhs2 = soft_complement(soft_intersection(fa, gbx))
        assert_table(lhs2, golden.COMP_INTER_FA_GB)
        rhs2 = soft_union(fc, gc)
        assert_table(rhs2, golden.UNION_COMP_FA_COMP_GBX)
        assert is_subset(lhs2, rhs2)


class TestRingOps:
    def test_cellwise_kernel(self):
        a = single_cell((0.3, 0.5))
        b = single_cell((0.5, 0.5))
        out = soft_ring_sum(a, b)
        assert out.cell("e1", "h1").pairs == ((0.65, 0.75),)

    def test_identities_up_to_duplicates(self, fa):
        assert soft_equivalent(soft_ring_sum(fa, empty_of(fa.parameters, fa.universe)), fa)
        assert soft_equivalent(soft_ring_product(fa, full_of(fa.parameters, fa.universe)), fa)

    def test_parameter_discipline(self, fa, gb):
        with pytest.raises(ParameterMismatch):
            soft_ring_sum(fa, gb)


class TestOperators:
    def test_shared_parameters_only(self, fa, hc):
        out = soft_apply_operator("O3", fa, hc)
        assert set(out.parameters) == {"e2"}

    def test_no_overlap_rejected(self, fa):
        other = make_soft_set(
            fa.universe, ["e9"], {"e9": {h: element_of((0.1, 0.2)) for h in fa.universe}}
        )
        with pytest.raises(EmptyParameterIntersection):
            soft_apply_operator("O1", fa, other)


class TestDistributivityInstance:
    """The mixed-parameter distributivity refutation, recomputed from scratch."""

    def test_union_over_intersection_sides(self, fa, gbx, hc):
        gh = soft_intersection(gbx, hc)
        assert_table(gh, golden.INTER_GBX_HC)
        lhs = soft_union(fa, gh)
        rhs = soft_intersection(soft_union(fa, gbx), soft_union(fa, hc))
        assert not soft_strict_equal(lhs, rhs)
        assert soft_equivalent(lhs, rhs)
        # the only strict difference is the padded duplicate at e1/h1
        assert lhs.cell("e1", "h1").pairs == ((0.3, 0.8),)
        assert rhs.cell("e1", "h1").pairs == ((0.3, 0.8), (0.3, 0.8))
        diff = [
            (e, h)
            for (e, h), cell in lhs.pairs.items()
            if sorted(cell) != sorted(rhs.cell(e, h).pairs)
        ]
        assert diff == [("e1", "h1")]

    def test_intersection_over_union_sides(self, fa, gbx, hc):
        guh = soft_union(gbx, hc)
        assert_table(guh, golden.UNION_GBX_HC)
        assert_table(soft_union(fa, hc), golden.UNION_FA_HC)
        lhs = soft_intersection(fa, guh)
        rhs = soft_union(soft_intersection(fa, gbx), soft_intersection(fa, hc))
        # on this instance the two sides agree once both are fully computed
        assert soft_strict_equal(lhs, rhs)


class TestFamilies:
    def test_family_union_worked_table(self, fa, gb, hc):
        assert_table(family_union([fa, gb, hc]), golden.FAMILY_UNION)

    def test_family_intersection_worked_table(self, fa, gb, hc):
        assert_table(family_intersection([fa, gb, hc]), golden.FAMILY_INTERSECTION)

    def test_singleton_family(self, fa):
        assert soft_strict_equal(family_union([fa]), fa)
        assert soft_strict_equal(family_intersection([fa]), fa)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            family_union([])
        with pytest.raises(EmptyFamily):
            family_intersection([])

    def test_disjoint_family_intersection_rejected(self, fa):
        other = make_soft_set(
            fa.universe, ["e9"], {"e9": {h: element_of((0.1, 0.2)) for h in fa.universe}}
        )
        with pytest.raises(EmptyParameterIntersection):
            family_intersection([fa, other])


class TestPairwiseMode:
    def test_de_morgan_exact_in_pairwise_mode(self, fa, gb):
        shared = soft_intersection(fa, gb)  # restrict to common parameters
        f = shared
        g = soft_intersection(gb, fa)
        lhs = soft_complement(soft_union(f, g, mode=CombineMode.PAIRWISE))
        rhs = soft_intersection(
            soft_complement(f), soft_complement(g), mode=CombineMode.PAIRWISE
        )
        assert soft_strict_equal(lhs, rhs, tol=1e-12)

    def test_pessimistic_alignment(self):
        a = single_cell((0.2, 0.3), (0.8, 0.9))
        b = single_cell((0.5, 0.5))
        out = soft_union(a, b, policy=AlignmentPolicy.PESSIMISTIC)
        assert out.cell("e1", "h1").pairs == ((0.5, 0.5), (0.8, 0.9))


def numbered_soft_set(universe, parameters, offset):
    """A table whose cells all differ: cell (e, h) is one interval numbered from ``offset``."""
    values = {}
    for i, e in enumerate(parameters):
        values[e] = {}
        for j, h in enumerate(universe):
            k = offset + i * len(universe) + j
            values[e][h] = element_of((k / 1000, k / 1000 + 0.5))
    return make_soft_set(universe, parameters, values)


class TestRules:
    """``union_rule`` and ``intersection_rule`` against the three cases, cell by cell."""

    f = numbered_soft_set(["h1", "h2", "h3"], ["f_only", "both1", "both2"], 0)
    g = numbered_soft_set(["h3", "h1", "h2"], ["both2", "g_only", "both1"], 100)

    @staticmethod
    def combine(a, b):
        return ("combined", a, b)

    def reference(self, union):
        fp, gp = set(self.f.parameters), set(self.g.parameters)
        if union:
            parameters = self.f.parameters + tuple(e for e in self.g.parameters if e not in fp)
        else:
            parameters = tuple(e for e in self.f.parameters if e in gp)
        pairs = {}
        for e in parameters:
            for h in self.f.universe:
                key = (e, h)
                if e in fp and e in gp:
                    pairs[key] = self.combine(self.f.pairs[key], self.g.pairs[key])
                elif e in fp:
                    pairs[key] = self.f.pairs[key]
                else:
                    pairs[key] = self.g.pairs[key]
        return parameters, pairs

    @pytest.mark.parametrize("union", [True, False])
    def test_rules_match_the_three_case_reference(self, union):
        rule = union_rule if union else intersection_rule
        out = rule(self.f, self.g, self.combine)
        parameters, pairs = self.reference(union)
        assert out.universe == self.f.universe
        assert out.parameters == parameters
        assert list(out.pairs.items()) == list(pairs.items())

    def test_equal_tables_declared_in_other_orders_compare_equal(self):
        f = self.f
        reordered = make_soft_set(
            ["h3", "h1", "h2"],
            ["both2", "f_only", "both1"],
            {e: {h: f.cell(e, h) for h in f.universe} for e in f.parameters},
        )
        assert list(reordered.pairs) != list(f.pairs)
        for compare in (soft_strict_equal, soft_equivalent):
            assert compare(f, reordered)
            assert compare(f, reordered, tol=0.0)
            assert not compare(f, reordered, tol=-1.0)
