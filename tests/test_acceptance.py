"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (one pass/fail line per
criterion) or ``pytest -s`` to see the explicit ACCEPTANCE lines.
"""

import hashlib
import json
import time
from itertools import product
from pathlib import Path

import pytest

import conftest as golden
from conftest import assert_table, same_multiset
from ivhfss import (
    interval_complement,
    interval_join,
    interval_meet,
    operator_kernel,
    parse_document,
    possibility_ge,
    rank_compare,
    ring_sum_kernel,
    soft_complement,
    soft_equivalent,
    soft_intersection,
    soft_strict_equal,
    soft_union,
    construct_interval,
    is_subset,
    family_intersection,
    family_union,
    Verdict,
)
from ivhfss.cli import main
from ivhfss.laws import CheckConfig, checker, registry, replay, run_suite, suite_to_json

DATA = Path(__file__).parent / "data"


def _report(criterion: int, label: str):
    print(f"ACCEPTANCE {criterion}: PASS — {label}", flush=True)


def grid_intervals(step):
    n = round(1 / step)
    pts = [round(i * step, 12) for i in range(n + 1)]
    return [construct_interval(lo, up) for lo in pts for up in pts if lo <= up]


@pytest.fixture(scope="module")
def suite_reports():
    # on one core, in this process: the 60 s gate times the serial suite
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_cores", lambda: 1)
        start = time.perf_counter()
        reports = run_suite(CheckConfig())
        elapsed = time.perf_counter() - start
    return reports, elapsed


class TestAcceptance:
    def test_criterion_1_union_golden(self, tmp_path, capsys):
        out = tmp_path / "H.json"
        start = time.perf_counter()
        code = main(["union", str(DATA / "FA.json"), str(DATA / "GB.json"), "-o", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        result = parse_document(out.read_text())
        assert_table(result, golden.UNION_FA_GB)
        assert same_multiset(result.cell("e1", "h2"), [(0.4, 0.6), (0.4, 0.8), (0.5, 0.7)])
        assert same_multiset(result.cell("e2", "h1"), [(0.6, 0.9), (0.7, 1.0)])
        assert elapsed < 1.0
        with capsys.disabled():
            _report(1, f"union reproduces all six cells in {elapsed * 1000:.0f} ms")

    def test_criterion_2_intersection_golden(self, fa, gb, capsys):
        result = soft_intersection(fa, gb)
        assert_table(result, golden.INTER_FA_GB)
        assert same_multiset(result.cell("e1", "h1"), [(0.0, 0.6), (0.3, 0.8)])
        assert same_multiset(result.cell("e2", "h1"), [(0.2, 0.8), (0.6, 0.8)])
        with capsys.disabled():
            _report(2, "intersection reproduces all four cells")

    def test_criterion_3_family_ops_golden(self, fa, gb, hc, capsys):
        union = family_union([fa, gb, hc])
        assert_table(union, golden.FAMILY_UNION)
        assert same_multiset(union.cell("e2", "h1"), [(0.6, 0.9), (0.7, 1.0), (0.7, 1.0)])
        inter = family_intersection([fa, gb, hc])
        assert_table(inter, golden.FAMILY_INTERSECTION)
        assert same_multiset(inter.cell("e2", "h1"), [(0.2, 0.6), (0.4, 0.6), (0.6, 0.8)])
        assert same_multiset(inter.cell("e2", "h2"), [(0.2, 0.6), (0.3, 0.8)])
        with capsys.disabled():
            _report(3, "family union keeps duplicates; family intersection matches")

    def test_criterion_4_complement_tables_and_inclusions(self, fa, gbx, capsys):
        fc, gc = soft_complement(fa), soft_complement(gbx)
        assert_table(fc, golden.COMP_FA)
        assert_table(gc, golden.COMP_GBX)
        both = soft_intersection(fc, gc)
        assert_table(both, golden.INTER_COMP_FA_COMP_GBX)
        cu = soft_complement(soft_union(fa, gbx))
        assert_table(cu, golden.COMP_UNION_FA_GB)
        assert is_subset(both, cu)
        assert is_subset(soft_complement(soft_intersection(fa, gbx)), soft_union(fc, gc))
        with capsys.disabled():
            _report(4, "complement tables match; both inclusions confirmed")

    def test_criterion_5_mixed_distributivity_instance(self, fa, gbx, hc, capsys):
        gh = soft_intersection(gbx, hc)
        assert_table(gh, golden.INTER_GBX_HC)
        guh = soft_union(gbx, hc)
        assert_table(guh, golden.UNION_GBX_HC)
        lhs = soft_union(fa, gh)
        rhs = soft_intersection(soft_union(fa, gbx), soft_union(fa, hc))
        assert not soft_strict_equal(lhs, rhs)
        diff = [
            (e, h)
            for (e, h), cell in lhs.pairs.items()
            if sorted(cell) != sorted(rhs.cell(e, h).pairs)
        ]
        assert diff == [("e1", "h1")]
        assert same_multiset(lhs.cell("e1", "h1"), [(0.3, 0.8)])
        assert same_multiset(rhs.cell("e1", "h1"), [(0.3, 0.8), (0.3, 0.8)])
        assert soft_equivalent(lhs, rhs)
        with capsys.disabled():
            _report(5, "sides differ strictly at e1/h1 only and are dedup-equivalent")

    def test_criterion_6_law_suite(self, suite_reports, capsys):
        reports, elapsed = suite_reports
        by_id = {r.law_id: r for r in reports}
        assert len(reports) == 54

        must_hold = (
            [f"P2.12.{i}" for i in ("i", "ii")]
            + [f"P3.5.{i}" for i in ("i", "ii", "iii", "iv", "v", "vi")]
            + [f"P3.6.{i}" for i in ("i", "ii")]
            + [f"P3.8.{i}" for i in ("i", "ii", "iii", "iv")]
            + [f"P3.9.{i}" for i in ("i", "ii", "iii", "iv")]
            + [f"P3.10.{i}" for i in ("i", "ii")]
            + [f"P3.17.{i}" for i in ("i", "ii")]
            + [f"P4.{k}.{i}" for k in (2, 3, 4, 5) for i in ("i", "ii")]
        )
        for law_id in must_hold:
            assert by_id[law_id].status == "holds", law_id
        for i in ("i", "ii"):
            assert by_id[f"P3.10.{i}"].equality_used == "equivalent"

        must_violate = [f"P4.{k}.{i}" for k in (2, 3, 4, 5) for i in ("iii", "iv", "v", "vi")]
        must_violate += ["P3.11.i", "P3.11.ii"]
        laws = {l.law_id: l for l in registry()}
        for law_id in must_violate:
            report = by_id[law_id]
            assert report.status == "violated", law_id
            assert report.counterexample is not None, law_id
            assert replay(laws[law_id], report.counterexample), law_id
        for i in ("i", "ii"):
            assert by_id[f"P3.11.{i}"].equality_used == "strict"

        # the canonical single-point refutation replays through the public API
        assert replay(laws["P4.2.iii"], {"operands": [[[0.5, 0.5]], [[0.0, 0.0]]]})

        assert elapsed < 60.0
        with capsys.disabled():
            _report(6, f"all 54 statuses as classified, suite ran in {elapsed:.1f} s")

    def test_law_report_bytes_pinned(self, suite_reports):
        # statuses, trial counts and shrunk counterexamples, byte for byte
        reports, _ = suite_reports
        payload = json.dumps(suite_to_json(reports), sort_keys=True).encode()
        assert len(payload) == 13023
        assert hashlib.sha256(payload).hexdigest() == (
            "4f574ada7146cacac2ac70cc7eb91ec2ebcda688895dd5093a0a03e9a32a1e9a"
        )

    def test_second_seed_report_bytes_pinned(self):
        # guards the random stream on a seed other than the default
        reports = run_suite(CheckConfig(grid_step=0.5, random_trials=300, seed=9001))
        payload = json.dumps(suite_to_json(reports), sort_keys=True).encode()
        assert len(payload) == 12898
        assert hashlib.sha256(payload).hexdigest() == (
            "2ad3a1f4d43e33cc8d42888b9b2f32824162320cfd2875ef131927b2fceafcb6"
        )

    def test_fine_grid_report_bytes_pinned(self):
        # guards the shrinker: the one pinned config where the comparison
        # tolerance changes a shrunk witness (P4.3.v)
        reports = run_suite(CheckConfig(grid_step=0.1, random_trials=3000, seed=7))
        payload = json.dumps(suite_to_json(reports), sort_keys=True).encode()
        assert len(payload) == 13392
        assert hashlib.sha256(payload).hexdigest() == (
            "de0ffb8289d551f9941d8a900d560c8f4fcc414742d0d998a8275b54dfb81be5"
        )

    def test_criterion_7_property_suites(self, capsys):
        quarter = grid_intervals(0.25)
        for a, b in product(quarter, repeat=2):
            assert interval_complement(interval_join(a, b)) == interval_meet(
                interval_complement(a), interval_complement(b)
            )
            assert interval_join(a, interval_meet(a, b)) == a
            assert interval_meet(a, interval_join(a, b)) == a
            assert interval_complement(interval_complement(a)) == a
            if a.width + b.width > 0:
                assert abs(possibility_ge(a, b) + possibility_ge(b, a) - 1.0) <= 1e-12
            s = ring_sum_kernel(a, b)
            for kind in ("O1", "O2", "O3", "O4"):
                o = operator_kernel(kind, a, b)
                assert o.lower <= s.lower + 1e-12 and o.upper <= s.upper + 1e-12

        tenth = grid_intervals(0.1)
        assert len(tenth) == 66
        keyed = {iv: idx for idx, iv in enumerate(tenth)}
        verdicts = {}
        for a in tenth:
            for b in tenth:
                v = rank_compare(a, b).verdict
                verdicts[(keyed[a], keyed[b])] = v
                # totality + antisymmetry
                if a == b:
                    assert v is Verdict.EQUAL
        for (i, j), v in verdicts.items():
            w = verdicts[(j, i)]
            if v is Verdict.EQUAL:
                assert w is Verdict.EQUAL
            else:
                assert {v, w} == {Verdict.LESS, Verdict.GREATER}
        # transitivity over all 66^3 ordered triples
        le = [[verdicts[(i, j)] is not Verdict.GREATER for j in range(66)] for i in range(66)]
        for i in range(66):
            for j in range(66):
                if not le[i][j]:
                    continue
                row_j, row_i = le[j], le[i]
                for k in range(66):
                    if row_j[k]:
                        assert row_i[k], (tenth[i], tenth[j], tenth[k])
        with capsys.disabled():
            _report(7, "lattice, involution, complementarity, total order, domination")

    def test_criterion_8_round_trip_identity(self, capsys):
        from ivhfss import serialize_document

        for name in ("FA.json", "GB.json", "GBX.json", "HC.json"):
            text = (DATA / name).read_text()
            assert serialize_document(parse_document(text)) == text, name
        with capsys.disabled():
            _report(8, "parse then serialize is byte-identical on all golden documents")
