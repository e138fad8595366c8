"""CLI behaviors: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conftest as golden
from conftest import assert_table
from ivhfss import parse_document
from ivhfss.cli import main

DATA = Path(__file__).parent / "data"

FA = str(DATA / "FA.json")
GB = str(DATA / "GB.json")
GBX = str(DATA / "GBX.json")
HC = str(DATA / "HC.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCombine:
    def test_union_matches_worked_table(self, tmp_path, capsys):
        out = tmp_path / "H.json"
        code, _, _ = run(capsys, "union", FA, GB, "-o", str(out))
        assert code == 0
        assert_table(parse_document(out.read_text()), golden.UNION_FA_GB)

    def test_union_to_stdout(self, capsys):
        code, stdout, _ = run(capsys, "union", FA, GB)
        assert code == 0
        assert_table(parse_document(stdout), golden.UNION_FA_GB)

    def test_intersect(self, tmp_path, capsys):
        out = tmp_path / "I.json"
        code, _, _ = run(capsys, "intersect", FA, GB, "-o", str(out))
        assert code == 0
        assert_table(parse_document(out.read_text()), golden.INTER_FA_GB)

    def test_intersect_empty_overlap_exits_2(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps(
                {
                    "universe": ["h1", "h2"],
                    "parameters": ["e9"],
                    "values": {"e9": {"h1": [[0.1, 0.2]], "h2": [[0.1, 0.2]]}},
                }
            )
        )
        code, _, err = run(capsys, "intersect", FA, str(other))
        assert code == 2
        assert "parameter" in err

    def test_pairwise_mode_flag(self, capsys):
        code, stdout, _ = run(capsys, "union", FA, GB, "--mode", "pairwise")
        assert code == 0
        parsed = parse_document(stdout)
        assert set(parsed.parameters) == {"e1", "e2", "e3"}


class TestOtherCommands:
    def test_complement(self, capsys):
        code, stdout, _ = run(capsys, "complement", FA)
        assert code == 0
        assert_table(parse_document(stdout), golden.COMP_FA)

    def test_resorted_cells_are_reported_in_one_line_per_input(self, tmp_path, capsys):
        unsorted = [[0.5, 0.6], [0.1, 0.2]]
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps({
            "universe": ["h1", "h2"],
            "parameters": ["e1", "e2"],
            "values": {
                "e1": {"h1": [[0.1, 0.2]], "h2": unsorted},
                "e2": {"h1": unsorted, "h2": unsorted},
            },
        }))
        code, _, err = run(capsys, "union", str(path), str(path))
        assert code == 0
        line = f"warning: {path}: 3 cell(s) not in canonical order, sorted on load; the first is cell e1/h2\n"
        assert err == line * 2

    def test_ringsum_requires_matching_parameters(self, capsys):
        code, _, err = run(capsys, "ringsum", FA, GB)
        assert code == 2
        assert "parameter" in err

    def test_elem_op(self, capsys):
        code, stdout, _ = run(capsys, "elem-op", "--kind", "o3", FA, HC)
        assert code == 0
        parsed = parse_document(stdout)
        assert set(parsed.parameters) == {"e2"}

    def test_subset_exit_codes(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        full.write_text(
            json.dumps(
                {
                    "universe": ["h1", "h2"],
                    "parameters": ["e1", "e2"],
                    "values": {
                        e: {h: [[1, 1]] for h in ("h1", "h2")} for e in ("e1", "e2")
                    },
                }
            )
        )
        assert run(capsys, "subset", FA, str(full))[0] == 0
        assert run(capsys, "subset", str(full), FA)[0] == 3

    def test_family_union(self, capsys):
        code, stdout, _ = run(capsys, "family-union", FA, GB, HC)
        assert code == 0
        assert_table(parse_document(stdout), golden.FAMILY_UNION)

    def test_family_intersect(self, capsys):
        code, stdout, _ = run(capsys, "family-intersect", FA, GB, HC)
        assert code == 0
        assert_table(parse_document(stdout), golden.FAMILY_INTERSECTION)

    def test_score(self, capsys):
        code, stdout, _ = run(capsys, "score", FA)
        assert code == 0
        table = json.loads(stdout)
        assert table["e1"]["h1"] == [pytest.approx(0.3), pytest.approx(0.8)]
        assert table["e2"]["h1"] == [pytest.approx(0.45), pytest.approx(0.95)]

    def test_rank_puts_h1_first(self, capsys):
        # mean score intervals: h1 [0.375, 0.875] beats h2 [0.4333, 0.7333]
        code, stdout, _ = run(capsys, "rank", FA)
        assert code == 0
        groups = json.loads(stdout)
        assert groups[0]["objects"] == ["h1"]
        assert groups[1]["objects"] == ["h2"]
        assert groups[0]["mean_score"] == [pytest.approx(0.375), pytest.approx(0.875)]

    def test_rank_reports_ties(self, tmp_path, capsys):
        path = tmp_path / "tie.json"
        path.write_text(
            json.dumps(
                {
                    "universe": ["a", "b"],
                    "parameters": ["e1"],
                    "values": {"e1": {"a": [[0.4, 0.6]], "b": [[0.4, 0.6]]}},
                }
            )
        )
        code, stdout, _ = run(capsys, "rank", str(path))
        assert code == 0
        groups = json.loads(stdout)
        assert len(groups) == 1
        assert sorted(groups[0]["objects"]) == ["a", "b"]

    def test_rank_ties_an_element_with_its_repetition(self, tmp_path, capsys):
        # the float sum of three 0.1s over 3 lands one ulp above 0.1
        path = tmp_path / "tie.json"
        path.write_text(
            json.dumps(
                {
                    "universe": ["h1", "h2"],
                    "parameters": ["e1"],
                    "values": {"e1": {"h1": [[0.1, 0.3]], "h2": [[0.1, 0.3]] * 3}},
                }
            )
        )
        code, stdout, _ = run(capsys, "rank", str(path))
        assert code == 0
        groups = json.loads(stdout)
        assert len(groups) == 1
        assert sorted(groups[0]["objects"]) == ["h1", "h2"]
        assert groups[0]["mean_score"] == [0.1, 0.3]

    def test_rank_uses_library_order_on_midpoint_tie(self, tmp_path, capsys):
        # 0.4+0.8 and 0.5+0.7 differ only by IEEE noise; the tie goes to the
        # larger lower endpoint, as rank_compare says
        path = tmp_path / "tie.json"
        path.write_text(
            json.dumps(
                {
                    "universe": ["h1", "h2"],
                    "parameters": ["e1"],
                    "values": {"e1": {"h1": [[0.4, 0.8]], "h2": [[0.5, 0.7]]}},
                }
            )
        )
        code, stdout, _ = run(capsys, "rank", str(path))
        assert code == 0
        groups = json.loads(stdout)
        assert [g["objects"] for g in groups] == [["h2"], ["h1"]]


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys):
        assert run(capsys, "complement", "/nonexistent.json")[0] == 2

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "universe": ["h1"],
                    "parameters": ["e1"],
                    "values": {"e1": {"h1": [[0.5, 1.2]]}},
                }
            )
        )
        assert run(capsys, "complement", str(bad))[0] == 2

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "dup.json"
        bad.write_text(
            '{"universe": ["h1"], "parameters": ["e1"],'
            ' "values": {"e1": {"h1": [[0.1, 0.2]], "h1": [[0.3, 0.4]]}}}'
        )
        code, stdout, err = run(capsys, "complement", str(bad))
        assert code == 2 and stdout == ""
        assert err == "error: duplicate key 'h1'\n"

    def test_usage_error_exits_1(self, capsys):
        assert run(capsys, "union", FA)[0] == 1
        assert run(capsys, "no-such-command")[0] == 1

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, "complement", FA, "-o", str(out))
        assert code == 2
        assert err.startswith("error: cannot write")

    def test_endpoint_too_large_for_float_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(
            '{"universe": ["h1"], "parameters": ["e1"],'
            ' "values": {"e1": {"h1": [[0, 1' + "0" * 400 + ']]}}}'
        )
        code, _, err = run(capsys, "complement", str(bad))
        assert code == 2
        assert err.startswith("error: cell e1/h1")

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000,
            '{"universe": ["h1"], "parameters": ["e1"],'
            ' "values": {"e1": {"h1": [[0, 1' + "0" * 5000 + "]]}}}",
        ],
        ids=["nested-too-deeply", "integer-beyond-digit-limit"],
    )
    def test_unparseable_json_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run(capsys, "complement", str(bad))
        assert code == 2
        assert err.startswith("error: malformed JSON")

    @pytest.mark.parametrize("command", ["score", "complement"])
    def test_closed_stdout_exits_2(self, tmp_path, command):
        universe = [f"h{j:03d}" for j in range(300)]
        parameters = [f"e{i:02d}" for i in range(20)]
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({
            "universe": universe,
            "parameters": parameters,
            "values": {e: {h: [[0.1, 0.2], [0.3, 0.7]] for h in universe} for e in parameters},
        }))
        src = str(Path(__file__).parent.parent / "src")
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        proc = subprocess.Popen(
            [sys.executable, "-m", "ivhfss", command, str(doc)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        proc.stdout.close()  # the reader goes away before any output is written
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "error: stdout closed before the output was written\n"


class TestCheckLaws:
    def test_small_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "check-laws", "--trials", "20", "--report", str(report)
        )
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.strip()]
        assert len(lines) == 54
        data = json.loads(report.read_text())
        assert len(data) == 54
        assert {d["law_id"] for d in data} > {"P2.12.i", "P3.11.ii", "P4.5.vi"}
        for d in data:
            assert d["status"] in ("holds", "violated")
            assert {"law_id", "status", "trials_run", "equality_used"} <= set(d)

    @pytest.mark.parametrize(
        "flag",
        [
            ("--trials", "0"),
            ("--grid-step", "0"),
            ("--grid-step", "0.3"),
            ("--grid-step", "1e-310"),
            ("--grid-step", "5e-324"),
        ],
    )
    def test_invalid_config_exits_1(self, capsys, flag):
        code, stdout, err = run(capsys, "check-laws", *flag)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")

    def test_defaults_are_the_check_config_defaults(self):
        # the CLI names them itself, so that it need not import the checker
        from dataclasses import astuple

        from ivhfss.cli import build_parser
        from ivhfss.laws import CheckConfig

        args = build_parser().parse_args(["check-laws"])
        assert (args.grid_step, args.trials, args.seed) == astuple(CheckConfig())

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        code, _, err = run(
            capsys, "check-laws", "--trials", "1", "--grid-step", "1", "--report", str(report)
        )
        assert code == 2
        assert err.startswith("error: cannot write")


# one argv per subcommand; "{}" stands for the first input document
SUBCOMMANDS = {
    "union": ["union", "{}", FA],
    "intersect": ["intersect", "{}", FA],
    "complement": ["complement", "{}"],
    "ringsum": ["ringsum", "{}", FA],
    "ringprod": ["ringprod", "{}", FA],
    "subset": ["subset", "{}", FA],
    "elem-op": ["elem-op", "--kind", "o1", "{}", FA],
    "score": ["score", "{}"],
    "rank": ["rank", "{}"],
    "family-union": ["family-union", "{}", FA],
    "family-intersect": ["family-intersect", "{}", FA],
    "check-laws": ["check-laws", "--trials", "1", "--grid-step", "1"],
}


class TestExitCodeMatrix:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_exit_codes(self, tmp_path, capsys, command):
        def argv(path):
            return [str(path) if a == "{}" else a for a in SUBCOMMANDS[command]]

        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"universe": [')
        cases = [(argv(FA) + ["--no-such-flag"], 1), ([command, "--help"], 0)]
        if command == "check-laws":
            cases.append((["check-laws", "--trials", "x"], 1))
        else:
            cases += [(argv(tmp_path / "missing.json"), 2), (argv(malformed), 2)]
        for args, want in cases:
            code, _, err = run(capsys, *args)
            assert code == want, args
            assert "Traceback" not in err, args
