"""CLI behaviors: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conftest as golden
from conftest import FORKED, assert_table
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


    def test_memory_error_exits_2(self, capsys, monkeypatch):
        from ivhfss import _kernels_py as kernels

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(kernels, "ring_sum_element", exhausted)
        code, stdout, err = run(capsys, "ringsum", FA, FA)
        assert code == 2 and stdout == ""
        assert err == "error: out of memory: the input is too large to process\n"


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

    @FORKED
    def test_memory_error_in_a_worker_exits_2(self, capsys, cores, monkeypatch):
        from ivhfss.laws import checker

        def exhausted(*args, **kwargs):
            raise MemoryError

        cores(2)
        monkeypatch.setattr(checker, "check_law", exhausted)
        code, stdout, err = run(capsys, "check-laws", "--grid-step", "1", "--trials", "1")
        assert code == 2 and stdout == ""
        assert err == "error: out of memory: the input is too large to process\n"

    @FORKED
    def test_a_dead_worker_exits_2(self, capsys, cores, monkeypatch):
        from ivhfss.laws import checker

        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent, "the laws ran in the test process"
            os._exit(1)

        cores(2)
        monkeypatch.setattr(checker, "check_law", killed)
        code, stdout, err = run(capsys, "check-laws", "--grid-step", "1", "--trials", "1")
        assert code == 2 and stdout == ""
        assert err == "error: a worker process died while checking the laws\n"

    @FORKED
    def test_cores_do_not_change_the_output(self, tmp_path, capsys, cores):
        outputs = []
        for n in (1, 2):
            cores(n)
            report = tmp_path / f"report-{n}.json"
            code, stdout, err = run(
                capsys, "check-laws", "--grid-step", "0.5", "--trials", "50", "--seed", "9001", "--report", str(report)
            )
            assert code == 0 and err == ""
            outputs.append((stdout, report.read_bytes()))
        assert outputs[0] == outputs[1]

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


# --- output bytes of every document command, pinned ---
#
# Two seeded document sets, written as JSON text here so the pins cover the
# parser as well as the operations and the serializer.  "tall" is canonical:
# many small cells of whole thousandths.  "wide" stores 16-32 intervals a cell
# out of order, with JSON-integer endpoints, one -0.0, and planted chains of
# 3-5 midpoint near ties (neighbour gaps from 1e-16 to 4e-12, so some chains
# span more than the 1e-11 that the kernels treat as a near tie).


def _pinned_cell(rng, size, wide):
    cell = []
    while len(cell) < size:
        roll = rng.random()
        if cell and roll < 0.1:
            cell.append(rng.choice(cell))
        elif wide and roll < 0.25:
            x = rng.randint(0, 1000) / 1000
            cell.append(rng.choice([[0, x], [x, 1], [0, 1], [0, 0], [1, 1]]))
        elif wide and roll < 0.45:
            lo, up = sorted(rng.randint(100, 900) / 1000 for _ in range(2))
            step = rng.choice([1e-16, 3e-14, 4e-13, 4e-12])
            cell += [[lo + 3 * k * step, up - 2 * k * step] for k in range(rng.randint(3, 5))]
        else:
            a, b = rng.randint(0, 1000), rng.randint(0, 1000)
            cell.append([min(a, b) / 1000, max(a, b) / 1000])
    return cell


def pinned_documents(shape):
    """JSON texts of documents A, B (half of A's parameters) and C (A's parameters)."""
    rng = random.Random(f"cli-bytes:{shape}")
    wide = shape == "wide"
    n_params, n_objects, sizes = (3, 5, (16, 32)) if wide else (6, 40, (1, 6))
    universe = [f"o{j:02d}" for j in range(n_objects)]
    a_params = [f"p{i}" for i in range(n_params)]
    b_params = a_params[: n_params // 2] + [f"q{i}" for i in range(n_params - n_params // 2)]
    docs = {}
    for name, params in (("A", a_params), ("B", b_params), ("C", a_params)):
        values = {}
        for e in params:
            values[e] = {}
            for h in universe:
                cell = _pinned_cell(rng, rng.randint(*sizes), wide)
                if wide:
                    rng.shuffle(cell)
                else:  # whole thousandths print exactly, so this is the canonical order
                    cell.sort(key=lambda iv: (round(iv[0] + iv[1], 12), iv[0], iv[1]))
                values[e][h] = cell
        docs[name] = {"universe": universe, "parameters": params, "values": values}
    if wide:
        docs["A"]["values"]["p0"]["o00"].append([-0.0, 0.25])
    return {name: json.dumps(doc) for name, doc in docs.items()}


DOCUMENT_COMMANDS = {
    "union": ["union", "A.json", "B.json"],
    "union-pessimistic": ["union", "--align", "pessimistic", "A.json", "B.json"],
    "union-pairwise": ["union", "--mode", "pairwise", "A.json", "B.json"],
    "intersect": ["intersect", "A.json", "B.json"],
    "intersect-pairwise": ["intersect", "--mode", "pairwise", "A.json", "B.json"],
    "complement": ["complement", "A.json"],
    "ringsum": ["ringsum", "A.json", "C.json"],
    "ringprod": ["ringprod", "A.json", "C.json"],
    "o1": ["elem-op", "--kind", "o1", "A.json", "C.json"],
    "o2": ["elem-op", "--kind", "o2", "A.json", "C.json"],
    "o3": ["elem-op", "--kind", "o3", "A.json", "C.json"],
    "o4": ["elem-op", "--kind", "o4", "A.json", "C.json"],
    "subset": ["subset", "A.json", "A.json"],
    "subset-other": ["subset", "A.json", "C.json"],
    "family-union": ["family-union", "A.json", "B.json", "C.json"],
    "family-intersect": ["family-intersect", "--mode", "pairwise", "A.json", "B.json", "C.json"],
    "score": ["score", "A.json"],
    "rank": ["rank", "A.json"],
}


def document_outputs(shape, workdir, capsys):
    """SHA-256 of each command's exit code, stdout and stderr, run in ``workdir``."""
    for name, text in pinned_documents(shape).items():
        (workdir / f"{name}.json").write_text(text)
    digests = {}
    for key, argv in DOCUMENT_COMMANDS.items():
        code, out, err = run(capsys, *argv)
        digests[key] = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
    return digests


# recorded before the decoder's fast path and the shared near-tie rule
DOCUMENT_DIGESTS = {
    "tall": {
        "union": "be5586fb9a27a723cdec3e8dbf0dbde0cefd502cf6e0b7f7834779332baaf421",
        "union-pessimistic": "e36e41c9fd482fb436f983fc1e157d635c7e452e5efb5198a76bc69c816c130d",
        "union-pairwise": "7e2cc537990a84073853dc4b2eb45747d49b7eb40821e558591bca91495cdcde",
        "intersect": "6db61db010a722a7b0b9d8ad85ba0bc0b1e7fe83a9661a1e65d1e69efcbae017",
        "intersect-pairwise": "5b45a87abe11256f53b25fee9f4d090f42b35cc51721231697ed5f7c973cbb46",
        "complement": "0264ce418d13376666bed8cf4102c248d93caafd373b0dc92fd0cfe7356d69bb",
        "ringsum": "db1258397f43a74a35b49b7d8ef084d6158f08017bb7a98d1e21c2da5fbfbfe5",
        "ringprod": "c44158597b0e8b95aab991ac84023d8eeb5f5a03f5a60d46886a4e49dd30323a",
        "o1": "a63de608683eed513be14ab53b21583212c06c4fbb8f65c157d3111dbd04ec4a",
        "o2": "074469b4c6e1806f30e2bbf78517610f22199f0c587e0007fbc02be5b9f26088",
        "o3": "96be181c4cc2507525fde94b7e3d7f31f4f871d4611b575d4bbe5fa1a1cc1292",
        "o4": "9da8bac17d3110ad6d90be67f821ec9af8b205bc846329e752c9aae4834cfcfd",
        "subset": "74d01a0c051c963d9a9b8ab9dbeab1723f0ad8534ea9fa6a942f358d7fa011b4",
        "subset-other": "b16f4c0e68ad55abf36ef17751dc5b9ad96f7b25cb347c8fe6413dc77c635a57",
        "family-union": "9105aa12d62977ed155a362205b360008a683efec942c127a65e20e13d3ba32f",
        "family-intersect": "34a2a9350181b3d5980dd956892dfc6e9b9a11392d85b586acd8ec10594cb1fa",
        "score": "964eb0dfb6bd12e4ac38c9dffea0039765b9505ec848a28d355e530798c300d6",
        "rank": "639afa139423583acacb9000c77c83f71d0c3dd9eb886d4872631b42d220bf4b",
    },
    "wide": {
        "union": "c551077763e541710c572ebf65d83c48f5c48b05e6de423d1270befc63104e00",
        "union-pessimistic": "cf1b06805b00d4b0d6961626d098d4c77e85d6363e719a19ef4fdba2d7d89064",
        "union-pairwise": "0f40ba4fa9705b08a68b319e0633396145805b4e784d6c011b65866c702d36d7",
        "intersect": "8f8724404835e54bc677f8f705394b91f1f5ba049ea7d283e1b573dfed921fc9",
        "intersect-pairwise": "90d8b6c90ab4a848d9565004d0148859fcf42869accf02bcbe85c37856662cbb",
        "complement": "86b57565c4a93d02624c201e6d35d6eb31e64666f62da716a829693437f76ba0",
        "ringsum": "bd6a52186149589c47b720ed9a9902698297bceef92145d0518d826a5187913d",
        "ringprod": "7bdf64a0de07f955988fc6251c06fa181c4994655cc0b8137568955124eda9fa",
        "o1": "11a87b2f4cf0836ed37ecda1d42da5c8ec2395141cfc6344dacab32ba9c5b42e",
        "o2": "e0d3001ed2ebfd1f3bffeaea3fe1e85ddd93280bf6eda8906039a1c8127671f2",
        "o3": "469bea1a212faf735a317a0ce2d975fe881d111c827e8906fd642c8d2d5f1e1e",
        "o4": "faad0d76c8bd5bff524120a5f7d81ef0304bdb4cfd5b75d20530adf78b715fa3",
        "subset": "12f548fb3c059802e748c3816bee0b99472bb355ee0d56fac406da6fe3359ca2",
        "subset-other": "3015595bd413e8092f1ce6331ee5ade6ca595e639e4f55ad81205119008c93d7",
        "family-union": "0270d39b6d9e57fc55d7c78c82a5d2761a6b808b7580a9e7d2f23cc38894c866",
        "family-intersect": "5be25b2408543500e6653b6e6a5dce1d0bddbccbf209ec09d78fa547c0b867cb",
        "score": "e2a00a5576d86849701dcc9bd8abcb2f0c8e6577f344e5b69bda91fc9d0c63c5",
        "rank": "0bcd151b909a464cd970096c0bb5376be9e1a5af7886f67746b207151a5dd4e1",
    },
}


class TestDocumentBytes:
    @pytest.mark.parametrize("shape", sorted(DOCUMENT_DIGESTS))
    def test_every_command_prints_the_pinned_bytes(self, shape, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # warnings name the inputs by relative path
        assert document_outputs(shape, tmp_path, capsys) == DOCUMENT_DIGESTS[shape]
