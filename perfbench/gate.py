"""Correctness gate: every law report and every CLI output is checked.

Each check returns a list of failure messages; an empty list is a pass.
Values recorded from a known-good commit, for the default seed, live in
``expected.json``; ``record.py`` writes that file.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import reference
from docgen import render

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 52417  # ivhfss.laws.CheckConfig's own default

# key, argv (run in the directory holding A.json, B.json, C.json), output file.
# "-" is the command's standard output.  Every command must exit 0.
MIX = (
    ("union", ["union", "A.json", "B.json", "-o", "union.json"], "union.json"),
    ("union-pairwise", ["union", "--mode", "pairwise", "A.json", "B.json", "-o", "union-pairwise.json"], "union-pairwise.json"),
    ("intersect", ["intersect", "A.json", "B.json", "-o", "intersect.json"], "intersect.json"),
    ("complement", ["complement", "A.json", "-o", "complement.json"], "complement.json"),
    ("ringsum", ["ringsum", "A.json", "C.json", "-o", "ringsum.json"], "ringsum.json"),
    ("ringprod", ["ringprod", "A.json", "C.json", "-o", "ringprod.json"], "ringprod.json"),
    ("o1", ["elem-op", "--kind", "o1", "A.json", "C.json", "-o", "o1.json"], "o1.json"),
    ("o4", ["elem-op", "--kind", "o4", "A.json", "C.json", "-o", "o4.json"], "o4.json"),
    # A within A: every cell is aligned and compared, and the answer is yes.
    # (A within A-union-B is not: P3.7.iii/iv are violated laws.)
    ("subset", ["subset", "A.json", "A.json"], None),
    ("family-union", ["family-union", "A.json", "B.json", "C.json", "-o", "family-union.json"], "family-union.json"),
    ("score", ["score", "A.json"], "-"),
)

# Statuses pinned by tests/test_acceptance.py and tests/test_laws.py.
PINNED_STATUS = {
    **{law: "holds" for law in (
        [f"P2.12.{i}" for i in ("i", "ii")]
        + [f"P3.5.{i}" for i in ("i", "ii", "iii", "iv", "v", "vi")]
        + [f"P3.6.{i}" for i in ("i", "ii")]
        + [f"P3.8.{i}" for i in ("i", "ii", "iii", "iv")]
        + [f"P3.9.{i}" for i in ("i", "ii", "iii", "iv")]
        + [f"P3.10.{i}" for i in ("i", "ii")]
        + [f"P3.17.{i}" for i in ("i", "ii")]
        + [f"P4.{k}.{i}" for k in (2, 3, 4, 5) for i in ("i", "ii")]
    )},
    **{law: "violated" for law in (
        [f"P4.{k}.{i}" for k in (2, 3, 4, 5) for i in ("iii", "iv", "v", "vi")]
        + ["P3.11.i", "P3.11.ii", "P3.7.iii", "P3.7.iv"]
    )},
}
LAW_COUNT = 54


def load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def counterexample_bytes(counterexample) -> str | None:
    return None if counterexample is None else json.dumps(counterexample, sort_keys=True)


def law_record(report) -> dict:
    """The report fields the gate pins; any other field is ignored."""
    return {
        "status": report.status,
        "trials_run": report.trials_run,
        "counterexample": counterexample_bytes(report.counterexample),
    }


# --- laws ---


def check_laws(reports, seed: int, replay, laws_by_id: dict, expected: dict) -> dict[str, list[str]]:
    """law_id -> failures, for every law pinned or reported."""
    recorded = expected.get("laws", {}) if seed == expected.get("seed") else {}
    by_id = {r.law_id: r for r in reports}
    failures: dict[str, list[str]] = {}
    for law_id in sorted(set(by_id) | set(PINNED_STATUS) | set(recorded)):
        problems = failures.setdefault(law_id, [])
        report = by_id.get(law_id)
        if report is None:
            problems.append("no report")
            continue
        if law_id in PINNED_STATUS and report.status != PINNED_STATUS[law_id]:
            problems.append(f"status {report.status}, pinned {PINNED_STATUS[law_id]}")
        if report.counterexample is not None:
            law = laws_by_id.get(law_id)
            if law is None or not replay(law, report.counterexample):
                problems.append("counterexample does not replay")
        if law_id in recorded:
            got = law_record(report)
            for key, want in recorded[law_id].items():
                if got[key] != want:
                    problems.append(f"{key} differs from the recorded value")
    if len(by_id) != LAW_COUNT:
        failures.setdefault("suite", []).append(f"{len(by_id)} reports, expected {LAW_COUNT}")
    return failures


# --- CLI outputs ---

def _first_difference(got: bytes, want: bytes) -> str:
    for number, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {number}"
    return f"length {len(got)} against {len(want)}"


class DocsGate:
    """Checks each command's exit code and output bytes.

    The expected bytes are rendered from ``reference`` in the canonical
    layout, so equality checks every value and the interval order.  Each
    output must also come back unchanged through ``ivhfss`` parse and
    serialize.  For the recorded seed the SHA-256 must match the record.
    """

    def __init__(self, workload: str, seed: int, docs: dict, ivhfss, expected: dict):
        self.ivhfss = ivhfss
        self.universe = json.loads(docs["A"])["universe"]
        self.parsed = {name: reference.load(raw) for name, raw in docs.items()}
        self.recorded = expected.get(workload, {}) if seed == expected.get("seed") else {}
        self._models: dict = {}

    def model(self, key: str):
        if key not in self._models:
            self._models[key] = reference.expected(key, self.parsed)
        return self._models[key]

    def expected_bytes(self, key: str) -> bytes:
        params, cells = self.model(key)
        table = {e: {h: cells[(e, h)] for h in self.universe} for e in params}
        if key == "score":
            return (json.dumps({e: {h: list(v) for h, v in row.items()} for e, row in table.items()},
                               indent=2) + "\n").encode()
        return render(self.universe, params, table)

    def round_trip(self, data: bytes) -> list[str]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a re-sorted cell shows as a byte difference
                again = self.ivhfss.serialize_document(self.ivhfss.parse_document(data)).encode()
        except (ValueError, self.ivhfss.errors.IvhfssError) as exc:
            return [f"output does not parse: {exc}"]
        if again != data:
            return [f"output does not re-serialize to the same bytes, at {_first_difference(again, data)}"]
        return []

    def check(self, key: str, exit_code: int, data: bytes) -> list[str]:
        problems = [f"exit code {exit_code}"] if exit_code != 0 else []
        if key == "subset":
            return problems
        want = self.expected_bytes(key)
        if data != want:
            problems.append(f"output differs from the reference at {_first_difference(data, want)}")
        if key != "score":
            problems += self.round_trip(data)
        if key in self.recorded and hashlib.sha256(data).hexdigest() != self.recorded[key]:
            problems.append("SHA-256 differs from the recorded value")
        return problems
