"""Self-tests for the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import types
import warnings

import pytest

import docgen
import gate
import harness
import workloads
from tracer import Tracer

ivhfss = harness.import_program()
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = docgen.Shape(parameters=4, objects=6, min_intervals=1, max_intervals=4, canonical=False)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Documents of a small shape, written where the mix expects them."""
    monkeypatch.setitem(docgen.SHAPES, "tiny", TINY)
    monkeypatch.setattr(harness, "WORK", tmp_path)
    return workloads.prepare("tiny", 3)


# --- generator ---


@pytest.mark.parametrize("workload", sorted(docgen.SHAPES))
def test_same_seed_same_bytes(workload):
    assert docgen.make_documents(workload, 7) == docgen.make_documents(workload, 7)


@pytest.mark.parametrize("workload", sorted(docgen.SHAPES))
def test_other_seed_other_bytes_same_shape(workload):
    shape = docgen.SHAPES[workload]
    first, second = docgen.make_documents(workload, 7), docgen.make_documents(workload, 8)
    for name in "ABC":
        assert first[name] != second[name]
        a, b = json.loads(first[name]), json.loads(second[name])
        assert a["universe"] == b["universe"] and a["parameters"] == b["parameters"]
        assert len(a["universe"]) == shape.objects and len(a["parameters"]) == shape.parameters
        for doc in (a, b):
            sizes = {len(cell) for row in doc["values"].values() for cell in row.values()}
            # a non-canonical cell may carry one planted interval beyond the maximum
            assert shape.min_intervals <= min(sizes) and max(sizes) <= shape.max_intervals + 1


def test_parameter_overlap():
    docs = {n: json.loads(raw) for n, raw in docgen.make_documents("docs-tall", 1).items()}
    a, b, c = (set(docs[n]["parameters"]) for n in "ABC")
    assert len(a & b) == len(a) // 2 and b - a
    assert a == c


def test_tall_inputs_are_canonical_and_wide_inputs_are_not():
    for raw in docgen.make_documents("docs-tall", 2).values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ivhfss.serialize_document(ivhfss.parse_document(raw)).encode() == raw
    raw = docgen.make_documents("docs-wide", 2)["A"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ivhfss.parse_document(raw)
    shape = docgen.SHAPES["docs-wide"]
    assert len(caught) == shape.parameters * shape.objects


# --- gate ---


def test_gate_passes_the_mix_and_counts_corrupted_output(tiny):
    workdir, docs = tiny
    import ivhfss.cli as cli

    checks = gate.DocsGate("tiny", 3, docs, ivhfss, {})
    with warnings.catch_warnings(record=True):  # the CLI re-sorts these cells, and says so
        runs = workloads.mix_inprocess(workdir, cli.main)
    assert len(runs) == len(gate.MIX)
    for key, code, data, _wall, _rss in runs:
        assert checks.check(key, code, data) == [], key
    key, code, data = next((k, c, d) for k, c, d, _, _ in runs if k == "ringsum")
    corrupted = data.replace(b"0.", b"0.9", 1)
    assert checks.check(key, code, corrupted)
    assert checks.check(key, 2, data) == ["exit code 2"]
    assert checks.check("subset", 3, b"")


def test_gate_checks_recorded_hash(tiny):
    _workdir, docs = tiny
    checks = gate.DocsGate("tiny", 3, docs, ivhfss, {"seed": 3, "tiny": {"score": "0" * 64}})
    data = checks.expected_bytes("score")
    assert checks.check("score", 0, data) == ["SHA-256 differs from the recorded value"]


def test_law_gate_counts_wrong_status_and_failed_replay():
    def report(law_id, status, counterexample=None):
        return types.SimpleNamespace(law_id=law_id, status=status, trials_run=1,
                                     counterexample=counterexample)

    reports = [report(law_id, status) for law_id, status in gate.PINNED_STATUS.items()]
    reports[0] = report(reports[0].law_id, "violated", {"operands": []})
    failures = gate.check_laws(reports, 1, lambda law, ce: False, {}, {})
    failed = {k for k, v in failures.items() if v}
    assert failed == {reports[0].law_id, "suite"}  # 50 of 54 reports present
    assert any("replay" in p for p in failures[reports[0].law_id])


def test_law_gate_compares_recorded_fields_only():
    rec = types.SimpleNamespace(law_id="P3.16.i", status="holds", trials_run=5,
                                counterexample=None, elapsed=1.0)
    recorded = {"seed": 9, "laws": {"P3.16.i": {"status": "holds", "trials_run": 6, "counterexample": None}}}
    failures = gate.check_laws([rec], 9, None, {}, recorded)
    assert failures["P3.16.i"] == ["trials_run differs from the recorded value"]
    assert gate.check_laws([rec], 10, None, {}, recorded)["P3.16.i"] == []


# --- tracer ---


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    leaf = tracer.span("leaf", lambda: work(4))

    def middle_body():
        work(2)
        leaf()

    middle = tracer.span("middle", middle_body)

    def root_body():
        work(1)
        middle()
        work(8)
        leaf()

    tracer.span("root", root_body)()
    totals = tracer.totals()
    assert totals["root"] == [1, 19.0, 9.0]
    assert totals["middle"] == [1, 6.0, 2.0]
    assert totals["leaf"] == [2, 8.0, 8.0]
    assert tracer.agg[("leaf", "middle")] == [1, 4.0, 4.0]
    assert tracer.agg[("leaf", "root")] == [1, 4.0, 4.0]
    assert tracer.stack == [[None, 19.0]]


def test_span_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 3
        raise ValueError

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.totals()["boom"] == [1, 3.0, 3.0] and len(tracer.stack) == 1


def test_missing_function_is_absent_not_a_crash():
    tracer = Tracer()
    tracer.patch(types.ModuleType("gone"), "deleted", lambda f: f, "layer.deleted")
    tracer.patch(None, "anything", lambda f: f, "layer.module_gone")
    assert tracer.absent == ["layer.deleted", "layer.module_gone"]


def test_wrapping_reaches_every_binding_and_is_undone():
    import ivhfss.elements as elements
    import ivhfss.intervals as intervals
    import ivhfss.io as io_mod

    original = intervals.construct_interval
    with Tracer() as tracer:
        assert io_mod.construct_interval is intervals.construct_interval is not original
        assert elements.construct_interval is intervals.construct_interval
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ivhfss.parse_document(docgen.make_documents("docs-wide", 1)["A"])
    assert io_mod.construct_interval is original and elements.construct_interval is original
    totals = tracer.totals()
    assert totals["intervals.construct_interval"][0] > 0
    assert ("intervals.construct_interval", "io.parse_document") in tracer.agg
    assert tracer.absent == []


# --- the result contract ---


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in workloads.E2E_METRICS]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == workloads.per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_no_program_means_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    with pytest.raises(harness.ProgramMissing):
        harness.import_program()


def test_pacer_scales_by_the_probes_either_side(monkeypatch):
    import calibrate

    probes = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(calibrate, "probe", lambda: next(probes))
    pacer = calibrate.Pacer()
    assert pacer.scale(2.0) == pytest.approx(2.0 * 0.010 / 0.020)
    assert pacer.scale(1.0) == pytest.approx(1.0 * 0.010 / 0.025)
    assert pacer.speed() == pytest.approx(0.010 / 0.020)
