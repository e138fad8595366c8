"""The three workloads: the law suite and the CLI mix on two document shapes.

Each ``run_*`` function returns a dict with ``attempted``, ``failed``,
``failures``, ``metrics`` (name -> (value, unit)) and ``detail``.
End-to-end runs have tracing off; traced runs (``trace=True``) report the
per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import harness
from calibrate import Pacer
from docgen import make_documents
from tracer import KERNEL_FUNCTIONS, LAW_BUILDERS, LAYERS, Tracer

WORKLOADS = ("laws", "docs-tall", "docs-wide")
TOTAL_LAYERS = (
    "kernels", "intervals", "elements", "softsets", "io",
    "laws.checker", "laws.generators", "laws.registry", "laws.evaluate",
)
E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


# Spans whose calls and self time are reported; "@<law>" variants are summed.
SPAN_METRICS = (
    [f"kernels.{fn}" for fn in KERNEL_FUNCTIONS]
    + [f"{layer}.{fn}" for layer, (_module, functions) in LAYERS.items() for fn in functions]
    + [f"laws.registry.{field}" for field in LAW_BUILDERS]
    + ["laws.evaluate"]
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for base in SPAN_METRICS:
        names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
    names += [("kernels.rank_key.calls", "count"), ("kernels.dedup_ratio", "ratio")]
    for fn in ("parse_document", "serialize_document"):
        names += [(f"io.{fn}.bytes", "B"), (f"io.{fn}.MB_per_s", "MB/s")]
    names += [
        ("laws.checker.check_law.p50_s", "s"),
        ("laws.checker.check_law.max_s", "s"),
        ("laws.trials", "count"),
        ("laws.shrink_steps", "count"),
        ("laws.valid_ratio", "ratio"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in TOTAL_LAYERS if layer not in SPAN_METRICS]
    names += [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(attempted, failures, metrics, detail):
    """The run's outcome; end-to-end runs also get ``pass_frac``."""
    failures = {k: v for k, v in failures.items() if v}
    if "setup_s" in metrics:
        metrics["pass_frac"] = (1.0 - len(failures) / attempted, "ratio")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "detail": detail,
    }


def _traced_result(tracer, attempted, failures, wall, overhead):
    """Per-layer metrics, after checking that no span outlasts the traced run."""
    metrics = layer_metrics(tracer, wall, overhead)
    busy = sum(rec[2] for rec in tracer.totals().values())
    if busy > wall:
        failures["trace"] = [f"span self time {busy:.3f} s exceeds the traced wall time {wall:.3f} s"]
    return _result(attempted, failures, metrics, trace_detail(tracer))


# --- per-layer metrics from a tracer ---


def layer_metrics(tracer: Tracer, wall: float, overhead: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts
    units = dict(per_layer_names())
    values: dict[str, float] = {}

    for base in SPAN_METRICS:
        recs = [rec for name, rec in totals.items() if name == base or name.startswith(base + "@")]
        values[f"{base}.calls"] = sum(r[0] for r in recs)
        values[f"{base}.self_s"] = sum(r[2] for r in recs)
    values["kernels.rank_key.calls"] = counts["kernels.rank_key"]
    pairs = counts["kernels.pairs_in"]
    values["kernels.dedup_ratio"] = counts["kernels.intervals_out"] / pairs if pairs else 0.0
    for fn in ("parse_document", "serialize_document"):
        nbytes = counts[f"io.{fn}.bytes"]
        busy = totals.get(f"io.{fn}", [0, 0.0, 0.0])[1]
        values[f"io.{fn}.bytes"] = nbytes
        values[f"io.{fn}.MB_per_s"] = nbytes / busy / 1e6 if busy else 0.0
    law_times = [dt for _label, dt in tracer.samples.get("laws.checker.check_law", [])]
    values["laws.checker.check_law.p50_s"] = statistics.median(law_times) if law_times else 0.0
    values["laws.checker.check_law.max_s"] = max(law_times, default=0.0)
    values["laws.trials"] = counts["laws.trials"]
    values["laws.shrink_steps"] = counts["laws.shrink_steps"]
    checked = counts["laws.tuples_checked"]
    values["laws.valid_ratio"] = counts["laws.tuples_valid"] / checked if checked else 0.0
    for layer in TOTAL_LAYERS:
        values[f"{layer}.self_s"] = sum(
            rec[2] for name, rec in totals.items() if name == layer or name.startswith(layer + ".")
        )
    values["trace.wall_s"] = wall
    values["trace.overhead_frac"] = overhead
    return {name: (values.get(name, 0), unit) for name, unit in units.items()}


def trace_detail(tracer: Tracer) -> dict:
    return {
        "absent": tracer.absent,
        "spans": [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(tracer.agg.items(), key=lambda kv: -kv[1][2])
        ],
        "check_law_s": dict(tracer.samples.get("laws.checker.check_law", [])),
        "counts": dict(tracer.counts),
    }


# --- laws ---


def run_laws(seed: int, seconds: int, trace: bool) -> dict:
    import ivhfss.laws as laws

    config = laws.CheckConfig(seed=seed)
    expected = gate.load_expected()

    def suite_and_gate():
        reports = laws.run_suite(config)
        by_id = {law.law_id: law for law in laws.registry()}
        return reports, gate.check_laws(reports, seed, laws.replay, by_id, expected)

    if trace:
        # The overhead is measured on every ninth law, untraced and then
        # traced: the whole suite untraced as well would make the run half
        # as long again.
        def check_slice():
            return [laws.check_law(law, config, allow_partial=True) for law in laws.registry()[::9]]

        start = time.perf_counter()
        plain = check_slice()
        untraced = time.perf_counter() - start
        with Tracer():
            start = time.perf_counter()
            traced = check_slice()
            overhead = (time.perf_counter() - start) / untraced - 1.0
        with Tracer() as tracer:
            start = time.perf_counter()
            reports, failures = suite_and_gate()
            wall = time.perf_counter() - start
        for before, after in zip(plain, traced):
            if gate.law_record(before) != gate.law_record(after):
                failures.setdefault(before.law_id, []).append("traced report differs from untraced")
        tracer.counts["laws.trials"] = sum(r.trials_run for r in reports)
        tracer.counts["laws.shrink_steps"] = sum(r.shrink_steps for r in reports)
        return _traced_result(tracer, len(failures), failures, wall, overhead)

    pacer = Pacer()
    setup = harness.measure_setup(pacer, harness.SETUP_SPAWNS // 2)
    checker = sys.modules["ivhfss.laws.checker"]
    suites = []  # (raw, scaled) seconds
    while not suites or sum(raw for raw, _ in suites) < seconds:
        law_times: list[float] = []
        pacing = Tracer()  # only patches check_law, to probe between laws
        pacing.patch(checker, "check_law", lambda f: pacer.paced(f, law_times), "check_law")
        first_probe = len(pacer.probes)
        try:
            start = time.perf_counter()
            reports = laws.run_suite(config)
            elapsed = time.perf_counter() - start
        finally:
            pacing.uninstall()
        raw = elapsed - sum(pacer.probes[first_probe:])
        suites.append((raw, sum(law_times) if law_times else pacer.scale(raw)))
    peak = _rss_mb()
    setup += harness.measure_setup(pacer, harness.SETUP_SPAWNS - len(setup), warm=False)
    by_id = {law.law_id: law for law in laws.registry()}
    failures = gate.check_laws(reports, seed, laws.replay, by_id, expected)
    wall = statistics.median(scaled for _, scaled in suites)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (wall, "s"),
        # one user command here: the whole suite, as `ivhfss check-laws` runs it
        "cmd_p50_s": (wall, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {"setup_s": setup, "suite_s": suites, "speed": pacer.speed()}
    return _result(len(failures), failures, metrics, detail)


# --- CLI documents ---


def prepare(workload: str, seed: int):
    workdir = harness.WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    docs = make_documents(workload, seed)
    for name, data in docs.items():
        (workdir / f"{name}.json").write_bytes(data)
    return workdir, docs


def _read_output(workdir, out, stdout: bytes) -> bytes:
    if out is None:
        return b""
    if out == "-":
        return stdout
    path = workdir / out
    return path.read_bytes() if path.exists() else b""


def mix_inprocess(workdir, main):
    """The command mix through ``main(argv)`` in this process."""
    for _key, _argv, out in gate.MIX:
        if out not in (None, "-"):
            (workdir / out).unlink(missing_ok=True)
    runs = []
    for key, argv, out in gate.MIX:
        args = [str(workdir / a) if a.endswith(".json") else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        wall = time.perf_counter() - start
        data = _read_output(workdir, out, stdout.getvalue().encode())
        runs.append((key, code, data, wall, 0.0))
    return runs


def run_docs(ivhfss, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import ivhfss.cli as cli

    workdir, docs = prepare(workload, seed)
    checks = gate.DocsGate(workload, seed, docs, ivhfss, gate.load_expected())

    if trace:
        main = lambda argv: cli.main(argv)  # looked up per call, so the traced main runs
        start = time.perf_counter()
        mix_inprocess(workdir, main)
        untraced = time.perf_counter() - start
        with Tracer() as tracer:
            start = time.perf_counter()
            runs = mix_inprocess(workdir, main)
            wall = time.perf_counter() - start
        failures = {key: checks.check(key, code, data) for key, code, data, _, _ in runs}
        shutil.rmtree(workdir)
        return _traced_result(tracer, len(runs), failures, wall, wall / untraced - 1.0)

    # The mix runs from a lean child process; see mixrun.py.
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mixrun.py")), str(workdir), str(seconds)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"mix runner failed: {proc.stderr.strip()[-2000:]}")
    timing = json.loads(proc.stdout)
    passes = timing["passes"]
    failures: dict[str, list[str]] = {}
    outputs = {key: out for key, _argv, out in gate.MIX}
    for record in passes[-1]:  # the outputs on disk are the last pass's
        key = record["key"]
        data = _read_output(workdir, outputs[key], (workdir / f"{key}.stdout").read_bytes())
        failures[key] = checks.check(key, record["code"], data)
        for number, earlier in enumerate(passes[:-1], 1):
            same = next(r for r in earlier if r["key"] == key)
            if same["code"] or same["sha256"] != record["sha256"]:
                failures[f"{key}#{number}"] = ["exit code or output differs from the last pass"]
    shutil.rmtree(workdir)
    cmd_times = [r["scaled_s"] for records in passes for r in records]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in timing["setup"]), "s"),
        "wall_s": (statistics.median(sum(r["scaled_s"] for r in records) for records in passes), "s"),
        "cmd_p50_s": (statistics.median(cmd_times), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for records in passes for r in records), "MB"),
    }
    return _result(len(cmd_times), failures, metrics, timing)
