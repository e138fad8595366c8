"""Record the gate's expected values for the default seed.

    python3 perfbench/record.py

Runs the law suite and the CLI mix of both document workloads once, checks
them with everything the gate knows without a record, and writes
``expected.json``: each law's status, trial count and counterexample, and
the SHA-256 of each CLI output.  Run it only on a commit whose outputs are
known to be right; later commits are then held to these exact values.
"""

from __future__ import annotations

import hashlib
import json
import sys

import gate
import harness
import workloads


def main() -> int:
    ivhfss = harness.import_program()
    import ivhfss.cli as cli
    import ivhfss.laws as laws

    seed = gate.DEFAULT_SEED
    record: dict = {"seed": seed}
    reports = laws.run_suite(laws.CheckConfig(seed=seed))
    by_id = {law.law_id: law for law in laws.registry()}
    problems = {k: v for k, v in gate.check_laws(reports, seed, laws.replay, by_id, {}).items() if v}
    record["laws"] = {r.law_id: gate.law_record(r) for r in reports}
    for workload in ("docs-tall", "docs-wide"):
        workdir, docs = workloads.prepare(workload, seed)
        checks = gate.DocsGate(workload, seed, docs, ivhfss, {})
        record[workload] = {}
        for key, code, data, _wall, _rss in workloads.mix_inprocess(workdir, cli.main):
            if found := checks.check(key, code, data):
                problems[f"{workload}/{key}"] = found
            if key != "subset":
                record[workload][key] = hashlib.sha256(data).hexdigest()
    if problems:
        print(f"not recording, the gate fails: {problems}", file=sys.stderr)
        return 1
    gate.EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
