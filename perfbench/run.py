"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 10 --trace 0

Run from anywhere; it measures the ``ivhfss`` under ``src/`` of the checkout
that holds this file.  The last line of standard output is the result
object; the line before it stamps the environment.  The full detail goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`` in the checkout.
Exit code 2 means there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys

import gate
import harness
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ivhfss = harness.import_program()
        stamp = harness.env_stamp(ivhfss, args.workload, args.seed, bool(args.trace), args.seconds)
        if args.workload == "laws":
            result = workloads.run_laws(args.seed, args.seconds, bool(args.trace))
        else:
            result = workloads.run_docs(ivhfss, args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for key, problems in result["failures"].items():
        print(f"perfbench: FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    harness.OUT.mkdir(exist_ok=True)
    out = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"env": stamp, "metrics": metrics, "failures": result["failures"], "detail": result["detail"]},
        indent=1,
    ))
    print("env " + json.dumps(stamp))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
