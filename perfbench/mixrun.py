"""Run the CLI command mix as child processes, from a lean process.

    python3 perfbench/mixrun.py <workdir> <seconds>

Repeats the mix until ``seconds`` of mix time have passed (at least one
pass), with a few set-up spawns between passes, and prints one JSON object
with every command's exit code, wall time (raw, and scaled to reference
speed by a calibration probe after each command), peak RSS and output
digest.
It runs apart from the benchmark's main process because a child starts as
a copy of its parent: from a small parent, each child's peak RSS is its own.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import harness
from calibrate import Pacer
from gate import MIX

SETUP_SPAWNS_PER_PASS = 3


def one_pass(workdir: Path, pacer: Pacer) -> list[dict]:
    for _key, _argv, out in MIX:
        if out not in (None, "-"):
            (workdir / out).unlink(missing_ok=True)
    records = []
    for key, argv, out in MIX:
        stdout_path = workdir / f"{key}.stdout"
        with open(stdout_path, "wb") as so, open(workdir / f"{key}.stderr", "wb") as se:
            code, wall, rss = harness.run_child([sys.executable, "-m", "ivhfss", *argv], workdir, so, se)
        path = stdout_path if out == "-" else workdir / out if out else None
        data = path.read_bytes() if path is not None and path.exists() else b""
        records.append({"key": key, "code": code, "raw_s": wall, "scaled_s": pacer.scale(wall),
                        "rss_mb": rss, "sha256": hashlib.sha256(data).hexdigest()})
    return records


def main(workdir: str, seconds: str) -> int:
    pacer = Pacer()
    passes, setup = [], []
    while sum(r["raw_s"] for records in passes for r in records) < float(seconds) or not passes:
        passes.append(one_pass(Path(workdir), pacer))
        setup += harness.measure_setup(pacer, SETUP_SPAWNS_PER_PASS, warm=not setup)
    print(json.dumps({"passes": passes, "setup": setup, "probes": pacer.probes, "speed": pacer.speed()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
