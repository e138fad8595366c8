"""Paths, the import guard, the environment stamp and process timing."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout under test
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SPAWNS = 10
# Runs in a fresh interpreter: the work every CLI call pays before its own.
SETUP_CODE = """\
import time
import ivhfss, ivhfss.cli, ivhfss.laws
getattr(ivhfss.laws, "registry", lambda: None)()
print(time.clock_gettime(time.CLOCK_MONOTONIC), ivhfss.__file__)
"""


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ivhfss under src/."""


def import_program():
    """Import ivhfss from this checkout's src/, never from an installed copy."""
    if not (SRC / "ivhfss" / "__init__.py").is_file():
        raise ProgramMissing(f"no ivhfss package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ivhfss

    check_origin(ivhfss.__file__)
    return ivhfss


def check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"ivhfss was imported from {path}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def src_digest() -> str:
    """SHA-256 over src/ file names and contents: the code under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def env_stamp(ivhfss, workload: str, seed: int, trace: bool, seconds: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "import_path": ivhfss.__file__,
        "backend": getattr(ivhfss, "BACKEND_NAME", None),
        "IVHFSS_PURE_PYTHON": os.environ.get("IVHFSS_PURE_PYTHON"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": src_digest(),
    }


def run_child(argv: list[str], cwd: Path, stdout, stderr) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(pacer, spawns: int = SETUP_SPAWNS, warm: bool = True) -> list[tuple]:
    """(raw, scaled) seconds from spawning a fresh interpreter until the imports return.

    Each timed spawn is followed by a probe of ``pacer``, which scales it to
    reference speed.  With ``warm``, one discarded spawn first writes the
    bytecode caches.
    """
    times = []
    for i in range(spawns + 1 if warm else spawns):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise ProgramMissing(f"setup child failed: {out.stderr.strip()[-500:]}")
        ready, path = out.stdout.split(maxsplit=1)
        check_origin(path.strip())
        if i or not warm:
            raw = float(ready) - start
            times.append((raw, pacer.scale(raw)))
    return times

