"""Source hygiene that needs no linter.

Every imported name is used, importing the CLI leaves the law checker out,
and importing the law checker leaves the process pool out.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ivhfss"

# package __init__ modules import names to re-export them
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"unused imports in {path.name}: {unused}"


def _fresh_exit_code(code):
    path = [str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_the_law_checker_out():
    # every command pays for what ivhfss.cli imports; only check-laws needs ivhfss.laws
    assert _fresh_exit_code("import sys, ivhfss.cli; sys.exit('ivhfss.laws' in sys.modules)") == 0


def test_law_checker_import_leaves_the_pool_out():
    # importing ivhfss.laws is not a parallel run_suite, which alone needs a pool
    code = "import sys, ivhfss.laws; sys.exit(bool({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    assert _fresh_exit_code(code) == 0
