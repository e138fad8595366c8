"""Source hygiene that needs no linter.

Every imported name is used, importing the CLI leaves the law checker out,
importing the law checker leaves the process pool out, and the README's usage
block names every CLI command with exactly its flags.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ivhfss"
README = SRC.parent.parent / "README.md"

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


def test_readme_usage_names_each_command_with_its_flags():
    from ivhfss.cli import build_parser

    subs = next(a for a in build_parser()._actions if a.dest == "command")
    want = {
        name: sorted(a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest != "help")
        for name, sub in subs.choices.items()
    }
    got = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("ivhfss "):
            continue
        usage = line.split("#")[0]
        command = usage.split()[1]
        assert command not in got, f"two usage lines for {command}"
        flags = re.findall(r"(?<![\w-])(-o|--[a-z-]+)", usage)
        got[command] = sorted("--output" if f == "-o" else f for f in flags)  # -o stands for -o/--output
    assert got == want
