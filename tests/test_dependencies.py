"""The runtime dependency list is numpy alone: SciPy must never load.

The stabilizer kernels call ``int.bit_count``, so the supported Python
floor must stay at 3.10 or higher.  ``errors.py``, whose guards every
module imports, needs only the standard library at import time.  Building
the CLI's parser builds no state: a ``--state`` default is resolved only
when a subcommand that takes it is parsed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import bellsim
from bellsim import cli
from bellsim import statevector as sv

SRC = str(Path(bellsim.__file__).resolve().parents[1])
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

IMPORT_ONLY = "import sys, bellsim\nprint('scipy' in sys.modules)"

CLI_RUN = """import runpy, sys
sys.argv = ["bellsim", "lhv-bound"]
try:
    runpy.run_module("bellsim.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("scipy" in sys.modules)
"""


def loads_scipy(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_bellsim_leaves_scipy_unloaded():
    assert loads_scipy(IMPORT_ONLY) == "False"


def test_cli_lhv_bound_leaves_scipy_unloaded():
    assert loads_scipy(CLI_RUN) == "False"


def test_requires_python_floor_has_int_bit_count():
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)[^"]*"\s*$', text, re.MULTILINE)
    assert match, "pyproject.toml must declare requires-python as >=X.Y"
    assert (int(match.group(1)), int(match.group(2))) >= (3, 10)


def test_errors_module_imports_no_numpy_at_module_level():
    tree = ast.parse((Path(SRC) / "bellsim" / "errors.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] == "numpy"]


def test_no_module_references_the_removed_index_helper():
    for path in sorted((Path(SRC) / "bellsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_is_index" not in names, path.name


def test_building_the_cli_parser_builds_no_state(monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("a StateVector was built")

    monkeypatch.setattr(sv, "bell_psi_plus", no_state)
    monkeypatch.setattr(sv.StateVector, "__post_init__", no_state)
    assert cli.build_parser().parse_args(["lhv-bound"]).command == "lhv-bound"
