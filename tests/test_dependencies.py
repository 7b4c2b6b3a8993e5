"""The runtime dependency list is numpy alone, and numpy loads only where numbers need it.

SciPy must never load.  ``import bellsim`` loads no numpy: its submodules
load on first access.  Every command but ``chsh-scan``, the dense
``teleport`` and a dense ``run`` runs without importing numpy: ``lhv-bound``,
``lhv-fit``, ``classify``, ``superdense``, ``teleport --engine stabilizer``,
a ``run`` on the tableau, random measurements included, ``chsh-eval`` for
every ``--state`` form, and ``bb84``.  Their draws come from ``_pcg64``,
numpy's ``default_rng`` stream in pure Python; ``chsh-eval`` reads four
amplitudes checked in plain Python, and ``bb84`` seeds ``random.Random``
with one draw, importing ``random`` only inside ``bb84_simulate``.  So the
modules on their path (the package, ``cli``, ``dsl``, ``gates``,
``stabilizer``, ``protocols``, ``chsh``, ``lhv``, ``errors`` and
``_pcg64``) import neither numpy nor the modules that need it at module
level, and ``import bellsim.cli`` does not load ``_pcg64``: only the commands
that take ``--seed`` (``teleport``, ``superdense``, ``bb84`` and ``run``) build
the stream, and so compile it, whether they draw or not.  ``lhv`` imports numpy
nowhere, not even in a function.
The stabilizer kernels call ``int.bit_count``, so the supported Python
floor must stay at 3.10 or higher.  Building the CLI's parser
builds no state and loads no ``statevector``: a ``--state`` default is
resolved only when a subcommand that takes it is parsed.  Every draw from a generator is a
``random()`` call: no module reads an ``integers`` method, and no code but
``errors.draw`` calls ``random``.  Every one-qubit gate on the dense
engine runs through ``_unitary``: only it and ``expectation`` reference the
matmul kernel ``_one_qubit``.  Only ``stabilizer`` reads its gate kernels, so
every tableau gate is checked against the Clifford rule by its one lowering
step; in ``dsl`` only ``_clifford_pass`` reads the rule, and ``dsl`` refers to
no per-gate checked step (an engine's ``_apply`` or public apply function),
so the runner checks each gate once, before the run.  Only ``errors``
imports ``numbers``: every number check is one of its guards.  The result
records store evidence and no verdict: ``SimulabilityClass`` its witnesses,
``RunRecord`` its final state, ``ProtocolReport`` its engine.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim
from bellsim import cli, dsl, protocols

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

# Runs cli.main on sys.argv[1:] with sys.argv[-1] as stdin, then reports numpy and the
# seeded stream.
CLI_MAIN = """import io, sys
from bellsim import cli
sys.stdin = io.TextIOWrapper(io.BytesIO(sys.argv.pop().encode()))
code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "bellsim._pcg64" in sys.modules)
"""

# Modules that the numpy-free commands import, and what they must not import
# at module level.
NUMPY_FREE = ("__init__", "_pcg64", "chsh", "cli", "dsl", "errors", "gates", "lhv", "protocols",
              "stabilizer")
NEEDS_NUMPY = {"numpy", "bellsim.statevector"}

TSIRELSON = ["--alpha1", "pi/2", "--chi1", "-pi/4", "--alpha2", "0", "--chi2", "pi/4"]

REVERSIBLE = "qubits 3\nx 0\ncnot 0 1\nrx 2 pi\ncz 1 2\ns 0\nmeasure 0\nmeasure 1\nmeasure 2\n"


def python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_bellsim_leaves_scipy_unloaded():
    assert python("-c", IMPORT_ONLY) == "False"


def test_cli_lhv_bound_leaves_scipy_unloaded():
    assert python("-c", CLI_RUN) == "False"


def test_import_bellsim_leaves_numpy_unloaded():
    assert python("-c", "import sys, bellsim\nprint('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize(
    "argv, stdin, code, stream",
    [
        (["lhv-bound"], "", 0, False),
        (["lhv-fit", "--e11", "0.5", "--e12", "0.1", "--e21", "-0.2", "--e22", "0.3"], "", 0,
         False),
        (["lhv-fit", "--e11", "0.75", "--e12", "-0.75", "--e21", "0.75", "--e22", "0.75"], "", 0,
         False),
        (["classify", "-"], "qubits 2\nh 0\nrz 1 pi/2\ncnot 0 1\nmeasure 1\n", 0, False),
        (["classify", "-"], "qubits 2\nh 0\nt 1\n", 3, False),
        (["superdense", "--bits", "10", "--seed", "4"], "", 0, True),
        (["run", "-", "--seed", "7"], REVERSIBLE, 0, True),
        (["teleport", "--input=+", "--engine", "stabilizer", "--seed", "3"], "", 0, True),
        (["run", "-"], "qubits 1\nh 0\nmeasure 0\n", 0, True),
        (["chsh-eval", *TSIRELSON], "", 0, False),
        (["chsh-eval", "--state", "phi-plus", *TSIRELSON], "", 0, False),
        (["chsh-eval", "--state", "0,0.6,0.8j,0", *TSIRELSON], "", 0, False),
        (["chsh-eval", "--state", "product:1,0;0.6,0.8", *TSIRELSON], "", 0, False),
        (["bb84", "--rounds", "200", "--seed", "5"], "", 0, True),
        (["bb84", "--rounds", "200", "--eavesdrop", "--seed", "5"], "", 0, True),
    ],
    ids=[
        "lhv-bound", "lhv-fit", "lhv-fit-infeasible", "classify-clifford", "classify-nonclifford",
        "superdense", "run", "teleport-stabilizer", "run-that-draws", "chsh-eval",
        "chsh-eval-phi-plus", "chsh-eval-amplitudes", "chsh-eval-product", "bb84",
        "bb84-eavesdrop",
    ],
)
def test_commands_that_compute_no_numbers_leave_numpy_unloaded(argv, stdin, code, stream):
    # the seeded stream loads in exactly the commands that take --seed, draws or not
    assert python("-c", CLI_MAIN, *argv, stdin) == f"{code} False {stream}"


@pytest.mark.parametrize(
    "argv, stdin, stream",
    [
        (["chsh-scan", "--resolution", "3", "--out", os.devnull], "", False),
        (["teleport", "--input", "0.6,0.8"], "", True),
        (["run", "-", "--engine", "statevector"], "qubits 1\nh 0\nmeasure 0\n", True),
        (["run", "-"], "qubits 1\nt 0\nmeasure 0\n", True),
    ],
    ids=["chsh-scan", "teleport-statevector", "run-statevector", "run-non-clifford"],
)
def test_commands_that_compute_with_arrays_load_numpy(argv, stdin, stream):
    # The probe above can see numpy: these commands build dense states.
    assert python("-c", CLI_MAIN, *argv, stdin) == f"0 True {stream}"


def test_import_bellsim_cli_leaves_the_stream_uncompiled():
    # the stream module loads in the handlers that read --seed: under
    # PYTHONDONTWRITEBYTECODE every command would otherwise compile it at startup
    assert python("-c", "import sys, bellsim.cli\nprint('bellsim._pcg64' in sys.modules)") == "False"


def module_level_imports(tree, every_scope=False):
    """Modules imported when the module runs: outside functions and ``if TYPE_CHECKING``.

    With ``every_scope``, the modules imported anywhere, those places included.
    """
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not every_scope:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                    and node.test.id == "TYPE_CHECKING":
                stack.extend(node.orelse)
                continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bellsim" if node.level else "", node.module]))
            found.extend(f"{base}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def numpy_imports(module, every_scope=False):
    tree = ast.parse((Path(SRC) / "bellsim" / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for name in module_level_imports(tree, every_scope):
        parts = name.split(".")
        imported.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return sorted(imported & NEEDS_NUMPY)


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_numpy_free_modules_import_no_numpy_at_module_level(module):
    assert not numpy_imports(module)


def test_lhv_imports_numpy_in_no_scope():
    assert not numpy_imports("lhv", every_scope=True)


def imports_of(tree, name):
    """The name of the function around each import of the module ``name`` in ``tree``
    (``None`` at module level), in source order."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == name for a in node.names) \
                or isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] == name:
            found.append((node.lineno, scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return [scope for _, scope in sorted(found)]


def test_only_the_bb84_sampler_imports_random():
    # one seeded draw seeds random.Random there; an import anywhere else, or at
    # module level, would load random for commands that never use it
    uses = {
        path.name: imports_of(ast.parse(path.read_text(encoding="utf-8")), "random")
        for path in sorted((Path(SRC) / "bellsim").glob("*.py"))
    }
    assert {name: scopes for name, scopes in uses.items() if scopes} == {
        "protocols.py": ["bb84_simulate"]
    }


def test_the_import_scope_check_sees_every_import():
    tree = ast.parse("import random\ndef f():\n    from random import Random\n"
                     "class C:\n    def g(self):\n        import os, random.x as r\n"
                     "from .random import y\nimport randomness\n")
    assert imports_of(tree, "random") == [None, "f", "g"]


def test_the_import_check_sees_every_kind_of_import():
    tree = ast.parse(
        "import numpy as np\nfrom . import statevector as sv\nfrom .chsh import s_factor\n"
        "class C:\n    import numpy.linalg\n"
        "if TYPE_CHECKING:\n    import os\n"
        "def f():\n    import math\n"
    )
    assert sorted(module_level_imports(tree)) == [
        "bellsim.chsh.s_factor", "bellsim.statevector", "numpy", "numpy.linalg",
    ]
    assert sorted(module_level_imports(tree, every_scope=True)) == [
        "bellsim.chsh.s_factor", "bellsim.statevector", "math", "numpy", "numpy.linalg", "os",
    ]


def test_requires_python_floor_has_int_bit_count():
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)[^"]*"\s*$', text, re.MULTILINE)
    assert match, "pyproject.toml must declare requires-python as >=X.Y"
    assert (int(match.group(1)), int(match.group(2))) >= (3, 10)


def test_the_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_only_the_errors_module_imports_numbers():
    # one number rule: a module importing numbers is writing its own copy of a guard
    importers = [
        path.name
        for path in sorted((Path(SRC) / "bellsim").glob("*.py"))
        for name in module_level_imports(ast.parse(path.read_text("utf-8")), every_scope=True)
        if name.split(".")[0] == "numbers"
    ]
    assert importers == ["errors.py"]


def referenced_names(path):
    """Every name, attribute and ``from`` import alias in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return names


def test_no_module_references_the_removed_index_helper():
    for path in sorted((Path(SRC) / "bellsim").glob("*.py")):
        assert "_is_index" not in referenced_names(path), path.name


def test_no_module_contracts_pauli_tensors():
    # one source of the correlations: the u, w formula in chsh
    for path in sorted(Path(SRC).rglob("*.py")):
        assert not referenced_names(path) & {"einsum", "_PAULI_XY"}, path.name


def linalg_uses(tree):
    """Line numbers of every use of ``linalg`` (attribute, name or import) in ``tree``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "linalg"
        or isinstance(node, ast.Name) and node.id == "linalg"
        or isinstance(node, ast.ImportFrom)
        and ("linalg" in (node.module or "").split(".")
             or any(alias.name == "linalg" for alias in node.names))
    )


def test_chsh_calls_no_linalg():
    # every correlation and both maxima come from u and w in closed form: a LAPACK call or
    # a norm of a 2x2 block costs more than the answer (np.roots' eigenvalues are its own)
    tree = ast.parse((Path(SRC) / "bellsim" / "chsh.py").read_text(encoding="utf-8"))
    assert linalg_uses(tree) == []


def test_the_linalg_check_sees_every_use():
    tree = ast.parse("def maximize_s(state, fixed=None):\n    if fixed is None:\n"
                     "        u = np.linalg.svd(m)\n        from numpy import linalg\n"
                     "        from numpy.linalg import norm\n        return linalg.norm(m)\n"
                     "    return np.linalg.norm(m)\n")
    assert linalg_uses(tree) == [3, 4, 5, 6, 7]
    assert linalg_uses(ast.parse("def maximize_s(state, fixed):\n    return np.roots(q)\n")) == []


def test_the_clifford_rule_is_defined_only_in_the_stabilizer_module():
    # one rule: a second copy of the quarter-turn test or its table would drift
    rule = {"_quarter_turns", "_ROTATION_SEQUENCES", "_clifford_kinds"}
    homes = {name: [] for name in rule}
    for path in sorted(Path(SRC).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in rule.intersection(names):
                homes[name].append(path.relative_to(SRC).as_posix())
    assert homes == {name: ["bellsim/stabilizer.py"] for name in rule}


def test_every_draw_goes_through_random():
    # one randomness contract: a second draw method would split the engines' streams again
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(SRC) / "bellsim").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "integers"
    ]
    assert uses == []


def calls_to_random(tree):
    """The name of the function around each call to a method named ``random``
    (``None`` at module level), in source order."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "random":
            found.append((node.lineno, scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return [scope for _, scope in sorted(found)]


def test_errors_draw_is_the_only_call_to_random():
    # one draw function: a second caller would need its own copy of the generator check
    uses = {
        path.name: calls_to_random(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((Path(SRC) / "bellsim").glob("*.py"))
    }
    assert {name: scopes for name, scopes in uses.items() if scopes} == {"errors.py": ["draw"]}


def test_the_random_call_check_sees_every_caller():
    tree = ast.parse("def f(rng):\n    return rng.random() < 0.5\n"
                     "class C:\n    def draw(self, rng):\n        return rng.random(3)\n"
                     "x = np.random.default_rng(0)\nrandom.random()\n")
    assert calls_to_random(tree) == ["f", "draw", None]


def numpy_in_functions(tree, names):
    """Line numbers of every ``np.`` attribute, numpy import and ``@`` inside the
    functions called ``names``, nested functions included."""
    return sorted(
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in names
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    )


def test_gate_fusion_multiplies_in_scalar_python():
    # a numpy call per merged gate costs more than the 2x2 product it computes:
    # fusion merges row-major tuples and builds one array per merged run, in _unitary
    tree = ast.parse((Path(SRC) / "bellsim" / "statevector.py").read_text(encoding="utf-8"))
    assert {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)} >= {"_fuse", "_rotation"}
    assert numpy_in_functions(tree, {"_fuse", "_rotation"}) == []


def test_the_scalar_fusion_check_sees_every_use():
    tree = ast.parse("def _fuse(p, n):\n    def flush(q):\n        m = np.array(q)\n"
                     "    a = b @ c\n    a @= b\n    import numpy\n"
                     "    from numpy.linalg import norm\n    return numpy.dot(a, b)\n"
                     "def other():\n    return np.zeros(2) @ a\n")
    assert numpy_in_functions(tree, {"_fuse"}) == [3, 4, 5, 6, 7, 8]


def reads_of(tree, name):
    """The name of the innermost function around each read of ``name``, as a variable
    or an attribute (``None`` at module level), in source order."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and (node.id if isinstance(node, ast.Name) else node.attr) == name:
            found.append((node.lineno, node.col_offset, scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return [scope for *_, scope in sorted(found, key=lambda f: f[:2])]


def test_every_one_qubit_gate_runs_through_one_kernel():
    # one kernel: a per-kind branch beside _unitary would be a second rule for the same matrix
    tree = ast.parse((Path(SRC) / "bellsim" / "statevector.py").read_text(encoding="utf-8"))
    assert set(reads_of(tree, "_one_qubit")) == {"_unitary", "expectation"}


def test_the_read_check_sees_every_reader():
    tree = ast.parse("K = f(M)\ndef f(m):\n    return _one_qubit(m)\n"
                     "class C:\n    def g(self):\n        x = sv._one_qubit\n"
                     "        def h():\n            return K[0]\n        _one_qubit = 1\n"
                     "y = _one_qubit\nsv._one_qubit = None\n")
    assert reads_of(tree, "_one_qubit") == ["f", "g", None]
    assert reads_of(tree, "K") == ["h"]


def test_one_dsl_function_reads_the_clifford_rule():
    # classify and run take each instruction's verdict from one pass; a second reader
    # of the rule in dsl would be a second place that decides what is Clifford
    tree = ast.parse((Path(SRC) / "bellsim" / "dsl.py").read_text(encoding="utf-8"))
    assert reads_of(tree, "_clifford_kinds") == ["_clifford_pass"]


def test_one_chsh_function_reads_the_amplitudes():
    # every correlation is made of u and w; a second reader of the amplitudes would be a
    # second formula for them
    tree = ast.parse((Path(SRC) / "bellsim" / "chsh.py").read_text(encoding="utf-8"))
    assert reads_of(tree, "amplitudes") == ["_products"]


def test_a_correlation_is_read_off_s_factors_formula():
    # one formula per correlation: a second route through arrays differs in the last bits
    tree = ast.parse((Path(SRC) / "bellsim" / "chsh.py").read_text(encoding="utf-8"))
    assert "correlation" in reads_of(tree, "_s_factor")
    assert "correlation" not in reads_of(tree, "np") + reads_of(tree, "correlation_matrix")


def test_only_the_stabilizer_module_reads_its_gate_kernels():
    # one checked tableau gate step: a module indexing the kernels skips the Clifford rule
    readers = {
        path.name
        for path in (Path(SRC) / "bellsim").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_KERNELS"
        or isinstance(node, ast.Attribute) and node.attr == "_KERNELS"
    }
    assert readers == {"stabilizer.py"}


# Names of a checked step of either engine, private or public: per gate, or per measurement.
CHECKED_STEPS = {"_apply", "apply", "apply_gate", "apply_clifford",
                 "measure_z", "measure_z_forced", "measure_qubit", "project_qubit"}


def checked_step_uses(tree):
    """Line numbers of every reference to a name in CHECKED_STEPS: attribute, name or import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CHECKED_STEPS \
                or isinstance(node, ast.Name) and node.id in CHECKED_STEPS \
                or isinstance(node, ast.ImportFrom) \
                and any(alias.name in CHECKED_STEPS for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_the_runner_uses_no_checked_gate_step():
    # one check per instruction: st._apply, sv._apply, a public apply function or a
    # public measurement in the runner would check each gate or measured qubit again
    # as it runs, after the lowering loop has checked it, and a measurement would copy
    tree = ast.parse((Path(SRC) / "bellsim" / "dsl.py").read_text(encoding="utf-8"))
    assert checked_step_uses(tree) == []


def test_the_gate_step_check_sees_every_use():
    tree = ast.parse("st._apply(t, n, k, q, a)\nwork, step = x, sv._apply\n"
                     "from .stabilizer import apply_clifford\n_apply(t)\nsv.apply_gate(s, op)\n"
                     "measure_qubit()\nst.measure_z()\nsv.project_qubit()\nf = measure_z_forced\n")
    assert checked_step_uses(tree) == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_building_the_cli_parser_builds_no_state(monkeypatch):
    # argparse resolves a string default when a subcommand that takes it is parsed;
    # a parser that resolved --state while it was built would count a call there
    calls, state_argument = [], cli.state_argument

    def counted(text):
        calls.append(text)
        return state_argument(text)

    monkeypatch.setattr(cli, "state_argument", counted)
    parser = cli.build_parser()
    assert calls == []
    assert parser.parse_args(["lhv-bound"]).command == "lhv-bound"
    assert calls == []
    parser.parse_args(cli._fold_negative_values(["chsh-eval", *TSIRELSON]))
    assert calls == ["psi-plus"]


def test_building_the_cli_parser_leaves_the_dense_engine_unloaded():
    probe = "import sys\nfrom bellsim import cli\ncli.build_parser()\n" \
            "print('bellsim.statevector' in sys.modules)"
    assert python("-c", probe) == "False"


@pytest.mark.parametrize("record, names", [
    (dsl.SimulabilityClass, ("witnesses",)),
    (dsl.RunRecord, ("outcomes", "final_statevector", "final_stabilizers")),
    (protocols.ProtocolReport, ("protocol", "engine", "classical_bits", "metrics")),
], ids=["SimulabilityClass", "RunRecord", "ProtocolReport"])
def test_the_records_store_no_verdict(record, names):
    # value, simulable, engine and classically_simulable are derived, not fields
    assert tuple(f.name for f in dataclasses.fields(record)) == names
