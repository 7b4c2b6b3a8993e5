"""The CLI prints the same bytes for fixed seeds.

Each case runs ``cli.main`` in process, in a temporary directory that holds
the circuit files below, and compares its exit code, stdout and stderr
byte for byte with ``tests/golden/cli.json``.  ``chsh-scan`` writes its
CSV there; the test compares the file's sha256.  The cases are the 13
README examples (with the README's ``circuit.qc``), ``run`` on a circuit
with random and determined measurements on every engine, ``teleport`` on
both engines, ``superdense`` for all four bit pairs, ``bb84`` with and
without an attacker, one failure for each of exit codes 1, 2 and 3, ``-h``
for the top-level parser and each subcommand, and the usage error of
``chsh-eval`` and ``lhv-fit`` with no flags, which names their required
flags in declaration order.  Help is wrapped at ``COLUMNS=80``; argparse's
wording belongs to the interpreter, so a new Python may regenerate it.

A deliberate change of output (a new draw order, say) regenerates the
file, and the change records why::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from bellsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# The README's circuit format example.
README_CIRCUIT = """qubits 2          # header, required first
h 0
cnot 0 1
rz 1 pi/2         # rotations take one angle operand
measure 0
"""

# Random and determined measurements, and quarter turns about every axis.
MIXED = """qubits 3
h 0
cnot 0 1
measure 0
measure 1      # determined by the first
ry 2 pi/2
s 2
measure 2      # random
ry 1 -pi/2
cz 1 2
rx 0 pi/2
measure 2
measure 0
measure 1
"""

FILES = {
    "circuit.qc": README_CIRCUIT,
    "mixed.qc": MIXED,
    "t.qc": "qubits 1\nh 0\nt 0\nmeasure 0\n",
    "wide.qc": "qubits 13\nh 0\n",
    "typo.qc": "qubits 2\nh 0\ncnto 0 1\n",
}

COMMANDS = ("chsh-eval", "chsh-scan", "lhv-bound", "lhv-fit", "teleport", "superdense", "bb84",
            "classify", "run")

TSIRELSON = ["--alpha1", "pi/2", "--chi1", "-pi/4", "--alpha2", "0", "--chi2", "pi/4"]

CASES = {
    "readme-chsh-eval": ["chsh-eval", *TSIRELSON],
    "readme-chsh-eval-phi-plus": ["chsh-eval", "--state", "phi-plus", *TSIRELSON],
    "readme-chsh-eval-product": ["chsh-eval", "--state", "product:1,0;0.6,0.8", *TSIRELSON],
    "readme-chsh-eval-zero": [
        "chsh-eval", "--alpha1", "pi/2", "--chi1", "-pi/4", "--alpha2", "0", "--chi2", "-3pi/4",
    ],
    "readme-chsh-scan": [
        "chsh-scan", "--alpha1", "pi/2", "--chi1", "-pi/4", "--resolution", "201",
        "--out", "scan.csv",
    ],
    "readme-lhv-bound": ["lhv-bound"],
    "readme-lhv-fit": ["lhv-fit", "--e11", "0.35", "--e12", "0.35", "--e21", "0.35", "--e22", "-0.35"],
    "readme-teleport": ["teleport", "--input", "0.6,0.8"],
    "readme-teleport-stabilizer": ["teleport", "--input", "+i", "--engine", "stabilizer"],
    "readme-superdense": ["superdense", "--bits", "10"],
    "readme-bb84": ["bb84", "--rounds", "10000", "--eavesdrop", "--seed", "3"],
    "readme-classify": ["classify", "circuit.qc"],
    "readme-run": ["run", "circuit.qc", "--engine", "auto", "--seed", "0"],
    **{
        f"run-{engine}-seed{seed}": ["run", "mixed.qc", "--engine", engine, "--seed", str(seed)]
        for engine in ("auto", "statevector", "stabilizer") for seed in range(4)
    },
    **{
        f"teleport-statevector-seed{seed}": ["teleport", "--input", "0.6,0.8j", "--seed", str(seed)]
        for seed in range(4)
    },
    **{
        f"teleport-stabilizer-seed{seed}": [
            "teleport", "--input", "-", "--engine", "stabilizer", "--seed", str(seed),
        ]
        for seed in range(4)
    },
    **{f"superdense-{bits}": ["superdense", "--bits", bits] for bits in ("00", "01", "10", "11")},
    **{
        f"bb84{'-eavesdrop' if eve else ''}-seed{seed}": [
            "bb84", "--rounds", "200", *(["--eavesdrop"] if eve else []), "--seed", str(seed),
        ]
        for eve in (False, True) for seed in range(4)
    },
    "exit1-too-wide-for-the-dense-engine": ["run", "wide.qc", "--engine", "statevector"],
    "exit2-parse-error": ["run", "typo.qc"],
    "exit3-non-clifford-on-the-tableau": ["run", "t.qc", "--engine", "stabilizer"],
    "help": ["-h"],
    **{f"help-{command}": [command, "-h"] for command in COMMANDS},
    "usage-chsh-eval": ["chsh-eval"],
    "usage-lhv-fit": ["lhv-fit"],
}


def run_case(argv, workdir):
    """Exit code (a ``SystemExit``'s too), stdout and stderr of ``cli.main(argv)`` run
    in ``workdir`` at 80 columns, and the sha256 of the CSV ``chsh-scan`` writes there."""
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        record["csv_sha256"] = hashlib.sha256((workdir / "scan.csv").read_bytes()).hexdigest()
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_has_a_golden_record(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_unchanged(case, golden, tmp_path):
    assert run_case(CASES[case], tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    records = {}
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            records[case] = run_case(argv, Path(workdir))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
