"""Property-based fuzzing of the command line, driven in process.

Whatever the argv and the circuit text, ``bellsim.cli.main`` returns an
exit code in {0, 1, 2, 3}, and the only exception that escapes it is the
``SystemExit`` argparse raises for ``--help`` (code 0) or a usage error
(code 2).  Most generated inputs are well formed, so that the runs reach
the engines and the analyses, and some of each part is broken.  Sizes
stay inside the CLI's own caps where a large value would do real work:
scan resolutions are small or beyond the cap of 1001 (rejected before any
grid is built), and BB84 rounds are small or beyond the cap of 1,000,000.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from bellsim.cli import main

HUGE = "9" * 400


def mostly(good, bad):
    """Draws from ``good`` about three times in four (``one_of`` would drop repeats)."""
    return hs.integers(0, 3).flatmap(lambda k: bad if k == 3 else good)


numbers = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True).map(repr),
    hs.sampled_from(["nan", "inf", "-inf", "1e999", "-0.0", "1e-320", HUGE, "0x10", "", "x"]),
)
good_angles = hs.one_of(
    hs.floats(-7.0, 7.0).map(repr),
    hs.sampled_from(["0", "pi", "-pi/4", "pi/2", "3pi/4", "-3pi/4", "2pi", "pi/8"]),
)
bad_angles = hs.one_of(
    numbers, hs.sampled_from(["pi/0", "2pi/", f"{HUGE}pi", f"-{HUGE}pi/2", f"pi/{HUGE}"])
)
good_seeds = hs.integers(0, 2**64).map(str)
bad_seeds = hs.sampled_from(["-1", "1.5", "x", HUGE, ""])
good_engines = hs.sampled_from(["statevector", "stabilizer", "auto"])

# flag -> (good values, bad values); None: the flag takes no value.  OUT,
# DIR and NO_DIR stand for paths under the test's temporary directory.
VALUES = {
    "--state": (
        hs.sampled_from(
            ["psi-plus", "phi_plus", "product:1,0;0.6,0.8", "0,0.6,0.8,0", "0.5,0.5,0.5,-0.5"]
        ),
        hs.sampled_from([
            "product:1,0", "product:1,1;1,0", "1,0,0", "1,0,0,0,0", "nan,0,0,1",
            "1e999,0,0,0", "0,0,0,0", "banana", "",
        ]),
    ),
    "--alpha1": (good_angles, bad_angles),
    "--chi1": (good_angles, bad_angles),
    "--alpha2": (good_angles, bad_angles),
    "--chi2": (good_angles, bad_angles),
    "--resolution": (
        hs.integers(2, 12).map(str),
        hs.sampled_from(["-3", "0", "1", "1002", "200000", HUGE, "2.5", "ten"]),
    ),
    "--e11": (hs.floats(-1.0, 1.0).map(repr), numbers),
    "--e12": (hs.floats(-1.0, 1.0).map(repr), hs.floats(-2.0, 2.0).map(repr)),
    "--e21": (hs.floats(-1.0, 1.0).map(repr), numbers),
    "--e22": (hs.floats(-1.0, 1.0).map(repr), hs.floats(-2.0, 2.0).map(repr)),
    "--input": (
        hs.sampled_from(["0", "1", "+", "-", "+i", "-i", "0.6,0.8", "0.6,0.8j", "-0.6,0.8"]),
        hs.sampled_from(["1,1", "0,0", "nan,1", "1e999,0", "1,0,0", "banana", "", "--"]),
    ),
    "--seed": (good_seeds, bad_seeds),
    "--rounds": (
        hs.integers(1, 64).map(str),
        hs.sampled_from(["0", "-2", "1000001", HUGE, "1e3", "many"]),
    ),
    "--engine": (good_engines, hs.just("gpu")),
    "--bits": (
        hs.sampled_from(["00", "01", "10", "11", "1,0"]), hs.sampled_from(["2", "101", "", "x"])
    ),
    "--out": (hs.just("OUT"), hs.sampled_from(["DIR", "NO_DIR"])),
    "--eavesdrop": None,
}
# subcommand -> (required flags, optional flags); FILE is the positional path.
COMMANDS = {
    "chsh-eval": (("--alpha1", "--chi1", "--alpha2", "--chi2"), ("--state",)),
    "chsh-scan": (("--out",), ("--state", "--alpha1", "--chi1", "--resolution")),
    "lhv-bound": ((), ()),
    "lhv-fit": (("--e11", "--e12", "--e21", "--e22"), ()),
    "teleport": (("--input",), ("--engine", "--seed")),
    "superdense": (("--bits",), ("--seed",)),
    "bb84": ((), ("--rounds", "--eavesdrop", "--seed")),
    "classify": (("FILE",), ()),
    "run": (("FILE",), ("--engine", "--seed")),
}
VALUES["FILE"] = (hs.sampled_from(["-", "FILE"]), hs.sampled_from(["MISSING", "DIR"]))

OPCODES = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "rx": 1, "ry": 1, "rz": 1, "cnot": 2, "cz": 2, "measure": 1,
}
CLIFFORD_OPCODES = ("h", "x", "y", "z", "s", "sdg", "cnot", "cz", "measure")


@hs.composite
def circuit_texts(draw):
    """A well-formed circuit on a small register; one part of it may be broken."""
    n = draw(hs.integers(1, 5))
    kinds = CLIFFORD_OPCODES if draw(hs.booleans()) else tuple(OPCODES)
    lines = [f"qubits {n}"]
    for _ in range(draw(hs.integers(0, 12))):
        op = draw(hs.sampled_from(kinds))
        arity = OPCODES[op]
        if arity > n:
            continue
        qubits = draw(hs.lists(hs.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        operands = [str(q) for q in qubits]
        if op in ("rx", "ry", "rz"):
            operands.append(draw(good_angles))
        lines.append(" ".join([op, *operands]))
    if draw(hs.integers(0, 3)) == 3:
        where = draw(hs.integers(0, len(lines) - 1))
        line = lines[where]
        op = line.split()[0]
        lines[where] = draw(hs.sampled_from([
            f"{line} 0", op, f"{op} {n}", f"{op} -1", f"{op} 0 {HUGE}pi", "swap 0 1", "é 0",
            f"{line} # café", f"\t{line}\r", "qubits 0", "qubits 13", "qubits 65",
            f"qubits {HUGE}", "",
        ]))
    return "\n".join(lines) + "\n"


circuit_bytes = mostly(
    circuit_texts().map(str.encode),
    hs.tuples(circuit_texts(), hs.sampled_from([b"\xff", b"\xe9", b"\xc3", b"# \xff"])).map(
        lambda t: t[0].encode() + t[1] + b"\n"
    ),
)


@hs.composite
def argvs(draw):
    """A subcommand with its flags and good values; one part of it may be broken:
    a bad value, a missing or extra flag, or an unknown subcommand."""
    command = draw(hs.sampled_from(tuple(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = [*required, *(f for f in optional if draw(hs.booleans()))]
    fault = draw(hs.integers(0, 5))
    if fault == 1 and flags:
        flags.remove(draw(hs.sampled_from(flags)))
    elif fault == 2:
        extra = draw(hs.sampled_from([*VALUES, "--help", "--"]))
        flags.insert(draw(hs.integers(0, len(flags))), extra)
    bad = draw(hs.sampled_from(flags)) if fault == 3 and flags else None
    argv = [draw(hs.sampled_from(["", "help", "RUN"])) if fault == 4 else command]
    for flag in flags:
        if flag != "FILE":
            argv.append(flag)
        if VALUES.get(flag) is not None:
            argv.append(draw(VALUES[flag][flag == bad]))
    return [a for a in argv if a]


def run_main(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), (argv, exc.code)
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    return code


def resolve(argv, tmp_path, data):
    """Put the generated circuit in a file and turn placeholders into paths."""
    (tmp_path / "circuit.qc").write_bytes(data)
    paths = {
        "FILE": tmp_path / "circuit.qc", "DIR": tmp_path, "OUT": tmp_path / "scan.csv",
        "MISSING": tmp_path / "missing.qc", "NO_DIR": tmp_path / "missing" / "scan.csv",
    }
    return [str(paths[a]) if a in paths else a for a in argv]


FUZZ = settings(
    derandomize=True, deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(argv=argvs(), data=circuit_bytes)
def test_cli_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, argv, data):
    run_main(resolve(argv, tmp_path, data), data, monkeypatch, capsys)


@FUZZ
@given(
    data=circuit_bytes,
    engine=mostly(good_engines, hs.just("gpu")),
    seed=mostly(good_seeds, bad_seeds),
)
def test_cli_run_and_classify_any_circuit(monkeypatch, capsys, data, engine, seed):
    for argv in (["run", "-", "--engine", engine, "--seed", seed], ["classify", "-"]):
        run_main(argv, data, monkeypatch, capsys)


@FUZZ
@given(
    argv=hs.lists(
        hs.one_of(
            hs.sampled_from((*COMMANDS, *VALUES)),
            *(strategy for pair in VALUES.values() if pair for strategy in pair),
        ),
        max_size=8,
    )
)
def test_cli_token_soup(monkeypatch, capsys, argv):
    # Known words and values in any order; --out and the path placeholders
    # are left out, so nothing is written.
    argv = [a for a in argv if a not in ("--out", "FILE", "OUT", "DIR", "NO_DIR", "MISSING")]
    run_main(argv, b"qubits 1\nh 0\nmeasure 0\n", monkeypatch, capsys)


def test_angle_flags_beyond_the_float_range_are_usage_errors(tmp_path, monkeypatch, capsys):
    for argv in (
        ["chsh-eval", "--alpha1", f"{HUGE}pi", "--chi1", "0", "--alpha2", "0", "--chi2", "0"],
        ["chsh-scan", "--alpha1", f"-{HUGE}pi/2", "--out", "OUT"],
    ):
        assert run_main(resolve(argv, tmp_path, b""), b"", monkeypatch, capsys) == 2
