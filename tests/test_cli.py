"""End-to-end command-line tests driving bellsim.cli.main in process."""

import argparse
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import bellsim
from bellsim import chsh, cli
from bellsim import statevector as sv
from bellsim.cli import main
from bellsim.errors import NORM_ATOL, BellSimError, NormalizationError

TSIRELSON_ARGS = ["--alpha1", "pi/2", "--chi1", "-pi/4", "--alpha2", "0", "--chi2", "pi/4"]
ZERO_S_ARGS = ["--alpha1", "pi/2", "--chi1", "-pi/4", "--alpha2", "0", "--chi2", "-3pi/4"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def byte_stdin(data):
    """A stand-in for ``sys.stdin`` that, like the real one, has a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def out_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{key} not in output:\n{out}")


def test_chsh_eval_tsirelson_settings(capsys):
    code, out, _ = run_cli(capsys, ["chsh-eval", *TSIRELSON_ARGS])
    assert code == 0
    assert out.splitlines() == [
        "E11=0.7071067812",
        "E12=-0.7071067812",
        "E21=0.7071067812",
        "E22=0.7071067812",
        "S=2.828427125",
    ]


def test_chsh_eval_zero_settings(capsys):
    code, out, _ = run_cli(capsys, ["chsh-eval", *ZERO_S_ARGS])
    assert code == 0
    assert abs(float(out_value(out, "S"))) < 1e-9


def test_chsh_eval_product_state_is_classical(capsys):
    code, out, _ = run_cli(
        capsys, ["chsh-eval", "--state", "product:1,0;0.6,0.8", *TSIRELSON_ARGS]
    )
    assert code == 0
    assert abs(float(out_value(out, "S"))) <= 2.0 + 1e-9


def test_chsh_eval_rejects_bad_angle(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chsh-eval", "--alpha1", "banana", "--chi1", "0", "--alpha2", "0", "--chi2", "0"])
    assert excinfo.value.code == 2


def test_chsh_eval_requires_all_angles():
    with pytest.raises(SystemExit) as excinfo:
        main(["chsh-eval", "--alpha1", "0"])
    assert excinfo.value.code == 2


def test_chsh_scan_csv_contents(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, ["chsh-scan", "--resolution", "21", "--out", str(out_path)])
    assert code == 0
    data = out_path.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "alpha2,chi2,S"
    assert len(lines) == 1 + 21 * 21
    assert lines[1] == "-3.141592654,-3.141592654,1.000000000"

    psi = sv.bell_psi_plus()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    for row in rows[::37]:
        settings = chsh.MeasurementSettings(
            alpha1=math.pi / 2,
            alpha2=float(row["alpha2"]),
            chi1=-math.pi / 4,
            chi2=float(row["chi2"]),
        )
        # angle columns are rounded to 9 decimals and |dS/dangle| <= 2,
        # so recomputation can drift ~2e-9 beyond the S-column rounding
        assert abs(float(row["S"]) - chsh.s_factor(psi, settings).s_value) < 3e-9


def test_chsh_scan_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, ["chsh-scan", "--resolution", "11", "--out", str(a)])
    run_cli(capsys, ["chsh-scan", "--resolution", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_lhv_bound(capsys):
    code, out, _ = run_cli(capsys, ["lhv-bound"])
    assert code == 0
    assert out == "2.0\n"


def test_lhv_fit_vertex_targets(capsys):
    code, out, _ = run_cli(
        capsys, ["lhv-fit", "--e11", "1", "--e12", "1", "--e21", "1", "--e22", "1"]
    )
    assert code == 0
    assert out_value(out, "w0") == "1.0000000000"
    assert out_value(out, "E11") == "1.000000000"


def test_lhv_fit_tsirelson_targets_infeasible(capsys):
    c = repr(math.cos(math.pi / 4))
    code, out, _ = run_cli(
        capsys, ["lhv-fit", "--e11", c, "--e12", f"-{c}", "--e21", c, "--e22", c]
    )
    assert code == 0
    assert out == "INFEASIBLE\n"


def test_lhv_fit_rejects_out_of_range_correlation(capsys):
    code, _, err = run_cli(
        capsys, ["lhv-fit", "--e11", "1.5", "--e12", "0", "--e21", "0", "--e22", "0"]
    )
    assert code == 1
    assert "error:" in err


def test_lhv_fit_has_no_tolerance_flag(capsys):
    c = repr(math.cos(math.pi / 4))
    argv = ["lhv-fit", "--e11", c, "--e12", c, "--e21", c, "--e22", f"-{c}", "--tol", "nan"]
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_chsh_scan_into_a_missing_directory_exits_one(tmp_path, capsys):
    out_path = tmp_path / "missing" / "scan.csv"
    code, out, err = run_cli(capsys, ["chsh-scan", "--resolution", "3", "--out", str(out_path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {str(out_path)!r}:")


PHI_PLUS_AMPLITUDES = f"{1 / math.sqrt(2)!r},0,0,{1 / math.sqrt(2)!r}"


@pytest.mark.parametrize("spec", ["PHI_PLUS", "phi_plus", "Phi-Plus", " phi-plus "])
def test_state_names_ignore_case_and_take_underscore_for_dash(spec, capsys):
    _, expected, _ = run_cli(capsys, ["chsh-eval", "--state", PHI_PLUS_AMPLITUDES, *TSIRELSON_ARGS])
    code, out, err = run_cli(capsys, ["chsh-eval", "--state", spec, *TSIRELSON_ARGS])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "spec",
    [
        "product:1,0",
        "product:1,0;1,0;1,0",
        "product:1,0;1,0,0",
        "1,0,0",
        "1,0,0,0,0",
        "nan,0,0,1",
    ],
)
def test_malformed_state_spec_is_a_usage_error(spec, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["chsh-eval", "--state", spec, *TSIRELSON_ARGS])
    captured = capsys.readouterr()
    assert caught.value.code == 2
    assert captured.out == ""
    assert f"error: argument --state: bad state {spec!r}: " in captured.err


# The CLI checks --state amplitudes in plain Python, so that chsh-eval needs no numpy; the
# library's StateVector and product_state are its oracle.  The two norms are each within
# about an ulp of the exact one, so the verdicts may differ only where |norm - 1| lies
# within 1e-15 of NORM_ATOL.
EDGE_BAND = 1e-15

special_amplitudes = hs.sampled_from(
    [0j, complex(-0.0, -0.0), complex("nan"), complex("inf"), complex(0, -math.inf),
     1e308 + 0j, 1e200j, 1e-320 + 0j]
)
# Scales that put a normalized vector's norm on, inside, beyond and at the 1e-10 edge.
norm_scales = hs.one_of(
    hs.sampled_from([1.0, 1 + 1e-11, 1 - 9e-11, 1 + NORM_ATOL, 1 - NORM_ATOL, 1 + 2e-10, 1.5]),
    hs.floats(1 - 2e-10, 1 + 2e-10),
)


def vectors(size, other_sizes):
    """Mostly ``size`` amplitudes scaled to a norm near 1; a quarter of them with
    one entry replaced by a special value."""
    def build(drawn):
        amps, scale, special = drawn
        with np.errstate(all="ignore"):
            norm = float(np.linalg.norm(amps))
        amps = [a / norm * scale for a in amps] if norm > 1e-100 else amps
        if special is not None:
            amps[special[0] % len(amps)] = special[1]
        return amps

    lengths = hs.sampled_from([size] * 3 + list(other_sizes))
    finite = hs.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return hs.tuples(
        lengths.flatmap(lambda n: hs.lists(finite, min_size=n, max_size=n)),
        norm_scales,
        hs.one_of(hs.none(), hs.none(), hs.none(), hs.tuples(hs.integers(0, 4), special_amplitudes)),
    ).map(build)


def error_class(call):
    try:
        call()
    except BellSimError as exc:
        return type(exc)
    return None


def cli_error_class(spec):
    # state_argument raises ArgumentTypeError from None: the check's own error is its context
    try:
        cli.state_argument(spec)
    except argparse.ArgumentTypeError as exc:
        assert isinstance(exc.__context__, BellSimError), exc
        return type(exc.__context__)
    return None


def on_the_edge(*amplitudes):
    with np.errstate(all="ignore"):
        norms = [float(np.linalg.norm(amps)) for amps in amplitudes]
    return any(abs(abs(norm - 1) - NORM_ATOL) <= EDGE_BAND for norm in norms)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(vectors(4, (1, 2, 3, 5)))
def test_the_cli_amplitude_check_is_statevectors(amps):
    got = cli_error_class(",".join(map(repr, amps)))
    want = error_class(lambda: sv.StateVector(2, amps))
    if got != want:
        assert {got, want} == {None, NormalizationError} and on_the_edge(amps), (got, want)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(vectors(2, (1, 3)), vectors(2, (1, 3)))
def test_the_cli_product_check_is_product_states(first, second):
    got = cli_error_class("product:" + ";".join(",".join(map(repr, f)) for f in (first, second)))
    want = error_class(lambda: sv.product_state([first, second]))
    if got != want:
        assert {got, want} == {None, NormalizationError}, (got, want)
        assert on_the_edge(first, second, np.kron(first, second)), (got, want)


def test_the_cli_checks_agree_on_both_sides_of_the_edge():
    amps = [0.6, 0.8j, 0, 0]
    for scale, want in ((1 + 0.99 * NORM_ATOL, None), (1 + 1.01 * NORM_ATOL, NormalizationError)):
        spec = ",".join(repr(a * scale) for a in amps)
        assert cli_error_class(spec) == want
        assert error_class(lambda: sv.StateVector(2, [a * scale for a in amps])) == want


@pytest.mark.parametrize("amplitudes", ["1,0,0", "nan,1"])
def test_teleport_rejects_malformed_amplitudes_as_bad_state(amplitudes, capsys):
    code, out, err = run_cli(capsys, ["teleport", "--input", amplitudes])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad input state {amplitudes!r}: ")


def test_teleport_statevector_engine(capsys):
    code, out, _ = run_cli(capsys, ["teleport", "--input", "0.6,0.8", "--seed", "5"])
    assert code == 0
    assert out_value(out, "engine") == "statevector"
    assert out_value(out, "simulable") == "false"
    assert out_value(out, "fidelity") == "1.0000000000"


def test_teleport_stabilizer_engine(capsys):
    code, out, _ = run_cli(
        capsys, ["teleport", "--input", "+i", "--engine", "stabilizer", "--seed", "2"]
    )
    assert code == 0
    assert out_value(out, "engine") == "stabilizer"
    assert out_value(out, "simulable") == "true"
    assert out_value(out, "fidelity") == "1.0000000000"
    assert out_value(out, "output_y") == "1.0000000000"


def test_teleport_accepts_input_values_starting_with_minus(capsys):
    code, out, _ = run_cli(
        capsys, ["teleport", "--input", "-i", "--engine", "stabilizer", "--seed", "4"]
    )
    assert code == 0
    assert out_value(out, "output_y") == "-1.0000000000"
    code, out, _ = run_cli(capsys, ["teleport", "--input", "-0.6,0.8", "--seed", "4"])
    assert code == 0
    assert out_value(out, "fidelity") == "1.0000000000"
    code, out, _ = run_cli(
        capsys, ["teleport", "--input", "-", "--engine", "stabilizer", "--seed", "4"]
    )
    assert code == 0
    assert out_value(out, "output_x") == "-1.0000000000"


def test_teleport_is_seed_reproducible(capsys):
    argv = ["teleport", "--input", "+", "--engine", "stabilizer", "--seed", "9"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_teleport_rejects_nonclifford_name_on_stabilizer(capsys):
    code, _, err = run_cli(
        capsys, ["teleport", "--input", "T|+>", "--engine", "stabilizer"]
    )
    assert code == 3
    assert "stabilizer" in err


def test_superdense_round_trip(capsys):
    for bits in ("00", "01", "10", "11"):
        code, out, _ = run_cli(capsys, ["superdense", "--bits", bits])
        assert code == 0
        assert out_value(out, "classical_bits") == bits
        assert out_value(out, "success") == "1.0000000000"
    code, out, _ = run_cli(capsys, ["superdense", "--bits", "1,0"])
    assert code == 0
    assert out_value(out, "classical_bits") == "10"


def test_bb84_clean_and_eavesdropped(capsys):
    code, out, _ = run_cli(capsys, ["bb84", "--rounds", "2000", "--seed", "3"])
    assert code == 0
    assert out_value(out, "qber") == "0.0000000000"
    code, out, _ = run_cli(capsys, ["bb84", "--rounds", "2000", "--seed", "3", "--eavesdrop"])
    assert code == 0
    assert 0.2 < float(out_value(out, "qber")) < 0.3
    assert out_value(out, "engine") == "sampler"


def test_bb84_rejects_rounds_above_the_cap(capsys):
    code, out, err = run_cli(capsys, ["bb84", "--rounds", "10000000000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_classify_clifford_file(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\n")
    code, out, _ = run_cli(capsys, ["classify", str(path)])
    assert code == 0
    assert out == "StabilizerSimulable\n"


def test_classify_nonclifford_file(tmp_path, capsys):
    path = tmp_path / "magic.qc"
    path.write_text("qubits 1\nh 0\nt 0\n")
    code, out, _ = run_cli(capsys, ["classify", str(path)])
    assert code == 3
    assert out.splitlines() == ["RequiresStatevector", "witness=line 3 column 1"]


def test_classify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(b"qubits 1\nh 0\n"))
    code, out, _ = run_cli(capsys, ["classify", "-"])
    assert code == 0
    assert out == "StabilizerSimulable\n"


def test_run_clifford_circuit(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
    code, out, _ = run_cli(capsys, ["run", str(path), "--seed", "4"])
    assert code == 0
    assert out_value(out, "engine") == "stabilizer"
    assert out_value(out, "outcomes") in ("00", "11")
    assert any(line.startswith("stabilizer=") for line in out.splitlines())
    _, again, _ = run_cli(capsys, ["run", str(path), "--seed", "4"])
    assert again == out


def test_run_statevector_circuit(tmp_path, capsys):
    path = tmp_path / "magic.qc"
    path.write_text("qubits 1\nt 0\nh 0\n")
    code, out, _ = run_cli(capsys, ["run", str(path)])
    assert code == 0
    assert out_value(out, "engine") == "statevector"
    assert any(line.startswith("amp[0]=") for line in out.splitlines())
    assert any(line.startswith("amp[1]=") for line in out.splitlines())


@pytest.mark.parametrize(
    "text, amp",
    [
        ("qubits 1\nx 0\nz 0\n", "amp[1]=-1.000000000+0.000000000j"),
        # exact -0.0 parts: Y then Z gives (-0-1j), Y then SDG gives (1-0j)
        ("qubits 1\ny 0\nz 0\n", "amp[1]=0.000000000-1.000000000j"),
        ("qubits 1\ny 0\nsdg 0\n", "amp[1]=1.000000000+0.000000000j"),
        # parts of -2.5e-10, below half the last printed digit
        ("qubits 1\nrx 0 5e-10\n", "amp[1]=0.000000000+0.000000000j"),
        ("qubits 1\nry 0 -5e-10\n", "amp[1]=0.000000000+0.000000000j"),
        # the float nearest -5e-10 lies just below it; numpy's round would give -0.0
        ("qubits 1\nrx 0 1e-9\n", "amp[1]=0.000000000-0.000000001j"),
    ],
)
def test_run_prints_no_signed_zeros(text, amp, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(text.encode()))
    code, out, _ = run_cli(capsys, ["run", "-", "--engine", "statevector"])
    assert code == 0
    assert out.splitlines()[-1] == amp


def test_run_stabilizer_engine_rejects_nonclifford(tmp_path, capsys):
    path = tmp_path / "magic.qc"
    path.write_text("qubits 1\nt 0\n")
    code, _, err = run_cli(capsys, ["run", str(path), "--engine", "stabilizer"])
    assert code == 3
    assert "line 2 column 1" in err


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.qc"
    path.write_text("qubits 2\nwarp 0\n")
    code, _, err = run_cli(capsys, ["run", str(path)])
    assert code == 2
    assert err.startswith("parse error: line 2, column 1:")


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, ["classify", "/nonexistent/path.qc"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--input", "0"],
        ["teleport", "--input", "0", "--engine", "stabilizer"],
        ["superdense", "--bits", "10"],
        ["bb84", "--rounds", "10"],
        ["run", "-"],
    ],
)
def test_negative_seed_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(b"qubits 1\nmeasure 0\n"))
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--seed", "-1"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


def test_teleport_rejects_unknown_input_name_as_bad_state(capsys):
    code, out, err = run_cli(capsys, ["teleport", "--input", "banana"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input state 'banana':")


def test_run_rejects_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.qc"
    path.write_bytes(b"qubits 1\nh 0  # caf\xe9\n")
    for command in ("run", "classify"):
        code, out, err = run_cli(capsys, [command, str(path)])
        assert code == 2
        assert out == ""
        assert err == "parse error: line 2, column 11: byte 0xe9 is not UTF-8 text\n"


NOT_UTF8_ON_STDIN = [
    (b"qubits 1\n\xff\n", "parse error: line 2, column 1: byte 0xff is not UTF-8 text\n"),
    (b"qubits 1\nh 0 # \xff\n", "parse error: line 2, column 7: byte 0xff is not UTF-8 text\n"),
]


@pytest.mark.parametrize("data, message", NOT_UTF8_ON_STDIN)
def test_stdin_that_is_not_utf8_is_a_parse_error(data, message, monkeypatch, capsys):
    for command in ("run", "classify"):
        monkeypatch.setattr("sys.stdin", byte_stdin(data))
        code, out, err = run_cli(capsys, [command, "-"])
        assert (code, out, err) == (2, "", message)


def cli_process(argv, data=b""):
    """Run ``python -m bellsim.cli`` in a fresh process on this checkout's source."""
    src = str(Path(bellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "bellsim.cli", *argv],
        input=data, capture_output=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("data, message", NOT_UTF8_ON_STDIN)
def test_stdin_of_a_cli_process_is_read_as_bytes(data, message):
    # A real process decodes its text stdin with surrogateescape in the C and
    # UTF-8 locales, which would turn the byte into a lone surrogate.
    proc = cli_process(["run", "-"], data)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


def test_amplitudes_whose_norm_overflows_print_only_the_error_line():
    # In a process of its own: in process, pytest would catch numpy's warning.
    proc = cli_process(["teleport", "--input", "1e308,0"])
    message = "error: bad input state '1e308,0': state norm inf differs from 1 by more than 1e-10\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--e11", "nan"], "argument --e11: bad correlation 'nan': must be finite"),
        (["--e12", "inf"], "argument --e12: bad correlation 'inf': must be finite"),
        (["--e21", "1e400"], "argument --e21: bad correlation '1e400': must be finite"),
        (["--e22", "-inf"], "argument --e22: bad correlation '-inf': must be finite"),
        (["--e11", "-NaN"], "argument --e11: bad correlation '-NaN': must be finite"),
        (["--e11=-inf"], "argument --e11: bad correlation '-inf': must be finite"),
        (["--e11", "abc"], "argument --e11: bad correlation 'abc'"),
    ],
    ids=["nan", "inf", "1e400", "-inf", "-NaN", "--e11=-inf", "abc"],
)
def test_non_finite_correlations_are_usage_errors(argv, message, capsys):
    flags = {"--e11": "0", "--e12": "0", "--e21": "0", "--e22": "0"}
    flags.pop(argv[0].split("=")[0])
    with pytest.raises(SystemExit) as caught:
        main(["lhv-fit", *argv, *(token for item in flags.items() for token in item)])
    captured = capsys.readouterr()
    assert (caught.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_negative_non_finite_angles_reach_the_angle_check(value, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["chsh-eval", "--alpha1", value, "--chi1", "0", "--alpha2", "0", "--chi2", "0"])
    assert caught.value.code == 2
    assert f"argument --alpha1: bad angle {value!r}: angle must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9" * 308 + "pi", "-" + "9" * 308 + "pi", "9" * 309 + "pi/2"],
                         ids=["308-digit pi", "-308-digit pi", "309-digit pi/2"])
def test_pi_tokens_outside_the_float_range_are_usage_errors(value, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["chsh-eval", f"--alpha1={value}", "--chi1", "0", "--alpha2", "0", "--chi2", "0"])
    captured = capsys.readouterr()
    assert (caught.value.code, captured.out) == (2, "")
    assert f"--alpha1: bad angle {value!r}: angle {value!r} is outside the float range" in captured.err


@pytest.mark.parametrize("value, angle", [("-PI", "-pi"), ("-Pi/2", "-pi/2"), ("-3PI/4", "-3pi/4")])
def test_negative_pi_tokens_in_any_case_are_angles(value, angle, capsys):
    # The same reading as the joined form --alpha1=-PI and as lower case.
    rest = ["--chi1", "0", "--alpha2", "0", "--chi2", "0"]
    expected = run_cli(capsys, ["chsh-eval", f"--alpha1={angle}", *rest])
    assert expected[0] == 0
    assert run_cli(capsys, ["chsh-eval", "--alpha1", value, *rest]) == expected
    assert run_cli(capsys, ["chsh-eval", f"--alpha1={value}", *rest]) == expected


def numeric_options():
    """(subcommand parser, its name, option) for every option typed as an angle or a correlation."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(parser, name, action) for name, parser in subparsers.choices.items()
            for action in parser._actions
            if action.type in (cli.angle_argument, cli.correlation_argument)]


NUMERIC_OPTIONS = [(name, action.option_strings[0]) for _, name, action in numeric_options()]


def test_the_numeric_flag_families_are_the_ones_declared():
    assert NUMERIC_OPTIONS == [
        *(("chsh-eval", flag) for flag in ("--alpha1", "--chi1", "--alpha2", "--chi2")),
        ("chsh-scan", "--alpha1"), ("chsh-scan", "--chi1"),
        *(("lhv-fit", flag) for flag in ("--e11", "--e12", "--e21", "--e22")),
    ]


@pytest.mark.parametrize("index", range(len(NUMERIC_OPTIONS)),
                         ids=[f"{name} {flag}" for name, flag in NUMERIC_OPTIONS])
def test_every_numeric_option_takes_a_negative_value_as_its_own_token(index):
    parser, _, action = numeric_options()[index]
    flag = action.option_strings[0]
    assert flag in cli._DASH_VALUES
    value = "-pi/4" if action.type is cli.angle_argument else "-0.5"
    required = [token for other in parser._actions if other.required and other.option_strings
                for token in (other.option_strings[0], "0")]
    args = parser.parse_args(cli._fold_negative_values([*required, flag, value]))
    assert getattr(args, action.dest) == action.type(value)


def test_chsh_scan_rejects_resolution_above_the_cap(tmp_path, monkeypatch, capsys):
    def no_grid(*args):
        raise AssertionError("the grid was built before the resolution was checked")

    monkeypatch.setattr(chsh, "correlation_matrix", no_grid)
    out_path = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, ["chsh-scan", "--resolution", "200000", "--out", str(out_path)]
    )
    assert code == 1
    assert out == ""
    assert err == "error: scan resolution must lie in 2..1001, got 200000\n"
    assert not out_path.exists()
