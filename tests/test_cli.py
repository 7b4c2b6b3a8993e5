"""End-to-end command-line tests driving bellsim.cli.main in process."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim
from bellsim import chsh
from bellsim import statevector as sv
from bellsim.cli import main

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


@pytest.mark.parametrize("data, message", NOT_UTF8_ON_STDIN)
def test_stdin_of_a_cli_process_is_read_as_bytes(data, message):
    # A real process decodes its text stdin with surrogateescape in the C and
    # UTF-8 locales, which would turn the byte into a lone surrogate.
    src = str(Path(bellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "bellsim.cli", "run", "-"],
        input=data, capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


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
