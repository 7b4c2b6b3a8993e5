"""Command-line interface.

Subcommands:

* ``chsh-eval``  S-factor of a two-qubit state at four analyzer angles
* ``chsh-scan``  CSV sweep of S over (alpha2, chi2) at fixed (alpha1, chi1)
* ``lhv-bound``  classical CHSH bound from strategy enumeration
* ``lhv-fit``    fit a local hidden variable model to four correlations
* ``teleport``   one teleportation run (statevector or stabilizer engine)
* ``superdense`` one superdense-coding run
* ``bb84``       BB84 key distribution with optional intercept-resend
* ``classify``   stabilizer-simulability of a circuit file
* ``run``        execute a circuit file

Angle flags accept decimal literals or pi-tokens (pi, -pi/2, pi/4), the
same lexer the circuit language uses.  Exit codes: 0 success (including
"simulable" from classify); 2 usage errors and circuit parse errors;
3 when classify answers RequiresStatevector or a non-Clifford request
hits the stabilizer engine; 1 any other failure.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys

import numpy as np

from . import chsh, dsl, lhv, protocols
from . import statevector as sv
from .errors import BellSimError, IoError, NonCliffordGate

_NAMED_TWO_QUBIT = {
    "psi-plus": sv.bell_psi_plus,
    "psi_plus": sv.bell_psi_plus,
    "phi-plus": sv.bell_phi_plus,
    "phi_plus": sv.bell_phi_plus,
}


def _parse_complex(token: str) -> complex:
    return complex(token.strip().replace(" ", ""))


def state_argument(text: str) -> sv.StateVector:
    """Two-qubit state spec: psi-plus, phi-plus, product:<f0;f1>, or 4 amplitudes.

    Product factors are semicolon-separated single-qubit amplitude pairs,
    e.g. ``product:1,0;0.6,0.8``.  Raw amplitudes are comma-separated,
    e.g. ``0,0.7071067811865476,0.7071067811865476,0``.
    """
    try:
        key = text.strip().lower()
        if key in _NAMED_TWO_QUBIT:
            return _NAMED_TWO_QUBIT[key]()
        if key.startswith("product:"):
            factors = []
            for part in text.strip()[len("product:"):].split(";"):
                a0, a1 = part.split(",")
                factors.append((_parse_complex(a0), _parse_complex(a1)))
            if len(factors) != 2:
                raise ValueError("product state needs exactly two factors")
            return sv.product_state(factors)
        amps = [_parse_complex(part) for part in text.split(",")]
        if len(amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
        return sv.StateVector(2, np.array(amps, dtype=complex))
    except (ValueError, BellSimError) as exc:
        raise argparse.ArgumentTypeError(f"bad state {text!r}: {exc}") from None


def angle_argument(text: str) -> float:
    try:
        return dsl.parse_angle(text.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle {text!r}: {exc}") from None


def correlation_argument(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad correlation {text!r}") from None
    return value


def seed_argument(text: str) -> int:
    """A seed for :func:`numpy.random.default_rng`: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value}")
    return value


def bits_argument(text: str) -> tuple[int, int]:
    digits = [c for c in text if c not in ", "]
    if len(digits) != 2 or any(c not in "01" for c in digits):
        raise argparse.ArgumentTypeError(f"expected two bits like 10 or 1,0, got {text!r}")
    return int(digits[0]), int(digits[1])


def _read_text(path: str) -> str:
    """Circuit text from a file or stdin (``-``), both read as bytes and
    decoded as strict UTF-8; bytes that are not UTF-8 are a parse error."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]
        line = before.count(b"\n") + 1
        column = exc.start - before.rfind(b"\n")
        bad = exc.object[exc.start]
        raise dsl.ParseError(line, column, f"byte {bad:#04x} is not UTF-8 text") from None


def _print_report(report: protocols.ProtocolReport) -> None:
    for line in report.to_key_value_lines():
        print(line)


def _cmd_chsh_eval(args: argparse.Namespace) -> int:
    settings = chsh.MeasurementSettings(
        alpha1=args.alpha1, alpha2=args.alpha2, chi1=args.chi1, chi2=args.chi2
    )
    result = chsh.s_factor(args.state, settings)
    for name, value in zip(("E11", "E12", "E21", "E22"), result.correlations):
        print(f"{name}={value:#.10g}")
    print(f"S={result.s_value:#.10g}")
    return 0


def _cmd_chsh_scan(args: argparse.Namespace) -> int:
    grid = chsh.scan_s(args.state, args.alpha1, args.chi1, resolution=args.resolution)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["alpha2", "chi2", "S"])
            for i, alpha2 in enumerate(grid.alpha2_axis):
                for j, chi2 in enumerate(grid.chi2_axis):
                    writer.writerow(
                        [f"{alpha2:.9f}", f"{chi2:.9f}", f"{grid.s_values[i, j]:.9f}"]
                    )
    except OSError as exc:
        raise IoError(f"cannot write {args.out!r}: {exc}") from None
    return 0


def _cmd_lhv_bound(args: argparse.Namespace) -> int:
    print(f"{lhv.classical_max_s():.1f}")
    return 0


def _cmd_lhv_fit(args: argparse.Namespace) -> int:
    model = lhv.fit_lhv((args.e11, args.e12, args.e21, args.e22))
    if model is None:
        print("INFEASIBLE")
        return 0
    for index, weight in enumerate(model.weights):
        print(f"w{index}={weight:.10f}")
    for name, value in zip(("E11", "E12", "E21", "E22"), lhv.model_correlations(model)):
        print(f"{name}={value:#.10g}")
    return 0


def _cmd_teleport(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.engine == "stabilizer":
        report = protocols.teleport_stabilizer(args.input, rng)
    else:
        text = args.input.strip()
        if "," in text:
            try:
                a0, a1 = (_parse_complex(p) for p in text.split(","))
                state = sv.StateVector(1, np.array([a0, a1], dtype=complex))
            except (ValueError, BellSimError) as exc:
                print(f"error: bad input state {args.input!r}: {exc}", file=sys.stderr)
                return 2
        else:
            try:
                state = protocols.stabilizer_input_state(text)
            except NonCliffordGate:
                print(
                    f"error: bad input state {args.input!r}: expected 0, 1, +, -, +i, -i "
                    "or amplitudes a0,a1",
                    file=sys.stderr,
                )
                return 2
        report, _ = protocols.teleport_statevector(state, rng)
    _print_report(report)
    return 0


def _cmd_superdense(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    _print_report(protocols.superdense_code(args.bits, rng))
    return 0


def _cmd_bb84(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    _print_report(protocols.bb84_simulate(args.rounds, args.eavesdrop, rng))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    circuit = dsl.parse(_read_text(args.file))
    result = dsl.classify(circuit)
    print(result.value)
    for line, column in result.witnesses:
        print(f"witness=line {line} column {column}")
    return 0 if result.simulable else 3


def _cmd_run(args: argparse.Namespace) -> int:
    circuit = dsl.parse(_read_text(args.file))
    record = dsl.run(circuit, engine=args.engine, seed=args.seed)
    print(f"engine={record.engine}")
    print(f"outcomes={''.join(str(b) for b in record.outcomes)}")
    if record.final_stabilizers is not None:
        for row in record.final_stabilizers:
            print(f"stabilizer={row}")
    if record.final_statevector is not None:
        state = record.final_statevector
        for index, amp in enumerate(state.amplitudes.tolist()):
            if abs(amp) > 1e-12:
                label = format(index, f"0{state.num_qubits}b")
                # + 0.0 turns a part that prints as zero into +0.0, so no sign prints
                print(f"amp[{label}]={round(amp.real, 9) + 0.0:.9f}{round(amp.imag, 9) + 0.0:+.9f}j")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Two-qubit CHSH analysis, Clifford/statevector simulation, "
        "local hidden variable fitting, and quantum protocol drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chsh-eval", help="S-factor at four analyzer angles")
    p.add_argument("--state", type=state_argument, default=sv.bell_psi_plus())
    p.add_argument("--alpha1", type=angle_argument, required=True)
    p.add_argument("--chi1", type=angle_argument, required=True)
    p.add_argument("--alpha2", type=angle_argument, required=True)
    p.add_argument("--chi2", type=angle_argument, required=True)
    p.set_defaults(func=_cmd_chsh_eval)

    p = sub.add_parser("chsh-scan", help="CSV sweep of S over (alpha2, chi2)")
    p.add_argument("--state", type=state_argument, default=sv.bell_psi_plus())
    p.add_argument("--alpha1", type=angle_argument, default="pi/2")
    p.add_argument("--chi1", type=angle_argument, default="-pi/4")
    p.add_argument(
        "--resolution",
        type=int,
        default=201,
        help=f"points per axis, 2..{chsh._SCAN_MAX_RESOLUTION} (default 201)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_chsh_scan)

    p = sub.add_parser("lhv-bound", help="classical CHSH bound (exactly 2.0)")
    p.set_defaults(func=_cmd_lhv_bound)

    p = sub.add_parser("lhv-fit", help="fit a local model to four correlations")
    p.add_argument("--e11", type=correlation_argument, required=True)
    p.add_argument("--e12", type=correlation_argument, required=True)
    p.add_argument("--e21", type=correlation_argument, required=True)
    p.add_argument("--e22", type=correlation_argument, required=True)
    p.set_defaults(func=_cmd_lhv_fit)

    p = sub.add_parser("teleport", help="teleport a single-qubit state")
    p.add_argument(
        "--input",
        required=True,
        help="named stabilizer state (0, 1, +, -, +i, -i) or amplitudes a0,a1",
    )
    p.add_argument("--engine", choices=("statevector", "stabilizer"), default="statevector")
    p.add_argument("--seed", type=seed_argument, default=0)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("superdense", help="superdense coding of two bits")
    p.add_argument("--bits", type=bits_argument, required=True, metavar="B1B2")
    p.add_argument("--seed", type=seed_argument, default=0)
    p.set_defaults(func=_cmd_superdense)

    p = sub.add_parser("bb84", help="BB84 key distribution")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument(
        "--eavesdrop", action="store_true", help="insert an intercept-resend attacker"
    )
    p.add_argument("--seed", type=seed_argument, default=0)
    p.set_defaults(func=_cmd_bb84)

    p = sub.add_parser("classify", help="stabilizer-simulability of a circuit file")
    p.add_argument("file", help="circuit file path, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("run", help="execute a circuit file")
    p.add_argument("file", help="circuit file path, or - for stdin")
    p.add_argument("--engine", choices=("auto", "statevector", "stabilizer"), default="auto")
    p.add_argument("--seed", type=seed_argument, default=0)
    p.set_defaults(func=_cmd_run)

    return parser


_NUMERIC_FLAGS = ("--alpha1", "--alpha2", "--chi1", "--chi2", "--e11", "--e12", "--e21", "--e22")
# Flag -> the values starting with "-" that belong to it: negative numbers,
# and for --input any value but one starting "--" (-i, -, -0.6,0.8).
_DASH_VALUES = {
    **dict.fromkeys(_NUMERIC_FLAGS, re.compile(r"^-(?:pi\b|\d|\.\d)")),
    "--input": re.compile(r"^-(?!-)"),
}


def _fold_negative_values(argv: list[str]) -> list[str]:
    """Join flags with values starting with ``-`` so argparse keeps them together.

    ``--chi1 -pi/4`` becomes ``--chi1=-pi/4`` and ``--input -i`` becomes
    ``--input=-i``; without this argparse reads the value as an option.
    """
    folded: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _DASH_VALUES and i + 1 < len(argv) and _DASH_VALUES[token].match(argv[i + 1]):
            folded.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            folded.append(token)
            i += 1
    return folded


def main(argv: "list[str] | None" = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_fold_negative_values(raw))
    try:
        return args.func(args)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NonCliffordGate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BellSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
