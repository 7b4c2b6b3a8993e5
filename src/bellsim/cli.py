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

numpy, and the modules that need it, load only in the handlers that compute
with arrays: ``chsh-scan``, the dense ``teleport`` and a dense ``run``.  A
``--state`` is four complex numbers checked in plain Python, from which
``chsh-eval`` takes u and w.  Seeded draws are numpy's ``default_rng(seed)``
stream in pure Python (``_pcg64.PCG64``, which holds the seed rule; ``seed_argument``
reads ``--seed``'s text as an int first); ``bb84`` seeds its coins from one such draw.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import TYPE_CHECKING

from . import dsl
from .errors import (NORM_ATOL, SCAN_MAX_RESOLUTION, BellSimError, DimensionError, InputError,
                     IoError, NonCliffordGate, NormalizationError)

if TYPE_CHECKING:
    from .protocols import ProtocolReport

_R = 1.0 / math.sqrt(2.0)
_NAMED_STATES = {"psi-plus": (0j, _R + 0j, _R + 0j, 0j), "phi-plus": (_R + 0j, 0j, 0j, _R + 0j)}
_ANGLE_FLAGS = ("--alpha1", "--chi1", "--alpha2", "--chi2")
_CORRELATION_FLAGS = ("--e11", "--e12", "--e21", "--e22")  # their values print as E11 .. E22


def _amplitudes(text: str, count: int, wrong_count: type = DimensionError) -> list[complex]:
    """The comma-separated amplitudes in ``text``, e.g. ``0.6,0.8j``: finite (else
    InputError) and ``count`` of them (else ``wrong_count``), as StateVector checks."""
    amps = [complex(part.replace(" ", "")) for part in text.split(",")]
    if not all(math.isfinite(x) for a in amps for x in (a.real, a.imag)):
        raise InputError(f"amplitudes must be finite numbers, got {text!r}")
    if len(amps) != count:
        raise wrong_count(f"expected {count} amplitudes, got {len(amps)}")
    return amps


def _unit(amps: list[complex], what: str = "state") -> list[complex]:
    """``amps`` if their norm is 1 within NORM_ATOL (an overflow reads inf), as StateVector checks."""
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps))
    if abs(norm - 1.0) > NORM_ATOL:
        raise NormalizationError(f"{what} norm {norm!r} differs from 1 by more than {NORM_ATOL}")
    return amps


def state_argument(text: str) -> tuple[complex, ...] | list[complex]:
    """Two-qubit state spec: psi-plus, phi-plus, product:<f0;f1>, or 4 amplitudes.

    Names ignore case and may use ``_`` for ``-``.  Product factors are
    semicolon-separated single-qubit amplitude pairs, e.g.
    ``product:1,0;0.6,0.8``, checked as ``product_state`` checks them.  Raw
    amplitudes are comma-separated, e.g. ``0,0.7071067811865476,0.7071067811865476,0``.
    """
    key = text.strip().lower().replace("_", "-")
    if key in _NAMED_STATES:
        return _NAMED_STATES[key]
    try:
        if not key.startswith("product:"):
            return _unit(_amplitudes(text, 4))
        factors = [_amplitudes(part, 2, InputError) for part in text.split(":", 1)[1].split(";")]
        if len(factors) != 2:
            raise InputError("product state needs exactly two factors")
        amps = [1 + 0j]  # np.kron's products, in its order
        for factor in factors:
            amps = [a * b for a in amps for b in _unit(factor, "factor")]
        return _unit(amps)
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
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"bad correlation {text!r}: must be finite")
    return value


def seed_argument(text: str) -> int:
    """``--seed``'s text as an int; one that breaks ``_pcg64.PCG64``'s rule exits 2 here."""
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


def _print_report(report: ProtocolReport) -> None:
    for line in report.to_key_value_lines():
        print(line)


def _cmd_chsh_eval(args: argparse.Namespace) -> int:
    from . import chsh
    settings = chsh.MeasurementSettings(args.alpha1, args.alpha2, args.chi1, args.chi2)
    result = chsh._s_factor(*chsh._uw(*args.state), settings)
    for flag, value in zip(_CORRELATION_FLAGS, result.correlations):
        print(f"{flag[2:].upper()}={value:#.10g}")
    print(f"S={result.s_value:#.10g}")
    return 0


def _cmd_chsh_scan(args: argparse.Namespace) -> int:
    import csv

    from . import chsh
    from . import statevector as sv
    grid = chsh.scan_s(sv.StateVector(2, args.state), args.alpha1, args.chi1, resolution=args.resolution)
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
    from . import lhv
    print(f"{lhv.classical_max_s():.1f}")
    return 0


def _cmd_lhv_fit(args: argparse.Namespace) -> int:
    from . import lhv
    model = lhv.fit_lhv((args.e11, args.e12, args.e21, args.e22))
    if model is None:
        print("INFEASIBLE")
        return 0
    for index, weight in enumerate(model.weights):
        print(f"w{index}={weight:.10f}")
    for flag, value in zip(_CORRELATION_FLAGS, lhv.model_correlations(model)):
        print(f"{flag[2:].upper()}={value:#.10g}")
    return 0


def _cmd_teleport(args: argparse.Namespace) -> int:
    from . import _pcg64, protocols
    rng = _pcg64.PCG64(args.seed)
    if args.engine == "stabilizer":
        report = protocols.teleport_stabilizer(args.input, rng)
    else:
        from . import statevector as sv
        named = "," not in args.input
        try:
            state = (protocols.stabilizer_input_state(args.input) if named
                     else sv.StateVector(1, _amplitudes(args.input, 2)))
        except (ValueError, BellSimError) as exc:
            reason = (f"expected {', '.join(protocols.STABILIZER_INPUTS)} or amplitudes a0,a1"
                      if named else exc)
            print(f"error: bad input state {args.input!r}: {reason}", file=sys.stderr)
            return 2
        report, _ = protocols.teleport_statevector(state, rng)
    _print_report(report)
    return 0


def _cmd_superdense(args: argparse.Namespace) -> int:
    from . import _pcg64, protocols
    _print_report(protocols.superdense_code(args.bits, _pcg64.PCG64(args.seed)))
    return 0


def _cmd_bb84(args: argparse.Namespace) -> int:
    from . import _pcg64, protocols
    _print_report(protocols.bb84_simulate(args.rounds, args.eavesdrop, _pcg64.PCG64(args.seed)))
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

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("chsh-eval", _cmd_chsh_eval, "S-factor at four analyzer angles")
    p.add_argument("--state", type=state_argument, default="psi-plus")
    for flag in _ANGLE_FLAGS:
        p.add_argument(flag, type=angle_argument, required=True)

    p = command("chsh-scan", _cmd_chsh_scan, "CSV sweep of S over (alpha2, chi2)")
    p.add_argument("--state", type=state_argument, default="psi-plus")
    for flag, default in zip(_ANGLE_FLAGS, ("pi/2", "-pi/4")):  # alpha1, chi1
        p.add_argument(flag, type=angle_argument, default=default)
    p.add_argument(
        "--resolution",
        type=int,
        default=201,
        help=f"points per axis, 2..{SCAN_MAX_RESOLUTION} (default 201)",
    )
    p.add_argument("--out", required=True, help="output CSV path")

    command("lhv-bound", _cmd_lhv_bound, "classical CHSH bound (exactly 2.0)")

    p = command("lhv-fit", _cmd_lhv_fit, "fit a local model to four correlations")
    for flag in _CORRELATION_FLAGS:
        p.add_argument(flag, type=correlation_argument, required=True)

    teleport = command("teleport", _cmd_teleport, "teleport a single-qubit state")
    teleport.add_argument(
        "--input",
        required=True,
        help="named stabilizer state (0, 1, +, -, +i, -i) or amplitudes a0,a1",
    )
    teleport.add_argument("--engine", choices=("statevector", "stabilizer"), default="statevector")

    superdense = command("superdense", _cmd_superdense, "superdense coding of two bits")
    superdense.add_argument("--bits", type=bits_argument, required=True, metavar="B1B2")

    bb84 = command("bb84", _cmd_bb84, "BB84 key distribution")
    bb84.add_argument("--rounds", type=int, default=1000)
    bb84.add_argument(
        "--eavesdrop", action="store_true", help="insert an intercept-resend attacker"
    )

    p = command("classify", _cmd_classify, "stabilizer-simulability of a circuit file")
    p.add_argument("file", help="circuit file path, or - for stdin")

    run = command("run", _cmd_run, "execute a circuit file")
    run.add_argument("file", help="circuit file path, or - for stdin")
    run.add_argument("--engine", choices=("auto", "statevector", "stabilizer"), default="auto")

    for p in (teleport, superdense, bb84, run):  # --seed is each one's last option
        p.add_argument("--seed", type=seed_argument, default=0)
    return parser


# Flag -> the values starting with "-" that belong to it: negative numbers
# and pi-tokens in any case (-inf and -nan too, which the flag's type
# rejects), and for --input any value but one starting "--" (-i, -, -0.6,0.8).
_DASH_VALUES = {
    **dict.fromkeys(_ANGLE_FLAGS + _CORRELATION_FLAGS,
                    re.compile(r"^-(?:\d|\.\d|(?i:pi\b|inf|nan))")),
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
