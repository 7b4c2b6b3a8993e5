"""Run one bellsim CLI command between two host-speed calibrations.

    python3 perfbench/cli_shim.py [--trace] ARGS...

Every cli-session op runs through this script in place of
``python -m bellsim.cli ARGS``.  It calibrates the host's speed
(``hostspeed.py``) before it imports ``bellsim.cli`` and again after
``main`` returns, in the CLI's own process, and appends the scale factor
and the CPU seconds the calibrations took to stderr after a marker line.
The load generator takes the process's CPU time from exec to exit, takes
those seconds out and scales the rest.  With ``--trace`` it also wraps the library's
public functions, runs ``main`` under a ``cli.main`` span, and appends
the spans after their own marker.  Stdout and the exit code are the
CLI's own.
"""

import contextlib
import json
import os
import sys
import time

# sys.path[0] is this directory, as for any script, while the shim imports
# its own modules; main() then makes it the working directory, as under
# ``python -m``.
import hostspeed

CAL_MARKER = "\nPERFBENCH_CAL "
SPANS_MARKER = "\nPERFBENCH_SPANS "
PASSES = 20

if sys.argv[1:2] == ["--trace"]:
    from spans import LAYERS, Recorder


def run_cli(args: list[str], trace: bool) -> tuple[int, list | None]:
    """The CLI's exit code, and its spans when tracing."""
    import bellsim
    import bellsim.cli

    rec = None
    if trace:
        rec = Recorder()
        rec.install({layer: getattr(bellsim, layer) for layer in LAYERS})
    try:
        with rec.root("cli.main", 0, False) if rec else contextlib.nullcontext():
            try:
                code = bellsim.cli.main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        if rec:
            rec.uninstall()
    return (code if isinstance(code, int) else 1), (rec.export() if rec else None)


def main() -> int:
    trace = sys.argv[1:2] == ["--trace"]
    args = sys.argv[2:] if trace else sys.argv[1:]
    sys.path[0] = os.getcwd()
    t0 = time.process_time()
    hostspeed.calibration_s()  # warm-up
    before = hostspeed.calibration_s(PASSES)
    added = time.process_time() - t0
    code, spans = run_cli(args, trace)
    sys.stdout.flush()
    t1 = time.process_time()
    after = hostspeed.calibration_s(PASSES)
    added += time.process_time() - t1
    if spans is not None:
        sys.stderr.write(SPANS_MARKER + json.dumps(spans) + "\n")
    sys.stderr.write(CAL_MARKER + json.dumps([hostspeed.factor(before, after, PASSES), added]) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
