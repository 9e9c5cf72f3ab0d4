"""Run one replalg CLI job in this fresh interpreter and report timings.

Usage: python3 bench/child.py {run|setup} {0|1} <replalg argv...>

Set-up is everything a CLI call pays before its command runs: interpreter
start, ``import replalg`` (and numpy), ``build_replicated`` for the job's
algebra (memoized, so the command's own call is a hit) and, after the
command, interpreter exit. The parent times the whole child; the child
times ``replalg.cli.main(argv)`` from call to return, stdout formatting
included, and writes the command's stdout unchanged to its own stdout.
Mode ``setup`` stops after set-up. With trace ``1`` the outside-in tracer
is installed before set-up.

The last line of stderr is ``@@bench-child <json>`` with run_s, the job's
exit code, peak RSS and, when traced, the per-function trace.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

MARK = "@@bench-child "
SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    if "replalg" in sys.modules:
        raise SystemExit("child: replalg was imported before set-up started")
    mode, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if mode not in ("run", "setup"):
        raise SystemExit(f"child: unknown mode {mode!r}")
    sys.path.insert(0, str(SRC))
    import numpy

    import replalg
    import replalg.cli as cli
    if not Path(replalg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"child: replalg imported from {replalg.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    from replalg import quiverrep as qr
    from replalg import replicated as rp
    args = cli.build_parser().parse_args(argv)
    rp.build_replicated(qr.Quiver.load(args.quiver), args.m, args.prime)

    report = {"mode": mode, "numpy": numpy.__version__}
    if mode == "run":
        buf = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report["run_s"] = time.perf_counter() - t0
        report["run_cpu_s"] = time.process_time() - c0
        report["exit"] = code
        sys.stdout.write(buf.getvalue())
        sys.stdout.flush()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    sys.stderr.write(MARK + json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
