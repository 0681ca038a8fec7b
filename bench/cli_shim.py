"""Run the sigverify command line once, with spans, in a fresh interpreter.

Usage: python3 bench/cli_shim.py SPANS_OUT -- <sigverify arguments>

Times ``import sigverify`` (span ``cli.import``), installs the tracing
wrappers, calls ``sigverify.cli.main`` (span ``cli.main``), writes the
spans to SPANS_OUT as JSON and exits with main's exit code.  Standard
output and error are the command's own.
"""

import sys
import time

_t0 = time.perf_counter()


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out, argv = sys.argv[1], sys.argv[3:]
    import sigverify.cli
    t1 = time.perf_counter()
    from spans import Tracer  # the benchmark's own module, beside this file
    tracer = Tracer()
    tracer.spans.append(["cli.import", _t0, t1, None, None, "timed", None])
    tracer.install()
    with tracer.span("cli.main"):
        code = sigverify.cli.main(argv)
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
