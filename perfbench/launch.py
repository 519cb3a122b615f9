"""Run one ``cfsdim`` command with the benchmark's tracer installed.

    python3 perfbench/launch.py SPANS_JSON -- ARGS...

Times the import of ``cfsdim.cli`` as the span ``cli.import``, wraps every
public function as the in-process traced run does, calls
``cfsdim.cli.main(ARGS)`` and writes the spans to SPANS_JSON on exit.  The
exit code and any traceback are those of the command itself.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402  (stdlib only, so the import below is timed alone)


def main(argv):
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON -- ARGS...")
    tracer = Tracer()
    t0 = time.perf_counter()
    import cfsdim
    import cfsdim.cli
    tracer.add_span("cli.import", "cli", t0, time.perf_counter())
    tracer.install(cfsdim)
    try:
        return cfsdim.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
