"""Run the orbitope command line with the benchmark's tracer installed.

    python perfbench/cli_shim.py SPANS_JSON VERB [ARGS...]

behaves like `python -m orbitope.cli VERB [ARGS...]` (same output, same
exit code) and writes the spans and counters of the call to SPANS_JSON.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracer as tracing  # noqa: E402  (the benchmark's own directory)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    mods = tracing.import_orbitope()
    tracer = tracing.Tracer(mods)
    tracer.start()
    try:
        code = mods["cli"].main(argv)
    finally:
        tracer.stop()
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
