"""Run `minmaxperm.cli` with the benchmark's span wrappers installed.

Usage: python3 perfbench/cli_traced.py SPANS_FILE [cli arguments...]

The traced cli-oneshot run starts this in place of `python -m minmaxperm.cli`
so that the layers inside each CLI process show up in the trace.  Spans and
counters go to SPANS_FILE as one JSON object; the exit code is the CLI's.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import minmaxperm
    import minmaxperm.cli

    tracer = Tracer()
    tracer.install(minmaxperm)
    try:
        return minmaxperm.cli.main(argv)
    finally:
        tracer.close_all()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
