"""Run the qmemsim CLI with the tracing wrappers installed.

    python3 perfbench/launcher.py SPANS_JSON SUBCOMMAND [qmemsim options]

Times ``import qmemsim.cli``, patches the bindings listed in tracing.PATCHES,
calls ``qmemsim.cli.main`` and writes the spans to SPANS_JSON when it
returns.  The exit status is the CLI's.
"""

import json
import sys
import time

start = time.perf_counter()
import qmemsim.cli  # noqa: E402  (the import is what is being timed)

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.record("cli.import", "import", start, imported)
    try:
        with tracer.installed():
            return qmemsim.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
