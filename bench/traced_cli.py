"""One hde CLI command with spans on, in a fresh process.

Usage: python3 bench/traced_cli.py RESULT_JSON <hde cli arguments>

The traced batch-tsv cycles run each pipeline step through this script, so
that a traced step pays the same interpreter start-up, import and exit as
the plain `python -m hde.cli` step it is compared with.  It times the import
of hde.cli, runs `hde.cli.main(argv)` with every public hde function wrapped
in a span, and writes the import time, the time from its first line to the
end of the command, and the spans to RESULT_JSON.  Its exit code is the
command's.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hde.cli  # noqa: E402

IMPORTED = time.perf_counter()

from spans import Tracer  # noqa: E402


def main(result_path, argv):
    tracer = Tracer()
    tracer.install()
    try:
        rc = hde.cli.main(argv)
    finally:
        tracer.restore()
    done = time.perf_counter()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORTED - START, "inside_s": done - START,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
