"""Traced stand-in for ``python -m rankdual.cli``, used by traced benchmark runs.

    python3 perfbench/clitrace.py OUT.json CLI-ARGS...

Runs the CLI with the same arguments, stdout and exit code, with spans
around the public library calls, and writes the spans plus the time of
``import rankdual.cli`` to OUT.json.
"""

import json
import sys
import time

from tracing import Tracer

_t0 = time.perf_counter()
import rankdual.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = rankdual.cli.run_command(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    record = tracer.export()
    record["import_s"] = IMPORT_S
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
