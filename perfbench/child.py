"""One proccat invocation in a fresh interpreter, timed from inside.

    python child.py RECORD.json TRACE(0|1) -- <proccat arguments>

Imports proccat.cli, optionally installs the layer tracer, then times
`proccat.cli.main(arguments)` alone, so interpreter start and import stay
out of the measured wall time.  Writes {"code", "wall_s", "pid"} and, when
traced, the tracer's raw sums ("trace") to RECORD.json.
"""
import json
import os
import sys
import time
from pathlib import Path


def main() -> None:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import proccat.cli

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    code = proccat.cli.main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()

    record = {"code": code, "wall_s": wall, "pid": os.getpid()}
    if tracer is not None:
        record["trace"] = tracer.raw()
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
