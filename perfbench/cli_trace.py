"""Run one sgve CLI command under the tracer and dump its layer figures.

    python3 perfbench/cli_trace.py STATS.json solve bench:exshap --lambda 0.5

Standard output and the exit code are the CLI's own; the tracer's dump
goes to STATS.json.  ``cli.import`` is the time of a fresh ``import
sgve.cli`` in this interpreter.
"""
import json
import sys
import time

import checkout


def main() -> int:
    checkout.prepare()
    start = time.perf_counter()
    import sgve.cli
    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.total["cli.import"] = import_s
    tracer.install()
    try:
        code = sgve.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
