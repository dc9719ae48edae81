"""The benchmark's server process: the product's ``serve`` command.

    python3 perfbench/server.py --database DB.json [--trace]

Runs ``repro serve`` (``python -m repro serve``) on an ephemeral port with
the serial executor and one worker thread, over a database file the load
generator wrote.  One worker, not two: a second worker only contends for
the interpreter lock with the first and with the event loop, and it made
the latency of the hot-reads and live-updates workloads swing far more
from run to run.  With ``--trace`` the span wrappers of :mod:`spans` are
installed first; on SIGINT the server stops and the spans are printed as
one JSON line after :data:`SPANS_MARKER`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

SPANS_MARKER = "PERFBENCH-SPANS "
WORKER_THREADS = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--database", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = None
    if args.trace:
        from spans import Recorder, install_server

        recorder = Recorder()
        install_server(recorder)
    from repro.cli import main as cli_main

    code = cli_main(
        [
            "serve",
            "--database", args.database,
            "--port", "0",
            "--executor", "serial",
            "--worker-threads", str(WORKER_THREADS),
        ]
    )
    if recorder is not None:
        print(SPANS_MARKER + json.dumps(recorder.spans), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
