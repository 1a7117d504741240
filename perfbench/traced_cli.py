"""Run the ``repro`` CLI with layer spans recorded.

Usage::

    python perfbench/traced_cli.py DUMP_DIR <repro arguments...>

Installs :mod:`tracer` before ``repro.cli.main`` runs and writes this
process's totals to ``DUMP_DIR/main-<pid>.json``; forked scheduler
workers write theirs beside it.
"""

import os
import sys
import time

import tracer


def main():
    dump_dir = sys.argv[1]
    spans = tracer.install(tracer.Tracer(), worker_dir=dump_dir)
    from repro.cli import main as cli_main

    # Interpreter start-up and the package imports ``install`` did.
    spans.add_self("process.startup", time.process_time())
    try:
        return cli_main(sys.argv[2:])
    finally:
        spans.dump(os.path.join(dump_dir, f"main-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
