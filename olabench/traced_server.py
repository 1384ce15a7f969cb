"""The traced server host: ``repro serve`` with the span wrappers.

Usage (the benchmark starts it; ``PYTHONPATH`` must hold ``src``)::

    python3 olabench/traced_server.py CATALOG TRACE.json

Installs :func:`spans.install_program`, then runs the ``serve`` command
of the repository's CLI in this process with its shipped defaults on an
ephemeral port, so ``SnapshotServer`` and the scheduler run here where
the wrappers see every server-side call.  On SIGINT the server shuts
down as it does for Ctrl-C and the spans are written to TRACE.json.
"""

from __future__ import annotations

import sys

import spans


def main(argv=None) -> int:
    catalog, out = (argv if argv is not None else sys.argv[1:])
    rec = spans.Recorder("server")
    probe = spans.install_program(rec)
    from repro.cli import main as repro_main

    code = repro_main(["serve", catalog, "--port", "0"])
    spans.write_trace(out, **probe.finish())
    return code


if __name__ == "__main__":
    sys.exit(main())
