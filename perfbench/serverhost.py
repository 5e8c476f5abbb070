"""Run ``repro serve`` with the benchmark's probes installed.

Usage: ``python3 perfbench/serverhost.py <repro serve arguments>`` with
``PERFBENCH_PROBE_DIR`` naming a directory that holds the one-byte
control file (see :mod:`probes`).  Apart from the probes this is exactly
``python -m repro serve``.

Replica processes are started with the ``spawn`` method, which runs this
file again as ``__mp_main__`` before the replica entry point; the probes
are therefore installed at module level, so every replica records too.
"""

import os
import sys
from pathlib import Path

if __name__ in ("__main__", "__mp_main__"):
    from probes import install_in_server

    install_in_server(Path(os.environ["PERFBENCH_PROBE_DIR"]))

if __name__ == "__main__":
    import signal

    from repro.__main__ import main

    # Ctrl-C semantics even when started with SIGINT ignored (as a
    # background job is): the benchmark stops the server with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.exit(main(["serve", *sys.argv[1:]]))
