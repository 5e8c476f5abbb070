"""Time one cold session build in a fresh process.

Usage: ``python3 perfbench/build_session.py '<ServeConfig fields as JSON>'``
prints ``{"build_s": <seconds>}``.  A build in a fresh process pays the
once-per-process costs (GEMM auto-tuning, weight packing) that a second
build in the same process would skip.
"""

import json
import sys
import time

if __name__ == "__main__":
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    config = ServeConfig(**json.loads(sys.argv[1]))
    t0 = time.perf_counter()
    ModelSession(config)
    print(json.dumps({"build_s": time.perf_counter() - t0}))
