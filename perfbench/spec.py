"""The benchmark's workloads and their fixed, absolute settings.

Rates, rate ladders, the rung a climb starts from and latency limits
are constants chosen up front, never derived from a measured capacity:
a later change that makes the server faster moves ``max_rate_rps`` up
the same ladder.  ``stream`` seeds a serve workload's arrival pattern,
which is part of the workload; ``--seed`` draws the inputs.

The traffic mix (``MULTI_FRAC``, sizes 2-8, ``sessions``) is a
placeholder, not measured traffic: no request trace exists to take it
from.  It follows the shape "most requests carry one image, a minority
2-8" and spreads the multi-image sizes evenly so that every batch shape
up to the batcher's ``max_batch_size`` (8) occurs.
"""

#: Images in the request pool a serve workload draws from.
POOL_IMAGES = 32

#: Share of serve requests carrying 2-8 images (sizes cycle evenly).
MULTI_FRAC = 0.15

#: Set-ups timed per run, reported by median: server launches, whose
#: nominal windows make up a serve run's window (a launch's own speed
#: varies more than requests within it do), or offline session builds.
SETUPS = 2

#: Ratio between neighbouring ladder rungs: 12.5%, finer than the 0.15
#: bound of ``max_rate_rps``, so a change of that size moves it a rung.
LADDER_STEP = 1.125


def ladder(base: float, top: float) -> list[float]:
    """Fixed geometric rungs through ``base``, from about ``base / 2`` up
    to ``top``."""
    rungs, k = [], -6
    while base * LADDER_STEP ** k <= top:
        rungs.append(round(base * LADDER_STEP ** k, 2))
        k += 1
    return rungs


SERVE = {
    # Engine time is ~2 ms per image, so transport, JSON, batcher wait
    # and worker overhead dominate; kernel changes should barely move it.
    # At the nominal 30 req/s the keep-alive connections stay busy, so
    # every response pays the write stall (~40 ms); at 25 req/s whole
    # runs flip between stalled (p50 ~47 ms) and not (~10 ms).  Queueing
    # for a free connection then makes the median sensitive to host
    # speed, so the window is split over launches.  The ladder reaches far
    # past today's ~40 req/s ceiling (two connections held ~48 ms each).
    "serve-lenet": {
        "model": "lenet",
        "dataset": "mnist",
        "scale": "small",
        "replicas": "1",
        "nominal_rps": 30.0,
        "ladder_rps": ladder(30.0, 250.0),
        "ladder_start_rps": 33.75,  # the first rung above the nominal rate
        "sessions": 0,
        "stream": 101,
    },
    # The same traffic against --replicas auto: the cluster tier --
    # shared-memory transport, affinity placement (256 clients' session
    # keys, enough that placement follows the ring's own split), the router's I/O poll and replica parallelism -- dominates,
    # with no MicroBatcher.  ResNet-20 here would put dense convs under
    # the cluster, but on a 2-core host its latency moves by 20-30% from
    # one server launch to the next, more than any bound can hold.
    "serve-lenet-replicas": {
        "model": "lenet",
        "dataset": "mnist",
        "scale": "small",
        "replicas": "auto",
        "nominal_rps": 15.0,
        "ladder_rps": ladder(15.0, 250.0),
        # A rung near today's capacity keeps the climb short.
        "ladder_start_rps": 24.03,
        "sessions": 256,
        "stream": 202,
    },
}

# The paper's evaluate-then-simulate pipeline in process: no HTTP, no
# batching.  At threshold 0.8 about 2.5% of outputs are sensitive and
# ``auto`` picks the sparse gather/scatter path for nearly every conv.
OFFLINE = {
    "offline-resnet20-sparse": {
        "model": "resnet20",
        "dataset": "cifar10",
        "scale": "default",
        "threshold": 0.8,
        "batch": 16,
        "test_images": 512,
        "check_images": 64,
        # Batches of the split's head run twice for the repeat check.
        "repeat_batches": 2,
    },
}

#: A serve rung holds when its p99 latency (failures as misses) and the
#: median of its last quarter stay within this limit.
P99_LIMIT_MS = 500.0

#: Seconds of each ladder rung.
RUNG_SECONDS = 3.0

#: Conv layers reported per layer (ResNet-20 has 19; LeNet uses C1-C2).
CONV_LAYERS = [f"C{i}" for i in range(1, 20)]
