"""One benchmark worker: a fresh, single-threaded process per sample.

Usage: python3 worker.py WORKLOAD SEED TRACE WORKDIR

Imports the library from ``src/`` of the checkout, checks that its
caches are empty, writes the workload's inputs under WORKDIR, and then
times the ``expansion_lab.cli.main`` call(s) between two runs of a fixed
reference computation.  With TRACE=1 the calls
run under the per-layer tracer.  Prints one JSON object on stdout; the
parent process checks the outputs the calls wrote.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds ``reference_seconds()`` took on the host the benchmark was
#: defined on (2 vCPU Xeon at 2.0 GHz, Python 3.11).  ``setup_s`` is
#: given in seconds of that host: raw set-up time scaled by this over the
#: worker's own reference time ``calib_s``.
REFERENCE_HOST_S = 0.3


def reference_seconds() -> float:
    """Seconds taken by a fixed pure-Python computation that does not
    touch the library: exact Fraction elimination plus dict and integer
    work, the same kinds of operations the library spends its time on.
    The host's speed drifts by a third over minutes, and this drift
    cancels in ``wall_s / reference_seconds()`` and in ``setup_s``."""
    rng = random.Random(20260819)
    started = time.perf_counter()
    for _ in range(30):
        n = 9
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
             for _ in range(n)]
        for c in range(n):
            pivot = next((i for i in range(c, n) if a[i][c]), None)
            if pivot is None:
                continue
            a[c], a[pivot] = a[pivot], a[c]
            for i in range(n):
                if i != c and a[i][c]:
                    f = a[i][c] / a[c][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        table = {}
        for i in range(20000):
            table[(i * 7919) % 10007] = i * i % 65537
    return time.perf_counter() - started


def main(argv) -> int:
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import expansion_lab
    from expansion_lab import cli

    import workloads
    from tracing import COVERAGE_EXIT, CoverageError, Tracer, cache_sizes

    warm = {name: size for name, size in cache_sizes(expansion_lab).items() if size}
    if warm:
        raise RuntimeError(f"caches not empty before timing: {warm}")
    tracer = None
    if trace:
        tracer = Tracer(expansion_lab)
        tracer.install()
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.plan(workload, seed, workdir)
    workloads.write_inputs(calls)
    ready = time.monotonic()
    before = reference_seconds()
    results = []
    phase = time.perf_counter()
    for call in calls:
        started = time.perf_counter()
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        results.append({"code": code, "seconds": time.perf_counter() - started})
    wall = time.perf_counter() - phase
    calib = (before + reference_seconds()) / 2

    out = {
        "ready": ready,
        "wall_s": wall,
        "calib_s": calib,
        "wall_rel": wall / calib,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": results,
    }
    if tracer is not None:
        try:
            out["trace"] = tracer.metrics(workload)
        except CoverageError as err:
            print(err, file=sys.stderr)
            return COVERAGE_EXIT
        out["spans"] = tracer.span_log()
        out["rebound"] = tracer.rebound
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
