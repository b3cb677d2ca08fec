"""matpencil benchmark: time to a verified result on three workloads.

    python3 bench/run.py --workload {family,closure,mandelbrot} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (imports, seeded input generation, one reduced warm-up pass)
is followed by as many full passes over the same inputs as fit in
``--seconds``; the first of them is a warm-up and is not timed.  Every
operation is gated by the acceptance suite's bounds.  A speed probe runs
before each pass, and every time reported is scaled to the probe's nominal
speed (see ``speed_probe``).  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
``setup_s`` is the median of several fresh processes that each set up and
stop.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones from the traced passes, whose spans are also
written to ``bench/out/spans-<workload>.jsonl``.  The line before the last
holds the environment and the sample counts behind the metrics.  See
``bench/METRICS.md`` for what each metric means and which workload moves it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_PASSES = 3
#: nominal duration (s) of the speed probe; timings are scaled to it
PROBE_NOMINAL_S = 0.2
#: deviations below double-precision epsilon count as exact
EPS = 2.0 ** -52


def cap_threads() -> int:
    """Run BLAS and OpenMP on one thread, within the nproc cap; call before
    numpy loads.  Returns nproc.

    On a shared 2-core machine a two-thread BLAS call waits for the slower of
    two cores, and a family pass ran no faster on two threads than on one
    (6.6-7.0 s against 6.3-7.1 s per pass).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def op_latency(passes) -> list[float]:
    """Each operation's latency (s): the median of its runs across the passes.

    Every pass runs the same operations in the same order, so an operation's
    spread across passes is the machine's doing, not the program's.  On a
    shared box neighbours slow stretches of seconds to minutes by up to half,
    and now and then one pass runs well below the rest, so the fastest run
    of an operation moves more from one run to the next than its median does.
    """
    return [statistics.median(ops[i].seconds for ops in passes) for i in range(len(passes[0]))]


def speed_probe():
    """A function that times one run of a fixed reference computation.

    The computation does not touch matpencil, so no change to the program
    moves it.  It mixes the four kinds of work the workloads do: interpreter
    loops over big integers and dicts, many small numpy calls, small LAPACK
    eigensolves, and int64 copies.  It raised the peak memory of closure, the
    smallest workload, by under 2 MB.  On a shared machine the speed of the
    whole box drifts by a third over minutes, and every workload and the probe
    drift together, so timings are reported scaled by
    ``PROBE_NOMINAL_S / median probe time`` of the same run.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    small = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)]
    mid = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))

    def probe() -> float:
        t0 = time.perf_counter()
        x = 3
        for i in range(18000):
            x = (x * x + i) % (1 << 512)
        for _ in range(20):
            sorted({i: str(i) for i in range(4500)}.values())
        for _ in range(480):
            for m in small:
                np.linalg.solve(m, m[0])
        for _ in range(4):
            np.linalg.eigvals(mid)
        a = np.ones((128, 256), np.int64)
        for _ in range(128):
            a.T.copy().sum()
        return time.perf_counter() - t0

    return probe


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def probe_setup(args) -> list[float]:
    """Wall time from launching a fresh process to the end of its warm-up."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("family", "closure", "mandelbrot"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the monotonic clock, and stop (measures setup_s)")
    args = ap.parse_args(argv)

    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    try:
        import matpencil
    except ImportError as exc:
        print(f"error: cannot import matpencil from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(matpencil.__file__).resolve().parent.parent != SRC:
        print(f"error: matpencil loaded from {matpencil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.run_pass(reduced=True)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    probe = speed_probe()
    probe()  # untimed: the first call pays one-off costs
    untraced, traced = [], []  # the ops of each pass
    walls, probes = [], []  # untraced pass times; probe times, one per pass
    start = time.perf_counter()
    # One full pass untimed: the first full-size pass of a process ran slower
    # than the rest, on mandelbrot by 10-50%.
    warm = workload.run_pass()
    pass_s = time.perf_counter() - start  # the latest pass; the next should end in --seconds
    while (len(untraced) + len(traced) < MIN_PASSES
           or time.perf_counter() - start + pass_s <= args.seconds):
        t_pass = time.perf_counter()
        probes.append(probe())
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            traced.append(tracer.run(workload.run_pass))
        else:
            t0 = time.perf_counter()
            untraced.append(workload.run_pass())
            walls.append(time.perf_counter() - t0)
        pass_s = time.perf_counter() - t_pass
    ops = [op for pass_ops in [warm] + untraced + traced for op in pass_ops]

    failed = [op for op in ops if not op.ok]
    detail = {"workload": args.workload, "seed": args.seed,
              "environment": environment(nproc),
              "passes": len(untraced), "traced_passes": len(traced), "operations": len(ops),
              "pass_walls": walls, "median_pass_wall_s": statistics.median(walls),
              "probe_s": statistics.median(probes), "probe_samples": len(probes),
              "failures": [f"{op.name}: {op.error or 'gate'}" for op in failed[:10]]}
    scale = PROBE_NOMINAL_S / detail["probe_s"]
    if tracer is None:
        setup = probe_setup(args)
        worst = max(op.deviation for op in ops)
        lat = op_latency(untraced)
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "wall_s": (sum(lat) * scale, "s"),
            "op_p50_ms": (statistics.median(lat) * scale * 1e3, "ms"),
            "op_p99_ms": (percentile(lat, 99) * scale * 1e3, "ms"),
            "pass_ratio": (1.0 - len(failed) / len(ops), "1"),
            "accuracy_digits": (-math.log10(max(worst, EPS)), "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail.update(setup_samples=setup, unscaled_wall_s=sum(lat), latency_samples=len(lat),
                      p99_samples_beyond=len(lat) - math.ceil(0.99 * len(lat)),
                      worst_deviation=worst)
    else:
        overhead = sum(op_latency(traced)) - sum(op_latency(untraced))
        metrics = {name: (value * scale if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.layer_metrics(overhead).items()}
        tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl")
        detail.update(traced_pass_walls=[wall for wall, _ in tracer.passes],
                      computed=[name for name, (_, unit) in metrics.items()
                                if unit in ("count", "bytes")])
    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
