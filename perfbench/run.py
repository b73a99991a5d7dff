"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gap_labelling --seed 1 --seconds 30 --trace 0

Workloads: gap_labelling, rotation_scan, phase_portrait (see README.md).
The workload is built from the seed, then repeated in whole rounds
until the next round would end past --seconds; every round's outputs
are checked.  With --trace 0 the metrics are end to end: the median
wall and CPU time of a round, the set-up time from process start and
the peak resident memory.  With --trace 1 the calls into each
ergospectra module are traced and the metrics are per layer, the
median over rounds.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The package is imported from src/ next to this directory; nothing is
installed.  BLAS and OpenMP run one thread per process, so the process
pool of rotation_scan uses at most nproc cores.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
WORKLOAD_NAMES = ("gap_labelling", "rotation_scan", "phase_portrait")


def process_age() -> float:
    """Seconds since the kernel started this process."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="pool size of rotation_scan (default: min(2, nproc);"
                        " traced runs use 1)")
    return p.parse_args(argv)


def measure(args, scratch: Path) -> dict:
    from perfbench.tracing import PER_LAYER, Tracer
    from perfbench.workloads import WORKLOADS
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    workers = 1 if args.trace else (args.workers or min(2, nproc))
    workload = WORKLOADS[args.workload](args.seed, workers, scratch)
    setup_s = process_age()
    print(f"env: nproc={nproc} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"workers={workers}")
    print(f"{args.workload} seed={args.seed} setup {setup_s:.3f} s")

    tracer = Tracer().install() if args.trace else None
    rounds, attempted, failed = [], 0, 0
    failures, problems = {}, {}     # dicts as insertion-ordered sets
    start = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            outputs = workload.run()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            rounds.append(tracer.metrics(wall) if tracer is not None
                          else {"wall_s": wall, "cpu_s": cpu})
            n, failed_ops, found = workload.check(outputs)
            attempted += n
            failed += len(failed_ops)
            failures.update(dict.fromkeys(failed_ops))
            problems.update(dict.fromkeys(found))
            print(f"round {len(rounds)}: wall {wall:.3f} s, cpu {cpu:.3f} s,"
                  f" {n} attempted, {len(failed_ops)} failed,"
                  f" {len(found)} check problems")
            if time.perf_counter() - start + wall > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    for text in failures:
        print(f"failed operation: {text}", file=sys.stderr)
    for text in problems:
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    if tracer is not None:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                  "setup_s": setup_s, "peak_rss_mib": peak_rss_mib()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "ergospectra" / "__init__.py").is_file():
        print(f"error: no ergospectra sources in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    (BENCH / "_scratch").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=BENCH / "_scratch"))
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
