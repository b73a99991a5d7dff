"""Run all three workloads and print the reference figures of README.md.

    python3 perfbench/reference.py [--seed 1] [--seconds 30]

For each workload this runs perfbench/run.py untraced and traced on the
same seed, each in a fresh process so that set-up is cold.  The traced
run of rotation_scan uses one worker, so it is also run untraced with
one worker; tracing overhead is the traced wall_s over the untraced
wall_s at the same worker count, minus one.  Prints the end-to-end
metrics with units, the operations attempted and failed, the self-time
share of each module and the work counts, and writes every raw result
to perfbench/results/reference.json.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import subprocess
import sys

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent))

from perfbench.run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from perfbench.tracing import MODULES, PER_LAYER  # noqa: E402


def bench(workload, seed, seconds, trace, workers=None) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=BENCH.parent)
    print(done.stdout.splitlines()[0])
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    results = {}
    for name in WORKLOAD_NAMES:
        runs = {"untraced": bench(name, args.seed, args.seconds, 0),
                "traced": bench(name, args.seed, args.seconds, 1)}
        if name == "rotation_scan":
            runs["untraced_1_worker"] = bench(name, args.seed, args.seconds,
                                              0, workers=1)
        results[name] = runs

    def value(run, metric):
        return run["metrics"][metric]["value"]

    print("\n| workload | attempted | failed | correct | "
          + " | ".join(f"{m} ({u})" for m, u in END_TO_END.items())
          + " | tracing overhead |")
    print("|---" * (len(END_TO_END) + 5) + "|")
    for name, runs in results.items():
        plain = runs.get("untraced_1_worker", runs["untraced"])
        overhead = (value(runs["traced"], "trace.wall_s")
                    / value(plain, "wall_s") - 1)
        u = runs["untraced"]
        print(f"| {name} | {u['attempted']} | {u['failed']} | "
              f"{u['correct'] and runs['traced']['correct']} | "
              + " | ".join(f"{value(u, m):.3f}" for m in END_TO_END)
              + f" | {overhead:+.1%} |")

    print("\nSelf-time share of each module in the traced round:\n")
    print("| module | " + " | ".join(results) + " |")
    print("|---" * (len(results) + 1) + "|")
    for mod in MODULES:
        shares = [value(r["traced"], f"{mod}.self_share")
                  for r in results.values()]
        print(f"| {mod} | " + " | ".join(f"{s:.1%}" for s in shares) + " |")

    print("\nPer-layer metrics of one traced round:\n")
    print("| metric | unit | " + " | ".join(results) + " |")
    print("|---" * (len(results) + 2) + "|")
    for metric, (unit, _) in PER_LAYER.items():
        if metric.endswith(".self_share"):
            continue
        cells = [f"{value(r['traced'], metric):.4g}" for r in results.values()]
        print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")

    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
