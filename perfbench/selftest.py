"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Every check can fail: for each workload, one pass with the expectations as
   built, and one with a single wrong expectation planted
   (workloads.PLANTS); the planted pass must fail exactly one job more.
2. Work counters repeat: two `--trace 1` runs of the same seed, in separate
   processes with different string-hash seeds, must give identical counters;
   any counter that differs is named.

Exits 1 if either fails.
"""

import json
import os
import subprocess
import sys

import workloads
from run import WORKLOADS, run_pass

SEED = 1


def failures(name, plant):
    g = workloads.load_gcat()
    wl = workloads.JOB_LISTS[name](g, SEED)
    if plant:
        workloads.plant_wrong(name, wl)
    return sum(outcome != "ok" for _, outcome in run_pass(g, wl.jobs))


def traced_counters(name, hash_seed):
    subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                    "--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "1",
                    "--hash-seed", str(hash_seed)],
                   check=True, capture_output=True)
    with open(os.path.join(workloads.OUT, f"counters-{name}-{SEED}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ok = True
    for name in WORKLOADS:
        base, planted = failures(name, False), failures(name, True)
        good = planted == base + 1
        ok &= good
        print(f"{name}: {base} failing jobs as built, {planted} with one wrong expectation "
              f"planted: {'ok' if good else 'FAIL'}")
    for name in WORKLOADS:
        first, second = traced_counters(name, 1), traced_counters(name, 2)
        differing = sorted(k for k in first if first[k] != second.get(k))
        ok &= not differing
        print(f"{name}: {len(first)} work counters, identical across two processes: "
              f"{'ok' if not differing else 'FAIL ' + ', '.join(differing)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
