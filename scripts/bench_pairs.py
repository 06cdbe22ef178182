#!/usr/bin/env python3
"""Before/after benchmark pairs: `perfbench/run.py` on two revisions, written
to BENCH_<label>.json at the repository root.

    python3 scripts/bench_pairs.py --base a1ed049 --label nerve

Each side is the committed tree of its revision (`--head` defaults to HEAD),
exported with `git archive` into a temporary directory (under $TMPDIR) that
is removed at the end: uncommitted files take no part, and the repository's
git metadata is not touched.  There are ten pairs, the number a claimed
gain is judged on.  Pair k runs `run.py --seed k --trace 0` over all
workloads on both sides, for the `run_seconds` of the head's BENCHMARK.json,
the base first in odd pairs and the head first in even ones, so a slow
stretch of a shared host falls on both sides alike.

For every workload and every end-to-end metric of the head's BENCHMARK.json,
plus `fail_ratio`, the file holds both sides' medians and quartiles, each
pair's values as [base, head], the number of pairs the head wins, and two
verdicts.  A tie counts for neither side.  A run that reports itself
incorrect stops the script.

- `worse_than_bound`: the head's median is worse than the base's by more
  than the metric's `bound`, a fraction of the base's median.  `fail_ratio`
  has bound 0: any larger share of failed jobs is worse.
- `gain_shown`: the head wins at least GAIN_WINS of the pairs, and its
  median is better than the base's by more than the base's quartile
  distance.

The file also holds `job_runs`, workload -> each pair's [base, head] count
of job runs, read from the `workload <name>: ... (<N> job runs)` line that
`run.py` prints.  It carries no verdict: a faster side runs its jobs more
often, and the benchmark's memory grows with that count, so a `peak_rss_mb`
rise can be read against it.

Before the pairs, each side runs `run.py --seed 1 --trace 1` over all
workloads TRACED_RUNS times, the sides alternating (base first in the first
and third round).  The first run of each side gives its deterministic work
counters: every per-layer metric that is not a time (`trace.*` left out)
and, from the span dump of the first traced pass, the calls of each traced
function during the jobs, as `calls.<layer>.<function>`.  The file holds
them as `counters`, workload -> name -> [base, head], and the names whose
two values differ as `counters_changed`, which the script prints too.  The
per-layer self times (`*.self_s`) of all the traced runs are kept as
`self_s`, workload -> name -> each side's runs and median.  They carry no
verdict: each is one traced pass, and the host's noise on it is large.
"""

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
GAIN_WINS = 9
TRACE_SECONDS = 4    # of the traced run's untraced passes; the counters do not depend on it
TRACED_RUNS = 3      # per side, for the median per-layer self times
JOB_RUNS_LINE = re.compile(r"^workload (\S+): .*\((\d+) job runs\)", re.MULTILINE)


def export(rev, dest):
    """The committed tree of `rev`, extracted under `dest`; returns its commit."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def job_runs(stdout, names):
    """workload -> job runs, for each workload of `names`, from the output of
    `run.py --workload all`; a workload without its line stops the script."""
    counts = {name: int(n) for name, n in JOB_RUNS_LINE.findall(stdout)}
    missing = [name for name in names if name not in counts]
    if missing:
        raise SystemExit(f"run.py printed no job-run count for {', '.join(missing)}")
    return counts


def run(tree, seed, seconds):
    """One `run.py` run of all workloads in `tree`: workload -> {metric: value},
    fail_ratio and job_runs included."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", "all", "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = job_runs(proc.stdout, rows)
    values = {}
    for name, row in rows.items():
        if not row["correct"]:
            raise SystemExit(f"{tree}: workload {name} at seed {seed} reports an incorrect run")
        values[name] = {k: v["value"] for k, v in row["metrics"].items()}
        values[name]["fail_ratio"] = row["failed"] / row["attempted"]
        values[name]["job_runs"] = counts[name]
    return values


def traced_run(tree):
    """One `run.py --seed 1 --trace 1` run of all workloads in `tree`: its
    work counters and its self times, each workload -> {name: value}, see
    the module docstring."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", "all", "--seed", "1",
                           "--seconds", str(TRACE_SECONDS), "--trace", "1"],
                          cwd=tree, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    counters, self_s = {}, {}
    for name, row in rows.items():
        if not row["correct"]:
            raise SystemExit(f"{tree}: workload {name} reports an incorrect traced run")
        found = counters[name] = {k: v["value"] for k, v in row["metrics"].items()
                                  if v["unit"] != "s" and not k.startswith("trace.")}
        self_s[name] = {k: v["value"] for k, v in row["metrics"].items() if k.endswith(".self_s")}
        with open(tree / "perfbench" / "out" / f"trace-{name}-1.jsonl", encoding="utf-8") as fh:
            for line in fh:
                layer, function, _, job = json.loads(line)[:4]
                if layer != "bench" and job != "setup":
                    key = f"calls.{layer}.{function}"
                    found[key] = found.get(key, 0) + 1
    return counters, self_s


def median_self_times(base, head):
    """workload -> name -> {"base": [...], "head": [...], "base_median": ...,
    "head_median": ...} from each side's traced runs, each workload -> name
    -> seconds; a side that never reports a name has median None."""
    table = {}
    for side, runs in (("base", base), ("head", head)):
        for run in runs:
            for name, times in run.items():
                for metric, value in times.items():
                    row = table.setdefault(name, {})
                    row.setdefault(metric, {"base": [], "head": []})[side].append(value)
    for row in table.values():
        for entry in row.values():
            for side in ("base", "head"):
                entry[f"{side}_median"] = statistics.median(entry[side]) if entry[side] else None
    return table


def compare_counters(base, head):
    """({workload: {counter: [base, head]}}, the 'workload:counter' names
    whose values differ); a counter only one side reports is None on the
    other."""
    table, changed = {}, []
    for name in sorted(set(base) | set(head)):
        b, h = base.get(name, {}), head.get(name, {})
        table[name] = {k: [b.get(k), h.get(k)] for k in sorted(set(b) | set(h))}
        changed += [f"{name}:{k}" for k, (x, y) in table[name].items() if x != y]
    return table, changed


def summary(pairs, better, bound):
    """Medians, quartiles, the pairs, the head's wins and both verdicts for
    one metric."""
    sign = 1 if better == "higher" else -1
    out = {"better": better, "bound": bound}
    for side, values in (("base", [b for b, _ in pairs]), ("head", [h for _, h in pairs])):
        out[f"{side}_median"] = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        out[f"{side}_quartiles"] = [q[0], q[2]]
    out["head_wins"] = sum(sign * (h - b) > 0 for b, h in pairs)
    out["pairs"] = [[b, h] for b, h in pairs]
    base, head = out["base_median"], out["head_median"]
    out["worse_than_bound"] = sign * (base - head) > bound * abs(base)
    q1, q3 = out["base_quartiles"]
    out["gain_shown"] = out["head_wins"] >= GAIN_WINS and sign * (head - base) > q3 - q1
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the revision compared against")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees, commits = {}, {}
        for side in ("base", "head"):
            trees[side] = Path(tmp) / side
            commits[side] = export(getattr(args, side), trees[side])
        bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
        better["fail_ratio"] = ("lower", 0)
        traced = {"base": [], "head": []}   # per side, (counters, self times) of each run
        for k in range(TRACED_RUNS):
            for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                traced[side].append(traced_run(trees[side]))
        runs = []   # per pair, {side: workload -> metric -> value}
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            pair = {}
            for side in order:
                pair[side] = run(trees[side], seed, seconds)
                print(f"pair {seed}/{PAIRS} {side}: " + "  ".join(
                    f"{w} {v['jobs_per_s']:.1f}" for w, v in pair[side].items()) + " jobs/s",
                      file=sys.stderr, flush=True)
            runs.append(pair)
    workloads = {}
    for name in runs[0]["base"]:
        workloads[name] = {metric: summary([(r["base"][name][metric], r["head"][name][metric])
                                            for r in runs], direction, bound)
                           for metric, (direction, bound) in better.items()}
    doc = {"base": commits["base"], "head": commits["head"], "pairs": PAIRS,
           "seeds": [1, PAIRS], "seconds": seconds,
           "command": "perfbench/run.py --trace 0", "python": sys.version.split()[0],
           "workloads": workloads,
           "job_runs": {name: [[r["base"][name]["job_runs"], r["head"][name]["job_runs"]]
                               for r in runs] for name in workloads}}
    doc["counters"], doc["counters_changed"] = compare_counters(traced["base"][0][0],
                                                                traced["head"][0][0])
    doc["self_s"] = median_self_times(*([t for _, t in traced[side]] for side in ("base", "head")))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, metrics in workloads.items():
        print(f"{name}: " + "  ".join(
            f"{m} {s['base_median']:.4g} -> {s['head_median']:.4g} ({s['head_wins']}/{PAIRS}"
            + ", worse than bound" * s["worse_than_bound"] + ", gain shown" * s["gain_shown"] + ")"
            for m, s in metrics.items()))
    for name, row in doc["self_s"].items():
        print(f"{name} self_s medians: " + "  ".join(
            f"{m[:-7]} {e['base_median']:.3f} -> {e['head_median']:.3f}"
            for m, e in sorted(row.items())
            if m.count(".") == 1 and None not in (e["base_median"], e["head_median"])))
    for key in doc["counters_changed"]:
        name, counter = key.split(":", 1)
        base, head = doc["counters"][name][counter]
        print(f"counter changed: {key} {base} -> {head}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
