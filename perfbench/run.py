"""gcat benchmark: time to a correct verdict, per job, on four workloads.

    python3 perfbench/run.py --workload spans --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload (see workloads.py) is a fixed job list built from `--seed` and
run as a closed loop: one process, one thread, one job at a time. A run is
an untimed set-up, which also builds the expectations kept per process,
then whole passes over the job list for `--seconds`, with SETUPS fresh
set-ups (import of gcat plus the input build) spread over them. Every
job's verdict is compared with an expectation that does not come from gcat.

`--trace 0` prints the end-to-end metrics: `setup_s` (median of the run's
set-ups), `jobs_per_s` (job count over the sum of the per-job latencies),
`job_p50_ms` and `job_tail_ms` (median and tail of the per-job latencies;
the tail leaves TAIL_BEYOND jobs beyond it) and `peak_rss_mb`. A job's
latency is the median of its runs; within a pass a job repeats until it has
run MIN_JOB_S, so short jobs are sampled as often as long ones.

Times are in host-speed-corrected seconds. A shared host runs the same code
up to 1.5 times slower for tens of seconds at a time, longer than a run, so
raw times of one program differ between runs by more than a regression
bound. The run therefore times a fixed loop of integer and dict work
(`reference_loop`, no gcat code) every REF_EVERY_S between jobs, and
scales each timed interval by REF_NOMINAL_S over the median loop time
within REF_WINDOW_S of it: a time reads as it would on a host where the
loop takes REF_NOMINAL_S. The uncorrected figures are printed beside them.
Each job starts after a full garbage collection, so that it does not pay
for the garbage of the job before it, and every run uses PYTHONHASHSEED 0
(`--hash-seed`; run.py re-executes itself under it): string hashes order
sets and dicts, and with them how soon a search that stops at its first hit
ends; with a hash seed drawn per process, ex_kan's median job ranged over
45% of its median in runs of seeds 1-5, and over 17% with it fixed.

`--trace 1` repeats fresh import, set-up and one pass: once under the
boundary tracer (tracer.py), then untraced for half of `--seconds`, then
under the tracer again. It prints the per-layer self times and work
counters of the first traced repetition, the tracing overhead (traced over
median untraced job time of a pass, both host-corrected) and how many work
counters differ between the two traced repetitions.

A job fails when it raises, is refused at a cap (`SizeCapExceeded`,
`Inconclusive`) or returns a verdict other than its expectation; `failed`
and `attempted` count jobs once per pass, and `fail_ratio` is their
quotient. The run is `correct` unless a job raised an unexpected exception,
a job's outcome changed between its runs, or a work counter differed
between the two traced repetitions. The last line of stdout is one JSON
object.
"""

import argparse
import bisect
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from workloads import BENCHMARK, LAYERS, OUT
from tracer import PER_LAYER, Tracer, counters_of, layer_metrics

WORKLOADS = tuple(workloads.JOB_LISTS)
SETUPS = 5                 # fresh set-ups per run
# jobs beyond the tail percentile: the highest percentile with ten jobs beyond it
TAIL_BEYOND = 10
MIN_JOB_S = 0.1            # a job repeats within a pass until it has run this long
REF_EVERY_S = 0.1          # time the reference loop at least this often between jobs
REF_WINDOW_S = 1.0         # host speed at an interval: loop times this close to it
# the reference loop's time in a fast phase of a 2-vCPU VM, Python 3.11.7
REF_NOMINAL_S = 0.002
PASS_DEADLINE_S = 120      # stop starting passes past this, whatever --seconds says
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


REF_LABELS = tuple(f"x{i}.{j}" for i in range(20) for j in range(8))


def reference_loop():
    """Fixed work in two parts of about equal time: integer arithmetic, and
    string-keyed dict and tuple handling. It calls no gcat code."""
    s = 0
    for i in range(8000):
        s = (s * 31 + i) & 0xFFFF
        if s & 1:
            s ^= 0x55
    table = {}
    for a in REF_LABELS:
        for b in REF_LABELS[:12]:
            table[a, b] = a + "|" + b
    hits = sum(1 for (a, b), c in table.items() if c in table or (b, a) in table)
    return s + hits + len(sorted(table.values())[:3])


class HostSpeed:
    """Times of reference_loop over a run, to correct timed intervals by."""

    def __init__(self):
        self.at, self.took, self.last = [], [], float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def poll(self):
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def corrected(self, t0, t1):
        """t1 - t0 scaled by REF_NOMINAL_S over the median loop time near it."""
        lo = bisect.bisect_left(self.at, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + REF_WINDOW_S)
        return (t1 - t0) * REF_NOMINAL_S / statistics.median(self.took[lo:hi])


def run_pass(g, jobs, tracer=None, min_job_s=0.0, speed=None):
    """One pass over the job list: [(timed intervals, outcome)] in job order.

    Each job runs once, and again while its runs in this pass add up to less
    than `min_job_s`, so that short jobs get as many samples as long ones get
    time. A job whose repeats end differently gets the outcome "unsteady".
    Each job starts after a full collection; `speed`, if given, is polled
    before each job run.
    """
    refused = (g.errors.SizeCapExceeded, g.errors.Inconclusive)
    out = []
    for job in jobs:
        gc.collect()
        intervals, spent, outcomes = [], 0.0, set()
        while not intervals or spent < min_job_s:
            if speed:
                speed.poll()
            with tracer.root(job.name) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    outcome = "ok" if job.run() == job.expect else "wrong"
                except refused:
                    outcome = "refused"
                except Exception:
                    outcome = "error:" + traceback.format_exc(limit=3).strip().splitlines()[-1]
                t1 = time.perf_counter()
            intervals.append((t0, t1))
            spent += t1 - t0
            outcomes.add(outcome)
        out.append((intervals, outcomes.pop() if len(outcomes) == 1 else "unsteady"))
    return out


def measure(build, seed, seconds, speed):
    """Whole passes over the job list until the next one would end past
    `seconds`, with SETUPS fresh set-ups spread over the run: one before the
    first pass and one before each pass that starts in a later SETUPS-th of
    it; set-ups still due when the passes end follow back to back.

    Returns the set-up intervals, the job list and its stats, and the passes
    (see run_pass).
    """
    setups, passes, names = [], [], None
    build(workloads.load_gcat(), seed)    # untimed: builds the expectations kept per process

    def setup():
        nonlocal names
        speed.sample()
        t0 = time.perf_counter()
        g = workloads.load_gcat()
        wl = build(g, seed)
        setups.append((t0, time.perf_counter()))
        speed.sample()
        if names is not None and names != [job.name for job in wl.jobs]:
            raise RuntimeError("two set-ups from one seed built different job lists")
        names = [job.name for job in wl.jobs]
        return g, wl

    start = time.perf_counter()
    end = start + min(seconds, PASS_DEADLINE_S)
    while True:
        due = start + (end - start) * len(setups) / SETUPS
        if len(setups) < SETUPS and time.perf_counter() >= due:
            g, wl = setup()
        t0 = time.perf_counter()
        passes.append(run_pass(g, wl.jobs, min_job_s=MIN_JOB_S, speed=speed))
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > end:
            break
    while len(setups) < SETUPS:
        setup()
    speed.sample()
    return setups, wl.jobs, wl.stats, passes


def tally(jobs, passes):
    """attempted, failed, correct, and the names of failing jobs.

    A job counts once per pass: its repeats within a pass are timing samples.
    """
    attempted = sum(len(p) for p in passes)
    failed = sum(outcome != "ok" for p in passes for _, outcome in p)
    broken = any(outcome.startswith("error") or outcome == "unsteady"
                 for p in passes for _, outcome in p)
    steady = all(len({p[j][1] for p in passes}) == 1 for j in range(len(jobs)))
    failing = sorted({f"{jobs[j].name} ({outcome})"
                      for p in passes for j, (_, outcome) in enumerate(p) if outcome != "ok"})
    return attempted, failed, not broken and steady, failing


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(setup_s, per_job):
    """The timed end-to-end metrics from set-up times and per-job latencies."""
    n, ranked = len(per_job), sorted(per_job)
    return {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": n / sum(ranked),
        "job_p50_ms": 1000 * statistics.median(ranked),
        "job_tail_ms": 1000 * ranked[n - 1 - TAIL_BEYOND],
    }


def end_to_end(name, seed, seconds):
    speed = HostSpeed()
    setups, jobs, stats, passes = measure(workloads.JOB_LISTS[name], seed, seconds, speed)
    n = len(jobs)
    runs = [[iv for p in passes for iv in p[j][0]] for j in range(n)]
    latency = [statistics.median(speed.corrected(*iv) for iv in r) for r in runs]
    metrics = summary([speed.corrected(*iv) for iv in setups], latency)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = summary([t1 - t0 for t0, t1 in setups],
                  [statistics.median(t1 - t0 for t0, t1 in r) for r in runs])
    attempted, failed, correct, failing = tally(jobs, passes)
    print(f"workload {name}: seed {seed}, {n} jobs, {len(passes)} passes "
          f"({sum(map(len, runs))} job runs), {len(setups)} set-ups")
    print(f"  job_p50_ms and job_tail_ms over the {n} per-job median latencies; the tail is "
          f"p{100 * (n - TAIL_BEYOND) / n:.1f}, with {TAIL_BEYOND} jobs beyond it")
    ranked = [jobs[j].name for j in sorted(range(n), key=latency.__getitem__)]
    print(f"  jobs next to the median: {', '.join(ranked[n // 2 - 1:n // 2 + 2])}; "
          f"at the tail: {ranked[n - 1 - TAIL_BEYOND]}")
    q1, q2, q3 = (1000 * q for q in statistics.quantiles(speed.took, n=4))
    print(f"  reference loop: {len(speed.took)} timings, quartiles {q1:.3f} {q2:.3f} {q3:.3f} ms;"
          f" times below are scaled to {1000 * REF_NOMINAL_S:g} ms")
    for key, value in sorted(stats.items()):
        print(f"  {key}: {value}")
    for line in failing:
        print(f"  failing: {line}")
    row = {k: (metrics[k], unit) for k, unit in END_TO_END.items()}
    row["fail_ratio"] = (failed / attempted, "ratio")
    print("  " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in row.items()))
    print("  uncorrected: " + "  ".join(f"{k}={raw[k]:.6g} {END_TO_END[k]}" for k in raw))
    return result(correct, attempted, failed, metrics, END_TO_END)


def fresh_pass(name, seed, traced, speed):
    """A fresh import of gcat, set-up and one pass, optionally under the tracer.

    A traced set-up builds the expectations afresh, so that both traced
    repetitions do the same work and the spans oracle's layers are measured.
    """
    g = workloads.load_gcat()
    tracer = Tracer(g) if traced else None
    if tracer:
        workloads.HOFIX_ORACLE.clear()
        tracer.install()
    try:
        with tracer.root("setup") if tracer else contextlib.nullcontext():
            wl = workloads.JOB_LISTS[name](g, seed)
        outcomes = run_pass(g, wl.jobs, tracer, speed=speed)
    finally:
        if tracer:
            tracer.remove()
    return wl, outcomes, tracer


def per_layer(name, seed, seconds):
    # traced first, so that the untraced reference after it reuses the spans
    # oracle the traced set-up built; the reference repeats what a traced run
    # does: import, set-up, one pass
    speed = HostSpeed()
    _, outcomes, tracer = fresh_pass(name, seed, True, speed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds / 2:
        wl, untraced, _ = fresh_pass(name, seed, False, speed)
        passes.append(untraced)
    speed.sample()

    def pass_s(outcomes):    # host-corrected job time of a pass
        return sum(speed.corrected(*iv) for intervals, _ in outcomes for iv in intervals)

    traced_s, untraced_s = pass_s(outcomes), statistics.median(map(pass_s, passes))
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
    spans = tracer.spans
    metrics = layer_metrics(spans)
    _, outcomes2, tracer2 = fresh_pass(name, seed, True, None)
    first, second = counters_of(metrics), counters_of(layer_metrics(tracer2.spans))
    differing = sorted(k for k in first if first[k] != second[k])
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.counter_mismatches"] = len(differing)
    with open(os.path.join(OUT, f"counters-{name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(first, fh, sort_keys=True, indent=1)

    attempted, failed, correct, failing = tally(wl.jobs, passes + [outcomes, outcomes2])
    shares = layer_metrics(spans, include_setup=False)
    job_time = sum(rec[5] - rec[4] for rec in spans if rec[0] == "bench" and rec[3] != "setup")
    print(f"workload {name}: seed {seed}, job time of the traced pass {traced_s:.3f} s, "
          f"untraced median {untraced_s:.3f} s, overhead x{metrics['trace.overhead_ratio']:.2f}")
    print("  self time share of the traced pass (set-up excluded):")
    for layer in LAYERS:
        s = shares[f"{layer}.self_s"]
        print(f"    {layer:10s} {s:9.4f} s  {100 * s / job_time:5.1f} %")
    harness = job_time - sum(shares[f"{layer}.self_s"] for layer in LAYERS)
    print(f"    {'(harness)':10s} {harness:9.4f} s  {100 * harness / job_time:5.1f} %")
    for key in differing:
        print(f"  counter differs between two same-seed runs: {key} {first[key]} != {second[key]}")
    for line in failing:
        print(f"  failing: {line}")
    return result(correct and not differing, attempted, failed, metrics, PER_LAYER)


def result(correct, attempted, failed, metrics, units):
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}}


def run_all(args):
    """Each workload in its own process (so peak_rss_mb is its own); one row each."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--hash-seed", str(args.hash_seed)],
                              capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        cols = list(END_TO_END) + ["fail_ratio"]
        print(f"{'workload':10s}" + "".join(f"{c:>14s}" for c in cols))
        for name, r in rows.items():
            vals = [r["metrics"][c]["value"] for c in END_TO_END] + [r["failed"] / r["attempted"]]
            print(f"{name:10s}" + "".join(f"{v:14.6g}" for v in vals))
        print(f"{'unit':10s}" + "".join(f"{u:>14s}" for u in list(END_TO_END.values()) + ["ratio"]))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--hash-seed", type=int, default=0,
                   help="PYTHONHASHSEED to run under (default 0, the same for every run)")
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        # string hashes order sets and dicts, and with them searches that stop
        # at the first hit (Kan fillers, witnesses): one fixed order for all runs
        env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else argv), env)
    if args.workload == "all":
        out = run_all(args)
    elif args.trace:
        out = per_layer(args.workload, args.seed, args.seconds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
