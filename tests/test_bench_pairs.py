"""The verdicts `scripts/bench_pairs.py` records for one metric, the work
counters it lists as changed, and the job-run counts it reads."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs(base, head):
    return list(zip(base, head))


BASE = [100, 98, 102, 101, 99, 100, 97, 103, 100, 101]


@pytest.mark.parametrize("head, better, wins, worse, gain", [
    # 1.2x on every pair: shown
    ([v * 1.2 for v in BASE], "higher", 10, False, True),
    # 9 wins, but a median gap of 1.5 inside the base's quartile distance of 2.5
    ([v + 1.5 for v in BASE[:9]] + [90], "higher", 9, False, False),
    # a gap of 3.5 beyond the quartile distance, but only 8 wins
    ([v + 4 for v in BASE[:8]] + [90, 90], "higher", 8, False, False),
    # 30% slower: worse than a bound of 25%, 20% is not
    ([v * 0.7 for v in BASE], "higher", 0, True, False),
    ([v * 0.8 for v in BASE], "higher", 0, False, False),
    # lower is better: 30% more is worse, 30% less is a gain
    ([v * 1.3 for v in BASE], "lower", 0, True, False),
    ([v * 0.7 for v in BASE], "lower", 10, False, True),
])
def test_summary_verdicts(head, better, wins, worse, gain):
    s = bench_pairs.summary(pairs(BASE, head), better, 0.25)
    assert s["base_quartiles"] == [98.75, 101.25]
    assert (s["head_wins"], s["worse_than_bound"], s["gain_shown"]) == (wins, worse, gain)


def test_fail_ratio_has_bound_zero():
    same = bench_pairs.summary(pairs([1 / 37] * 10, [1 / 37] * 10), "lower", 0)
    more = bench_pairs.summary(pairs([1 / 37] * 10, [2 / 37] * 10), "lower", 0)
    assert not same["worse_than_bound"] and more["worse_than_bound"]
    assert not same["gain_shown"] and not more["gain_shown"]


def test_changed_counters_are_listed_and_unchanged_ones_are_not():
    base = {"spans": {"calls.fincat.Functor.validate": 4470, "dwyer.find_dwyer_witness.calls": 99},
            "cli": {"cli.invocations": 14}}
    head = {"spans": {"calls.fincat.Functor.validate": 3491, "dwyer.find_dwyer_witness.calls": 99,
                      "calls.dwyer.new": 1},
            "cli": {"cli.invocations": 14}}
    table, changed = bench_pairs.compare_counters(base, head)
    assert changed == ["spans:calls.dwyer.new", "spans:calls.fincat.Functor.validate"]
    assert table["spans"]["calls.fincat.Functor.validate"] == [4470, 3491]
    assert table["spans"]["dwyer.find_dwyer_witness.calls"] == [99, 99]
    assert table["spans"]["calls.dwyer.new"] == [None, 1]
    assert table["cli"] == {"cli.invocations": [14, 14]}


def test_self_times_are_medians_of_each_sides_traced_runs():
    base = [{"spans": {"weq.hofix.self_s": t, "fincat.self_s": 0.2}} for t in (0.07, 0.05, 0.06)]
    head = [{"spans": {"weq.hofix.self_s": t, "fincat.self_s": 0.2}, "cli": {"cli.self_s": 0.1}}
            for t in (0.04, 0.06, 0.03)]
    table = bench_pairs.median_self_times(base, head)
    assert table["spans"]["weq.hofix.self_s"] == {
        "base": [0.07, 0.05, 0.06], "head": [0.04, 0.06, 0.03],
        "base_median": 0.06, "head_median": 0.04}
    assert table["spans"]["fincat.self_s"]["base_median"] == 0.2
    # a name only the head reports has no base median, and no entry carries a verdict
    assert table["cli"]["cli.self_s"] == {"base": [], "head": [0.1, 0.1, 0.1],
                                          "base_median": None, "head_median": 0.1}


# the shape of `run.py --workload all` output, cut short
RUN_OUTPUT = """workload spans: seed 3, 71 jobs, 12 passes (7104 job runs), 3 set-ups
  job_p50_ms and job_tail_ms over the 71 per-job median latencies; the tail is p97.2
workload cli: seed 3, 29 jobs, 210 passes (57312 job runs), 3 set-ups
  jobs_per_s=1178.2 jobs/s  peak_rss_mb=32.1 MB
workload       jobs_per_s
{"cli": {}, "spans": {}}
"""


def test_job_runs_are_read_from_each_workloads_line():
    assert bench_pairs.job_runs(RUN_OUTPUT, ["spans", "cli"]) == {"spans": 7104, "cli": 57312}


def test_a_workload_without_its_job_runs_line_stops_the_script():
    with pytest.raises(SystemExit, match="no job-run count for homology, ex_kan"):
        bench_pairs.job_runs(RUN_OUTPUT, ["spans", "homology", "ex_kan", "cli"])
