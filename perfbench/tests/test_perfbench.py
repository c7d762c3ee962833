"""Tests of the benchmark's own code; run with
``python -m pytest perfbench/tests`` from the repository root."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import bench, spans
from perfbench.metrics import end_to_end
from perfbench.stats import percentile, step_ms, time_to_tol
from perfbench.workloads import SOLVERS, WORKLOADS, Pass, RunResult, check_run

ROOT = bench.ROOT


def test_percentile_interpolates_and_needs_ten_samples_beyond_the_tail():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    samples = [float(i) for i in range(200)]
    assert percentile(samples, 95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="200 samples"):
        percentile(samples[:199], 95)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_one_step_sample_per_recorded_iterate_after_the_start():
    times = [0.5, 0.501, 0.503, 0.506]
    ms = step_ms(times)
    assert len(ms) == len(times) - 1
    assert ms == pytest.approx([1.0, 2.0, 3.0])


def test_time_metrics_average_steps_and_scale_each_pass():
    w = WORKLOADS["distance-tall"]

    def one_pass(scale):
        runs = [RunResult(s, 0, [0, 1, 2], [1.0, 1.0, 0.0], [0.0, 0.001, 0.004], scale=scale)
                for s in SOLVERS]
        return Pass(runs, setup_s=0.0, wall_s=2.0, optimum=0.0, scale=scale)

    passes = [one_pass(0.5), one_pass(0.5), one_pass(2.0)]
    m = end_to_end(w, passes, setup_s=1.0)
    assert m["iter_ms.gdm-cp"][0] == pytest.approx(0.5 * 2.0)  # steps of 1 and 3 ms, halved
    assert m["wall_s"][0] == pytest.approx(1.0)
    assert m["time_to_tol_s.gdm-cp"][0] == pytest.approx(0.5 * 0.004)
    assert m["race_to_tol_s"][0] == pytest.approx(0.5 * 0.004 * len(SOLVERS))
    raw = end_to_end(w, passes, setup_s=1.0, scaled=False)
    assert raw["iter_ms.gdm-cp"][0] == pytest.approx(2.0)
    assert raw["wall_s"][0] == pytest.approx(2.0)


def _span(sid, parent, start, end, thread=1):
    return spans.Span(sid, parent, f"s{sid}", start, end, thread, None, None)


def test_self_time_of_nested_spans():
    own = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 5.0),
                            _span(2, 1, 3.0, 4.0), _span(3, 0, 6.0, 7.0)])
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_pool_children_once():
    # two pool threads under one root: [1, 6] and [4, 9] cover 8 of 10
    own = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0, thread=2),
                            _span(2, 0, 4.0, 9.0, thread=3)])
    assert own[0] == pytest.approx(2.0)


def test_pool_threads_adopt_the_rooted_span():
    tracer = spans.Tracer()

    def work(k):
        return tracer.call("optimize.run", time.sleep, (0.05,), run=f"run{k}")

    def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))

    tracer.call("cli.main", main, adopt=True)
    by_id = {s.id: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s.name == "cli.main")
    runs = [s for s in tracer.spans if s.name == "optimize.run"]
    assert {s.parent for s in runs} == {root.id}
    assert {s.run for s in runs} == {"run0", "run1"}
    assert len({s.thread for s in runs}) == 2 and root.thread == threading.get_ident()
    assert tracer.root is None and set(by_id) == {root.id} | {s.id for s in runs}
    stats = spans.by_name(tracer.spans)
    assert stats["optimize.run"].calls == 2
    assert 0.0 <= stats["cli.main"].self_s < (root.end - root.start) - 0.04


def test_time_to_tolerance_of_a_run_that_never_meets_it():
    assert time_to_tol([5.0, 0.5, 0.1], [0.1, 0.2, 0.3], tol=1.0) == (0.2, True)
    assert time_to_tol([5.0, 3.0, 2.0], [0.1, 0.2, 0.3], tol=1.0) == (0.3, False)
    w = WORKLOADS["eigen-race"]
    run = RunResult("gdm-cp", 0, [0, 1, 2], [5.0, 3.0, 2.0], [0.1, 0.2, 0.3],
                    final_f=2.0, final_feas=1e-15)
    assert "never within" in check_run(w, run, optimum=0.0)


def test_runs_failing_the_output_checks():
    w = WORKLOADS["eigen-race"]
    good = RunResult("gdm-qr", 0, [0, 1], [1.0, 0.0], [0.1, 0.2], final_f=-1.0, final_feas=1e-15)
    assert check_run(w, good, optimum=-1.0) is None
    assert "feasibility" in check_run(w, dataclasses.replace(good, final_feas=1e-11), -1.0)
    assert "increased" in check_run(w, dataclasses.replace(good, gaps=[0.0, 1e-3]), -1.0)
    assert "below the optimum" in check_run(w, dataclasses.replace(good, gaps=[1.0, -1e-6]), -1.0)


#: The workloads at n=40, p=4.  The budgets give every solver the 200
#: steps a p95 needs and every run time to meet its tolerance; at this size
#: gamma=0.001 is too slow for that, so eigen-race uses 0.02.
TINY = {
    "eigen-race": dataclasses.replace(WORKLOADS["eigen-race"], n=40, p=4, gamma=0.02,
                                      max_iters=360),
    "distance-tall": dataclasses.replace(WORKLOADS["distance-tall"], n=40, p=4, max_iters=220),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_named_metric(name, trace, tmp_path, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                      workloads=TINY, out_dir=str(tmp_path))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0, "\n".join(lines[:-1])
    assert result["attempted"] == (2 if trace else 1) * len(SOLVERS) * TINY[name].starts
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for line in lines[:-1]:
        if line.startswith("iter_ms"):
            assert "steps)" in line
    p95 = [line for line in lines if line.startswith("# iter_ms_p95.")]
    assert len(p95) == (0 if trace else len(SOLVERS))


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eigen-race",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
