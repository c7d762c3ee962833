"""Measure one workload and print its result (see README.md)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import THREAD_VARS, spans
from .metrics import end_to_end, pass_values, per_layer, step_p95, step_samples
from .reference import NOMINAL_S, Gauge, Reference
from .stats import median
from .workloads import (CLI_POOL, SOLVERS, WORKLOADS, Pass, Workload, check_passes, cli_pass,
                        cli_setup, library_pass, library_setup, nproc)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up is measured this many times per run and reported as the median.
SETUP_REPS = 11

#: Steps per solver a run collects when passes allow: a p95 needs ten
#: samples beyond it.
MIN_STEPS = 200

IMPORT_PROBE = ("import time; t = time.perf_counter(); import stiefel_cayley.cli; "
                "print(repr(time.perf_counter() - t))")


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return median(times)


def setup_seconds(w: Workload, seed: int, out_dir: str) -> float:
    """Import plus the median in-process set-up up to the first solver call."""
    once = (lambda: cli_setup(w, out_dir)) if w.via_cli else (lambda: library_setup(w, seed))
    return import_seconds() + median([once() for _ in range(SETUP_REPS)])


def measure(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str):
    """Untraced passes until the next would overrun ``seconds``, and
    until every solver has ``MIN_STEPS`` steps while passes still add
    some, each gauged by the reference kernel; with ``trace``, one
    untraced pass and then one traced pass, neither gauged."""

    def one(tracer=None, gauge=None) -> Pass:
        if w.via_cli:
            return cli_pass(w, out_dir, tracer, gauge)
        return library_pass(w, seed, tracer, gauge)

    if trace:
        tracer = spans.Tracer()
        return [one(), one(tracer)], tracer
    passes: List[Pass] = []
    fewest = -1
    reference = Reference()
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(one(gauge=Gauge(reference)))
        now = time.perf_counter()
        samples = step_samples(passes)
        fewest, before = min(len(samples.get(s, ())) for s in SOLVERS), fewest
        if now - t0 + (now - t) > seconds and (fewest >= MIN_STEPS or fewest == before):
            return passes, None


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(w: Workload, seed: int, passes: List[Pass]) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": w.name,
        "seed": seed,
        "commit": git_commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "bench_threads": str(CLI_POOL) if w.via_cli else os.environ.get("BENCH_THREADS"),
        "gamma": w.gamma,
        "max_iters": w.max_iters,
        "passes": len(passes),
        "iterations": {f"{r.solver}/s{r.start}": (r.iters[-1] if r.iters else None)
                       for r in passes[0].runs},
    }


def parse_args(argv: Optional[Sequence[str]], names) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(names))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None, workloads: Dict[str, Workload] = WORKLOADS,
         out_dir: str = OUT_DIR) -> int:
    args = parse_args(argv, workloads)
    w = workloads[args.workload]
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{w.name}-seed{args.seed}")

    setup_s = None if args.trace else setup_seconds(w, args.seed, out_dir)
    passes, tracer = measure(w, args.seed, args.seconds, bool(args.trace), out_dir)
    check_passes(w, passes)
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.error]
    metrics, raw, tails, problem = {}, {}, {}, None
    if not failed:
        try:
            if args.trace:
                metrics = per_layer(w, passes[0], passes[1], tracer)
            else:
                refs = [r for p in passes for r in p.reference_s]
                metrics = end_to_end(w, passes, setup_s * NOMINAL_S / median(refs))
                raw = end_to_end(w, passes, setup_s, scaled=False)
                tails = step_p95(passes)
        except ValueError as exc:  # too few steps for a percentile
            problem = f"metrics unavailable: {exc}"
    if tracer is not None:
        tracer.write_csv(stem + "-spans.csv")

    prov = provenance(w, args.seed, passes)
    samples = {k: len(v) for k, v in step_samples(passes).items()}
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# {w.name}: {len(passes)} passes, {len(runs)} runs, {len(failed)} failed, "
          f"fail_frac {len(failed) / len(runs):.3g}")
    for r in failed:
        print(f"# FAILED {r.solver} start {r.start}: {r.error}")
    if problem:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({samples[name.split('.', 1)[1]]} steps)" if name.startswith("iter_ms") else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    for name, (value, unit) in raw.items():
        if unit != "MB":
            print(f"# raw {name} {value:.6g} {unit}  (not scaled to the reference speed)")
    for solver, value in tails.items():
        print(f"# iter_ms_p95.{solver} {value:.6g} ms  ({samples[solver]} steps, not a metric)")
    result = {
        "correct": not failed and problem is None,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "step_samples": samples, "iter_ms_p95": tails,
                   "raw_metrics": {k: v for k, (v, _) in raw.items()},
                   "pass_values": pass_values(w, passes) if raw else {},
                   "reference_s": [p.reference_s for p in passes],
                   "pass_scale": [p.scale for p in passes],
                   "run_scale": [[r.scale for r in p.runs] for p in passes],
                   "pass_setup_s": [p.setup_s for p in passes],
                   "pass_wall_s": [p.wall_s for p in passes],
                   "failures": {f"{r.solver}/s{r.start}": r.error for r in failed}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
