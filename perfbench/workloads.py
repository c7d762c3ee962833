"""The workloads: their inputs, one pass over their solver runs, and the
output checks every run has to pass.

A pass is the closed loop over a workload's (solver, start) runs: each run
starts when the previous one returns (in ``eigen-race`` the CLI's pool,
with ``CLI_POOL`` workers, does the scheduling).  Every pass of a workload gets the same
inputs, so its runs must repeat their iteration counts and final values
exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from stiefel_cayley import cli, optimize, problems
from stiefel_cayley.optimize import BacktrackingConfig, RunRecord, StoppingConfig

from . import spans
from .reference import Gauge
from .stats import time_to_tol

SOLVERS = ("gdm-cp", "gdm-cp-retraction", "gdm-cayley", "gdm-qr", "gdm-polar")

#: ``optimize`` driver behind each solver name.
DRIVERS = {"gdm-cp": "run_gdm_cp", "gdm-cp-retraction": "run_gdm_cp_retraction",
           "gdm-cayley": "run_gdm_retraction", "gdm-qr": "run_gdm_retraction",
           "gdm-polar": "run_gdm_retraction"}

#: Seed of the criterion-9 eigen instance and of its start stream.
#: ``eigen-race`` keeps it whatever ``--seed`` is: across instance seeds
#: the eigengap, and with it every time to tolerance, varies fivefold.
EIGEN_SEED = 7

#: Workers of the CLI pool in ``eigen-race`` (its ``BENCH_THREADS``).  With
#: ``nproc`` = 2 workers on a shared 2-vCPU host, the wall time doubled
#: whenever the second vCPU was starved: 6 runs of a set of 10 took
#: 22-24 s against 8.6-12.7 s.  One worker does not depend on that vCPU.
CLI_POOL = 1

#: Output checks (criterion 9's feasibility bar; the exact optimum of the
#: eigen cost cannot be beaten by more than roundoff).
FEASIBILITY_BAR = 1e-12
OPTIMUM_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``tol`` is the gap bar as a share of
    ``max(1, |f*|)``; ``max_iters`` is the iteration budget of every run.
    ``via_cli`` workloads run the CLI's eigen experiment; the others call
    the ``optimize`` drivers on the distance cost."""

    name: str
    n: int
    p: int
    gamma: float
    starts: int
    max_iters: int
    tol: float
    via_cli: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("eigen-race", n=500, p=10, gamma=0.001, starts=1,
                 max_iters=480, tol=1e-6, via_cli=True),
        Workload("distance-tall", n=2000, p=40, gamma=0.1, starts=1,
                 max_iters=110, tol=1e-1),
    )
}


@dataclass
class RunResult:
    """What one solver run left behind, from its record or the CLI's CSVs.

    ``gaps`` are ``f - f*`` per recorded iterate and ``times`` the
    record's cumulative seconds.  ``error`` holds the first failed check.
    """

    solver: str
    start: int
    iters: List[int] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    final_f: float = math.nan
    final_feas: float = math.nan
    stop_reason: str = ""
    error: Optional[str] = None
    scale: float = 1.0

    @property
    def key(self) -> Tuple[str, int]:
        return self.solver, self.start


@dataclass
class Pass:
    """One pass.  ``scale`` turns its wall time, and each run's ``scale``
    that run's times, into times at the reference speed (see
    ``reference.py``); ``reference_s`` holds the samples they come from.
    Without a gauge they stay 1 and empty."""

    runs: List[RunResult]
    setup_s: float
    wall_s: float
    optimum: float
    traced: bool = False
    scale: float = 1.0
    reference_s: List[float] = field(default_factory=list)

    def gauged(self, gauge: Optional[Gauge]) -> "Pass":
        """This pass with the scales of ``gauge``'s samples, if any."""
        if gauge is not None:
            scales = gauge.run_scales()
            for run in self.runs:
                run.scale = scales.get(run.key, run.scale)  # absent if main failed early
            self.scale = gauge.scale()
            self.reference_s = list(gauge.samples)
        return self


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def inputs(w: Workload, seed: int):
    """Distance cost to a random target frame, its optimum 0 and the
    start frames, all drawn from ``seed``."""
    target = problems.random_stiefel(np.random.default_rng([seed, 307]), w.n, w.p)
    return problems.distance_cost(target), 0.0, start_frames(w, seed)


def start_frames(w: Workload, stream: int) -> list:
    """The CLI's start frames: trial ``t`` draws from ``[stream, 211, t]``."""
    return [problems.random_stiefel(np.random.default_rng([stream, 211, t]), w.n, w.p)
            for t in range(w.starts)]


def tolerance(w: Workload, optimum: float) -> float:
    return w.tol * max(1.0, abs(optimum))


def run_id(w: Workload, solver: str, start: int) -> str:
    return f"{w.name}/{solver}/g{w.gamma:g}/s{start}"


def _solve(solver: str, f, u0, bt, stop) -> RunRecord:
    if solver == "gdm-cp":
        return optimize.run_gdm_cp(f, u0, bt=bt, stop=stop)
    if solver == "gdm-cp-retraction":
        return optimize.run_gdm_cp_retraction(f, u0, u0, bt=bt, stop=stop)
    return optimize.run_gdm_retraction(f, u0, solver.removeprefix("gdm-"), bt=bt, stop=stop)


def library_pass(w: Workload, seed: int, tracer: Optional[spans.Tracer] = None,
                 gauge: Optional[Gauge] = None) -> Pass:
    """Call the ``optimize`` drivers one run after another, with a sample
    of ``gauge`` before each run and after the last."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.installed(tracer))
        t0 = time.perf_counter()
        f, optimum, starts = inputs(w, seed)
        bt = BacktrackingConfig(gamma_initial=w.gamma)
        stop = StoppingConfig(max_iters=w.max_iters)
        t1 = time.perf_counter()
        runs = []
        for t, u0 in enumerate(starts):
            for solver in SOLVERS:
                args = (solver, f, u0, bt, stop)
                if gauge is not None:
                    gauge((solver, t))
                try:
                    if tracer is None:
                        rec = _solve(*args)
                    else:
                        rec = tracer.call(f"optimize.{DRIVERS[solver]}", _solve, args,
                                          run=run_id(w, solver, t))
                except Exception as exc:  # a raising run is a failed run
                    runs.append(RunResult(solver, t, error=f"raised {type(exc).__name__}: {exc}"))
                    continue
                runs.append(RunResult(solver, t, list(rec.iters),
                                      [fv - optimum for fv in rec.fvals], list(rec.times),
                                      rec.fvals[-1], rec.feasibilities[-1], rec.stop_reason))
        t2 = time.perf_counter()
    spent = 0.0
    if gauge is not None:
        spent = gauge.spent
        gauge()
    return Pass(runs, t1 - t0, t2 - t1 - spent, optimum,
                traced=tracer is not None).gauged(gauge)


def library_setup(w: Workload, seed: int) -> float:
    t0 = time.perf_counter()
    inputs(w, seed)
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# eigen-race: the CLI


def cli_argv(w: Workload, out: str) -> List[str]:
    argv = ["eigen", "--n", str(w.n), "--p", str(w.p), "--trials", str(w.starts),
            "--seed", str(EIGEN_SEED), "--gamma", repr(w.gamma),
            "--max-iters", str(w.max_iters), "--out", out]
    for solver in SOLVERS:
        argv += ["--algo", solver]
    return argv


@contextlib.contextmanager
def _bench_threads():
    """The CLI pool at ``BENCH_THREADS=CLI_POOL`` for the block."""
    before = os.environ.get("BENCH_THREADS")
    os.environ["BENCH_THREADS"] = str(CLI_POOL)
    try:
        yield
    finally:
        if before is None:
            del os.environ["BENCH_THREADS"]
        else:
            os.environ["BENCH_THREADS"] = before


def _call_main(argv: List[str], solvers: Dict[str, object], tracer=None) -> Tuple[int, float, str]:
    """``cli.main(argv)`` with ``cli.run_gdm_*`` replaced; returns the exit
    code, the time it returned and what it wrote to stderr."""
    err = io.StringIO()
    with _bench_threads(), spans.patched(cli, solvers), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli.main", cli.main, (argv,), adopt=True)
        return code, time.perf_counter(), err.getvalue().strip()


def cli_pass(w: Workload, out_dir: str, tracer: Optional[spans.Tracer] = None,
             gauge: Optional[Gauge] = None) -> Pass:
    """One ``stiefel-bench eigen`` invocation through ``cli.main``, with a
    sample of ``gauge`` before each solver run and after ``main`` returns.

    Setup runs from the call until the first solver starts; the wall time
    from then until ``main`` returns, CSV writing included and the
    samples left out.
    """
    out = os.path.join(out_dir, f"{w.name}.csv")
    starts = start_frames(w, EIGEN_SEED)

    def run_key(attr, f, u0, *args, **kwargs) -> Tuple[str, int]:
        solver = {"run_gdm_cp": "gdm-cp", "run_gdm_cp_retraction": "gdm-cp-retraction"}.get(
            attr) or "gdm-" + args[0]
        return solver, next(t for t, s in enumerate(starts) if np.array_equal(s, u0))

    marks: list = []

    def marked(attr):
        fn = getattr(cli, attr)

        def call(*args, **kwargs):
            marks.append(time.perf_counter())
            if gauge is not None:
                gauge(run_key(attr, *args, **kwargs))
            return fn(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.installed(
                tracer, lambda *args, **kwargs: run_id(w, *run_key(*args, **kwargs))))
        solvers = {attr: marked(attr) for attr in spans.CLI_SOLVERS}
        t0 = time.perf_counter()
        code, t2, err = _call_main(cli_argv(w, out), solvers, tracer)
    first = min(marks, default=t2)
    spent = 0.0
    if gauge is not None:
        spent = gauge.spent
        gauge()
    traced = tracer is not None
    if code != 0:
        runs = [RunResult(s, t, error=f"cli.main exited {code}: {err}")
                for t in range(w.starts) for s in SOLVERS]
        return Pass(runs, first - t0, t2 - first - spent, math.nan, traced=traced)
    runs, optimum = read_cli_runs(w, out)
    return Pass(runs, first - t0, t2 - first - spent, optimum, traced=traced).gauged(gauge)


def cli_setup(w: Workload, out_dir: str) -> float:
    """``cli.main`` up to its first solver call, every solver stubbed by a
    one-point record so the rest of the command costs next to nothing."""
    marks: list = []

    def stub(*args, **kwargs):
        marks.append(time.perf_counter())
        rec = RunRecord()
        rec.append(0, 0.0, 0.0, 0.0, 0.0)
        return rec

    t0 = time.perf_counter()
    code, _, err = _call_main(cli_argv(w, os.path.join(out_dir, f"{w.name}-setup.csv")),
                              {attr: stub for attr in spans.CLI_SOLVERS})
    if code != 0 or not marks:
        raise RuntimeError(f"cli.main setup probe exited {code}: {err}")
    return min(marks) - t0


def _read_csv(path: str):
    provenance, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                provenance[key] = value
            else:
                rows.append(line.split(","))
    header = rows[0]
    return provenance, [dict(zip(header, r)) for r in rows[1:]]


def read_cli_runs(w: Workload, out: str) -> Tuple[List[RunResult], float]:
    """Runs rebuilt from the summary and history CSVs, which must parse,
    hold no NaN and have the expected row counts; otherwise every run of
    the pass fails with the reason."""
    history = cli._history_path(out)

    def fail_all(reason):
        return [RunResult(s, t, error=reason) for t in range(w.starts) for s in SOLVERS], math.nan

    try:
        provenance, summary = _read_csv(out)
        _, hist = _read_csv(history)
        optimum = float(provenance["optimum"])
        aggregate = 2 if w.starts > 1 else 0
        if len(summary) != len(SOLVERS) * (w.starts + aggregate):
            return fail_all(f"{out}: {len(summary)} summary rows")
        runs: Dict[Tuple[str, int], RunResult] = {}
        itrs: Dict[Tuple[str, int], int] = {}
        for row in summary:
            numbers = [float(row[k]) for k in
                       ("fval", "fval_minus_optimal", "feasi", "nrmg", "itr", "time_s")]
            if not all(math.isfinite(x) for x in numbers):
                return fail_all(f"{out}: non-finite value in {row}")
            if row["trial"].isdigit():
                run = RunResult(row["algorithm"], int(row["trial"]), final_f=float(row["fval"]),
                                final_feas=float(row["feasi"]), stop_reason=row["stop_reason"])
                runs[run.key] = run
                itrs[run.key] = int(row["itr"])
        for row in hist:
            run = runs[(row["algorithm"], int(row["trial"]))]
            gap, t = float(row["f_gap"]), float(row["cum_time_s"])
            if not (math.isfinite(gap) and math.isfinite(t)):
                return fail_all(f"{history}: non-finite value in {row}")
            run.iters.append(int(row["iter"]))
            run.gaps.append(gap)
            run.times.append(t)
        for key, run in runs.items():
            if run.iters != list(range(itrs[key] + 1)):
                return fail_all(f"{history}: {key} has {len(run.iters)} rows for itr={itrs[key]}")
        return [runs[(s, t)] for t in range(w.starts) for s in SOLVERS], optimum
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return fail_all(f"unreadable CLI output: {type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# checks


def check_run(w: Workload, run: RunResult, optimum: float) -> Optional[str]:
    """The first output check ``run`` fails, or None."""
    if run.error:
        return run.error
    if not run.final_feas <= FEASIBILITY_BAR:
        return f"final feasibility {run.final_feas:.3e} > {FEASIBILITY_BAR:.0e}"
    for i in range(1, len(run.gaps)):
        if run.gaps[i] > run.gaps[i - 1]:
            return f"f increased at iteration {run.iters[i]}"
    if min(run.gaps) < -OPTIMUM_SLACK * max(1.0, abs(optimum)):
        return f"f below the optimum by {-min(run.gaps):.3e}"
    if not time_to_tol(run.gaps, run.times, tolerance(w, optimum))[1]:
        return (f"gap {run.gaps[-1]:.3e} never within {tolerance(w, optimum):.3e} "
                f"in {w.max_iters} iterations")
    return None


def check_passes(w: Workload, passes: List[Pass]) -> None:
    """Set ``error`` on every run that fails a check or does not repeat the
    first pass's iteration count and final f exactly."""
    reference = {r.key: (r.iters[-1], r.final_f) for r in passes[0].runs if not r.error}
    for p in passes:
        for run in p.runs:
            run.error = check_run(w, run, p.optimum)
            if run.error is None and run.key in reference \
                    and (run.iters[-1], run.final_f) != reference[run.key]:
                run.error = (f"{'traced' if p.traced else 'repeated'} run ended at "
                             f"iteration {run.iters[-1]}, f={run.final_f!r}; first pass: "
                             f"{reference[run.key]}")
