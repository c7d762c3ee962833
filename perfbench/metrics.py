"""End-to-end metrics from untraced passes, per-layer metrics from a
traced one.  Each metric is a ``(value, unit)`` pair."""

from __future__ import annotations

import resource
from typing import Dict, List, Tuple

from stiefel_cayley.optimize import STOP_STALL

from . import spans
from .stats import median, percentile, step_ms, time_to_tol
from .workloads import CLI_POOL, SOLVERS, Pass, Workload, tolerance

Metrics = Dict[str, Tuple[float, str]]

#: Layers whose spans the per-layer table reports, one entry per span name.
LAYER_SPANS = (
    "problems.eval", "problems.grad", "problems.eval_grad", "problems.make_eigen_instance",
    "cayley.inverse", "cayley.forward", "cayley.construct_center", "cayley.SkewParam",
    "gradients.pullback_from_euclidean",
    "retractions.retract_qr", "retractions.retract_polar", "retractions.retract_cayley",
    "retractions.riemannian_grad", "retractions.grad_retraction_pullback",
    "retractions.inverse_retract_cayley", "retractions.TangentVector",
    "linalg.feasibility", "linalg.svd", "linalg.qr_orthonormalize", "linalg.polar_factor",
)

#: Modules whose summed self time is reported as ``<module>.self_s``.
MODULES = ("problems", "cayley", "gradients", "retractions", "linalg", "optimize")


def cost_flops(w: Workload) -> float:
    """Computed flops of one cost call: one ``A @ U`` product (2 N^2 p) for
    the CLI's eigen cost, three passes over an N-by-p panel for the
    distance cost."""
    return 2.0 * w.n * w.n * w.p if w.via_cli else 3.0 * w.n * w.p


def step_samples(passes: List[Pass]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for p in passes:
        for run in p.runs:
            out.setdefault(run.solver, []).extend(step_ms(run.times))
    return out


def step_p95(passes: List[Pass]) -> Dict[str, float]:
    """95th percentile of each solver's step times.  Reported but not a
    metric: under the CLI pool it swings by half from run to run."""
    return {s: percentile(v, 95.0) for s, v in step_samples(passes).items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, passes: List[Pass], setup_s: float, scaled: bool = True) -> Metrics:
    """Medians over passes, with each wall time and each run's times
    multiplied by their ``scale`` unless ``scaled`` is false."""
    m: Metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    for name, values in pass_values(w, passes, scaled).items():
        m[name] = (median(values), "ms" if name.startswith("iter_ms.") else "s")
    return {name: m[name] for name in END_TO_END}


#: The end-to-end metrics in the order they are printed.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", *(f"iter_ms.{s}" for s in SOLVERS),
              "time_to_tol_s.gdm-cp", "race_to_tol_s")


def pass_values(w: Workload, passes: List[Pass], scaled: bool = True) -> Dict[str, List[float]]:
    """The per-pass values whose medians are the time metrics (for
    ``time_to_tol_s.gdm-cp``, one per pass and start)."""
    def k(x) -> float:
        return x.scale if scaled else 1.0

    out: Dict[str, List[float]] = {"wall_s": [k(p) * p.wall_s for p in passes]}
    for solver in SOLVERS:
        out[f"iter_ms.{solver}"] = [mean_step_ms(p, solver, k) for p in passes]
    per_pass = [[(run.solver, k(run) * time_to_tol(run.gaps, run.times, tolerance(w, p.optimum))[0])
                 for run in p.runs] for p in passes]
    out["time_to_tol_s.gdm-cp"] = [t for ts in per_pass for s, t in ts if s == "gdm-cp"]
    out["race_to_tol_s"] = [sum(t for _, t in ts) for ts in per_pass]
    return out


def mean_step_ms(p: Pass, solver: str, k) -> float:
    """A pass's time per accepted step of ``solver``: its runs' summed
    step times, each run's multiplied by ``k(run)``, over their summed
    steps.  The step times of one run spread over modes (one or more
    line-search trials), so a median of them jumps between modes; this
    mean does not."""
    runs = [run for run in p.runs if run.solver == solver]
    steps = sum(len(run.times) - 1 for run in runs)
    if steps < 1:
        raise ValueError(f"{solver} made no steps")
    return 1000.0 * sum(k(run) * (run.times[-1] - run.times[0]) for run in runs) / steps


def per_layer(w: Workload, untraced: Pass, traced: Pass, tracer: spans.Tracer) -> Metrics:
    stats = spans.by_name(tracer.spans)
    zero = spans.NameStats(0, 0.0, {})
    m: Metrics = {}
    for name in LAYER_SPANS:
        s = stats.get(name, zero)
        m[f"{name}.calls"] = (float(s.calls), "count")
        m[f"{name}.self_s"] = (s.self_s, "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(s.self_s for name, s in stats.items()
                                     if name.startswith(module + ".")), "s")
    cost_calls = sum(stats.get(f"problems.{k}", zero).calls for k in ("eval", "grad", "eval_grad"))
    m["problems.gflop"] = (cost_calls * cost_flops(w) / 1e9, "Gflop")
    trials = sum(stats.get(name, zero).calls for name in spans.TRIAL_SPANS)
    accepted = sum(run.iters[-1] for run in traced.runs if run.iters)
    m["optimize.trials"] = (float(trials), "count")
    m["optimize.accepted"] = (float(accepted), "count")
    m["optimize.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    stalls = sum(run.stop_reason == STOP_STALL for run in traced.runs)
    m["optimize.stalls"] = (float(stalls), "count")
    m["retractions.step_too_large"] = (float(sum(
        s.errors.get("StepTooLargeError", 0) for name, s in stats.items()
        if name.startswith("retractions."))), "count")
    main = stats.get("cli.main", zero)
    solver_s = sum(sp.end - sp.start for sp in tracer.spans if sp.name.startswith("optimize.run_"))
    m["cli.self_s"] = (main.self_s, "s")
    m["cli.pool_busy_frac"] = (solver_s / (traced.wall_s * CLI_POOL) if main.calls else 0.0, "ratio")
    m["trace.overhead"] = (traced.wall_s / untraced.wall_s, "ratio")
    m["trace.spans"] = (float(len(tracer.spans)), "count")
    return m
