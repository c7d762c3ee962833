"""Command-line benchmark harness emitting machine-readable CSV results.

The experiments, their flags, the CSV format and the exit codes are in
README.md, section "CLI".

An experiment's command, help line, and the keys it reads with their
defaults live in its single ``_EXPERIMENTS`` entry; those keys are its
flags and its config-file keys, parsed and named as ``_KEYS`` says.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import cayley, gradients, problems, retractions
from .cayley import Center, SkewParam
from .gradients import CostFunction
from .optimize import (
    BacktrackingConfig,
    RunRecord,
    StoppingConfig,
    run_gdm_cp,
    run_gdm_cp_retraction,
    run_gdm_retraction,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: Solver names accepted by --algo, in canonical output order.
ALGORITHMS = ("gdm-cp", "gdm-cp-retraction", "gdm-cayley", "gdm-qr", "gdm-polar")

#: Center angles for the singular-point experiment, nearest to farthest
#: from the excluded set of the target.
SINGULAR_THETAS = (math.pi / 1000, math.pi / 4, math.pi / 2, math.pi)

#: Largest spectral norm of the swept lower block in the mobility sweep.
MOBILITY_BMAX = 5.0

#: Relative tolerance of the finite-difference gradient check.
GRADCHECK_RTOL = 1e-5


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one harness invocation."""

    experiment: str
    n: int
    p: int
    trials: int
    seed: int
    gammas: Tuple[float, ...]
    algorithms: Tuple[str, ...]
    out: str
    max_iters: int
    grad_ratio_tol: float
    fval_rel_tol: float
    points: int
    directions: int
    fd_step: float
    samples: int
    sigma: float
    variance_draws: int

    def __post_init__(self):
        if not (self.n > self.p >= 1):
            raise ValueError(f"need n > p >= 1, got n={self.n}, p={self.p}")
        if self.experiment == "singular" and self.p < 2:
            raise ValueError("the singular experiment needs p >= 2 for its rotation centers")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for gamma in self.gammas:
            BacktrackingConfig(gamma_initial=gamma)  # validates each initial stepsize
        if self.experiment in ("eigen", "singular") and not self.gammas:
            raise ValueError(f"the {self.experiment} experiment needs at least one gamma")
        if self.experiment == "eigen" and not self.algorithms:
            raise ValueError("the eigen experiment needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.directions < 1 or self.samples < 1 or self.variance_draws < 0:
            raise ValueError("directions/samples must be >= 1 and variance_draws >= 0")
        if not (0.0 < self.fd_step < math.inf and 0.0 <= self.sigma < math.inf):
            raise ValueError("fd_step must be positive and sigma nonnegative, both finite")
        self.stopping()  # StoppingConfig validates the stop settings

    def stopping(self) -> StoppingConfig:
        return StoppingConfig(max_iters=self.max_iters, grad_ratio_tol=self.grad_ratio_tol,
                              fval_rel_tol=self.fval_rel_tol)


# --------------------------------------------------------------------------
# configuration resolution: defaults < config file < command-line flags


#: argparse options of each key's flag ``--<key>`` (``_`` as ``-``).  The
#: flag's ``type`` also parses the config-file value, a comma-separated
#: list for a repeatable flag, and its ``dest`` names the ExperimentConfig field.
_KEYS: Dict[str, Dict[str, object]] = {
    "n": dict(type=int, help="ambient dimension"),
    "p": dict(type=int, help="frame width (columns)"),
    "trials": dict(type=int, help="independent repetitions"),
    "seed": dict(type=int, help="root RNG seed"),
    "gamma": dict(type=float, action="append", dest="gammas", metavar="G",
                  help="initial stepsize (repeatable)"),
    "algo": dict(action="append", dest="algorithms", choices=ALGORITHMS,
                 help="solver to run (repeatable)"),
    "out": dict(help="output CSV path"),
    "max_iters": dict(type=int, help="stopping override: iteration cap"),
    "grad_ratio_tol": dict(type=float, help="stopping override: gradient-ratio tolerance"),
    "fval_rel_tol": dict(type=float, help="stopping override: relative f-change tolerance"),
    "points": dict(type=int, help="grid points along the sweep"),
    "directions": dict(type=int, help="random directions per state"),
    "fd_step": dict(type=float, help="central-difference step"),
    "samples": dict(type=int, help="random parameter pairs to test"),
    "sigma": dict(type=float, help="stochastic family noise level"),
    "variance_draws": dict(type=int, help="draws for the variance estimate"),
}


def _field(key: str) -> str:
    return _KEYS[key].get("dest", key)


def _parse_value(key: str, text: str) -> object:
    cast = _KEYS[key].get("type", str)
    if _KEYS[key].get("action") == "append":
        return tuple(cast(tok.strip()) for tok in text.split(",") if tok.strip())
    return cast(text)


def _parse_config_file(path: str, experiment: str) -> Dict[str, object]:
    """Read a flat ``key=value`` file; ``#`` starts a comment.  Only keys
    ``experiment`` reads are accepted."""
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key not in _EXPERIMENTS[experiment].defaults:
                raise ValueError(f"{path}:{lineno}: the {experiment} experiment "
                                 f"does not read {key!r}")
            try:
                values[_field(key)] = _parse_value(key, text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # A field the experiment does not read keeps another experiment's
    # default: it passes validation and is never used.
    merged: Dict[str, object] = {"experiment": args.experiment}
    for name in (*_EXPERIMENTS, args.experiment):
        merged.update((_field(key), value) for key, value in _EXPERIMENTS[name].defaults.items())
    if args.config is not None:
        merged.update(_parse_config_file(args.config, args.experiment))
    for name, value in vars(args).items():
        if name in merged and value is not None:
            merged[name] = tuple(value) if isinstance(value, list) else value
    cfg = ExperimentConfig(**merged)
    _check_outputs(cfg)
    return cfg


def _check_outputs(cfg: ExperimentConfig) -> None:
    """Reject, before any work starts, an output path whose directory is
    missing or that names a directory.  Creates and truncates nothing."""
    paths = [cfg.out]
    if cfg.experiment in ("eigen", "singular"):
        paths.append(_history_path(cfg.out))
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {path!r}: no directory {directory!r}")
        if not os.path.basename(path) or os.path.isdir(path):
            raise ValueError(f"cannot write {path!r}: it names a directory, not a file")


# --------------------------------------------------------------------------
# CSV plumbing


def _fmt(value: object) -> str:
    """The one text form of a CSV cell or provenance value: a float to 17
    significant digits, a tuple comma-joined, anything else as ``str``."""
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    return f"{float(value):.17g}" if isinstance(value, float) else str(value)


def _write_csv(cfg: ExperimentConfig, path: str, keys: Sequence[str],
               extra: Sequence[Tuple[str, object]], header: Sequence[str],
               rows: Iterable[Iterable[object]]) -> None:
    """Write the provenance lines (the schema, the command, the settings
    ``keys`` names, then the ``extra`` pairs), the header row and ``rows``."""
    provenance = [("schema", SCHEMA_VERSION), ("command", cfg.experiment),
                  *((key, getattr(cfg, key)) for key in keys), *extra]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}={_fmt(value)}\n" for key, value in provenance)
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _history_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return stem + "_history" + (ext or ".csv")


def _trial_start_frames(cfg: ExperimentConfig, first: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """One start frame per trial, shared across algorithms and stepsizes.

    When ``first`` is given it becomes trial 0's canonical start and only
    the remaining trials are drawn at random.
    """
    frames: List[np.ndarray] = []
    if first is not None:
        frames.append(first)
    for t in range(len(frames), cfg.trials):
        rng = np.random.default_rng([cfg.seed, 211, t])
        frames.append(problems.random_stiefel(rng, cfg.n, cfg.p))
    return frames


# --------------------------------------------------------------------------
# eigen and singular: solver races


SUMMARY_HEADER = ("algorithm", "n", "p", "gamma_initial", "trial", "fval",
                  "fval_minus_optimal", "feasi", "nrmg", "itr", "time_s", "stop_reason")
HISTORY_HEADER = ("algorithm", "gamma_initial", "trial", "iter", "cum_time_s", "f_gap")

#: The settings every race records, ahead of its experiment's ``extra`` lines.
_RACE_KEYS = ("n", "p", "trials", "seed", "gammas", "grad_ratio_tol", "fval_rel_tol")


def _race(cfg: ExperimentConfig, columns: Sequence[str],
          groups: Sequence[Tuple[Sequence[object], Callable[..., RunRecord]]],
          starts: Sequence[np.ndarray], optimum: float,
          extra: Sequence[Tuple[str, object]]) -> int:
    """Race each group's solver from every trial's start at every stepsize,
    one run after another in row order, and write the summary and history
    CSVs.  A group is its values of the leading ``columns`` (``algorithm``
    first) and a solver called as ``solve(u0, bt=bt, stop=stop)``; the
    ``extra`` provenance pairs follow :data:`_RACE_KEYS`.  Two or more
    trials add mean and std summary rows."""
    stop = cfg.stopping()
    summary: List[List[object]] = []
    history: List[List[object]] = []
    for cells, solve in groups:
        for gamma in cfg.gammas:
            bt = BacktrackingConfig(gamma_initial=gamma)
            runs = [solve(u0, bt=bt, stop=stop) for u0 in starts]
            # One row per trial; itr is a float here, and .17g prints it as an integer.
            finals = np.array([(r.fvals[-1], r.fvals[-1] - optimum, r.feasibilities[-1],
                                r.grad_norms[-1], r.iters[-1], r.times[-1]) for r in runs])
            lead = [*cells, cfg.n, cfg.p, gamma]
            summary += [[*lead, t, *finals[t], r.stop_reason] for t, r in enumerate(runs)]
            if cfg.trials > 1:
                summary += [[*lead, "mean", *finals.mean(axis=0), ""],
                            [*lead, "std", *finals.std(axis=0, ddof=1), ""]]
            history += [[*cells, gamma, t, it, t_s, fval - optimum] for t, r in enumerate(runs)
                        for it, t_s, fval in zip(r.iters, r.times, r.fvals)]

    _write_csv(cfg, cfg.out, _RACE_KEYS, extra, (*columns, *SUMMARY_HEADER[1:]), summary)
    _write_csv(cfg, _history_path(cfg.out), _RACE_KEYS, extra,
               (*columns, *HISTORY_HEADER[1:]), history)
    print(f"{cfg.experiment}: wrote {len(summary)} summary rows to {cfg.out} "
          f"and {len(history)} history rows to {_history_path(cfg.out)}")
    return EXIT_OK


def _dispatch_solver(algo: str, f: CostFunction, u0: np.ndarray,
                     bt: BacktrackingConfig, stop: StoppingConfig) -> RunRecord:
    if algo == "gdm-cp":
        return run_gdm_cp(f, u0, bt=bt, stop=stop)
    if algo == "gdm-cp-retraction":
        return run_gdm_cp_retraction(f, u0, u0, bt=bt, stop=stop)
    return run_gdm_retraction(f, u0, algo.removeprefix("gdm-"), bt=bt, stop=stop)


def cmd_eigen(cfg: ExperimentConfig) -> int:
    """Benchmark every requested solver/stepsize on one eigen instance."""
    inst = problems.make_eigen_instance(cfg.n, cfg.p, cfg.seed)
    f = problems.eigen_cost(inst)
    groups = [((algo,), functools.partial(_dispatch_solver, algo, f)) for algo in cfg.algorithms]
    return _race(cfg, ("algorithm",), groups, _trial_start_frames(cfg), inst.optimum_value,
                 [("algorithms", cfg.algorithms), ("max_iters", cfg.max_iters),
                  ("optimum", inst.optimum_value)])


def cmd_singular(cfg: ExperimentConfig) -> int:
    """Distance-cost descent toward a target sitting near the excluded set
    of progressively worse centers; the smallest angle is expected to stall."""
    _, u_star = problems.rotation_center(math.pi, cfg.n, cfg.p)
    f = problems.distance_cost(u_star)
    _, u0_canonical = problems.rotation_center(math.pi / 4.0, cfg.n, cfg.p)
    centers = [problems.rotation_center(theta, cfg.n, cfg.p)[0] for theta in SINGULAR_THETAS]
    groups = [(("gdm-cp", theta), functools.partial(run_gdm_cp, f, center=center))
              for theta, center in zip(SINGULAR_THETAS, centers)]
    return _race(cfg, ("algorithm", "theta"), groups,
                 _trial_start_frames(cfg, first=u0_canonical), 0.0,
                 [("thetas", SINGULAR_THETAS), ("max_iters", cfg.max_iters)])


# --------------------------------------------------------------------------
# mobility


MOBILITY_HEADER = ("b_norm2", "observed_change", "mobility")


def _mobility_trial(cfg: ExperimentConfig, grid: np.ndarray, trial: int):
    """One sweep: fix the skew corner, scale the lower block through the
    grid of spectral norms, and record unit-perturbation response vs the
    rate bound."""
    n, p = cfg.n, cfg.p
    rng = np.random.default_rng([cfg.seed, 977, trial])

    def corner_free_param() -> SkewParam:
        m11 = rng.uniform(-0.5, 0.5, size=(p, p))
        m12 = rng.uniform(-0.5, 0.5, size=(p, n - p))
        m21 = rng.uniform(-0.5, 0.5, size=(n - p, p))
        return SkewParam(m11, (m21 - m12.T) / 2.0)

    base = corner_free_param()
    e = corner_free_param()
    e = (1.0 / e.norm()) * e
    b_scale = np.linalg.norm(base.b, 2)
    center = Center.structured(np.eye(p), n)

    changes = np.empty(grid.size)
    rates = np.empty(grid.size)
    for i, x in enumerate(grid):
        v = SkewParam(base.a, (x / b_scale) * base.b)
        u_here = cayley.inverse(center, v)
        u_moved = cayley.inverse(center, v + e)
        changes[i] = np.linalg.norm(u_moved - u_here)
        rates[i] = cayley.mobility(v)
    return changes, rates


def cmd_mobility(cfg: ExperimentConfig) -> int:
    """Average inverse-transform sensitivity over trials on a shared grid."""
    grid = np.linspace(0.0, MOBILITY_BMAX, cfg.points)
    changes, rates = np.mean([_mobility_trial(cfg, grid, t) for t in range(cfg.trials)], axis=0)

    rows = np.column_stack((grid, changes, rates))
    _write_csv(cfg, cfg.out, ("n", "p", "trials", "seed", "points"), (), MOBILITY_HEADER, rows)
    print(f"mobility: wrote {len(rows)} rows to {cfg.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# gradcheck


GRADCHECK_HEADER = ("cost", "engine", "states", "directions", "worst_rel_err",
                    "tolerance", "status")


def _central_diff(phi: Callable[[float], float], step: float) -> float:
    return (phi(step) - phi(-step)) / (2.0 * step)


def _check_parameter_engine(f: CostFunction, cfg: ExperimentConfig) -> float:
    """Worst relative FD error of the parameter-space gradient."""
    n, p = f.dim_n, f.dim_p
    worst = 0.0
    for state in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 37, state])
        center = problems.random_center(rng, n, p)
        v = problems.random_skew_param(rng, n, p, norm=2.0)
        g = gradients.grad_pullback(center, v, f)
        for _ in range(cfg.directions):
            delta = problems.random_skew_param(rng, n, p, norm=1.0)
            fd = _central_diff(
                lambda t: f.eval(cayley.inverse(center, v + t * delta)), cfg.fd_step)
            worst = max(worst, abs(fd - g.inner(delta)) / max(1.0, abs(fd)))
    return worst


def _check_retraction_engine(f: CostFunction, cfg: ExperimentConfig) -> float:
    """Worst relative FD error of the retraction-pullback gradient."""
    n, p = f.dim_n, f.dim_p
    worst = 0.0
    for state in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, 53, state])
        u = problems.random_stiefel(rng, n, p)
        d = retractions.project_tangent(u, rng.standard_normal((n, p)))
        d = (1.0 / max(d.norm(), 1e-12)) * d
        g = retractions.grad_retraction_pullback(u, d, f)
        for _ in range(cfg.directions):
            delta = retractions.project_tangent(u, rng.standard_normal((n, p)))
            delta = (1.0 / max(delta.norm(), 1e-12)) * delta
            fd = _central_diff(
                lambda t: f.eval(retractions.retract_cayley(u, d + t * delta)), cfg.fd_step)
            analytic = float(np.sum(g.mat * delta.mat))
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(fd)))
    return worst


def cmd_gradcheck(cfg: ExperimentConfig) -> int:
    """Validate both gradient engines against central differences."""
    rng = np.random.default_rng([cfg.seed, 11])
    inst = problems.make_eigen_instance(cfg.n, cfg.p, cfg.seed)
    costs = [
        ("eigen", problems.eigen_cost(inst)),
        ("distance", problems.distance_cost(problems.random_stiefel(rng, cfg.n, cfg.p))),
    ]

    engines = [("parameter-space", _check_parameter_engine),
               ("retraction-pullback", _check_retraction_engine)]
    rows: List[List[object]] = []
    all_ok = True
    for cost_name, f in costs:
        for engine_name, check in engines:
            worst = check(f, cfg)
            ok = worst <= GRADCHECK_RTOL
            all_ok = all_ok and ok
            rows.append([cost_name, engine_name, cfg.trials, cfg.directions, worst,
                         GRADCHECK_RTOL, "pass" if ok else "FAIL"])
            print(f"gradcheck {cost_name}/{engine_name}: worst rel err {worst:.3e} "
                  f"(tol {GRADCHECK_RTOL:g}) -> {'pass' if ok else 'FAIL'}")

    _write_csv(cfg, cfg.out, ("n", "p", "trials", "seed", "directions", "fd_step"), (),
               GRADCHECK_HEADER, rows)
    print(f"gradcheck: wrote {len(rows)} rows to {cfg.out}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# bounds


def cmd_bounds(cfg: ExperimentConfig) -> int:
    """Sampled bound report for the eigen cost with analytic constants."""
    inst = problems.make_eigen_instance(cfg.n, cfg.p, cfg.seed)
    f = problems.eigen_cost(inst)
    evals = np.linalg.eigvalsh(inst.a)
    mu = 2.0 * float(evals[-1])
    grad_norm_max = 2.0 * math.sqrt(float(np.sum(evals[-cfg.p:] ** 2)))
    family = problems.stochastic_eigen_family(inst, cfg.sigma, cfg.seed)
    center = Center.structured(np.eye(cfg.p), cfg.n)

    report = gradients.check_gradient_bounds(
        f, center, cfg.samples, mu=mu, lipschitz=mu, grad_norm_max=grad_norm_max,
        family=family, variance_draws=cfg.variance_draws, seed=cfg.seed)

    row = report.to_row()
    _write_csv(cfg, cfg.out, ("n", "p", "seed", "sigma"), (), tuple(row), [row.values()])
    print(f"bounds: lipschitz worst ratio {report.lipschitz_worst_ratio:.3f} "
          f"({report.lipschitz_violations} violations), "
          f"norm worst ratio {report.norm_worst_ratio:.3f} "
          f"({report.norm_violations} violations), "
          f"variance ratio {report.variance_ratio:.3f} "
          f"({report.variance_violations} violations) over {report.samples} samples")
    print(f"bounds: wrote {cfg.out}")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


class _Experiment(NamedTuple):
    command: Callable[[ExperimentConfig], int]
    help: str
    #: The keys the experiment reads, in flag order, with their defaults.
    #: Any other key or flag is rejected, so no setting is silently ignored.
    defaults: Dict[str, object]


_EXPERIMENTS: Dict[str, _Experiment] = {
    "eigen": _Experiment(
        cmd_eigen, "solver comparison on a trace-minimization instance",
        dict(n=200, p=10, trials=3, seed=7, gamma=(0.1, 0.01, 0.001), algo=ALGORITHMS,
             out="bench_eigen.csv", **asdict(StoppingConfig()))),
    "singular": _Experiment(
        cmd_singular, "descent with centers near the excluded set",
        dict(n=200, p=10, trials=3, seed=7, gamma=(0.1,), out="bench_singular.csv",
             **asdict(StoppingConfig()))),
    "mobility": _Experiment(
        cmd_mobility, "inverse-transform sensitivity sweep",
        dict(n=200, p=10, trials=10, seed=7, out="bench_mobility.csv", points=26)),
    "gradcheck": _Experiment(
        cmd_gradcheck, "finite-difference gradient validation",
        dict(n=60, p=5, trials=5, seed=7, out="bench_gradcheck.csv", directions=20,
             fd_step=1e-6)),
    "bounds": _Experiment(
        cmd_bounds, "sampled gradient bound report",
        dict(n=60, p=5, seed=7, out="bench_bounds.csv", samples=1000, sigma=1.0,
             variance_draws=10000)),
}


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-bench",
        description="Benchmark harness for Cayley-parametrized optimization "
                    "on the Stiefel manifold.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, entry in _EXPERIMENTS.items():
        sp = sub.add_parser(experiment, help=entry.help)
        for key in entry.defaults:
            sp.add_argument("--" + key.replace("_", "-"), **_KEYS[key])
        sp.add_argument("--config", help="flat key=value config file; flags override it")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _EXPERIMENTS[cfg.experiment].command(cfg)
    except Exception as exc:  # solver/linear-algebra failures -> exit 3
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
