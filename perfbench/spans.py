"""In-memory span recorder and the patches that put spans on each layer.

A span is one call into a layer: its name (``layer.function``), start and
end on the ``perf_counter`` clock, the id of the span that caused it, the
thread it ran on, the run it belongs to (one run per workload, solver,
step size and start) and the exception class it raised, if any.  Spans
stay in memory and are written once, by :meth:`Tracer.write_csv`.

Parents are tracked per thread.  A span opened on a thread with no open
span (a CLI pool worker) takes :attr:`Tracer.root` as its parent, so the
solver runs of a pool are children of the ``cli.main`` span.  Self time
subtracts the union of the child intervals, because children on two pool
threads overlap.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from stiefel_cayley import cayley, cli, linalg, optimize, problems, retractions
from stiefel_cayley.gradients import CostFunction


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    run: Optional[str]
    error: Optional[str]


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: List[Span] = []
        self.root: Optional[int] = None
        self.root_run: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             run: Optional[str] = None, adopt: bool = False):
        """Call ``fn`` inside a span named ``name``.

        ``run`` labels the span and, through the open-span stack, every span
        it causes; without it the span inherits its parent's run.  With
        ``adopt``, threads that have no open span of their own (pool workers
        started by ``fn``) take this span as their parent.
        """
        stack = self._stack()
        parent, parent_run = stack[-1] if stack else (self.root, self.root_run)
        sid = next(self._ids)
        run = parent_run if run is None else run
        if adopt:
            previous = (self.root, self.root_run)
            self.root, self.root_run = sid, run
        stack.append((sid, run))
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self.root, self.root_run = previous
            self.spans.append(Span(sid, parent, name, start, end,
                                   threading.get_ident(), run, error))

    def wrap(self, name: str, fn: Callable, run_of: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span; ``run_of(*args,
        **kwargs)`` names the run a call starts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run = run_of(*args, **kwargs) if run_of is not None else None
            return self.call(name, fn, args, kwargs, run)

        return traced

    def traced_cost(self, f: CostFunction) -> CostFunction:
        """The same cost with its three callables recorded as ``problems``
        spans (the names the solvers look up on the object they are given)."""
        return CostFunction(
            dim_n=f.dim_n,
            dim_p=f.dim_p,
            eval=self.wrap("problems.eval", f.eval),
            grad=self.wrap("problems.grad", f.grad),
            eval_grad=None if f.eval_grad is None else self.wrap("problems.eval_grad", f.eval_grad),
        )

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            for s in self.spans:
                out.writerow([s.id, "" if s.parent is None else s.parent, s.name,
                              repr(s.start), repr(s.end), s.thread, s.run or "", s.error or ""])


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children may overlap (spans from two pool threads under one parent),
    so the covered part is the length of the union of the child intervals,
    clipped to the parent's interval.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class NameStats(NamedTuple):
    calls: int
    self_s: float
    errors: Dict[str, int]


def by_name(spans: Iterable[Span]) -> Dict[str, NameStats]:
    """Calls, summed self time and raised exceptions per span name."""
    spans = list(spans)
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    errors: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += own[s.id]
        if s.error:
            errors[s.name][s.error] += 1
    return {name: NameStats(calls[name], busy[name], dict(errors[name])) for name in calls}


#: Functions ``optimize`` imported by name, patched where it looks them up.
OPTIMIZE_NAMES = {
    "inverse": "cayley.inverse",
    "forward": "cayley.forward",
    "construct_center": "cayley.construct_center",
    "pullback_from_euclidean": "gradients.pullback_from_euclidean",
    "retract_cayley": "retractions.retract_cayley",
    "inverse_retract_cayley": "retractions.inverse_retract_cayley",
    "grad_retraction_pullback": "retractions.grad_retraction_pullback",
    "riemannian_grad": "retractions.riemannian_grad",
}

#: ``linalg`` kernels; every caller reaches them as ``linalg.<name>``.
LINALG_NAMES = ("feasibility", "svd", "qr_orthonormalize", "polar_factor")

#: Span names that evaluate one line-search candidate (one trial each).
TRIAL_SPANS = ("cayley.inverse", "retractions.retract_cayley",
               "retractions.retract_qr", "retractions.retract_polar")

#: ``problems`` constructors whose costs get traced callables.
COST_BUILDERS = ("eigen_cost", "distance_cost")

#: The drivers the CLI calls, as ``cli.<name>``.
CLI_SOLVERS = ("run_gdm_cp", "run_gdm_cp_retraction", "run_gdm_retraction")


@contextlib.contextmanager
def patched(owner, replacements: Dict[str, object]):
    """Set attributes of ``owner`` for the duration of the block."""
    saved = {attr: getattr(owner, attr) for attr in replacements}
    try:
        for attr, value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for attr, value in saved.items():
            setattr(owner, attr, value)


@contextlib.contextmanager
def installed(tracer: Tracer, cli_run_of: Optional[Callable] = None):
    """Patch every traced name for the duration of the block.

    Each wrapper goes on the name its caller looks up: ``optimize.inverse``
    rather than ``cayley.inverse``, the ``RETRACTION_KINDS`` entries, the
    ``linalg`` module attributes, the two value classes' ``__init__``, the
    ``problems`` constructors, and (when ``cli_run_of`` is given)
    ``cli.run_gdm_*``, where ``cli_run_of(attr, *args, **kwargs)`` names the
    run.  Everything is restored on exit.
    """
    wrap = tracer.wrap
    kinds = dict(optimize.RETRACTION_KINDS)
    cost_builders = {
        attr: (lambda *a, _build=getattr(problems, attr): tracer.traced_cost(_build(*a)))
        for attr in COST_BUILDERS
    }
    cli_solvers = {} if cli_run_of is None else {
        attr: wrap(f"optimize.{attr}", getattr(cli, attr), functools.partial(cli_run_of, attr))
        for attr in CLI_SOLVERS
    }
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(optimize, {
            attr: wrap(name, getattr(optimize, attr)) for attr, name in OPTIMIZE_NAMES.items()}))
        stack.enter_context(patched(linalg, {
            attr: wrap(f"linalg.{attr}", getattr(linalg, attr)) for attr in LINALG_NAMES}))
        stack.enter_context(patched(cayley.SkewParam, {
            "__init__": wrap("cayley.SkewParam", cayley.SkewParam.__init__)}))
        stack.enter_context(patched(retractions.TangentVector, {
            "__init__": wrap("retractions.TangentVector", retractions.TangentVector.__init__)}))
        stack.enter_context(patched(problems, {
            "make_eigen_instance": wrap("problems.make_eigen_instance",
                                        problems.make_eigen_instance),
            **cost_builders}))
        stack.enter_context(patched(cli, cli_solvers))
        stack.callback(optimize.RETRACTION_KINDS.update, kinds)
        optimize.RETRACTION_KINDS.update(
            {kind: wrap(f"retractions.{fn.__name__}", fn) for kind, fn in kinds.items()})
        yield tracer
