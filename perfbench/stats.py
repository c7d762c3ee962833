"""Order statistics and per-run figures, free of any numerical library."""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between order
    statistics (the rule of ``numpy.percentile``'s default method).

    A tail percentile is only reported when at least ten samples lie
    beyond it, so ``q = 95`` needs 200 samples.

    Raises
    ------
    ValueError
        On an empty sample, or a tail percentile with too few samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50.0 and n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        need = math.ceil(1000.0 / (100.0 - q))
        raise ValueError(f"p{q:g} needs at least {need} samples, got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def step_ms(times: Sequence[float]) -> list:
    """Milliseconds per accepted step: differences of a run's cumulative
    times, one sample per recorded iterate after the start."""
    return [1000.0 * (b - a) for a, b in zip(times, times[1:])]


def time_to_tol(gaps: Sequence[float], times: Sequence[float], tol: float) -> Tuple[float, bool]:
    """Time at the first recorded iterate whose gap is within ``tol``.

    A run that never gets there contributes its full time; the flag says
    whether the tolerance was met.
    """
    for gap, t in zip(gaps, times):
        if gap <= tol:
            return t, True
    return times[-1], False
