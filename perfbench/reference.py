"""A fixed numpy kernel that gauges the host's speed.

The test machine's speed drifts by itself, by up to half over tens of
minutes (see the README's Steadiness section), and a run can only see
that drift by timing something that does not change.  This kernel is
that thing: it calls numpy only, never the package, on the shapes the
workloads spend their time on (the eigen cost's ``A @ U`` at n=500, p=10
and the thin SVD and QR of a 2000-by-40 frame).

An untraced pass takes a sample of the kernel before each solver run and
after the last.  A run's times are scaled by ``NOMINAL_S`` over the mean
of the samples before and after it, a pass's wall time by ``NOMINAL_S``
over the mean of all its samples: they are given at the speed at which
one repetition of the kernel takes ``NOMINAL_S``.  A change to the
package moves the scaled figures as it moves the raw ones; the raw
figures are printed beside them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .stats import median

#: Seconds one repetition took on the test machine in a fast stretch; the
#: speed at which the scaled time metrics are given.
NOMINAL_S = 0.0145

#: Repetitions per sample, which reports their median (about 70 ms).
REPS = 5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((500, 500))
        self.a = a + a.T
        self.u = np.linalg.qr(rng.standard_normal((500, 10)))[0]
        self.b = np.linalg.qr(rng.standard_normal((2000, 40)))[0]

    def once(self) -> float:
        t = time.perf_counter()
        for _ in range(20):
            self.a @ self.u
        for _ in range(2):
            np.linalg.svd(self.b, full_matrices=False)
            np.linalg.qr(self.b)
        return time.perf_counter() - t

    def sample(self) -> float:
        """Median seconds of one repetition."""
        return median([self.once() for _ in range(REPS)])


class Gauge:
    """The samples of one pass, each keyed by the ``(solver, start)`` run
    that follows it, and the seconds they took."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.samples: List[float] = []
        self.keys: List[Optional[Tuple[str, int]]] = []
        self.spent = 0.0

    def __call__(self, key: Optional[Tuple[str, int]] = None) -> None:
        t = time.perf_counter()
        self.samples.append(self.reference.sample())
        self.keys.append(key)
        self.spent += time.perf_counter() - t

    def run_scales(self) -> Dict[Tuple[str, int], float]:
        return {key: NOMINAL_S / (0.5 * (before + after))
                for key, before, after in zip(self.keys, self.samples, self.samples[1:])
                if key is not None}

    def scale(self) -> float:
        return NOMINAL_S * len(self.samples) / sum(self.samples)
