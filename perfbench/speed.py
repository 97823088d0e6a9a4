"""Machine-speed reference: times are reported at a fixed nominal speed.

On a shared machine the speed of a core drifts by 20-70% for tens of
seconds at a time, as other tenants come and go; wall and CPU time drift
alike. A run of a few seconds cannot average that out. So the benchmark
times a fixed reference kernel next to the work it measures, and scales
every measured time by ``NOMINAL_S / (reference time nearby)``: a time is
reported as it would read if the reference had run at its nominal speed.

The kernel mixes what spectemp spends its time on: Python-level
bookkeeping, many small numpy calls, a BLAS matrix product, and an
``einsum`` graph contraction at N=208 like ``autodiff.graph_mix``. Over
60-90 s traces of each workload's unit of work, each timed next to a
kernel of this mix, dividing by the kernel's time cut the spread of single
timings (IQR of their logarithm) from 0.18-0.30 to 0.10-0.15. Averaging
the kernel over a window of a second or more did worse: the speed changes
within a second, so only samples right next to the work are used.

The kernel runs only in the benchmark's own code and depends on nothing in
the package, so a change to spectemp moves the scaled times exactly as it
moves the raw ones. The report line keeps raw medians too.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

__all__ = ["NOMINAL_S", "SpeedProbe"]

# About the kernel's time on one unloaded core of a 2-core x86_64 VM with
# numpy 2.4 and OpenBLAS (10-11 ms); a constant, the same on every commit.
NOMINAL_S = 0.011


class SpeedProbe:
    """A time series of reference-kernel timings, and the scale they give.

    ``maybe_sample`` runs the kernel when ``gap`` seconds have passed since
    the last sample; the workloads call it between pieces of timed work,
    never inside one. The kernel then adds about 7% to a run.
    """

    gap = 0.15

    def __init__(self):
        self.times: list = []          # perf_counter at the end of each sample
        self.seconds: list = []        # the kernel's duration
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((208, 208))
        self._block = rng.standard_normal((208, 16 * 12 * 8))
        self._signal = rng.standard_normal((4, 208, 12, 8))
        self._small = rng.standard_normal((8, 8))

    def kernel(self) -> float:
        """The fixed reference work; returns a value derived from all of it."""
        table: dict = {}
        for i in range(15000):
            table[i % 977] = table.get(i % 977, 0) + i
        x = self._small
        for _ in range(300):
            x = np.tanh(x @ self._small * 0.1) + x * 0.5
        total = 0.0
        for _ in range(2):
            total += float((self._matrix @ self._block)[0, 0])
        total += float(np.einsum("ij,bjtd->bitd", self._matrix, self._signal)[0, 0, 0, 0])
        return total + float(x[0, 0]) + len(table)

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.gap:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the nominal speed: times
        NOMINAL_S over the mean of the last sample before ``start`` and the
        first after ``end`` (either alone at the ends of the series)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.times)]
        if not near:
            raise ValueError("no reference sample was taken")
        return (end - start) * NOMINAL_S / (sum(near) / len(near))
