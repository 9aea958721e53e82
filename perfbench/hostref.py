"""Reference kernels that measure how fast the host runs at a given moment.

The benchmark shares a few cores of a busy host, whose speed changes by up
to 1.9x within minutes.  A run that lands in a slow stretch reads slower
even though the program did no more work.  To take that out, a workload
runs a fixed reference kernel (no orbitlab code) between its operations,
and each stretch of program time between two kernel runs is rescaled by
how long those two kernel runs took against the kernel's nominal time:

    reference seconds = program seconds * NOMINAL_S / kernel seconds

A reference second is a second on a host where the kernel takes NOMINAL_S,
about its time on a 2.1 GHz Xeon vCPU; it only sets the scale.
Each workload names the kernel whose work resembles its own (`KERNEL`): a
busy host slows memory-bound array passes and interpreted code by
different amounts, at different times.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter

_COEFFS = [0.5, -0.25, 0.125, 0.3, -0.7, 0.2, 0.05, -0.1, 0.9]
_SMALL = np.linspace(-1.0, 1.0, 16)


class ArrayKernel:
    """Streaming NumPy passes over 12 MB arrays, like the census's exclusion
    rounds over large frontiers; memory-bound.  A call allocates nothing: a
    fresh allocation of that size costs page faults whose price depends on
    the process's heap, not on the host's speed."""

    NOMINAL_S = 0.010
    SIZE = 1_500_000

    def __init__(self):
        self.x = np.random.default_rng(0).uniform(-1.0, 1.0, self.SIZE)
        self.y = np.zeros_like(self.x)
        self.keep = np.zeros(self.SIZE, dtype=bool)
        self()  # touch every page before the first timed call

    def __call__(self) -> float:
        x, y = self.x, self.y
        for _ in range(2):
            np.multiply(x, x, out=y)
            np.subtract(y, 1.0, out=y)
            np.less(y, -0.1, out=self.keep)
            np.copyto(y, x, where=self.keep)
        return float(y[0])


class ScalarKernel:
    """Interpreted Horner loops and small NumPy calls, like map evaluation
    at single points and the code around it; overhead-bound."""

    NOMINAL_S = 0.005

    def __call__(self) -> float:
        s = 0.0
        for i in range(2000):
            t = i * 1e-4
            v = 0.0
            for c in _COEFFS:
                v = v * t + c
            s += v
        for i in range(200):
            s += float(np.polyval(_COEFFS, i * 1e-3))
            s += float(np.max(np.abs(_SMALL * s)))
        return s


class ImportKernel:
    """A fresh interpreter that imports a fixed set of standard-library
    modules, like the set-up probes' start and imports; writes nothing."""

    NOMINAL_S = 0.070
    CMD = (sys.executable, "-S", "-B", "-c",
           "import argparse, decimal, email.parser, http.client, json, unittest, xml.dom.minidom")
    TIMEOUT_S = 60

    def __call__(self):
        subprocess.run(self.CMD, check=True, stdout=subprocess.DEVNULL, timeout=self.TIMEOUT_S)


KERNELS = {"array": ArrayKernel, "scalar": ScalarKernel}


class HostClock:
    """Records a pass's operations and the runs of a reference kernel
    between them, and converts operation times to reference seconds.
    Without a kernel it only records the operations."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.refs: list = []  # (start, end, kernel seconds), in time order
        self.ops: list = []  # (start, end)

    def ref(self):
        """Run the kernel once and record its time; does nothing without a
        kernel."""
        if self.kernel is None:
            return
        start = _now()
        self.kernel()
        end = _now()
        self.refs.append((start, end, end - start))

    @contextmanager
    def op(self):
        """Time one operation (also when it raises)."""
        start = _now()
        try:
            yield
        finally:
            self.ops.append((start, _now()))

    def speed(self) -> float:
        """NOMINAL_S over the median kernel time of the pass: above 1 when
        the host ran faster than nominal."""
        return self.kernel.NOMINAL_S / statistics.median(r[2] for r in self.refs)

    def raw(self) -> tuple:
        """Each operation's program seconds (kernel runs inside it excluded)."""
        return tuple(self._scaled(a, b, lambda _s, _e: 1.0) for a, b in self.ops)

    def scaled(self) -> tuple:
        """Each operation's time in reference seconds."""
        return tuple(self._scaled(a, b, self._speed) for a, b in self.ops)

    def _speed(self, s: float, e: float) -> float:
        """NOMINAL_S over the mean time of the kernel runs just before `s`
        and just after `e`."""
        starts = [r[0] for r in self.refs]
        k = bisect.bisect_right(starts, s)  # refs[:k] start at or before s
        near = []
        if k > 0:
            near.append(self.refs[k - 1][2])
        j = bisect.bisect_left(starts, e)  # refs[j:] start at or after e
        if j < len(self.refs):
            near.append(self.refs[j][2])
        if not near:
            raise ValueError("no reference-kernel run around an operation")
        return self.kernel.NOMINAL_S / statistics.fmean(near)

    def _scaled(self, a: float, b: float, speed) -> float:
        """Sum over the stretches of [a, b] outside kernel runs of their
        length times `speed(stretch)`."""
        total, cursor = 0.0, a
        for start, end, _ in self.refs:
            if end <= a or start >= b:
                continue
            if start > cursor:
                total += (start - cursor) * speed(cursor, start)
            cursor = max(cursor, end)
        if b > cursor:
            total += (b - cursor) * speed(cursor, b)
        return total
