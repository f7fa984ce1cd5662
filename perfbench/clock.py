"""Calibrated clock: wall time in reference seconds.

The speed of a shared CPU drifts by tens of percent within a minute, so raw
wall time and CPU time cannot carry a 10% bound.  The process pins itself to
one CPU, and a probe thread times a fixed pure-Python slice (dict updates and
`math.lgamma`, about 0.5 ms) every 5 ms on that CPU.  A span's wall time,
minus the probe slices that ran inside it, is scaled by REFERENCE_SLICE_S over
the mean slice time measured around the span.  On a shared 2-CPU machine the
slice times were bimodal, switching within milliseconds; a 5 ms period
tracked that better than 2 ms slices every 20 ms, at the same 10% share.  A reference second is thus a
second on a machine where one slice takes exactly REFERENCE_SLICE_S.

The slices run under the interpreter lock, so the timed code does not run
while a slice runs; that is why their time is subtracted.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time

REFERENCE_SLICE_S = 0.0005
SLICE_ITERATIONS = 1250
PERIOD_S = 0.005
# slices averaged for a span shorter than this many periods
MIN_SLICES = 5


def pin_to_one_cpu():
    """Pin this process to one CPU and keep BLAS single-threaded."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def probe_slice(iterations=SLICE_ITERATIONS):
    """A fixed amount of interpreter work, close to the sampler's inner loops."""
    counts = {}
    acc = 0.0
    for k in range(iterations):
        key = k & 63
        counts[key] = counts.get(key, 0) + 1
        acc += math.lgamma(1.5 + (k & 15))
    return acc


class CalibratedClock:
    """Runs the probe thread; converts (start, end) wall times to reference seconds."""

    def __init__(self, period=PERIOD_S, slice_fn=probe_slice):
        self.period = period
        self.slice_fn = slice_fn
        self.starts = []
        self.ends = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="clock-probe", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(self.period):
            t0 = time.perf_counter()
            self.slice_fn()
            t1 = time.perf_counter()
            # one list append each is atomic; readers use min(len) of the two
            self.starts.append(t0)
            self.ends.append(t1)

    @staticmethod
    def now():
        return time.perf_counter()

    def probe_time(self, t0, t1):
        """Seconds of [t0, t1] spent inside probe slices."""
        n = min(len(self.starts), len(self.ends))
        lo = max(0, bisect.bisect_left(self.starts, t0, 0, n) - 1)
        hi = bisect.bisect_right(self.starts, t1, 0, n)
        return sum(
            max(0.0, min(self.ends[k], t1) - max(self.starts[k], t0)) for k in range(lo, hi)
        )

    def slice_mean(self, t0, t1):
        """Mean slice time over the slices that started in [t0, t1], widened
        to the MIN_SLICES nearest ones for a short span."""
        n = min(len(self.starts), len(self.ends))
        if n == 0:
            raise RuntimeError("the probe recorded no slice; is the clock running?")
        lo = bisect.bisect_left(self.starts, t0, 0, n)
        hi = bisect.bisect_right(self.starts, t1, 0, n)
        while hi - lo < min(MIN_SLICES, n):
            if lo > 0:
                lo -= 1
            if hi - lo < min(MIN_SLICES, n) and hi < n:
                hi += 1
        return sum(self.ends[k] - self.starts[k] for k in range(lo, hi)) / (hi - lo)

    def work_seconds(self, t0, t1):
        """Wall seconds of [t0, t1] outside probe slices."""
        return t1 - t0 - self.probe_time(t0, t1)

    def scale(self, t0, t1):
        """Reference seconds per work second around [t0, t1]."""
        return REFERENCE_SLICE_S / self.slice_mean(t0, t1)

    def reference_seconds(self, t0, t1):
        """(reference seconds, raw wall seconds) of the span [t0, t1]."""
        return self.work_seconds(t0, t1) * self.scale(t0, t1), t1 - t0
