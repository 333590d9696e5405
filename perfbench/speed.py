"""Put times measured on a shared host at one reference machine speed.

The benchmark host is a two-core slice of a shared machine whose speed
changes by a factor of up to 1.8 within seconds, as its neighbours come and
go (the same `wasserstein1` call takes 1.3 ms in one second and 2.2 ms in
the next). Averaging over a run cannot remove phases that last as long as a
run, so every timed figure is divided by the machine's speed at the moment
it was taken.

`Sampler` measures that speed: a real-time interval timer interrupts the
process every `INTERVAL` seconds and its handler times `kernel`, a fixed
mix of interpreter work and small-array numpy calls (the mix metriclab's
own code has) that belongs to the benchmark and calls nothing of
metriclab. `Sampler.time(fn)` times a call and deducts the handler's time
spent inside it; `Sampler.scale(t0, t1)` is the factor that turns a time
taken over [t0, t1] into the time it would take at the reference speed, at
which one kernel call takes `REFERENCE_S`. A change to the program moves
the scaled figures exactly as it moves the raw ones; a change of machine
speed moves the kernel too, and cancels.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.025      # seconds between kernel samples
NEAREST = 10          # fewest samples that set the speed of one timed call
REFERENCE_S = 4.0e-4  # kernel time at the reference speed
TRIM = 0.2            # share of samples dropped at each end before averaging

_A = np.linspace(0.0, 1.0, 144).reshape(12, 12)


def kernel() -> float:
    """Fixed interpreter and small-array numpy work: 0.3 to 0.6 ms on a
    2-core Xeon KVM guest, depending on the phase of the host."""
    acc, table = 0.0, {}
    for i in range(600):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0.0) + 0.5 * i
        acc += table[key]
    x = _A
    for _ in range(30):
        x = np.minimum(x, x.T + 0.01)
        j = int(x.argmin())
        acc += float(x[j // 12, j % 12])
    return acc


class Sampler:
    """Samples the kernel's time every `INTERVAL` seconds while installed."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0      # seconds the handler has taken, in total
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def install(self) -> "Sampler":
        kernel()  # warm the kernel's code paths before the first sample
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def time(self, fn, *args):
        """Run `fn(*args)`; returns (result or exception, start, end, seconds),
        where seconds leaves out the handler's time inside the call."""
        spent0 = self.spent
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller counts it as a failed operation
            result = exc
        t1 = time.perf_counter()
        return result, t0, t1, (t1 - t0) - (self.spent - spent0)

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed factor for a time taken over [t0, t1]: the
        reference kernel time over the trimmed mean of the kernel samples
        taken during it, or of the NEAREST samples to its middle when fewer
        were taken during it."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.mids, 0.5 * (t0 + t1))
            lo = max(0, min(mid - NEAREST // 2, len(self.mids) - NEAREST))
            hi = lo + NEAREST
        window = sorted(self.durations[lo:hi])
        if not window:
            raise RuntimeError("no speed samples were taken")
        cut = int(TRIM * len(window))
        kept = window[cut:len(window) - cut] or window
        return REFERENCE_S / (sum(kept) / len(kept))
