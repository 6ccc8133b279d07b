"""Machine-speed probe: timings scaled to the machine's reference speed.

The 2-core machine these figures come from changes speed by itself: the
same work takes up to 1.8 times as long from one few-second window to the
next, and CPU time tracks wall time, so the slowdown is in the core, not in
scheduling.  No run length averages that out: unscaled run-level figures
spread by up to 0.37 of their median over ten runs.  So the benchmark times
a fixed probe of interpreter and small-numpy work, independent of the
package, between operations, and scales each operation's wall time by
``REFERENCE_S / probe time around it``.  On 5-second windows this cut the
coefficient of variation of the per-DMU solve time from 0.13 to 0.02.
Scaled figures read as the wall time at the reference speed; the raw ones
are printed next to them.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3   # typical probe time on the machine of the README's figures
EVERY_S = 0.2          # probe again once this long has passed
SMOOTH_S = 1.0         # a probe time is the median of the probes this close

_A = np.arange(64.0).reshape(8, 8) + 100.0 * np.eye(8)


def _kernel() -> float:
    x = 0.0
    for i in range(150):
        d = {j: j * 0.5 + i for j in range(24)}
        v = np.fromiter(d.values(), float)
        t = np.outer(v[:8], v)
        x += float(np.linalg.solve(_A, t[:, 0]).sum())
    return x


def probe() -> float:
    """Seconds one probe takes now: the median of three kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedLog:
    """Probe times along the run, and the scale factor of an interval."""

    def __init__(self):
        self.at = []
        self.took = []
        self.paused = 0.0   # seconds spent probing, to be taken out of timed spans

    def probe(self) -> None:
        start = time.perf_counter()
        took = probe()
        self.at.append(start + took / 2)
        self.took.append(took)
        self.paused += time.perf_counter() - start

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def hook(self, owner, attr) -> None:
        """Probe before a call of ``owner.attr`` when due, so long sweeps are probed too."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def probed(*args, **kwargs):
            self.maybe_probe()
            return original(*args, **kwargs)

        setattr(owner, attr, probed)

    def smoothed(self) -> np.ndarray:
        """Probe times as a running median, so one noisy probe cannot skew an operation."""
        at, took = np.array(self.at), np.array(self.took)
        return np.array([np.median(took[np.abs(at - t) <= SMOOTH_S / 2]) for t in at])

    def factor(self, t0: float, t1: float, smoothed: np.ndarray) -> float:
        """``REFERENCE_S`` over the mean smoothed probe time across ``[t0, t1]``."""
        inside = [t for t in self.at if t0 < t < t1]
        xs = np.array([t0, *inside, t1])
        ys = np.interp(xs, self.at, smoothed)
        width = xs[-1] - xs[0]
        if width <= 0.0:
            return REFERENCE_S / float(ys.mean())
        mean = float(((ys[1:] + ys[:-1]) / 2 * np.diff(xs)).sum()) / width
        return REFERENCE_S / mean

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.took)
