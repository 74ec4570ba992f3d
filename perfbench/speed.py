"""Speed sampling: how fast the shared machine ran while a call ran.

On a shared 2-vCPU VM the same call varies by 15-30 % from minute to
minute, because the host's other tenants slow the vCPU down. A separate
calibration run before or after a call misses that drift, and a
calibrator on the other vCPU does not see it at all. So the sampler runs a
fixed job *inside* the timed window: every ``SAMPLE_EVERY_S`` seconds of
wall time a SIGALRM handler runs ``job()`` and records how long it took.
The sampled time is subtracted from the call, and the call is reported as
``own_time * SAMPLE_REF_S / mean(sample times)``, that is, in seconds at the
speed at which one sample takes ``SAMPLE_REF_S``.

The job is the kind of work ncpq does (Fraction Gauss-Jordan elimination
and tuple-keyed dict updates), and it never touches ncpq, so no change to
ncpq can move it. The parent process never runs it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.08
SAMPLE_REF_S = 0.0025     # one job at the reference speed
BURST = 20                # back-to-back samples right after set-up

_MATRIX = [[(i * 7 + j * 3) % 5 - 2 + (3 if i == j else 0) for j in range(4)]
           for i in range(4)]


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def job() -> None:
    """A fixed piece of ncpq-like work, about 2.5 ms on a 2.1 GHz vCPU."""
    for _ in range(8):
        a = [[Fraction(x) for x in row] for row in _MATRIX]
        n = len(a)
        for c in range(n):
            p = next(r for r in range(c, n) if a[r][c] != 0)
            a[c], a[p] = a[p], a[c]
            a[c] = [x / a[c][c] for x in a[c]]
            for r in range(n):
                if r != c and a[r][c] != 0:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        counts: dict = {}
        for i in range(300):
            key = (i % 13, i % 7)
            counts[key] = counts.get(key, 0) + 1


class SpeedSampler:
    """Records (start, duration) of the jobs it runs on the timer, and the
    durations of the back-to-back burst that times the set-up.

    The two are kept apart because a burst runs with warm caches and reads
    faster than a sample taken between stretches of ncpq work; a call is
    only ever scaled by samples taken between stretches of ncpq work."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.burst_samples: list[float] = []
        self._busy = False

    def _job_time(self) -> float:
        t0 = mono()
        job()
        return mono() - t0

    def _on_timer(self, *_signal_args) -> None:
        if self._busy:  # a timer signal handled inside a sample
            return
        self._busy = True
        t0 = mono()
        self.samples.append((t0, self._job_time()))
        self._busy = False

    def burst(self) -> float:
        """Mean time of BURST back-to-back jobs."""
        self.burst_samples = [self._job_time() for _ in range(BURST)]
        return sum(self.burst_samples) / BURST

    def start(self) -> None:
        """Sample at once and then every SAMPLE_EVERY_S seconds until stop()."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, 1e-4, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        """Mean timer sample, or the burst mean when the timer never ran."""
        if not self.samples:
            return sum(self.burst_samples) / len(self.burst_samples)
        return sum(d for _, d in self.samples) / len(self.samples)

    def window(self, start: float, end: float) -> tuple[float, float, int]:
        """(own seconds, mean sample seconds, samples used) for [start, end].

        Own seconds leave out the samples taken inside the window. The mean
        uses those samples, or every timer sample of the process when none
        fell inside."""
        inside = [d for t, d in self.samples if start <= t < end]
        used = inside or [d for _, d in self.samples]
        mean = sum(used) / len(used) if used else self.mean()
        return end - start - sum(inside), mean, len(used)
