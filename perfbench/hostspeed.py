"""Host-speed probe: puts the run's times on a fixed scale of CPU speed.

The benchmark runs on a shared virtual machine whose CPU speed drifts by
up to 2x over stretches of seconds to minutes, as neighbours load the
host.  A 30 s run cannot average that away, so raw times from two runs of
the same code differ by more than any useful bound.

``HostProbe`` samples the host's speed all through a run: every
``INTERVAL_S`` it times ``kernel``, a fixed computation of the same kind
as a mixture round (a Python loop over small numpy arrays) that does not
touch mixtrack.  While the program runs a call the benchmark cannot cut
(a sweep, a ``run_experiment``), a ``SIGALRM`` handler takes the sample
between two bytecodes of the main thread; the online phase takes its
samples itself, between steps, so no timed step is interrupted.  Every
interval the benchmark times has the probe's own time taken out.

An interval's time is then scaled by ``REF_S / d``: the time it would
have taken on a host where the kernel takes ``REF_S``.  For a job call or
the set-up, ``d`` is the kernel's mean time over the samples taken during
it (``factor``); for one step, the median of the five samples nearest to
it (``local_factors``).
A change in the program moves these times in full, since the kernel does
not change; a change in the host's speed moves the program's times and
the kernel's alike, and cancels.  The raw times are logged beside them.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REF_S = 0.00375  # the kernel's median time on the 2-vCPU reference VM (README)
KERNEL_ROUNDS = 128
KERNEL_EXPERTS = 16


def kernel(xs: list) -> float:
    """Exponential weights over KT estimators with one forced restart a round."""
    n = KERNEL_EXPERTS
    log_w = np.full(n, -math.log(n))
    acc = np.zeros(n)
    cnt = np.zeros(n)
    total = 0.0
    for t, x in enumerate(xs):
        p = (acc + 0.5) / (cnt + 1.0)
        mix = np.exp(log_w - log_w.max())
        pred = float(mix @ p) / float(mix.sum())
        total -= math.log(pred if x else 1.0 - pred)
        log_w -= -np.log(p if x else 1.0 - p)
        j = t % n
        m = float(log_w.max())
        log_w[j] = m + math.log(float(np.exp(log_w - m).sum()) / n)
        acc += x
        cnt += 1.0
        acc[j] = cnt[j] = 0.0
    return total


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.xs = (rng.random(KERNEL_ROUNDS) < 0.3).tolist()
        self.at = []  # start of every sample, perf_counter seconds
        self.took = []  # the kernel's time in every sample
        self.spent = 0.0  # probe time so far, kernel and handler overhead
        self.defer = False  # set while the online phase takes its own samples
        self.pending = False
        self._running = False

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a stray alarm must not end the process

    def _on_alarm(self, signum, frame) -> None:
        if self.defer:
            self.pending = True
        else:
            self.sample()

    def sample(self) -> None:
        """Time the kernel once and arm the next sample."""
        t0 = perf_counter()
        kernel(self.xs)
        t1 = perf_counter()
        self.pending = False
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0

    def factor(self, a: float, b: float) -> float:
        """REF_S over the kernel's mean time in samples taken in [a, b].

        With fewer than ten samples in the interval, the ten nearest to its
        middle stand in.
        """
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        inside = (at >= a) & (at <= b)
        if np.count_nonzero(inside) < 10:
            inside = np.argsort(np.abs(at - 0.5 * (a + b)))[:10]
        return REF_S / float(took[inside].mean())

    def local_factors(self, times: np.ndarray, k: int = 5) -> np.ndarray:
        """REF_S over the median kernel time of the ``k`` samples nearest each time."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        k = min(k, at.size)
        pos = np.clip(np.searchsorted(at, times) - k // 2, 0, at.size - k)
        window = took[pos[:, None] + np.arange(k)[None, :]]
        return REF_S / np.median(window, axis=1)
