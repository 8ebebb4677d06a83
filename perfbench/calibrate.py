"""Machine-speed sampling, to scale wall times to a reference speed.

On a shared machine the same deterministic work can take up to 1.7 times
longer from one second to the next, and slow spells last from seconds to
minutes, so medians alone do not make run-to-run timings comparable.  While
a step runs, `SpeedSampler` interrupts it every INTERVAL_S seconds (SIGALRM)
and times one pass of a fixed reference kernel from the signal handler.  The
step's scaled time is its wall time, minus the time spent in the handler,
times REF_S over the mean kernel time: the time the step would take on a
machine where the kernel takes REF_S.  The kernel does not touch chargeflow,
so no change to the program can move it.  It mixes what the workloads spend
their time on: small numpy calls from a Python loop, large elementwise array
expressions and plain Python.
"""

import signal
import time

import numpy as np

REF_S = 0.003  # nominal kernel time; fixes the scale of scaled seconds
INTERVAL_S = 0.2

_POINTS = np.random.default_rng(0).random((4096, 3))
_CENTERS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def _kernel():
    acc = 0.0
    for k in range(120):  # per-call overhead of small numpy operations
        d = np.linalg.norm(_POINTS[k : k + 4, None, :] - _CENTERS[None], axis=-1)
        acc += float(np.sum(np.exp(-0.1 * d) / (d + 1.0)))
    for _ in range(3):  # large elementwise expressions
        d = np.linalg.norm(_POINTS[:, None, :] - _CENTERS[None], axis=-1)
        acc += float(np.sum(np.exp(-0.1 * d) / (d + 1.0)))
    text = []
    for k in range(800):  # plain Python: formatting and containers
        text.append(format(acc / (k + 1), ".17g"))
    return acc, len("".join(text))


def reference_seconds():
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the kernel time before, during and after a timed region.

    Use as a context manager around the region; then `scaled(seconds)`
    converts the region's measured wall time.  Main thread only.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0  # wall time spent inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [reference_seconds() for _ in range(2)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(reference_seconds() for _ in range(2))
        return False

    def net(self, seconds):
        """Measured wall time without the handler's share."""
        return seconds - self.spent

    def scaled(self, seconds):
        """Net wall time at the reference speed."""
        return self.net(seconds) * REF_S * len(self.samples) / sum(self.samples)
