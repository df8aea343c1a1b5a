"""The machine's speed, measured next to every operation.

The shared hosts this benchmark runs on change speed by 1.5-2.6x from one
stretch of minutes to the next: the same pure-Python loop takes 16 ms in one
and 30 ms in another.  Times measured in different stretches cannot be
compared, and a regression of 25% hides in them.  So the run also times two
fixed pieces of work, the *probes*, a few times before every operation, and
divides each operation's time by how much slower than the reference they ran
over the whole run.  Within a slow stretch the speed also jumps from second
to second; a probe median over a few seconds around each operation followed
those jumps less well than it added noise of its own, so the median is
taken over the run.

A slow stretch does not slow all work alike.  In one, pure-Python code ran
2.5x slower while dense LAPACK verdicts ran 1.55x slower.  Hence two probes:

* ``python``: dict, string and arithmetic steps in the interpreter;
* ``lapack``: ``numpy.linalg.eigh`` of a fixed 128 x 128 Hermitian matrix.

Each operation states the share of its time that is like the first
(``Op.python_share``); the rest is taken as like the second.  Neither probe
uses the package, so no change to the program moves them.  A scaled time is
in *reference seconds*: the time the operation would take where the probes
take ``REFERENCE_S`` (see README.md).
"""

import time
from statistics import median

# Median probe times on the recorded machine (2-core shared host, Python
# 3.11, numpy 2.4 with one OpenBLAS thread) in a fast stretch.  The lapack
# one was not measured there: it is set so that, in a slow stretch, the
# probe's slowdown matched that of the dense n = 8-10 verdicts.
REFERENCE_S = {"python": 0.00365, "lapack": 0.00345}
PYTHON_ITEMS = 16000
LAPACK_DIM = 128
# Probes of each kind taken in each gap between operations.
PROBES_PER_GAP = 3


def python_work():
    """Fixed pure-Python work: arithmetic, calls, strings, dict and list traffic."""
    table = {}
    total = 0
    for i in range(PYTHON_ITEMS):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + sorted(table.items())[-1][1]


class Pace:
    """Probe times of one run, per kind."""

    def __init__(self):
        self.kinds = {"python": python_work}
        self.samples = {kind: [] for kind in REFERENCE_S}

    def enable_lapack(self):
        """Add the LAPACK probe; call after numpy is imported (and the
        import timed), so the probe does not import it first."""
        import numpy as np

        gen = np.random.default_rng(128)
        a = gen.standard_normal((LAPACK_DIM, LAPACK_DIM)) * (1 + 1j)
        a = a + a.conj().T
        self.kinds["lapack"] = lambda: np.linalg.eigh(a)

    def sample(self, count=PROBES_PER_GAP):
        for _ in range(count):
            for kind, work in self.kinds.items():
                start = time.perf_counter()
                work()
                self.samples[kind].append(time.perf_counter() - start)

    def slowdown(self, kind):
        """The run's median probe time of one kind over its reference: 2.0
        means that kind of work ran at half the reference speed."""
        return median(self.samples[kind]) / REFERENCE_S[kind]

    def factor(self, python_share=1.0):
        """The run's slowdown of work with this share of Python."""
        if python_share >= 1.0:
            return self.slowdown("python")
        return (python_share * self.slowdown("python")
                + (1.0 - python_share) * self.slowdown("lapack"))

    def scale(self, seconds, python_share):
        """``seconds`` of work with this share of Python, in reference seconds."""
        return seconds / self.factor(python_share)

    def overall(self):
        """The run's median slowdown of each kind."""
        return {kind: round(self.slowdown(kind), 3)
                for kind, seconds in self.samples.items() if seconds}
