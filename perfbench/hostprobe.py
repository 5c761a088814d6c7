"""Host-speed probe: fixed reference kernels timed while a unit runs.

On a shared virtual machine the speed of one and the same code drifts, in
steps of up to 1.7x that last from seconds to minutes, and process CPU time
drifts with wall time.  A unit's wall time therefore says as much about the
host as about the program.  ``Probe`` samples the host's speed *during* the
unit: from a SIGALRM handler every ``PERIOD`` seconds it runs the next of a
few fixed reference kernels (numpy and plain Python, nothing of multinoise)
and times it.  The unit's own time is its wall time minus the time spent in
the handler; dividing it by the reference time measured meanwhile gives a
figure from which most of the host's drift cancels, while a change to the
program moves it as much as it moves the wall time.

Two kernel sets exist, because memory-bound and interpreter-bound code slow
down by different amounts when the host is busy:

* ``mixed`` spans the package's small-array work: a small Monte-Carlo step
  (many small numpy calls), interpreter-bound dict and string work, a medium
  product of moments and a pass over 1.6 MB.
* ``stream`` is one pass over 8 MB, for a workload whose time goes into
  passes over arrays of tens of MB.

The reference time of a unit is the sum over the set's kernels of each
kernel's median sample.  Arrays above a few kB are allocated once, when the
set is built, so the probe's speed does not depend on the state the package
leaves the allocator in, and the probe adds a fixed amount to the peak memory.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05


def mixed_kernels():
    rng = np.random.default_rng(20210630)
    A = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 0.8, 0.1, 0.0], [0.0, 0.0, 0.7, 0.1], [0.1, 0.0, 0.0, 0.6]])
    B = np.eye(4)[:, :2]
    med = rng.standard_normal((5000, 4))
    med_x, med_y = np.empty_like(med), np.empty_like(med)
    med_prod = np.empty((5000, 4, 4))
    big = rng.standard_normal((50000, 4))
    big_out = np.empty_like(big)

    def small_step():
        x = np.zeros((200, 4))
        for _ in range(10):
            u = rng.standard_normal(2)
            w = rng.standard_normal((200, 4)) * 0.1
            x = x @ A.T + u @ B.T + w
            (x[:, :, None] * x[:, None, :]).mean(axis=0)

    def interpreter():
        d = {("k", j): [j, str(j), j * 0.5] for j in range(600)}
        sum(v[2] for v in d.values())
        ",".join(f"{v[2]:.6g}" for v in list(d.values())[:200])

    def moments():
        np.copyto(med_x, med)
        for _ in range(3):
            np.matmul(med_x, A.T, out=med_y)
            np.multiply(med_x, 0.1, out=med_x)
            np.add(med_x, med_y, out=med_x)
            np.multiply(med_x[:, :, None], med_x[:, None, :], out=med_prod)
            med_prod.mean(axis=0)

    def bulk():
        np.multiply(big, 1.0001, out=big_out)
        np.add(big_out, 0.5, out=big_out)
        big_out.sum(axis=0)

    return (small_step, interpreter, moments, bulk)


def stream_kernels():
    src = np.random.default_rng(20210630).standard_normal(1_000_000)
    out = np.empty_like(src)

    def stream():
        np.multiply(src, 1.0001, out=out)
        out.sum()

    return (stream,)


KERNEL_SETS = {"mixed": mixed_kernels, "stream": stream_kernels}


class Probe:
    """``start()`` before a unit, ``stop()`` after it; then ``handler_s`` is
    the time the probe took out of the unit and ``reference_s()`` the summed
    median kernel times."""

    def __init__(self, kernel_set):
        self.kernels = KERNEL_SETS[kernel_set]()
        self.samples = [[] for _ in self.kernels]
        self.handler_s = 0.0
        self._next = 0
        self._busy = False
        for kernel in self.kernels:  # first calls warm caches
            kernel()

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        k = self._next
        self._next = (k + 1) % len(self.kernels)
        try:
            self.kernels[k]()
            self.samples[k].append(time.perf_counter() - t0)
        except Exception:  # never raise into the package's code; reference_s() re-runs a missing kernel
            pass
        finally:
            self.handler_s += time.perf_counter() - t0
            self._busy = False

    def start(self):
        self.samples = [[] for _ in self.kernels]
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the alarm lands in
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self):
        """Summed median kernel time; a kernel the unit was too short to sample
        is timed once now."""
        total = 0.0
        for kernel, samples in zip(self.kernels, self.samples):
            if not samples:
                t0 = time.perf_counter()
                kernel()
                samples.append(time.perf_counter() - t0)
            total += statistics.median(samples)
        return total
