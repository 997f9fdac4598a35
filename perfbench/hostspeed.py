"""Host-speed probe: divides the host's changing CPU speed out of timings.

The shared 2-vCPU host the benchmark was developed on changes speed by up
to 1.7x several times a second, with no steal time the guest can see, so
the same request can take 0.3 s or 0.5 s.  A wall-clock time then mixes the
program's cost with the host's state.  The probe samples that state while
the program runs: a timer signal interrupts the process every
``interval_s`` seconds and runs one fixed unit of work.  A timed window is
then reported as

    (window - probe time inside it) * REFERENCE_S / mean probe time inside it

that is, the window's own time as it would read on a host on which one
probe takes ``REFERENCE_S``.  The unit of work is part of the benchmark,
not of the program, so a change to the program moves the window and not
the probe.

The unit is a few Jacobi rotations of one 3x3 complex Hermitian matrix,
written as a stream of numpy calls on arrays of a few elements: the
instruction mix of the program's pure-numpy eigensolver and of most of its
other inner loops, which spend their time in numpy's per-call overhead.
The slow host state stretches such code more than it stretches plain
interpreter arithmetic, so a probe of the latter under-corrects.

This assumes the program runs on one core in the main thread, as it does
with BLAS pinned to one thread: work the program moved to other threads
would slow the probe and so be partly divided out.
"""
import signal
import time

import numpy as np

# One probe unit on the development host (2 vCPUs, Python 3.11, numpy 2.4)
# in its fast state.  It only scales the reported times.
REFERENCE_S = 0.0006

_HERMITIAN = np.array([[[2.0, 0.5 + 0.3j, 0.1],
                        [0.5 - 0.3j, 1.0, 0.2j],
                        [0.1, -0.2j, 0.5]]])
_ROTATIONS = ((0, 1), (0, 2), (1, 2))


def unit():
    """The fixed unit of work one probe times."""
    total = 0.0
    for _ in range(6):
        a = _HERMITIAN.copy()
        for p, q in _ROTATIONS:
            apq = a[:, p, q].copy()
            absb = np.abs(apq)
            active = absb > 1e-300
            tau = np.divide(a[:, q, q].real - a[:, p, p].real, 2.0 * absb,
                            out=np.zeros(1), where=active)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * np.divide(apq, absb, out=np.ones(1, dtype=complex),
                                  where=active)
            colp, colq = a[:, :, p].copy(), a[:, :, q].copy()
            a[:, :, p] = colp * c[:, None] - colq * np.conj(s)[:, None]
            a[:, :, q] = colp * s[:, None] + colq * c[:, None]
        total += float(np.abs(a).sum())
    return total


class Probe:
    """Times one ``unit()`` every ``interval_s`` seconds while active."""

    def __init__(self, interval_s, on_sample=None):
        self.interval_s = interval_s
        self.on_sample = on_sample  # called with each probe's duration
        self.samples = []          # (start, duration) of each probe
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        unit()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        if self.on_sample is not None:
            self.on_sample(duration)

    def __enter__(self):
        unit()                     # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start, end, first=0):
        """Host-normalized seconds of the window [start, end].

        ``first`` is an index into ``samples`` no later than the window's
        first probe, which saves scanning the whole list.  A window that
        no probe fell into borrows the speed of the latest probe.
        """
        inside = [d for s, d in self.samples[first:] if start <= s < end]
        if inside:
            speed = sum(inside) / len(inside)
        elif self.samples:
            speed = self.samples[-1][1]
        else:
            speed = REFERENCE_S
        return (end - start - sum(inside)) * REFERENCE_S / speed
