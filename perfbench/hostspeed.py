"""The benchmark's clock, and its correction for the host's drifting speed.

Every time the benchmark reports is read from :data:`CLOCK`, the calling
thread's CPU time.  The storage stack runs on that one thread and does no
real I/O (the drive is simulated in memory), so a call's CPU time is its
wall time minus the time the host's scheduler gave to other work.  On a
shared 2-vCPU host that difference is not small: in one update-cold run
1.8% of the B+-tree's calls were descheduled for more than 50 µs, some for
12 ms, which put its 99th percentile on the scheduler rather than on the
program.

A shared host's speed drifts: on the 2-vCPU VM the reference figures come
from, a fixed zlib and Python loop takes ±20% more or less time from one
few-second window to the next.  Such drift moves every time of a run by as
much, CPU time included, so ten runs of the same code spread wider than the
bound a regression is held to, whatever the run's length.

:class:`HostSpeed` times a fixed reference task right before each piece of
measured work: before every engine's chunk of operations, every load
batch, every input generation.  A piece's corrected time is its CPU time
times ``NOMINAL_S / m``, where ``m`` is the median reference time of the
samples around it: the time the piece would have taken on a host running
the reference task in :data:`NOMINAL_S`.  The reference task is zlib level
1 over 4 KB pages of benchmark-like records plus dict, sort and bytes
work; it runs none of the program's code, so a change to the program moves
its corrected times in full while a slow spell of the host is divided out.
"""

from __future__ import annotations

import random
import time
import zlib
from statistics import median

#: Seconds of CPU time used by the calling thread.
CLOCK = time.thread_time

#: The reference task's median time on the VM of the reference figures
#: (2 vCPUs, Intel Xeon 2.0 GHz, Python 3.11): corrected times read as
#: times measured there.
NOMINAL_S = 400e-6

#: Samples on each side of a piece's own that set its scale: a window of
#: nine chunks, three turns of the interleaved phase.
WINDOW = 4

_RNG = random.Random(13)
# Three 4 KB pages of 32 records: 8-byte key, 60 random bytes, 60 zeros.
_PAGES = [b"".join(i.to_bytes(8, "big") + _RNG.randbytes(60) + bytes(60)
                   for i in range(32)) for _ in range(3)]


def reference_task() -> int:
    """Fixed work shaped like the program's: compression and dict churn."""
    total = 0
    for page in _PAGES:
        total += len(zlib.compress(page, 1))
        index = {page[i:i + 8]: page[i + 8:i + 128] for i in range(0, len(page), 128)}
        total += len(sorted(index, reverse=True))
        total += sum(len(value) for value in index.values())
    return total


class HostSpeed:
    """Reference-task samples taken through a run, and the scales they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per reference task

    def sample(self) -> int:
        """Time the reference task once; returns the sample's index."""
        start = CLOCK()
        reference_task()
        self.samples.append(CLOCK() - start)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor that brings a piece measured at sample ``index`` to the
        nominal host speed.  Call once the samples after it are taken."""
        near = self.samples[max(0, index - WINDOW):index + WINDOW + 1]
        return NOMINAL_S / median(near)

    def measure(self, pieces: list, fn, *args):
        """Sample, then run ``fn(*args)`` and append ``(seconds, sample
        index)`` to ``pieces``; returns what ``fn`` returns."""
        index = self.sample()
        start = CLOCK()
        result = fn(*args)
        pieces.append((CLOCK() - start, index))
        return result

    def corrected(self, pieces: list) -> float:
        """Corrected seconds of the pieces :meth:`measure` recorded."""
        return sum(seconds * self.scale(index) for seconds, index in pieces)

    def median_s(self) -> float:
        return median(self.samples)
