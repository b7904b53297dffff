"""Host-speed calibration.

The reference host shares its cores with other tenants.  It runs the
same Python code fast for tens of milliseconds at a time and up to
1.8x slower in between, and the share of fast time drifts over
minutes, so a run's mean op time moves with the host by a tenth or more
from one run to the next.  A :class:`Calibration` runs a fixed
pure-Python slice — a small register machine, the same kind of work as
the program's device and checker interpreters, but none of the
program's code — right after every op or dispatch it is handed, so its
samples see the host's fast and slow states in the same proportion as
the ops do.  :meth:`Calibration.factor` scales a run's host times to
the reference host's speed: a run on a slowed host has its times
scaled down by as much as the slice slowed, and a change to the
program moves its times and not the slice.  Setup is one long call
into training, so :meth:`Calibration.ticking` samples the slice on a
wall-clock timer instead, from inside that call.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: the slice's mean host time on the reference host (2-vCPU shared
#: host, Python 3.11): the speed every scaled host time is quoted at
REFERENCE_SLICE_S = 0.00050

_TABLE = tuple((i * 7) & 63 for i in range(64))


class _Regs:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 1


def kernel(steps: int = 2000) -> int:
    """The calibration slice: dispatch on an opcode, attribute and list
    access, small-integer arithmetic.  Deterministic; returns a
    checksum so no step can be skipped."""
    regs, mem, table = _Regs(), [0] * 64, _TABLE
    acc = 0
    for i in range(steps):
        op = i % 5
        if op == 0:
            regs.a = (regs.a + table[i & 63]) & 0xffff
        elif op == 1:
            mem[i & 63] = regs.a ^ regs.b
        elif op == 2:
            regs.b = mem[(i * 3) & 63] + 1
        elif op == 3:
            acc += len(str(regs.a))
        else:
            acc ^= hash((regs.a, regs.b)) & 0xff
    return acc


class Calibration:
    """Samples of the calibration slice, taken between timed ops."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run one slice; returns the host time it took."""
        clock = time.perf_counter
        t0 = clock()
        kernel()
        took = clock() - t0
        self.samples.append(took)
        return took

    @property
    def slice_s(self) -> float:
        """Mean slice time: it moves in proportion to the share of the
        run the host spent slow, as a run's op times do."""
        return statistics.fmean(self.samples) if self.samples else 0.0

    def factor(self) -> float:
        """Multiply a host time by this to quote it at the reference
        host's speed (divide a rate by it); 1 without samples."""
        if not self.samples:
            return 1.0
        return REFERENCE_SLICE_S / self.slice_s

    @contextmanager
    def ticking(self, interval_s: float = 0.05) -> Iterator[None]:
        """Sample one slice every *interval_s* of wall time while the
        block runs, from a ``SIGALRM`` handler (so in the main thread,
        between the block's own bytecodes).  The block's wall time then
        includes ``sum(self.samples)`` of slices."""
        def tick(signum, frame):
            self.sample()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
