"""Host-speed correction for the benchmark's timings.

The benchmark shares its machine with other tenants, and on the machine it
was written on (a 2-vCPU VM, Python 3.11) the speed of the same
pure-Python loop varied by up to 2x over spans of seconds, with no steal
time reported: process CPU time slowed as much as wall time.  Medians over
a 30-second run then spread by 25-40% from one run to the next.

So every timed pass also samples how long a fixed pure-Python kernel
takes, from a ``SIGPROF`` timer every 20 ms of CPU time (about 1% of the
pass), and every time measured in that pass is scaled by
``KERNEL_REF_S / mean kernel time``: it is reported in seconds at the
speed the host has when it runs the kernel in ``KERNEL_REF_S``.  The mean
(trimmed of the slowest and fastest tenth) follows the slowdown averaged
over the pass, as the pass's own time does.  On that host, in a busy
hour, correcting cut the quartile spread of six enumerate-plans runs from
0.36 to 0.08 of the median.  The kernel is the benchmark's own code, so a change to the program cannot
speed it up.  Raw times are printed and kept in the trace as well.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the kernel's time on a quiet run of the host the benchmark was
# written on; it only sets the scale of the reported times.
KERNEL_REF_S = 100e-6
SAMPLE_EVERY_S = 0.02

_CLAUSES = tuple(tuple((i * 7 + j * 13) % 61 + 1 for j in range(3)) for i in range(144))


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def kernel() -> int:
    """Fixed interpreter work: list and dict traffic, tuples, attributes."""
    assign = [0] * 64
    seen: dict = {}
    cell = _Cell(0)
    for clause in _CLAUSES:
        for lit in clause:
            if assign[lit] == 0:
                assign[lit] = 1
                cell.value += lit
            key = (lit & 15, clause[0])
            seen[key] = seen.get(key, 0) + 1
    return cell.value + len(seen)


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """``KERNEL_REF_S`` over the mean of the middle 80% of kernel times."""
    s = sorted(samples)
    cut = len(s) // 10
    return KERNEL_REF_S / statistics.fmean(s[cut:len(s) - cut])


def burst_factor(n: int = 40) -> float:
    """Correction factor from ``n`` kernel runs back to back."""
    return factor([timed_kernel() for _ in range(n)])


class Sampler:
    """Samples the kernel while it runs; ``stop`` returns the factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_prof(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def start(self) -> None:
        self.samples = [timed_kernel()]
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(timed_kernel())
        return factor(self.samples)
