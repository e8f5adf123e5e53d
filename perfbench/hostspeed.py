"""Host-speed probe: scales a measured time to a fixed host speed.

The benchmark's host runs the same code up to about 45 % slower for
seconds to minutes at a time, as other tenants come and go. A fixed
pure-Python kernel slows down with the program. While a time is taken,
SIGALRM runs that kernel every `INTERVAL_S` seconds in the measured thread,
so it samples the host's speed during the very call being timed.
`Reading.scaled` removes the kernel's own time from the measured time and
scales the rest by `NOMINAL_S` over the kernel's mean time, giving seconds
at the speed at which the kernel takes `NOMINAL_S` (about the host's
undisturbed speed on a 2-vCPU x86-64 VM with Python 3.11).

The handler runs between bytecodes of the main thread, never inside a C
call, and touches nothing of the program. It needs no third-party module,
so it can time imports too.

    python perfbench/probed_cli.py READING_OUT COMMAND ...

runs the command line under the probe in a child process; see there.
"""

from __future__ import annotations

import json
import signal
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.1
LOOP = 15000
NOMINAL_S = 0.001


def kernel() -> float:
    """Seconds taken by the fixed pure-Python loop."""
    t = perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return perf_counter() - t


@dataclass(frozen=True)
class Reading:
    spent_s: float  # kernel time inside the measured interval
    mean_s: float  # mean kernel time, the host's speed during the interval
    ticks: int  # kernel runs inside the interval

    def scaled(self, wall_s: float) -> float:
        return (wall_s - self.spent_s) * NOMINAL_S / self.mean_s

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self)), encoding="utf-8")

    @classmethod
    def load(cls, path) -> Reading:
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


class Probe:
    def __init__(self):
        self._times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self._times.append(kernel())

    def start(self) -> None:
        self._times = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Reading:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = list(self._times)
        # An interval shorter than INTERVAL_S gets one run just after it.
        times = inside or [kernel()]
        return Reading(spent_s=sum(inside), mean_s=sum(times) / len(times), ticks=len(inside))
