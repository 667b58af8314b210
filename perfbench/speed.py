"""Machine-speed probe, for timings that survive a shared, drifting CPU.

On a shared host the CPU a pass gets can run at half speed for seconds or
minutes at a time, so raw seconds from two runs of the same code can differ
by 40%. While a pass runs, a SIGALRM timer interrupts it every
PROBE_INTERVAL_S and times a fixed pure-Python kernel (big-integer
multiply-adds into a dict, like the package's hot loops), which costs the
pass 3-6%. An operation's normalized time is its raw time, with the probes
inside it taken out, scaled by how much slower the kernel ran around it
than REFERENCE_S:

    normalized = (raw - probes inside) * REFERENCE_S * mean(1 / probe)

over the probes from PROBE_INTERVAL_S before the operation to
PROBE_INTERVAL_S after it. The mean of the inverse is the time-weighted
speed, since probes are evenly spaced in wall time. The result is in
seconds on a machine where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

_perf = time.perf_counter

PROBE_INTERVAL_S = 0.2
# The kernel's time on this benchmark's reference machine (2 vCPU Xeon
# at 2.0 GHz, Python 3.11, when the host is quiet); a constant scale only.
REFERENCE_S = 0.006
_ITERATIONS = 30_000
_BIG = 3**200


def kernel() -> None:
    table: dict = {}
    get = table.get
    for i in range(_ITERATIONS):
        key = i & 4095
        table[key] = get(key, 0) + _BIG * i


def probe() -> tuple[float, float]:
    """(start, duration) of one kernel run."""
    t0 = _perf()
    kernel()
    return t0, _perf() - t0


class SpeedProbe:
    """Times the kernel every PROBE_INTERVAL_S while active (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, normalized) seconds of [start, end], probes inside taken out of both."""
        raw = end - start - sum(d for t, d in self.samples if start <= t and t + d <= end)
        near = [d for t, d in self.samples if start - PROBE_INTERVAL_S <= t <= end + PROBE_INTERVAL_S]
        return raw, raw * scale(near or [d for _, d in self.samples])


def scale(durations: list[float]) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return REFERENCE_S * sum(1 / d for d in durations) / len(durations)
