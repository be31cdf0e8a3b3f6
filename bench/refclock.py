"""Reference-speed timing: wall time scaled by the machine's current speed.

On a shared host the same pure-Python call can take half again as long a
minute later, because other tenants load the machine.  That drift is larger
than any bound worth setting, and it moves every workload alike.  So a fixed
pure-Python loop, the *probe*, is timed every PROBE_EVERY_S from a SIGALRM
handler on the one thread, also in the middle of long calls, and each call's
time is scaled by ``REF_S`` over the mean probe time from just before it to
just after it.  The result is in *reference seconds*: seconds on a machine on
which the probe takes exactly ``REF_S``.  On a quiet moment of the 2-vCPU
Xeon host these numbers were first taken on, the probe takes about ``REF_S``,
so reference and wall seconds agree there.

The probe is benchmark code, so no change to padicdyn can speed it up.  Its
own time is subtracted from the call it interrupted.  It runs with the
garbage collector off, so that collections caused by padicdyn's allocations
stay charged to padicdyn, and it keeps the least of three repeats, so that
one preemption does not skew it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_S = 1e-3
PROBE_STEPS = 180
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds the reference loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            x = Fraction(1, 3)
            for i in range(PROBE_STEPS):
                x = (x * 7 + Fraction(1, i + 2)) % 11
            best = min(best, perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Probes on a timer while active (``with clock:``).

    ``now()`` is wall time minus the time spent probing.  ``span(mark)``
    gives a span's wall seconds and the range of probes around it;
    ``reference(span)`` turns that into reference seconds once the clock has
    stopped, which guarantees a probe after every span.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._stolen = 0.0
        self._previous_handler = None

    def __enter__(self) -> "RefClock":
        self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._tick()

    def _on_alarm(self, signum, frame) -> None:
        self._tick()

    def _tick(self) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self._stolen += perf_counter() - start

    def now(self) -> float:
        """Wall seconds not spent probing, read consistently even if a probe
        fires meanwhile."""
        while True:
            stolen = self._stolen
            t = perf_counter()
            if stolen == self._stolen:
                return t - stolen

    def mark(self) -> tuple[float, int]:
        return self.now(), len(self.probes)

    def span(self, mark: tuple[float, int]) -> tuple[float, int, int]:
        """(wall seconds since mark, index of the probe before it, index of
        the probe after it)."""
        start, taken = mark
        return self.now() - start, taken - 1, len(self.probes)

    def reference(self, span: tuple[float, int, int]) -> float:
        wall, before, after = span
        window = self.probes[before : after + 1]
        return wall * REF_S / (sum(window) / len(window))
