"""Host time at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more within minutes (other tenants contend for the same
cores, caches and memory), so raw seconds measured a few minutes apart
do not compare.  :class:`ScaledClock` measures host time the usual way
but keeps re-measuring the host's current speed with :class:`Yardstick`,
a fixed pure-Python event loop, and reports every interval at the speed
the yardstick defines: an interval of ``t`` seconds measured while one
yardstick pass took ``y`` seconds reads ``t * REFERENCE_S / y``.  The
passes themselves are left out of every reading.

The yardstick is code of the benchmark, not of the program under test,
so a change to the program moves the scaled times exactly as it moves
the raw ones; only the host's drift is divided out.  It is shaped like
the simulator's hot loop (a heap of timed handler calls on objects
scattered over a few MB), so it slows down when the simulator does.

:func:`pace` makes ``sim.run(until=<int>)`` stop about every
:data:`PERIOD_S` host seconds so the clock can re-measure.  Splitting a
run into shorter ``run(until=...)`` calls does not change it: the
pieces fall elsewhere in every repetition, and every repetition's
fingerprint must still match the others' and the unpaced traced run's.
"""

from __future__ import annotations

import gc
import random
from heapq import heappop, heappush
from time import perf_counter, process_time
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["PERIOD_S", "REFERENCE_S", "ScaledClock", "Yardstick", "pace",
           "yardstick"]

#: one yardstick pass at the reference speed: about a typical pass on
#: the 2-vCPU Xeon guest the baseline was recorded on
REFERENCE_S = 0.010
#: host seconds between speed measurements
PERIOD_S = 0.1


class _Station:
    """One yardstick node: counts, queues and forwards integer frames."""

    __slots__ = ("counters", "queue", "peer", "busy_until")

    def __init__(self) -> None:
        self.counters = {"tx": 0, "rx": 0}
        self.queue: List[int] = []
        self.peer: Optional[_Station] = None
        self.busy_until = 0

    def send(self, now: int, frame: int, post: Callable) -> None:
        self.counters["tx"] += 1
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + 3
        post(start + 5 + (frame & 7), self.peer.receive, frame + 1)

    def receive(self, now: int, frame: int, post: Callable) -> None:
        self.counters["rx"] += 1
        queue = self.queue
        queue.append(frame)
        if len(queue) > 4:
            queue.pop(0)
        if frame & 1:
            post(now + 1, self.send, frame)
        else:
            post(now + 2, self.peer.send, frame)


class Yardstick:
    """A fixed amount of simulator-shaped work, timed.

    Stations scattered over a few MB pass frames to random peers through
    a ``(time, seq, handler, frame)`` heap, touching a counter dict and
    a short queue per event, as the simulator's link/port/MAC handlers
    do.
    """

    STATIONS = 20_000
    STEPS = 6_000

    def __init__(self) -> None:
        rng = random.Random(1)
        stations = [_Station() for _ in range(self.STATIONS)]
        for station in stations:
            station.peer = stations[rng.randrange(self.STATIONS)]
        self._stations = stations

    def run(self) -> Tuple[float, float]:
        """One pass; returns its (wall, cpu) seconds.

        The collector is off during the pass: a collection there would
        sweep the program's objects and be charged to the yardstick.
        """
        stations = self._stations
        n = len(stations)
        heap: List[Tuple] = []
        seq = [0]

        def post(t: int, handler: Callable, frame: int) -> None:
            seq[0] += 1
            heappush(heap, (t, seq[0], handler, frame))

        gc.disable()
        try:
            w0, c0 = perf_counter(), process_time()
            for i in range(64):
                post(i, stations[i * 37 % n].send, i)
            for _ in range(self.STEPS):
                t, _, handler, frame = heappop(heap)
                handler(t, frame, post)
            return perf_counter() - w0, process_time() - c0
        finally:
            gc.enable()


_YARDSTICK: Optional[Yardstick] = None


def yardstick() -> Yardstick:
    """The process's yardstick, built on first use."""
    global _YARDSTICK
    if _YARDSTICK is None:
        _YARDSTICK = Yardstick()
    return _YARDSTICK


class ScaledClock:
    """Wall and CPU seconds since construction, at the reference speed.

    ``raw()`` gives the same intervals unscaled (yardstick passes still
    left out).  :meth:`tick` re-measures the speed once :data:`PERIOD_S`
    has passed since the last measurement; call it between pieces of
    work, never inside one.
    """

    def __init__(self, stick: Any = None, period: float = PERIOD_S) -> None:
        self._stick = stick if stick is not None else yardstick()
        self.period = period
        self._scaled = [0.0, 0.0]
        self._raw = [0.0, 0.0]
        self.passes = 0
        self._measure()

    def restart(self) -> None:
        """Count from zero again, keeping the last speed measurement."""
        self._scaled = [0.0, 0.0]
        self._raw = [0.0, 0.0]
        self._t0 = (perf_counter(), process_time())

    def _measure(self) -> None:
        wall, cpu = self._stick.run()
        self.passes += 1
        self._k = (REFERENCE_S / wall, REFERENCE_S / max(cpu, 1e-9))
        self._t0 = (perf_counter(), process_time())

    def _since(self) -> Tuple[float, float]:
        return perf_counter() - self._t0[0], process_time() - self._t0[1]

    def read(self) -> Tuple[float, float]:
        """Scaled (wall, cpu) seconds so far."""
        dw, dc = self._since()
        return (self._scaled[0] + dw * self._k[0],
                self._scaled[1] + dc * self._k[1])

    def raw(self) -> Tuple[float, float]:
        """Unscaled (wall, cpu) seconds so far."""
        dw, dc = self._since()
        return self._raw[0] + dw, self._raw[1] + dc

    def tick(self) -> None:
        dw, dc = self._since()
        if dw < self.period:
            return
        self._scaled[0] += dw * self._k[0]
        self._scaled[1] += dc * self._k[1]
        self._raw[0] += dw
        self._raw[1] += dc
        self._measure()


def pace(sim, clock: ScaledClock, first_step_ns: int) -> None:
    """Split every ``sim.run(until=<int>)`` into pieces of about
    ``clock.period`` host seconds, ticking ``clock`` between them.

    Installed on the instance, so only this simulator is affected.  The
    piece length in simulated ns adapts to the measured host rate.
    """
    run = sim.run
    step = [max(1, first_step_ns)]

    def paced_run(until=None):
        if type(until) is not int:
            return run(until)
        while True:
            clock.tick()
            start = sim.now
            stop = min(until, start + step[0])
            t0 = perf_counter()
            run(stop)
            took = perf_counter() - t0
            if stop > start:
                grow = min(4.0, clock.period / max(took, 1e-4))
                step[0] = max(1, int((stop - start) * grow))
            if stop == until:
                return None

    sim.run = paced_run
