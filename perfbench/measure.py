"""One untraced benchmark run: time it from outside, read it afterwards.

:func:`run_once` drives a spec through the public
:class:`~repro.scenarios.runner.ScenarioRunner`, timing the run with the
runner's phase hook (``built`` ... ``armed`` is set-up, ``armed`` ...
``settled`` is the traffic window) on a
:class:`~hostclock.ScaledClock`, so host times read at the yardstick's
reference speed rather than at whatever speed the shared host had.
Everything else is read from the finished cluster: component counters,
workload ledgers and tracer records.  No code of the program is
patched.  The run's simulator instance gets a ``run`` that makes each
long ``run(until=...)`` of shorter ones (:func:`hostclock.pace`), which
changes nothing simulated.  The one other thing swapped in
is each armed stream's latency record, for one that also notes when the
delivered traffic was sent and when it arrived; it keeps the same
samples and touches no simulated state, so an untraced run is exactly
the run a user of the scenario API gets.

:func:`simulated_metrics` and :func:`fingerprint` turn a finished run
into the simulated end-to-end numbers and a digest over them plus every
per-stream ledger; two runs of one seed must agree on both.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from hostclock import ScaledClock, pace
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.sim.monitor import LatencyStat
from repro.workloads import AllToAllBroadcast

__all__ = [
    "Run",
    "delivery_ledger",
    "fingerprint",
    "mac_hops",
    "nodes_of",
    "peak_rss_mb",
    "reroster_tours",
    "run_once",
    "segments_of",
    "simulated_metrics",
    "tail_percentile",
]


@dataclass
class Run:
    """A finished run plus the host-side timings taken around it.

    Host times are scaled to the reference speed (see
    :mod:`hostclock`); ``raw_wall_s`` is the same wall time unscaled.
    """

    result: ScenarioResult
    runner: ScenarioRunner
    wall_s: float
    cpu_s: float
    setup_s: float
    traffic_s: float
    raw_wall_s: float
    #: MAC frame hops before the first offered message (ring bring-up)
    hops_at_armed: int
    #: simulated [first send, last delivery] of the delivered messages
    traffic_span_ns: List[int]

    @property
    def cluster(self):
        return self.runner.cluster

    @property
    def traffic_hops(self) -> int:
        return mac_hops(self.cluster) - self.hops_at_armed


def segments_of(cluster) -> List[Any]:
    """The single-ring clusters making up ``cluster`` (itself, unless
    routed)."""
    return [cluster] if hasattr(cluster, "topology") else list(cluster.segments)


def nodes_of(cluster) -> Iterable[Any]:
    """Every ring member, router gateways included."""
    for seg in segments_of(cluster):
        yield from seg.nodes.values()


def mac_hops(cluster) -> int:
    """MAC frame hops: every frame a MAC put on a fibre, inserted or in
    transit."""
    total = 0
    for node in nodes_of(cluster):
        c = node.mac.counters
        total += c["tx_inserted"] + c["tx_transit"]
    return total


def run_once(spec: ScenarioSpec, window: Any = None, paced: bool = True) -> Run:
    """Build, run and judge ``spec``; return it with host timings.

    ``window`` (e.g. a :class:`~layers.LayerTracer`) has its ``start``
    and ``stop`` called right around the timed run.  ``paced`` splits
    the simulation into pieces of about a tenth of a host second so the
    clock can re-measure the host's speed between them; without it the
    speed is measured once, before the run.
    """
    marks: Dict[str, float] = {}
    armed: Dict[str, int] = {}
    span = [_NEVER, -1]
    runner: Optional[ScenarioRunner] = None

    def hook(label: str) -> None:
        marks[label] = clock.read()[0]
        if label == "built" and paced:
            cluster = runner.cluster
            pace(cluster.sim, clock, cluster.tour_estimate_ns)
        if label == "armed":
            armed["hops"] = mac_hops(runner.cluster)
            _time_deliveries(runner, span)
            # The traffic window opens after the counter read and swap.
            marks["traffic"] = clock.read()[0]

    # Garbage from an earlier repetition must not be collected inside
    # this one's timing window.
    gc.collect()
    clock = ScaledClock()
    if window is not None:
        window.start()
    clock.restart()
    runner = ScenarioRunner(spec, phase_hook=hook)
    result = runner.run()
    wall, cpu = clock.read()
    raw_wall = clock.raw()[0]
    if window is not None:
        window.stop()
    return Run(
        result=result,
        runner=runner,
        wall_s=wall,
        cpu_s=cpu,
        setup_s=marks["armed"],
        traffic_s=marks["settled"] - marks["traffic"],
        raw_wall_s=raw_wall,
        hops_at_armed=armed["hops"],
        traffic_span_ns=span,
    )


#: an instant later than any simulated time
_NEVER = 1 << 62


class _TimedLatency(LatencyStat):
    """A stream's latency record that also widens the run's traffic
    span: a delivery at ``now`` with latency ``value`` was sent at
    ``now - value``.  It keeps the stream's own sample list, so the
    stream's ledger is unchanged."""

    def __init__(self, samples: List[int], sim, span: List[int]) -> None:
        self.samples = samples
        self._sim = sim
        self._span = span

    def add(self, value: int) -> None:
        self.samples.append(value)
        now = self._sim.now
        span = self._span
        if now - value < span[0]:
            span[0] = now - value
        if now > span[1]:
            span[1] = now


def _time_deliveries(runner: ScenarioRunner, span: List[int]) -> None:
    """Swap every armed stream's latency record for a timed one; done
    before the first message is offered."""
    sim = runner.cluster.sim
    for workload in runner.workloads:
        for stats in _stream_stats(workload):
            stats.latency = _TimedLatency(stats.latency.samples, sim, span)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- simulated
def _stream_stats(workload) -> List[Any]:
    if isinstance(workload, AllToAllBroadcast):
        return [workload.stats[k] for k in sorted(workload.stats)]
    return [workload.stats]


def delivery_ledger(run: Run) -> Tuple[int, int, List[Tuple]]:
    """(expected, failed, per-stream ledger) over every workload.

    ``failed`` counts expected deliveries that did not happen exactly
    once: each missing and each duplicated delivery counts one.
    """
    runner = run.runner
    expected_total = failed = 0
    ledger: List[Tuple] = []
    for workload in runner.workloads:
        delivered, expected = runner._expected_deliveries(workload)
        expected_total += expected
        failed += min(expected, abs(delivered - expected))
        for stats in _stream_stats(workload):
            ledger.append((
                stats.name, stats.offered, stats.delivered,
                stats.bytes_delivered, tuple(stats.latency.samples),
            ))
    return expected_total, failed, ledger


def tail_percentile(samples: List[int]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile that still has ten
    samples beyond it: the 11th-largest sample.  Fewer than 11 samples
    fall back to the maximum."""
    data = sorted(samples)
    n = len(data)
    if n <= 10:
        return 100.0, float(data[-1])
    return 100.0 * (n - 10) / n, float(data[n - 11])


def _times(records, category: str) -> List[int]:
    return [r.time for r in records if r.category == category]


def _first(times: List[int], category: str, after: int = -1) -> int:
    at = next((t for t in times if t >= after), None)
    if at is None:
        raise RuntimeError(f"no {category} record at or after {after} ns")
    return at


def reroster_tours(records, tour_ns: int) -> List[float]:
    """Rostering time of each disruption, in ring tours.

    A disruption is a ``fault`` record, or the cold start on a run with
    none.  Each is timed from its first ``roster_trigger`` record to the
    next ``ring_certified`` one, so the time taken to notice a fault (a
    crashed node's heartbeat-silence timeout) is left out: what remains
    is the paper's "about two ring tours" of rostering.
    """
    triggers = _times(records, "roster_trigger")
    certified = _times(records, "ring_certified")
    tours = []
    for at in _times(records, "fault") or [-1]:
        trigger = _first(triggers, "roster_trigger", at)
        tours.append(
            (_first(certified, "ring_certified", trigger) - trigger) / tour_ns)
    return tours


def simulated_metrics(run: Run) -> Dict[str, Any]:
    """Simulated end-to-end metrics (plus the facts needed to read them).

    Every value here is a function of the spec and seed alone, so it is
    bit-identical across repetitions and across speed-only changes.
    """
    cluster = run.cluster
    result = run.result
    expected, failed, ledger = delivery_ledger(run)
    samples = [s for row in ledger for s in row[4]]
    payload_bytes = sum(row[3] for row in ledger)
    tail_pct, tail_ns = tail_percentile(samples)
    records = cluster.tracer.records
    tours = reroster_tours(records, result.tour_ns)
    first_send, last_delivery = run.traffic_span_ns
    return {
        "msg_p50_us": statistics.median(samples) / 1000.0,
        "msg_tail_us": tail_ns / 1000.0,
        "msg_tail_pct": tail_pct,
        "msg_samples": len(samples),
        "goodput_mbps": 8.0 * payload_bytes / (last_delivery - first_send) * 1000.0,
        "ringup_us": _first(_times(records, "ring_certified"),
                            "ring_certified") / 1000.0,
        "reroster_tours": max(tours),
        "reroster_each": tours,
        "exactly_once_ratio": (expected - failed) / expected,
        "expected": expected,
        "failed": failed,
        "events": cluster.sim.events_processed,
        "mac_hops": mac_hops(cluster),
    }


def fingerprint(run: Run, sim_metrics: Dict[str, Any]) -> str:
    """Digest of the trace digest, every simulated metric and every
    per-stream ledger (latency samples included)."""
    _, _, ledger = delivery_ledger(run)
    h = hashlib.blake2b(digest_size=16)
    h.update(run.result.trace_digest.encode())
    h.update(repr(sorted(sim_metrics.items())).encode())
    h.update(repr(ledger).encode())
    h.update(repr(sorted(run.result.counters.items())).encode())
    return h.hexdigest()
