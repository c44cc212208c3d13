#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, judged runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring_storm --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's untraced run (same seed) until
``--seconds`` have passed and reports the end-to-end metrics: host
metrics as the median over the repetitions, each timed at the reference
host speed of :mod:`hostclock`, simulated metrics from the run (they
repeat bit for bit, which is checked).  ``--trace 1`` makes
untraced repetitions for the part of the window a traced run leaves,
then one traced run with the same seed, and reports the per-layer
ledger, including the tracing overhead against the untraced median.

Every run is judged by its scenario invariants, exactly-once delivery
and a fingerprint over its trace digest, simulated metrics and
per-stream ledgers that must not differ between runs of one seed.  On
any failure the command prints ``"correct": false`` with no metrics and
exits 1.  The last line of standard output is always the JSON result;
earlier lines explain it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: never fewer untraced repetitions than this, however short ``--seconds``
MIN_REPS = 3
#: a traced run's wall in untraced repetitions (tracing overhead is
#: 2.5-3.5x), reserved at the end of a ``--trace 1`` window
TRACE_RESERVE = 3.5
#: sampled spans of the traced run land here (relative to the root)
SPAN_DIR = Path(".perfbench_out")


def _parse(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks the workload for the self-check tests; never benchmarked.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class Judge:
    """Collects every repetition's verdict and fingerprint."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.fingerprint = None
        self.sim = None

    def check(self, run, label: str) -> None:
        from measure import fingerprint, simulated_metrics

        result = run.result
        for inv in result.failures():
            self.problems.append(f"{label}: invariant {inv.name}: {inv.detail}")
        try:
            sim = simulated_metrics(run)
        except RuntimeError as exc:  # e.g. no ring certified after a fault
            self.problems.append(f"{label}: {exc}")
            return
        self.attempted += sim["expected"]
        self.failed += sim["failed"]
        if sim["failed"]:
            self.problems.append(
                f"{label}: {sim['failed']} of {sim['expected']} deliveries "
                "not exactly once"
            )
        fp = fingerprint(run, sim)
        if self.fingerprint is None:
            self.fingerprint, self.sim = fp, sim
            print(f"# {label}: trace_digest={result.trace_digest} "
                  f"fingerprint={fp}")
        elif fp != self.fingerprint:
            self.problems.append(
                f"{label}: fingerprint {fp} differs from {self.fingerprint} "
                "under the same seed"
            )

    @property
    def ok(self) -> bool:
        return not self.problems


def _untraced(spec, seconds: float, judge: Judge, min_reps: int = MIN_REPS,
              reserve: float = 0.0) -> List[Any]:
    """Repeat the untraced run until ``seconds`` have passed, leaving
    ``reserve`` times the median repetition for work that follows."""
    from measure import run_once

    runs: List[Any] = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if len(runs) < min_reps:
            return True
        left = deadline - time.perf_counter()
        return left > reserve * statistics.median(took)

    took: List[float] = []
    while more():
        t0 = time.perf_counter()
        run = run_once(spec)
        took.append(time.perf_counter() - t0)
        judge.check(run, f"rep {len(runs)}")
        # Keep the timings only: a finished cluster is large.
        runs.append((run.wall_s, run.cpu_s, run.setup_s,
                     run.traffic_hops / run.traffic_s, run.raw_wall_s))
        del run
    return runs


def end_to_end(reps: List[Any], sim: Dict[str, Any]) -> Dict[str, Any]:
    from measure import peak_rss_mb

    med = statistics.median
    return {
        "wall_s": _metric(med(r[0] for r in reps), "s"),
        "cpu_s": _metric(med(r[1] for r in reps), "s"),
        "setup_s": _metric(med(r[2] for r in reps), "s"),
        "hops_per_s": _metric(med(r[3] for r in reps), "hops/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "msg_p50_us": _metric(sim["msg_p50_us"], "us"),
        "msg_tail_us": _metric(sim["msg_tail_us"], "us"),
        "goodput_mbps": _metric(sim["goodput_mbps"], "Mb/s"),
        "ringup_us": _metric(sim["ringup_us"], "us"),
        "reroster_tours": _metric(sim["reroster_tours"], "tours"),
        "exactly_once_ratio": _metric(sim["exactly_once_ratio"], "fraction"),
    }


def per_layer(tracer, run, untraced_raw_wall: float) -> Dict[str, Any]:
    from layers import LAYERS
    from measure import mac_hops, nodes_of, segments_of
    from repro.analysis import ring_drop_count

    cluster = run.cluster
    wall = tracer.wall_s
    out: Dict[str, Any] = {}
    self_times, calls = tracer.self_times(), tracer.calls()
    events = cluster.sim.events_processed
    calls["sim"] = events
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(self_times[layer], "s")
        out[f"{layer}.share"] = _metric(self_times[layer] / wall, "fraction")
        out[f"{layer}.calls"] = _metric(calls[layer], "count")
    hops = mac_hops(cluster)
    link_tx = sum(
        fiber.a.tx_frames + fiber.b.tx_frames
        for seg in segments_of(cluster)
        for fiber in seg.topology.fibers.values()
    )
    out["sim.events"] = _metric(events, "count")
    out["sim.events_per_hop"] = _metric(events / hops, "events/hop")
    out["phys.link.tx_per_hop"] = _metric(link_tx / hops, "tx/hop")
    for kind, count in tracer.hops.items():
        out[f"ring.mac.hops.{kind}"] = _metric(count, "count")
    out["ring.mac.drops"] = _metric(ring_drop_count(cluster), "count")
    agents = [node.agent.counters for node in nodes_of(cluster)]
    out["rostering.cells"] = _metric(
        sum(c["cells_flooded"] + c["cells_relayed"] for c in agents), "count")
    out["rostering.rounds"] = _metric(
        sum(c["rounds_started"] for c in agents), "count")
    out["transport.retransmits"] = _metric(
        sum(node.messenger.counters["fragments_retransmitted"]
            for node in nodes_of(cluster) if node.messenger is not None),
        "count")
    routers = (cluster.router_counter_totals()
               if hasattr(cluster, "router_counter_totals") else {})
    routing = {
        "ads_tx": routers.get("ads_tx", 0),
        "ad_bytes_tx": routers.get("ad_bytes_tx", 0),
        "captured": routers.get("messages_captured", 0),
        "parked": sum(routers.get(k, 0) for k in
                      ("egress_parked", "shadow_parked", "unroutable_parked")),
        "shadow_expired": routers.get("shadow_expired", 0),
        "routes_expired": routers.get("routes_expired", 0),
        "role_changes": routers.get("role_changes", 0),
    }
    for key, value in routing.items():
        unit = "bytes" if key == "ad_bytes_tx" else "count"
        out[f"routing.{key}"] = _metric(value, unit)
    out["trace.overhead"] = _metric(wall / untraced_raw_wall, "x")
    return out


def _traced(spec, judge: Judge, untraced_raw_wall: float, span_path: Path):
    from layers import LayerTracer
    from measure import mac_hops, run_once

    tracer = LayerTracer()
    with tracer:
        # Unpaced: the tracer's self times must not include yardstick
        # passes, and the overhead is a ratio of raw walls.
        run = run_once(spec, window=tracer, paced=False)
    judge.check(run, "traced")
    hops = mac_hops(run.cluster)
    if sum(tracer.hops.values()) != hops:
        judge.problems.append(
            f"hop split {tracer.hops} does not sum to the {hops} MAC hops")
    metrics = per_layer(tracer, run, untraced_raw_wall)
    tracer.write_spans(span_path)
    print(f"# traced run: {tracer.wall_s:.3f} s, overhead "
          f"{metrics['trace.overhead']['value']:.2f}x; "
          f"{len(tracer.spans)} sampled spans -> {span_path}")
    return metrics


def main(argv: List[str]) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    spec = workloads.build(args.workload, args.seed, args.scale)
    judge = Judge()
    if args.trace:
        # The traced run costs about TRACE_RESERVE untraced repetitions;
        # keep the whole command inside its time window.
        reps = _untraced(spec, args.seconds, judge, min_reps=2,
                         reserve=TRACE_RESERVE)
    else:
        reps = _untraced(spec, args.seconds, judge)
    print(f"# {args.workload} seed={args.seed}: {len(reps)} untraced "
          f"repetitions, walls " + " ".join(f"{r[0]:.3f}" for r in reps)
          + " s at reference speed, raw " + " ".join(f"{r[4]:.3f}" for r in reps))
    metrics: Dict[str, Any] = {}
    if judge.ok:
        sim = judge.sim
        print(f"# msg_tail_us is p{sim['msg_tail_pct']:.3f} of "
              f"{sim['msg_samples']} pooled samples; reroster_tours per "
              "disruption " + " ".join(f"{t:.3f}" for t in sim["reroster_each"]))
        if args.trace:
            span_path = SPAN_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics = _traced(spec, judge, statistics.median(r[4] for r in reps),
                              span_path)
        else:
            metrics = end_to_end(reps, sim)
    for problem in judge.problems:
        print(f"# FAIL {problem}")
    ok = judge.ok
    print(json.dumps({
        "correct": ok,
        "attempted": max(1, judge.attempted),
        "failed": judge.failed if ok else max(1, judge.failed),
        "metrics": metrics if ok else {},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
