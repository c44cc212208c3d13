"""Self-checks of the benchmark, on shrunken copies of its workloads.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from hostclock import REFERENCE_S, ScaledClock, pace  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from measure import (  # noqa: E402
    fingerprint,
    mac_hops,
    run_once,
    simulated_metrics,
    tail_percentile,
)
from repro.perf import PerfProbe  # noqa: E402
from repro.scenarios.runner import ScenarioRunner  # noqa: E402

#: per-workload shrink factor: a few-node ring, a couple of segments
SMALL = {"ring_storm": 0.125, "ring_failover": 0.0625, "mesh_routed": 0.25}


def small(name: str, seed: int = 1):
    return workloads.build(name, seed, scale=SMALL[name])


def traced(spec):
    tracer = LayerTracer(sample_every=64)
    with tracer:
        run = run_once(spec, window=tracer, paced=False)
    return tracer, run


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_invariants(name):
    run = run_once(small(name))
    assert run.result.ok, run.result.failures()
    sim = simulated_metrics(run)
    assert sim["failed"] == 0
    assert sim["exactly_once_ratio"] == 1.0
    assert 0 < run.setup_s < run.wall_s
    assert run.traffic_hops > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_is_an_input_and_a_held_out_seed_diverges(name):
    first, second = run_once(small(name, 1)), run_once(small(name, 2))
    assert first.result.ok and second.result.ok
    sim1, sim2 = simulated_metrics(first), simulated_metrics(second)
    assert sim1 != sim2
    assert fingerprint(first, sim1) != fingerprint(second, sim2)
    again = run_once(small(name, 1))
    assert fingerprint(again, simulated_metrics(again)) == fingerprint(first, sim1)


@pytest.mark.parametrize("name,scale", [
    ("ring_storm", 0.125), ("ring_failover", 0.125), ("mesh_routed", 0.25),
])
def test_seeds_one_to_ten_give_distinct_runs(name, scale):
    seen = set()
    for seed in range(1, 11):
        run = run_once(workloads.build(name, seed, scale))
        assert run.result.ok, (seed, run.result.failures())
        seen.add(repr(sorted(simulated_metrics(run).items())))
    assert len(seen) == 10


def test_goodput_follows_delivery_not_the_run_horizon():
    spec = small("ring_failover")
    base = simulated_metrics(run_once(spec))["goodput_mbps"]
    # Simulating longer past the last delivery changes nothing ...
    longer = dataclasses.replace(spec, horizon_tours=spec.horizon_tours + 60)
    assert simulated_metrics(run_once(longer))["goodput_mbps"] == base
    # ... while a throttled stream delivers the same bytes more slowly.
    poisson, constant = spec.workloads
    slow = dataclasses.replace(constant, params={"interval_ns": 1_080_000})
    throttled = dataclasses.replace(spec, workloads=(poisson, slow))
    assert simulated_metrics(run_once(throttled))["goodput_mbps"] < 0.8 * base


def test_reroster_times_rostering_not_fault_detection():
    sim = simulated_metrics(run_once(small("ring_failover")))
    crash, cut = sim["reroster_each"]
    # The paper's "about two ring tours", for the crash too: its
    # heartbeat-silence timeout is not counted.
    assert 1.5 < crash < 4 and 1.5 < cut < 4
    assert sim["reroster_tours"] == max(crash, cut)


@pytest.mark.parametrize("name", ["ring_storm", "mesh_routed"])
def test_traced_run_is_digest_identical_and_accounts_every_second(name):
    spec = small(name)
    plain = run_once(spec)
    tracer, run = traced(spec)
    assert run.result.trace_digest == plain.result.trace_digest
    assert fingerprint(run, simulated_metrics(run)) == fingerprint(
        plain, simulated_metrics(plain))
    self_times = tracer.self_times()
    assert set(self_times) == set(LAYERS)
    layer_sum = sum(t for layer, t in self_times.items() if layer != "sim")
    # Outermost spans telescope into the per-layer self times ...
    assert layer_sum == pytest.approx(tracer.spanned_s, rel=1e-9)
    # ... and with the kernel loop they cover the traced wall exactly.
    assert layer_sum + self_times["sim"] == pytest.approx(tracer.wall_s, rel=1e-9)
    assert tracer.wall_s == pytest.approx(run.raw_wall_s, rel=0.01)
    assert all(t >= 0 for t in self_times.values())
    # The hop split partitions the MAC hop counters.
    assert sum(tracer.hops.values()) == mac_hops(run.cluster)
    assert tracer.hops["heartbeat"] > 0 and tracer.hops["data"] > 0
    assert tracer.spans, "no sampled span was kept"


class _TickCounter:
    """Stands in for the clock: asks for pieces of a tenth of a
    millisecond."""

    period = 0.0001
    ticks = 0

    def tick(self):
        self.ticks += 1


def test_pacing_splits_the_run_without_changing_it():
    spec = small("ring_failover")
    clock = _TickCounter()

    def hook(label):
        if label == "built":
            pace(runner.cluster.sim, clock, 1_000)

    runner = ScenarioRunner(spec, phase_hook=hook)
    paced = runner.run()
    plain = ScenarioRunner(spec).run()
    assert clock.ticks > 50
    assert paced.trace_digest == plain.trace_digest
    assert paced.counters == plain.counters


class _HalfSpeedStick:
    """A yardstick on a host running at half the reference speed."""

    def run(self):
        return 2 * REFERENCE_S, 2 * REFERENCE_S


def test_scaled_clock_divides_out_host_speed():
    clock = ScaledClock(_HalfSpeedStick(), period=0.0)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.05:
        sum(range(20_000))  # work between speed measurements
        clock.tick()
    (wall, cpu), (raw_wall, raw_cpu) = clock.read(), clock.raw()
    assert clock.passes > 10 and raw_wall > 0.025
    # (read and raw are two instants a few microseconds apart)
    assert wall == pytest.approx(raw_wall / 2, rel=1e-3)
    assert cpu == pytest.approx(raw_cpu / 2, rel=1e-3)


def test_tracer_restores_every_class():
    from repro.node import AmpNode
    from repro.sim.events import Process

    before = (AmpNode._on_frame, Process._resume)
    with LayerTracer():
        assert AmpNode._on_frame is not before[0]
    assert (AmpNode._on_frame, Process._resume) == before


@pytest.mark.parametrize("name", ["ring_storm", "ring_failover"])
def test_ring_workloads_make_no_routing_calls(name):
    tracer, run = traced(small(name))
    assert tracer.calls()["routing"] == 0
    assert tracer.hops["routing_ad"] == 0


def test_sim_events_match_perf_probe():
    spec = small("ring_failover")
    probes = []

    def hook(label):
        if label == "built":
            probe = PerfProbe(runner.cluster.sim, per_kind=True)
            probe.start()
            probes.append(probe)

    runner = ScenarioRunner(spec, phase_hook=hook)
    runner.run()
    report = probes[0].stop()
    _, run = traced(spec)
    assert run.cluster.sim.events_processed == report.events
    assert sum(report.by_layer.values()) == report.events


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100))
    pct, value = tail_percentile(samples)
    assert value == 89 and pct == pytest.approx(90.0)
    assert sum(1 for s in samples if s > value) == 10
    assert tail_percentile([5, 1, 3]) == (100.0, 5.0)


def _cli(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    proc = _cli("--workload", "ring_storm", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--scale", "0.125")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared[key]}
    for m in declared[key]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in metrics.values())


def test_cli_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ring_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
