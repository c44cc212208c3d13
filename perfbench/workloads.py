"""The benchmark's three workloads, built as plain ``ScenarioSpec`` values.

Each workload function takes the benchmark seed and derives the workload's
structural inputs from it: fibre length, the storm's probe, fault
targets, destination pools.  The simulator's master seed, which draws
the Poisson arrival times and pool picks, is pinned to :data:`SIM_SEED`:
with a few dozen messages per run, letting every benchmark seed redraw
the arrivals would swing the latency percentiles by a fifth from seed to
seed, wider than any useful regression bound.  The same seed always
gives the same spec; a different seed gives a different but equally
sized run, so the seeds of a benchmark sweep measure the same amount of
work.

``scale`` shrinks a workload for the self-check smoke tests; the
benchmark itself always runs ``scale=1``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.scenarios.spec import (
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["WORKLOADS", "build", "ring_storm", "ring_failover", "mesh_routed"]

#: master seed of every workload's simulator (the scenario library's)
SIM_SEED = 7

#: exactly-once checks every workload is judged by (on top of the
#: benchmark's own fingerprint comparison)
_INVARIANTS = (
    "no_drops", "all_delivered", "roster_converged", "no_duplicate_deliveries",
)


def _rng(seed: int, workload: str) -> random.Random:
    # String seeds hash deterministically (sha512), independent of
    # PYTHONHASHSEED.
    return random.Random(f"perfbench.{workload}.{seed}")


def _fiber_m(rng: random.Random) -> float:
    """Fibre run per node: 49-51 m, so each seed shifts every hop's
    propagation delay and with it the whole interleaving of the run."""
    return round(49.0 + 2.0 * rng.random(), 3)


def ring_storm(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """64-node ring, all-to-all raw-cell broadcast storm, closed loop.

    Every node inserts its broadcasts as fast as its insertion window
    allows; nothing fails and no router exists, so the ring data plane
    (MAC insertion and transit, flow control, link and switch
    forwarding) carries the run.

    A storm has no random draws of its own, and the fibre length moves
    propagation only in whole nanoseconds, so the seed also places a
    probe: a few raw unicast cells between two seed-picked nodes,
    starting at a seed-picked nanosecond of the storm.  Each probe cell
    takes an insertion slot from its sender, which reorders the rest of
    the storm; its deliveries are a few of the ~129k latency samples.
    """
    rng = _rng(seed, "ring_storm")
    n_nodes = max(4, int(64 * scale))
    probe_src, probe_dst = rng.sample(range(n_nodes), 2)
    return ScenarioSpec(
        name="ring_storm",
        description="All-to-all raw-cell broadcast storm on a 64-node "
                    "ring; closed loop, no faults, no routers.",
        topology=TopologySpec(n_nodes=n_nodes, n_switches=2,
                              fiber_m=_fiber_m(rng)),
        seed=SIM_SEED,
        workloads=(
            WorkloadSpec("broadcast", count=max(2, int(32 * scale)),
                         channel=3),
            WorkloadSpec("message", count=4, src=probe_src, dst=probe_dst,
                         channel=4, name="storm_probe",
                         params={"interval_ns": 50_000,
                                 "start_tours": 4.0 * rng.random()}),
        ),
        # The storm drains between the horizon and the runner's first
        # 50-tour grace check, so every seed simulates the same 90 tours.
        horizon_tours=40,
        grace_tours=3000,
        invariants=_INVARIANTS,
    )


def ring_failover(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """128-node ring, two reliable unicast streams, a crash and a cut.

    An open loop in simulated time: a Poisson stream and a constant-rate
    stream keep offering while a node power-fails and, later, a fibre
    between another node and the ring's switch is cut.  The seed picks
    the two fault targets (never a stream endpoint) and the fibre length.
    The cut lands after the crash's re-roster has certified, so each
    fault's re-roster is timed on its own.
    """
    rng = _rng(seed, "ring_failover")
    n_nodes = max(8, int(128 * scale))
    endpoints = (0, n_nodes // 2, n_nodes // 8, (5 * n_nodes) // 8)
    candidates = [n for n in range(n_nodes) if n not in endpoints]
    crash, cut = rng.sample(candidates, 2)
    count = max(4, int(12 * scale))
    return ScenarioSpec(
        name="ring_failover",
        description="Reliable Poisson and constant-rate streams on a "
                    "128-node ring through a node crash and a fibre cut.",
        topology=TopologySpec(n_nodes=n_nodes, n_switches=2,
                              fiber_m=_fiber_m(rng)),
        seed=SIM_SEED,
        workloads=(
            WorkloadSpec("poisson", count=count, src=endpoints[0],
                         dst=endpoints[1], channel=12, reliable=True,
                         name="failover_poisson",
                         params={"mean_interval_ns": 250_000}),
            WorkloadSpec("message", count=count, src=endpoints[2],
                         dst=endpoints[3], channel=13, reliable=True,
                         name="failover_constant",
                         params={"interval_ns": 270_000}),
        ),
        faults=(
            FaultSpec("crash_node", at_tours=3, node=crash),
            FaultSpec("cut_link", at_tours=24, node=cut, switch=0),
        ),
        expect_dead=(crash,),
        # The last delivery lands 44-49 tours in (seeds 1-15); a horizon
        # past it keeps the simulated span, and so the work, equal across
        # seeds instead of jumping by a 50-tour grace slice.
        horizon_tours=55,
        grace_tours=2000,
        invariants=_INVARIANTS,
    )


def mesh_routed(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """3 areas x 5 segments of 16-node rings behind redundant hubs.

    The ``mesh_1k`` shape at a quarter of its ring size.  Two reliable
    Poisson streams, one from each of the first two areas, spray pooled
    destinations in the other areas, and one node of the third area
    sends cluster-scoped broadcasts; nothing fails.  The seed picks the
    destination pools and the fibre length; the sources stay put, since
    the broadcast's deliveries are most of the latency samples and its
    source sets their distances.
    """
    rng = _rng(seed, "mesh_routed")
    nodes = max(4, int(16 * scale))
    spa = 5 if scale >= 1 else 2
    areas = [range(a * spa, (a + 1) * spa) for a in range(3)]

    def pool(src_area: int):
        # Four distinct destinations, two in each of the other areas.
        others = [a for a in range(3) if a != src_area]
        return [
            dst
            for area in others
            for dst in rng.sample([(s, n) for s in areas[area]
                                   for n in range(nodes)], 2)
        ]

    count = max(3, int(40 * scale))
    return ScenarioSpec(
        name="mesh_routed",
        description="Hierarchical 3-area mesh of 16-node rings with "
                    "redundant hub spokes; pooled cross-area reliable "
                    "streams and a cluster-scoped broadcast.",
        topology=TopologySpec.area_mesh(3, spa, nodes, redundant_spokes=True,
                                        fiber_m=_fiber_m(rng),
                                        advertise_period_tours=8),
        seed=SIM_SEED,
        workloads=(
            WorkloadSpec("poisson", count=count, src=(0, 1), channel=12,
                         reliable=True, name="mesh_pool_a",
                         params={"mean_interval_ns": 40_000,
                                 "start_tours": 40, "dst_pool": pool(0)}),
            WorkloadSpec("poisson", count=count, src=(spa + 1, 2), channel=13,
                         reliable=True, name="mesh_pool_b",
                         params={"mean_interval_ns": 40_000,
                                 "start_tours": 40, "dst_pool": pool(1)}),
            WorkloadSpec("cluster_broadcast", count=2,
                         src=(2 * spa + spa // 2, 0), channel=3,
                         name="mesh_bcast",
                         params={"interval_ns": 200_000,
                                 "start_tours": 40}),
        ),
        # Deliveries end 116-139 tours in (seeds 1-20): as for
        # ring_failover, the horizon fixes the simulated span.
        horizon_tours=150,
        grace_tours=400,
        invariants=_INVARIANTS,
    )


WORKLOADS: Dict[str, Callable[..., ScenarioSpec]] = {
    "ring_storm": ring_storm,
    "ring_failover": ring_failover,
    "mesh_routed": mesh_routed,
}


def build(name: str, seed: int, scale: float = 1.0) -> ScenarioSpec:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    return factory(seed, scale)
