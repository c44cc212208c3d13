"""Per-layer wall-time attribution for the traced benchmark run.

:class:`LayerTracer` wraps the entry points of each ``repro`` layer at
class level and times every call that crosses into a layer.  A span's
self time is its duration minus the spans it caused; whatever no span
covers is the kernel loop itself and is reported as the ``sim`` layer.

Wrapping happens on the classes, before the cluster is built, for two
reasons: handlers such as ``AmpNode._on_frame`` and
``AmpDK._on_heartbeat`` are bound into port and dispatch tables at
construction, and class attributes are what every later lookup (e.g.
``SerialLink._arrive`` posted per frame) resolves to.  Generator bodies
(AmpDK loops, the messenger's fragment streams, workload senders) run
when the kernel resumes them, so ``Process._resume`` is wrapped too and
charged to the layer whose code the generator runs.

A call into the layer already running takes a fast path with no span,
which keeps self times exact (a layer calling itself moves no time
between layers) and the overhead down.  Per-layer totals are kept in
memory; full spans are kept only for calls carrying a sampled frame id
or transfer id, and :meth:`LayerTracer.write_spans` writes them out at
the end.  Attaching the tracer never changes the simulated timeline.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kernel.ampdk import AmpDK
from repro.micropacket import MicroPacket, MicroPacketType
from repro.node import AmpNode
from repro.phys.frame import Frame
from repro.phys.link import Fiber, SerialLink
from repro.phys.port import Port
from repro.phys.switch import Switch
from repro.ring.flow_control import InsertionController
from repro.ring.mac import RingMAC, _PacerHub
from repro.rostering.agent import RosterAgent
from repro.rostering.roster import Roster
from repro.rostering.wire import CommitAssembler
from repro.routing.router import RouterPort, SegmentRouter
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.sim.events import Process
from repro.transport.messaging import Messenger, _Reassembly
from repro.workloads.generators import (
    AllToAllBroadcast,
    ClusterBroadcastStream,
    FileStream,
    MessageStream,
)
from repro.workloads.stochastic import (
    BurstStream,
    InhomogeneousPoissonStream,
    PoissonStream,
)

__all__ = ["LAYERS", "LayerTracer", "hop_kind"]

#: Layer name -> classes whose own methods are that layer's entry
#: points (every function in the class body except dunders other than
#: ``__init__``).
_CLASS_LAYERS: Dict[str, Tuple[type, ...]] = {
    "phys.link": (SerialLink, Fiber),
    "phys.port": (Port,),
    "phys.switch": (Switch,),
    "ring.mac": (RingMAC, _PacerHub),
    "ring.flow_control": (InsertionController,),
    "node": (AmpNode,),
    "kernel.ampdk": (AmpDK,),
    "rostering": (RosterAgent, Roster, CommitAssembler),
    "transport": (Messenger, _Reassembly),
    "routing": (SegmentRouter, RouterPort),
    # The workload generators the scenario arms (senders and receive sinks).
    "scenarios": (MessageStream, FileStream, AllToAllBroadcast,
                  ClusterBroadcastStream, PoissonStream,
                  InhomogeneousPoissonStream, BurstStream),
}

#: Scenario-harness entry points outside the workload classes: cluster
#: construction, workload arming and the settle / judge checks.
_METHOD_LAYERS: Tuple[Tuple[type, str, str], ...] = (
    (ScenarioSpec, "build_cluster", "scenarios"),
    (ScenarioRunner, "_build_workload", "scenarios"),
    (ScenarioRunner, "_settled", "scenarios"),
    (ScenarioRunner, "_judge", "scenarios"),
)

#: Every reported layer; ``sim`` is the kernel loop (time no span covers).
LAYERS: Tuple[str, ...] = ("sim",) + tuple(_CLASS_LAYERS)

_DIAGNOSTIC = MicroPacketType.DIAGNOSTIC
_DMA = MicroPacketType.DMA

#: spans are kept for frame / transfer ids divisible by this
SAMPLE_EVERY = 4096


def hop_kind(packet: MicroPacket) -> str:
    """Which protocol a MAC hop serves, by (ptype, channel)."""
    ptype = packet.ptype
    if ptype == _DIAGNOSTIC:
        if packet.channel == 15:
            return "heartbeat"
        if packet.channel == 14:
            return "certify"
    elif ptype == _DMA and packet.channel == 11:
        return "routing_ad"
    return "data"


def _entry_points(cls: type):
    for name, value in list(vars(cls).items()):
        if not inspect.isfunction(value):
            continue
        if name.startswith("__") and name != "__init__":
            continue
        yield name, value


class _State:
    __slots__ = ("top", "child", "seq", "cur")

    def __init__(self) -> None:
        self.top = "sim"
        self.child = 0.0
        self.seq = 0
        self.cur = 0


class LayerTracer:
    """Class-level span tracer; use as a context manager around a run."""

    def __init__(self, sample_every: int = SAMPLE_EVERY):
        self.sample_every = sample_every
        self.agg: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
        self.hops: Dict[str, int] = {
            "heartbeat": 0, "certify": 0, "routing_ad": 0, "data": 0,
        }
        #: sampled spans: (seq, parent seq, layer, qualname, start, end, id)
        self.spans: List[Tuple] = []
        self._state = _State()
        self._saved: List[Tuple[type, str, Any]] = []
        self._gen_layer: Dict[Any, str] = {}
        self._t0 = 0.0
        self.wall_s = 0.0
        self.spanned_s = 0.0

    # ---------------------------------------------------------- install
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("LayerTracer is already installed")
        for layer, classes in _CLASS_LAYERS.items():
            for cls in classes:
                for name, fn in _entry_points(cls):
                    if cls is RingMAC and name == "_transmit":
                        fn = self._counting_transmit(fn)
                    self._patch(cls, name, self._wrap(fn, layer))
        for cls, name, layer in _METHOD_LAYERS:
            self._patch(cls, name, self._wrap(vars(cls)[name], layer))
        self._patch(Process, "_resume", self._wrap_resume(Process._resume))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._saved.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    # ----------------------------------------------------------- window
    def start(self) -> None:
        """Open the attribution window: call right before the run."""
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        #: summed duration of the outermost spans
        self.spanned_s = self._state.child
        # Time covered by no span is the kernel loop's own.
        self.agg["sim"][0] = self.wall_s - self.spanned_s

    # ---------------------------------------------------------- wrappers
    def _span_id(self, args) -> Optional[Tuple[str, int]]:
        every = self.sample_every
        for a in args:
            t = type(a)
            if t is Frame:
                if a.frame_id % every == 0:
                    return ("frame", a.frame_id)
                return None
            if t is MicroPacket:
                dma = a.dma
                if dma is not None and dma.transfer_id % every == 0:
                    return ("transfer", dma.transfer_id)
                return None
        return None

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        # One string object per layer, so the fast path can test identity.
        layer = sys.intern(layer)
        if inspect.isgeneratorfunction(fn):
            self._gen_layer[fn.__code__] = layer
        st = self._state
        slot = self.agg[layer]
        spans = self.spans
        span_id = self._span_id
        clock = time.perf_counter
        qualname = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if st.top is layer:
                return fn(*args, **kwargs)
            parent, outer_child, parent_seq = st.top, st.child, st.cur
            st.seq = seq = st.seq + 1
            st.top, st.child, st.cur = layer, 0.0, seq
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                slot[0] += dur - st.child
                slot[1] += 1
                st.top, st.child, st.cur = parent, outer_child + dur, parent_seq
                ident = span_id(args)
                if ident is not None:
                    spans.append((seq, parent_seq, layer, qualname, t0, t1, ident))

        return wrapper

    def _wrap_resume(self, resume: Callable) -> Callable:
        gen_layer = self._gen_layer
        wrapped: Dict[str, Callable] = {}

        def for_layer(layer: str) -> Callable:
            if layer not in wrapped:
                wrapped[layer] = self._wrap(resume, layer)
            return wrapped[layer]

        @functools.wraps(resume)
        def wrapper(proc, event):
            layer = gen_layer.get(proc.gen.gi_code)
            if layer is None:
                return resume(proc, event)
            return for_layer(layer)(proc, event)

        return wrapper

    def _counting_transmit(self, transmit: Callable) -> Callable:
        """``RingMAC._transmit`` that also classifies each frame put on
        the fibre; a True return is exactly one ``tx_inserted`` or
        ``tx_transit`` count, so the split sums to the MAC hop total."""
        hops = self.hops

        @functools.wraps(transmit)
        def counting(mac, frame, inserted):
            sent = transmit(mac, frame, inserted)
            if sent:
                hops[hop_kind(frame.packet)] += 1
            return sent

        return counting

    # ----------------------------------------------------------- output
    def self_times(self) -> Dict[str, float]:
        return {layer: self.agg[layer][0] for layer in LAYERS}

    def calls(self) -> Dict[str, int]:
        return {layer: int(self.agg[layer][1]) for layer in LAYERS}

    def write_spans(self, path: Path) -> None:
        """Sampled spans as JSON lines; times are seconds from the
        window's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._t0
        with open(path, "w") as fh:
            for seq, parent, layer, qualname, start, end, ident in self.spans:
                fh.write(json.dumps({
                    "span": seq, "parent": parent, "layer": layer,
                    "call": qualname, "start_s": round(start - t0, 9),
                    "end_s": round(end - t0, 9),
                    ident[0]: ident[1],
                }) + "\n")
