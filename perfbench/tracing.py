"""Span tracing at layer boundaries, installed from outside the simulator.

The tracer wraps chosen methods at class level (before the network is
built, so the bound methods the simulator captures at wiring time are
the wrapped ones) and records one span per call: layer, start, end,
parent span and the flow id of the packet when the call carries one.

Self time is a span's duration minus the time its child spans cover.
It is aggregated per layer as calls complete, so the per-layer totals
cost no memory; raw spans go to a bounded buffer that is written out as
Chrome trace JSON.  Only calls nested inside a root span
(``Engine.run``) are recorded, so the per-layer self times add up to
the time spent in the event loop, and the root layer's own self time is
the share of the loop no wrapped entry point accounts for.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from pathlib import Path

#: Raw spans kept for the Chrome trace; the per-layer totals never drop.
MAX_SPANS = 50_000
#: The layer of the root span; calls outside one are not recorded.
ROOT_LAYER = "sim.engine"


def _packet_flow(index: int) -> Callable:
    return lambda args: getattr(args[index], "flow_id", None)


def _record_flow(args) -> int | None:
    return args[0].record.flow_id


def _fluid_flow(args) -> int | None:
    return args[1].flow_id


def layer_entry_points() -> list[tuple[type, str, str, Callable | None]]:
    """``(class, method, layer, flow_of)`` for every traced entry point.

    ``Link._deliver`` is an instance slot bound to ``dst.receive``, so a
    hop's delivery is counted under the receiving node; most link work
    is inlined in ``Switch.receive`` and counts under ``net.switch``.
    """
    from repro.cache import direct_mapped, set_associative
    from repro.core.antientropy import AntiEntropyAuditor
    from repro.core.protocol import SwitchV2P
    from repro.faults.oracles import OracleSuite
    from repro.metrics.streaming import WindowedCollector
    from repro.net.link import Link
    from repro.net.node import Switch
    from repro.service.driver import ServiceDriver
    from repro.sim.engine import Engine
    from repro.sim.fluid import FluidScheduler
    from repro.transport.reliable import ReliableReceiver, ReliableSender
    from repro.vnet.failover import GatewayFailureDetector
    from repro.vnet.gateway import Gateway
    from repro.vnet.hypervisor import Host
    from repro.vnet.network import VirtualNetwork

    packet1 = _packet_flow(1)
    entries: list[tuple[type, str, str, Callable | None]] = [
        (Engine, "run", "sim.engine", None),
        (Switch, "receive", "net.switch", packet1),
        (Switch, "forward", "net.switch", packet1),
        (Link, "transmit", "net.link", packet1),
        (SwitchV2P, "on_switch", "core", _packet_flow(2)),
        (Host, "send", "vnet.host", packet1),
        (Host, "receive", "vnet.host", packet1),
        (Gateway, "receive", "vnet.gateway", packet1),
        (ReliableSender, "on_ack", "transport", _record_flow),
        (ReliableSender, "_on_timeout", "transport", _record_flow),
        (ReliableReceiver, "on_data", "transport", packet1),
        (FluidScheduler, "_begin_round", "sim.fluid", _fluid_flow),
        (FluidScheduler, "_commit", "sim.fluid", _fluid_flow),
        (FluidScheduler, "_escalate", "sim.fluid", _fluid_flow),
        (GatewayFailureDetector, "_probe", "vnet.failover", None),
        (OracleSuite, "periodic_check", "faults.oracles", None),
        (AntiEntropyAuditor, "audit_once", "core.antientropy", None),
        (VirtualNetwork, "migrate", "vnet.migrate", None),
        (WindowedCollector, "_close_window", "metrics.streaming", None),
    ]
    # The observed subclasses carry their own copies of the mutators,
    # so each class wraps only the methods it defines itself.
    for cls in (direct_mapped.DirectMappedCache,
                direct_mapped._ObservedDirectMappedCache,
                set_associative.SetAssociativeCache,
                set_associative._ObservedSetAssociativeCache):
        for name in ("lookup", "insert", "invalidate", "peek"):
            if name in vars(cls):
                entries.append((cls, name, "cache", None))
    for name in ("_flow_tick", "_arrival_tick", "_migrate_tick",
                 "_depart_tenant", "_on_window"):
        entries.append((ServiceDriver, name, "service", None))
    return entries


class Tracer:
    """Records spans for every wrapped call made inside a root span."""

    def __init__(self) -> None:
        #: Layer -> accumulated self time (ns) and completed calls.
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: Raw spans ``[name, start_ns, end_ns, parent_id, flow_id]``;
        #: a span's id is its index.
        self.spans: list[list] = []
        self.dropped_spans = 0
        self._stack: list[list[int]] = []
        self._patched: list[tuple[type, str, object]] = []

    def install(self, entries) -> None:
        for cls, name, layer, flow_of in entries:
            self.self_ns.setdefault(layer, 0)
            self.calls.setdefault(layer, 0)
            original = vars(cls)[name]
            self._patched.append((cls, name, original))
            setattr(cls, name, self._wrap(original, f"{cls.__name__}.{name}",
                                          layer, flow_of))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patched):
            setattr(cls, name, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str, flow_of):
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        is_root = layer == ROOT_LAYER
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            if len(spans) < MAX_SPANS:
                span_id = len(spans)
                parent = stack[-1][1] if stack else -1
                flow = flow_of(args) if flow_of is not None else None
                spans.append([name, 0, 0, parent, flow])
            else:
                span_id = -1
                tracer.dropped_spans += 1
            # frame = [child time covered (ns), span id]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if span_id >= 0:
                    span = spans[span_id]
                    span[1] = start
                    span[2] = end

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        return {layer: {"self_s": self.self_ns[layer] / 1e9,
                        "calls": self.calls[layer]}
                for layer in sorted(self.self_ns)}

    def write_chrome_trace(self, path: Path) -> None:
        """Write the buffered spans in Chrome trace-event JSON format."""
        closed = [span for span in self.spans if span[2]]
        origin = min((span[1] for span in closed), default=0)
        events = []
        for span_id, (name, start, end, parent, flow) in enumerate(self.spans):
            if not end:
                continue
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent, "flow": flow},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_spans": self.dropped_spans},
        }))
