"""One benchmark run: simulate one input of one workload in this process.

Run as ``python3 perfbench/workloads.py '<json request>'``; the request
names the workload, the input seed, the fidelity, whether to trace and
whether to use the reduced self-test size.  The last stdout line is a
JSON object with the host timings of the run, its simulated outcome,
the per-layer work counts read from public state after the run, the
digest of everything simulated and, when traced, the per-layer self
times and calls.

Every run is its own process so that ``peak_rss_mb`` (the process
high-water mark) belongs to that run alone.  The run cache is never
consulted: networks are built and flows played directly.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf import PhaseTimer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def k32_spec():
    """The scale-smoke fabric: 32 pods x 16 racks x 16 servers."""
    from repro.net.topology import FatTreeSpec

    return FatTreeSpec(pods=32, racks_per_pod=16, servers_per_rack=16,
                       spines_per_pod=16, num_cores=256,
                       gateway_pods=tuple(range(0, 32, 2)),
                       gateways_per_pod=4)


def k32_flows(seed: int, num_vms: int, num_flows: int) -> list:
    """Open-loop Poisson arrivals over ~5 ms between random VM pairs.

    Sizes are drawn uniformly from 1.5-2.5 MB: flows must stay near
    2 MB for the fluid engine to adopt them, and a spread of sizes keeps
    the FCT percentiles a function of the seed rather than the FCT of
    one uncontended 2 MB flow.
    """
    from repro.sim.engine import msec
    from repro.sim.randomness import RandomStreams
    from repro.transport.flow import FlowSpec

    rng = RandomStreams(seed).stream("perfbench-k32-flows")
    flows = []
    start = 0.0
    for _ in range(num_flows):
        start += rng.exponential(msec(5) / num_flows)
        src, dst = rng.choice(num_vms, size=2, replace=False)
        flows.append(FlowSpec(src_vip=int(src), dst_vip=int(dst),
                              size_bytes=int(rng.integers(1_500_000,
                                                          2_500_001)),
                              start_ns=int(start)))
    return flows


# ----------------------------------------------------------------------
# workloads: each times its set-up and event loop on ``timer``
# ----------------------------------------------------------------------
def run_hadoop(seed: int, small: bool, fidelity: str,
               timer: PhaseTimer) -> dict:
    from repro.experiments.figures import ft8_spec
    from repro.experiments.runner import build_network, make_scheme
    from repro.traces.spec import TraceSpec

    num_vms, num_flows = (64, 300) if small else (320, 3000)
    with timer.phase("gen"):
        flows = TraceSpec.create("hadoop", seed, num_vms=num_vms,
                                 num_flows=num_flows).materialize()
    with timer.phase("build"):
        network = build_network(ft8_spec(),
                                make_scheme("SwitchV2P", num_vms, 0.5),
                                num_vms, seed, fidelity=fidelity)
    return _play(network, flows, None, timer)


def run_k32(seed: int, small: bool, fidelity: str,
            timer: PhaseTimer) -> dict:
    from repro.core import SwitchV2P
    from repro.experiments.runner import build_network
    from repro.sim.engine import msec

    num_vms, num_flows = (20_000, 32) if small else (100_000, 96)
    with timer.phase("gen"):
        flows = k32_flows(seed, num_vms, num_flows)
    with timer.phase("build"):
        network = build_network(k32_spec(), SwitchV2P(16384), num_vms,
                                seed, fidelity=fidelity)
    return _play(network, flows, msec(2000), timer)


def _play(network, flows, horizon_ns: int | None,
          timer: PhaseTimer) -> dict:
    """Register and run the flows (phases ``setup`` and ``run``)."""
    from repro.experiments.runner import run_flows

    run_flows(network, flows, horizon_ns=horizon_ns, perf=timer)
    collector = network.collector
    outcome = _outcome(network, [_row(record) for record in
                                 collector.flows.values()])
    outcome["checks"] = {"completion 1.0": collector.completion_rate == 1.0}
    fluid = network.fluid
    if fluid is not None:
        outcome["checks"]["fluid adoptions > 0"] = fluid.adoptions > 0
        outcome["checks"]["fluid probe skips > 0"] = fluid.probe_skips > 0
    return outcome


def run_serve(seed: int, small: bool, fidelity: str,
              timer: PhaseTimer) -> dict:
    from repro.service import ServiceConfig
    from repro.service.driver import ServiceDriver
    from repro.sim.engine import SECOND, msec

    # The give-up ladder (64 RTOs capped at 4 ms) outlasts the 200 ms
    # maintenance outage, so flows ride out outages instead of failing.
    config = ServiceConfig(seed=seed, fidelity=fidelity,
                           duration_ns=(15 if small else 60) * SECOND,
                           anti_entropy_period_ns=msec(100),
                           staleness_bound_ns=msec(500),
                           max_retransmits=64)
    driver = ServiceDriver(config)
    with timer.phase("build"):
        driver._build()
    # run() starts with _build(); the driver is already built.
    driver._build = lambda: None
    with timer.phase("run"):
        result = driver.run()
    collector = driver.collector
    outcome = _outcome(driver.network, vars(collector).get(
        "retired_rows", []) + [_row(record) for record in
                               collector.flows.values()])
    outcome["counts"]["vnet.migrations"] = result.migrations
    outcome["counts"]["metrics.streaming.windows"] = len(result.windows)
    unrecovered = [m.event.target for m in result.maintenance
                   if m.time_to_recover_ns is None]
    outcome["checks"] = {
        "service run clean": result.clean,
        "every maintenance window recovered": (
            bool(result.maintenance) and not unrecovered),
    }
    return outcome


def capture_retired_flows() -> None:
    """Keep a row per flow the windowed collector retires, on the
    collector itself (``retired_rows``).

    The collector keeps only a sketch of retired flows; the rows keep
    FCT percentiles and the digest exact.  Must be installed before the
    collector is built: ``attach`` binds the window-close method into a
    periodic timer.
    """
    from repro.metrics.streaming import WindowedCollector

    close_window = WindowedCollector._close_window

    def capture_and_close(collector) -> None:
        vars(collector).setdefault("retired_rows", []).extend(
            _row(record) for record in collector.flows.values()
            if record.completed or record.failed)
        close_window(collector)

    WindowedCollector._close_window = capture_and_close


WORKLOADS = {"hadoop": run_hadoop, "k32-hybrid": run_k32,
             "serve-churn": run_serve}
#: Timer phases that make up set-up: trace generation, network build
#: with VM placement, and flow registration.
SETUP_PHASES = ("gen", "build", "setup")


# ----------------------------------------------------------------------
# outcome and counts
# ----------------------------------------------------------------------
def _row(record) -> tuple:
    """``(flow id, FCT ns or None, retransmissions)`` of one flow."""
    return (record.flow_id, record.fct_ns, record.retransmissions)


def _outcome(network, rows: list[tuple]) -> dict:
    collector = network.collector
    rows.sort()
    return {
        "started": len(rows),
        "failed": sum(1 for _, fct, _ in rows if fct is None),
        "flows": rows,
        "packets": collector.packets_sent,
        "gateway_arrivals": min(collector.gateway_arrivals,
                                collector.packets_sent),
        "counts": _counts(network, rows),
    }


def _counts(network, rows: list[tuple]) -> dict[str, float]:
    """Per-layer work counts, read from public state after the run."""
    collector = network.collector
    scheme = network.scheme
    packets = collector.packets_sent
    switches = network.fabric.switches
    pool = network.packet_pool
    served = pool.allocated + pool.recycled
    lookups = hits = inserts = evictions = invalidations = 0
    for cache in scheme.caches.values():
        if cache is None:
            continue
        stats = cache.stats
        lookups += stats.lookups
        hits += stats.hits
        inserts += stats.insertions
        evictions += stats.evictions
        invalidations += stats.invalidations
    hops = sum(switch.stats.packets for switch in switches)
    fluid = network.fluid
    detector = network.failure_detector
    audit = network.anti_entropy
    counts = {
        "sim.engine.events": network.engine.events_processed,
        "net.hops": hops,
        "net.hops_per_pkt": hops / packets if packets else 0.0,
        "net.drops": sum(switch.stats.drops for switch in switches),
        "net.pool_recycle": pool.recycled / served if served else 0.0,
        "core.learning_pkts": scheme.learning_packets_sent,
        "core.spill_inserts": scheme.spillovers_reinserted,
        "core.promotions": scheme.promotions_sent,
        "core.invalidation_pkts": scheme.invalidation_packets_sent,
        "cache.lookups": lookups,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.inserts": inserts,
        "cache.evictions": evictions,
        "cache.invalidations": invalidations,
        "vnet.gateway.arrivals": collector.gateway_arrivals,
        "vnet.misdeliveries": collector.misdeliveries,
        "vnet.migrations": 0,
        "vnet.failover.probes": detector.probes_sent if detector else 0,
        "transport.retransmits": sum(row[2] for row in rows),
        "core.antientropy.sweeps": audit.sweeps if audit else 0,
        "core.antientropy.repairs": audit.repairs if audit else 0,
        "metrics.streaming.windows": 0,
        "sim.fluid.adoptions": 0,
        "sim.fluid.escalations": 0,
        "sim.fluid.escalations_per_adoption": 0.0,
        "sim.fluid.rounds": 0,
        "sim.fluid.probe_skips": 0,
        "sim.fluid.pkt_share": 0.0,
    }
    if fluid is not None:
        counts.update({
            "sim.fluid.adoptions": fluid.adoptions,
            "sim.fluid.escalations": fluid.escalations,
            "sim.fluid.escalations_per_adoption": (
                fluid.escalations / fluid.adoptions if fluid.adoptions
                else 0.0),
            "sim.fluid.rounds": fluid.rounds,
            "sim.fluid.probe_skips": fluid.probe_skips,
            "sim.fluid.pkt_share": (fluid.fluid_packets / packets
                                    if packets else 0.0),
        })
    return counts


def simulated_digest(outcome: dict) -> str:
    """Hash of everything the run simulated (no host measurements)."""
    simulated = {key: outcome[key] for key in
                 ("started", "failed", "flows", "packets",
                  "gateway_arrivals", "counts")}
    blob = json.dumps(simulated, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_request(request: dict) -> dict:
    """Set up and simulate one input; tracing is installed before the
    network is built."""
    from repro.perf import PhaseTimer

    # Modules the set-up would otherwise import on first use: set-up
    # time covers the simulator's work, not the import system's.
    import numpy.random  # noqa: F401
    import repro.sim.fluid  # noqa: F401

    if request["workload"] == "serve-churn":
        capture_retired_flows()
    tracer = None
    if request["trace"]:
        from tracing import Tracer, layer_entry_points

        tracer = Tracer()
        tracer.install(layer_entry_points())
    timer = PhaseTimer()
    outcome = WORKLOADS[request["workload"]](
        request["seed"], request["small"], request["fidelity"], timer)
    if tracer is not None:
        tracer.uninstall()
    outcome["digest"] = simulated_digest(outcome)
    phases = timer.phases_ns
    outcome["gen_s"] = phases.get("gen", 0) / 1e9
    outcome["build_s"] = phases["build"] / 1e9
    outcome["setup_s"] = sum(phases.get(phase, 0)
                             for phase in SETUP_PHASES) / 1e9
    outcome["loop_s"] = phases["run"] / 1e9
    outcome["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        outcome["layers"] = tracer.layer_totals()
        if request.get("trace_out"):
            tracer.write_chrome_trace(Path(request["trace_out"]))
    return outcome


def main(argv: list[str]) -> int:
    _import_repro()
    outcome = run_request(json.loads(argv[1]))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
