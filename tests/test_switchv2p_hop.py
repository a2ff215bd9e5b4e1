"""SwitchV2P's register-array hop against the method-based reference.

``SwitchV2P.on_switch`` runs DATA/ACK hops on a direct-mapped cache's
``_keys``/``_values``/``_abits`` arrays and its ``CacheStats`` in place;
``_on_switch_methods`` does the same hop through ``lookup``/``insert``/
``access_bit`` and serves every other cache.  The two must be one
protocol.  Random sequences of hops (hypothesis) over every switch role
are played on two networks built from the same seed: one takes the
array path, the other is forced onto the method path.  Prefilled cache
lines with set access bits, spill/promote options, resolved, unresolved
and misdelivery-tagged packets, negative-cache entries, both role
policies and observed and unobserved caches are all drawn.

After every hop the two sides must agree on the cache arrays, the
``CacheStats``, the scheme and collector counters and every packet
field; ``wire_bytes`` must equal payload + header + option bytes; and
the ``on_mutate`` firings must come in the same order, each seeing the
packet's option words as they were when it fired.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.set_associative import SetAssociativeCache
from repro.core import SwitchV2P, SwitchV2PConfig
from repro.core.multitenant import MultiTenantSwitchV2P, TenantRegistry
from repro.net.addresses import UNRESOLVED
from repro.net.packet import HEADER_BYTES, Packet, PacketKind

from conftest import small_network

#: VIPs drawn for packets, spills and prefills; VMs exist for the first
#: ``NUM_VMS`` only, so some lookups concern unknown addresses.
NUM_VIPS = 10
NUM_VMS = 8
#: Switches of the tiny fabric: 4 ToRs, 4 spines, 2 cores.
NUM_SWITCHES = 10
#: Indexes into a side's PIP pool: 8 host PIPs, then the gateway's.
PIPS = st.integers(0, 8)


class _MethodHopSwitchV2P(SwitchV2P):
    """SwitchV2P with every hop forced onto the method-based body."""

    def _rebuild_hot_table(self) -> None:
        super()._rebuild_hot_table()
        self._hot = {switch_id: (role, cache, False)
                     for switch_id, (role, cache, _) in self._hot.items()}


mappings = st.tuples(st.integers(0, NUM_VIPS - 1), PIPS)

hops = st.fixed_dictionaries({
    "switch": st.integers(0, 9),
    "continue": st.booleans(),
    "kind": st.sampled_from([PacketKind.DATA, PacketKind.ACK]),
    "seq": st.integers(0, 2),
    "payload": st.sampled_from([0, 1, 1440]),
    "src_vip": st.integers(0, NUM_VIPS - 1),
    "dst_vip": st.integers(0, NUM_VIPS - 1),
    "outer_src": PIPS,
    "outer_dst": st.none() | PIPS,
    "tag": st.booleans(),
    "carried": st.none() | st.just("dst") | mappings,
    "hit_switch": st.none() | st.integers(0, 9),
    "spill": st.none() | mappings,
    "promote": st.none() | mappings,
    "ingress": st.sampled_from([None, "host", "foreign-host", "gateway"]),
})

scenarios = st.fixed_dictionaries({
    "config": st.builds(
        SwitchV2PConfig,
        p_learn=st.sampled_from([0.0, 0.5, 1.0]),
        learning_packet_on_new_only=st.booleans(),
        enable_spillover=st.booleans(),
        enable_promotion=st.booleans(),
        enable_invalidation=st.booleans(),
        role_aware=st.booleans(),
        negative_ttl_ns=st.sampled_from([0, 1000]),
    ),
    "slots_per_switch": st.integers(1, 3),
    "observed": st.booleans(),
    "prefill": st.lists(st.tuples(st.integers(0, 9), mappings,
                                  st.integers(0, 1)), min_size=8, max_size=30),
    "negative": st.lists(st.tuples(mappings, st.booleans()), max_size=3),
    "hops": st.lists(hops, min_size=8, max_size=40),
})


class _Side:
    """One network plus the bookkeeping the comparison reads."""

    def __init__(self, scheme_cls, scenario) -> None:
        self.scheme = scheme_cls(scenario["slots_per_switch"] * NUM_SWITCHES,
                                 scenario["config"])
        self.network = small_network(self.scheme, num_vms=NUM_VMS)
        self.switches = self.network.fabric.switches
        self.pips = [host.pip for host in self.network.hosts] + \
            [gateway.pip for gateway in self.network.gateways]
        self.packet: Packet | None = None
        self.firings: list[tuple] = []
        for switch_index, (vip, pip), abit in scenario["prefill"]:
            cache = self.scheme.caches[self.switches[switch_index].switch_id]
            cache.insert(vip, self.pips[pip])
            if abit:
                cache.lookup(vip)
        for (vip, pip), live in scenario["negative"]:
            self.scheme._negative[(vip, self.pips[pip])] = 10 if live else 0
        if scenario["observed"]:
            self.scheme.set_cache_observer(self._observer)

    def _observer(self, switch_id: int):
        def on_mutate() -> None:
            packet = self.packet
            self.firings.append((switch_id, packet._spill_entry,
                                 packet._promote_entry, packet._hit_switch,
                                 packet._wire_bytes))
        return on_mutate

    def hop(self, hop) -> None:
        switch = self.switches[hop["switch"] % len(self.switches)]
        if not hop["continue"] or self.packet is None:
            self.packet = self._packet(hop)
        self.scheme.on_switch(switch, self.packet, self._ingress(switch, hop))

    def _packet(self, hop) -> Packet:
        pips = self.pips
        outer_dst = hop["outer_dst"]
        packet = Packet(hop["kind"], flow_id=7, seq=hop["seq"],
                        payload_bytes=hop["payload"],
                        src_vip=hop["src_vip"], dst_vip=hop["dst_vip"],
                        outer_src=pips[hop["outer_src"]],
                        outer_dst=UNRESOLVED if outer_dst is None
                        else pips[outer_dst])
        packet.resolved = outer_dst is not None
        packet.misdelivery_tag = hop["tag"]
        carried = hop["carried"]
        if carried == "dst":
            carried = (hop["dst_vip"], hop["outer_dst"] or 0)
        if carried is not None:
            packet.carried_mapping = (carried[0], pips[carried[1]])
        if hop["hit_switch"] is not None:
            packet.hit_switch = self.switches[hop["hit_switch"]].switch_id
        if hop["spill"] is not None:
            packet.spill_entry = (hop["spill"][0], pips[hop["spill"][1]])
        if hop["promote"] is not None:
            packet.promote_entry = (hop["promote"][0], pips[hop["promote"][1]])
        return packet

    def _ingress(self, switch, hop):
        choice = hop["ingress"]
        if choice is None:
            return None
        if choice == "gateway":
            attached = [gw.uplink for gw in self.network.gateways
                        if gw.uplink.dst is switch]
        else:
            attached = [host.uplink for host in self.network.hosts
                        if host.uplink.dst is switch]
            if choice == "foreign-host" and attached:
                # The packet claims some other server as its outer source.
                self.packet.outer_src = self.pips[-1]
        return attached[0] if attached else None

    def state(self) -> dict:
        scheme = self.scheme
        caches = {}
        for switch_id, cache in scheme.caches.items():
            stats = cache.stats
            caches[switch_id] = (
                type(cache).__name__, list(cache._keys), list(cache._values),
                list(cache._abits),
                tuple(getattr(stats, name) for name in type(stats).__slots__))
        packet = self.packet
        return {
            "caches": caches,
            "scheme": _plain(scheme),
            "negative": dict(scheme._negative),
            "collector": _plain(self.network.collector),
            "packet": None if packet is None else
            {name: getattr(packet, name) for name in Packet.__slots__},
            "pending_events": self.network.engine.pending_events,
            "firings": list(self.firings),
        }


def _plain(obj) -> dict:
    """The counter-like attributes of ``obj`` (numbers and Counters)."""
    return {name: value for name, value in vars(obj).items()
            if value is None or isinstance(value, int | float | Counter)}


def _check_wire(packet: Packet) -> None:
    assert packet.wire_bytes == \
        packet.payload_bytes + HEADER_BYTES + packet.option_bytes


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_register_array_hop_matches_method_reference(scenario):
    fast = _Side(SwitchV2P, scenario)
    reference = _Side(_MethodHopSwitchV2P, scenario)
    assert all(direct for _, _, direct in fast.scheme._hot.values())
    assert not any(direct for _, _, direct in reference.scheme._hot.values())
    assert fast.state() == reference.state()
    for index, hop in enumerate(scenario["hops"]):
        fast.hop(hop)
        reference.hop(hop)
        _check_wire(fast.packet)
        _check_wire(reference.packet)
        assert fast.state() == reference.state(), f"hop {index}: {hop}"


def test_cache_class_selects_the_hop_body():
    """Direct-mapped caches with lines take the array hop (also once
    observed); other geometries, partitions and empty shares do not."""
    scheme = SwitchV2P(40)
    small_network(scheme, num_vms=NUM_VMS)
    assert all(direct for _, _, direct in scheme._hot.values())
    scheme.set_cache_observer(lambda switch_id: (lambda: None))
    assert all(type(cache).__name__ == "_ObservedDirectMappedCache"
               for cache in scheme.caches.values())
    assert all(direct for _, _, direct in scheme._hot.values())

    empty = SwitchV2P(0)
    small_network(empty, num_vms=NUM_VMS)
    assert all(isinstance(cache, DirectMappedCache)
               for cache in empty.caches.values())
    assert not any(direct for _, _, direct in empty._hot.values())

    ways = SwitchV2P(40, cache_ways=2)
    small_network(ways, num_vms=NUM_VMS)
    assert all(isinstance(cache, SetAssociativeCache)
               for cache in ways.caches.values())
    assert not any(direct for _, _, direct in ways._hot.values())

    registry = TenantRegistry()
    registry.add_tenant(0, NUM_VMS)
    tenants = MultiTenantSwitchV2P(40, registry, enabled_tenants={0})
    small_network(tenants, num_vms=NUM_VMS)
    assert not any(direct for _, _, direct in tenants._hot.values())
