"""Tests for the mesh network: delivery latency, contention, traffic."""

import pytest

from repro.errors import RoutingError
from repro.faults import FaultPlan, FaultState
from repro.noc.messages import Message, MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator


@pytest.fixture
def network(sim):
    return MeshNetwork(sim, MeshTopology(5, 5), link_latency=32)


def _msg(src, dst, kind=MessageKind.TRANSLATION_REQ, size=None):
    return Message(kind, src=src, dst=dst, payload=None, size_bytes=size)


class TestDelivery:
    def test_latency_scales_with_hops(self, sim, network):
        delivered = []
        network.send(_msg((0, 0), (3, 0)), lambda m: delivered.append(sim.now))
        sim.run()
        assert delivered == [3 * 32]

    def test_zero_hop_delivers_next_cycle(self, sim, network):
        delivered = []
        network.send(_msg((1, 1), (1, 1)), lambda m: delivered.append(sim.now))
        sim.run()
        assert delivered == [1]

    def test_attached_handler_receives(self, sim, network):
        received = []
        network.attach((2, 2), lambda m: received.append(m))
        message = _msg((0, 0), (2, 2))
        network.send(message)
        sim.run()
        assert received == [message]

    def test_missing_handler_raises(self, network):
        with pytest.raises(RoutingError):
            network.send(_msg((0, 0), (4, 4)))

    def test_off_mesh_destination_raises(self, network):
        with pytest.raises(RoutingError):
            network.send(_msg((0, 0), (99, 0)))

    def test_explicit_handler_overrides_attached(self, sim, network):
        network.attach((2, 2), lambda m: pytest.fail("should not be called"))
        got = []
        network.send(_msg((0, 0), (2, 2)), lambda m: got.append(m))
        sim.run()
        assert len(got) == 1


class TestContention:
    def test_large_messages_serialize_on_shared_link(self, sim):
        # Narrow link: 8 bytes/cycle, so a 64-byte message holds the link
        # for 8 cycles and a burst must serialize.
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        for _ in range(3):
            network.send(
                _msg((0, 0), (1, 0), size=64), lambda m: times.append(sim.now)
            )
        sim.run()
        assert times == [10, 18, 26]
        assert network.link_wait_cycles() > 0

    def test_disjoint_links_do_not_contend(self, sim):
        network = MeshNetwork(
            sim, MeshTopology(3, 3), link_latency=10,
            link_bandwidth_bytes_per_sec=8e9,
        )
        times = []
        network.send(_msg((0, 0), (1, 0), size=64), lambda m: times.append(sim.now))
        network.send(_msg((0, 1), (1, 1), size=64), lambda m: times.append(sim.now))
        sim.run()
        assert times == [10, 10]


class TestTraffic:
    def test_total_bytes_counts_bytes_times_hops(self, sim, network):
        network.send(_msg((0, 0), (2, 0), size=100), lambda m: None)
        sim.run()
        assert network.total_link_bytes() == 200

    def test_translation_traffic_separated(self, sim, network):
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.DATA_RESP, size=80),
            lambda m: None,
        )
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16),
            lambda m: None,
        )
        sim.run()
        assert network.total_link_bytes() == 96
        assert network.translation_link_bytes() == 16

    def test_mean_hops(self, sim, network):
        network.send(_msg((0, 0), (2, 0)), lambda m: None)
        network.send(_msg((0, 0), (4, 0)), lambda m: None)
        sim.run()
        assert network.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_excludes_zero_hop_sends(self, sim, network):
        network.send(_msg((0, 0), (2, 0)), lambda m: None)  # 2 hops
        network.send(_msg((0, 0), (4, 0)), lambda m: None)  # 4 hops
        network.send(_msg((1, 1), (1, 1)), lambda m: None)  # local, 0 hops
        sim.run()
        assert network.messages_sent == 3
        assert network.messages_routed == 2
        assert network.mean_hops() == pytest.approx(3.0)

    def test_mean_hops_all_local_is_zero(self, sim, network):
        network.send(_msg((1, 1), (1, 1)), lambda m: None)
        sim.run()
        assert network.messages_routed == 0
        assert network.mean_hops() == 0.0


class TestMessageDefaults:
    def test_default_sizes_by_kind(self):
        assert _msg((0, 0), (1, 0)).size_bytes == 16
        data = Message(MessageKind.DATA_RESP, (0, 0), (1, 0))
        assert data.size_bytes == 80

    def test_translation_kind_classification(self):
        assert Message(MessageKind.PTE_PUSH, (0, 0), (1, 0)).is_translation_traffic
        assert not Message(MessageKind.DATA_REQ, (0, 0), (1, 0)).is_translation_traffic

    def test_message_ids_unique(self):
        a = _msg((0, 0), (1, 0))
        b = _msg((0, 0), (1, 0))
        assert a.message_id != b.message_id


class TestTrafficReport:
    def test_per_kind_accounting(self, sim, network):
        network.send(
            _msg((0, 0), (2, 0), kind=MessageKind.DATA_RESP, size=80),
            lambda m: None,
        )
        network.send(
            _msg((0, 0), (1, 0), kind=MessageKind.TRANSLATION_REQ, size=16),
            lambda m: None,
        )
        sim.run()
        report = network.traffic_report()
        assert report["data_resp"]["messages"] == 1
        assert report["data_resp"]["link_bytes"] == 160  # 80 B x 2 hops
        assert report["translation_req"]["link_bytes"] == 16
        assert report["total"]["messages"] == 2
        assert report["total"]["link_bytes"] == 176

    def test_zero_hop_messages_carry_no_link_bytes(self, sim, network):
        network.send(_msg((1, 1), (1, 1)), lambda m: None)
        sim.run()
        report = network.traffic_report()
        assert report["total"]["link_bytes"] == 0
        assert report["translation_req"]["messages"] == 1


class TestInlinedHopLoop:
    """The unsanitized send path inlines ``Link.transmit``; a
    ``sanitize=True`` network takes the reference ``transmit`` path.  One
    message sequence through both must agree cycle for cycle."""

    DEAD = ((0, 0), (1, 0))
    SLOW = ((1, 1), (2, 1))
    DATA = MessageKind.DATA_RESP
    XLAT = MessageKind.TRANSLATION_REQ
    #: cycle -> sends ``(src, dst, size, kind)``: mixed sizes, repeated
    #: routes contending for the fail-slow link, and detours around the
    #: dead one.
    SENDS = {
        0: [
            ((0, 0), (3, 0), 64, DATA),
            ((0, 0), (2, 0), 16, XLAT),
            ((0, 1), (3, 1), 80, DATA),
            ((1, 1), (3, 1), 16, XLAT),
            ((0, 1), (3, 1), 64, DATA),
            ((3, 3), (0, 0), 8, XLAT),
        ],
        5: [
            ((0, 1), (3, 1), 16, XLAT),
            ((0, 0), (3, 0), 80, DATA),
            ((1, 1), (3, 1), 80, DATA),
            ((2, 2), (2, 2), 16, XLAT),
        ],
        # The dead link is restored at cycle 20 and the slow link healed
        # at cycle 30 (see _replay): later sends take the XY route at
        # full bandwidth while earlier traffic still occupies the links.
        20: [
            ((0, 0), (3, 0), 64, DATA),
            ((0, 0), (2, 0), 16, XLAT),
            ((1, 1), (3, 1), 80, DATA),
        ],
        30: [
            ((0, 1), (3, 1), 80, DATA),
            ((1, 1), (3, 1), 16, XLAT),
            ((3, 0), (0, 0), 64, DATA),
        ],
    }

    def _replay(self, sanitize):
        sim = Simulator(sanitize=sanitize)
        topology = MeshTopology(4, 4)
        faults = FaultState(FaultPlan(dead_links=(self.DEAD,)), topology)
        network = MeshNetwork(
            sim, topology, link_latency=10,
            link_bandwidth_bytes_per_sec=8e9, faults=faults,
        )
        assert (network._conservation is not None) == sanitize
        network.set_link_bandwidth_factor(*self.SLOW, 0.25)
        arrivals = []
        delivered = []

        def send_all(cycle):
            for src, dst, size, kind in self.SENDS[cycle]:
                message = Message(kind, src, dst, None, size_bytes=size)
                arrivals.append(network.send(
                    message,
                    lambda m: delivered.append((sim.now, m.src, m.dst)),
                ))

        def restore():
            faults.restore_link(self.DEAD)
            send_all(20)

        def heal():
            network.set_link_bandwidth_factor(*self.SLOW, 1.0)
            send_all(30)

        sim.schedule_at(0, lambda: send_all(0))
        sim.schedule_at(5, lambda: send_all(5))
        sim.schedule_at(20, restore)
        sim.schedule_at(30, heal)
        sim.run()
        return network, faults, arrivals, delivered

    def test_inlined_loop_matches_transmit_path(self):
        plain, plain_faults, arrivals, delivered = self._replay(False)
        ref, ref_faults, ref_arrivals, ref_delivered = self._replay(True)
        assert arrivals == ref_arrivals
        assert delivered == ref_delivered
        assert plain.link_report() == ref.link_report()
        assert plain_faults.counters == ref_faults.counters
        # The sequence exercised what it claims to.
        assert plain_faults.counters["rerouted_messages"] == 3
        assert plain.link_wait_cycles() > 0
        assert len(delivered) == sum(map(len, self.SENDS.values()))
