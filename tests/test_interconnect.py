"""Tests for repro.interconnect."""

import pytest

from repro.interconnect.torus import TorusTopology
from repro.interconnect.traffic import BandwidthAccountant, TrafficClass


class TestTorusTopology:
    def test_node_count(self):
        assert TorusTopology(4, 4).num_nodes == 16

    def test_coordinates_roundtrip(self):
        torus = TorusTopology(4, 4)
        for node in range(torus.num_nodes):
            x, y = torus.coordinates(node)
            assert torus.node_at(x, y) == node

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            TorusTopology(4, 4).coordinates(16)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError, match="torus dimensions must be positive"):
            TorusTopology(0, 4)
        with pytest.raises(ValueError, match="torus dimensions must be positive"):
            TorusTopology(4, -1)

    def test_compares_hashes_and_prints_by_value(self):
        assert TorusTopology() == TorusTopology(4, 4, 25.0)
        assert TorusTopology() != TorusTopology(hop_latency_ns=10.0)
        assert TorusTopology() != (4, 4, 25.0)
        assert hash(TorusTopology(2, 8)) == hash(TorusTopology(width=2, height=8))
        assert len({TorusTopology(), TorusTopology(), TorusTopology(2, 2)}) == 2
        assert repr(TorusTopology()) == "TorusTopology(width=4, height=4, hop_latency_ns=25.0)"

    def test_hop_count_adjacent(self):
        torus = TorusTopology(4, 4)
        assert torus.hop_count(0, 1) == 1
        assert torus.hop_count(0, 4) == 1

    def test_hop_count_wraparound(self):
        torus = TorusTopology(4, 4)
        # Node 0 and node 3 are adjacent through the wrap-around link.
        assert torus.hop_count(0, 3) == 1
        # Maximum distance on a 4x4 torus is 2+2 = 4 hops.
        assert torus.hop_count(0, 10) == 4

    def test_hop_count_symmetric(self):
        torus = TorusTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                assert torus.hop_count(src, dst) == torus.hop_count(dst, src)

    def test_latency(self):
        torus = TorusTopology(4, 4, hop_latency_ns=25.0)
        assert torus.latency_ns(0, 1) == 25.0

    def test_neighbors(self):
        torus = TorusTopology(4, 4)
        assert set(torus.neighbors(0)) == {1, 3, 4, 12}

    def test_average_hop_count_positive(self):
        torus = TorusTopology(4, 4)
        assert 1.0 < torus.average_hop_count() <= 4.0

    def test_average_hop_count_walks_the_pairs_once_per_topology(self, monkeypatch):
        walks = []
        all_pairs = TorusTopology.all_pairs

        def counting(self):
            walks.append((self.width, self.height))
            return all_pairs(self)

        monkeypatch.setattr(TorusTopology, "all_pairs", counting)
        # 3 x 5: 15 nodes, ring distances (0, 1, 1) and (0, 1, 2, 2, 1).
        expected = (5 * 2 + 3 * 6) / 14
        assert TorusTopology(3, 5, hop_latency_ns=7.0).average_hop_count() == expected
        # An equal topology, even a new object, reuses the walk.
        assert TorusTopology(3, 5, hop_latency_ns=7.0).average_hop_count() == expected
        assert TorusTopology(3, 5, 7.0).average_remote_latency_ns() == 2.0 * expected * 7.0
        assert walks == [(3, 5)]

    def test_average_remote_latency_round_trip(self):
        torus = TorusTopology(4, 4, hop_latency_ns=25.0)
        one_way = torus.average_remote_latency_ns(round_trip=False)
        assert torus.average_remote_latency_ns(round_trip=True) == pytest.approx(2 * one_way)


class TestBandwidthAccountant:
    def test_block_transfers(self):
        accountant = BandwidthAccountant(block_size=64)
        accountant.record_block_transfer(TrafficClass.DEMAND_FETCH, blocks=2)
        accountant.record_block_transfer(TrafficClass.PREFETCH)
        assert accountant.bytes_for(TrafficClass.DEMAND_FETCH) == 128
        assert accountant.total_bytes == 192

    def test_control_messages(self):
        accountant = BandwidthAccountant()
        accountant.record_control_message(TrafficClass.INVALIDATION, messages=3)
        assert accountant.bytes_for(TrafficClass.INVALIDATION) == 24

    def test_bandwidth_efficiency(self):
        accountant = BandwidthAccountant(block_size=64)
        accountant.record_block_transfer(TrafficClass.DEMAND_FETCH, blocks=4)
        accountant.record_useful_bytes(64)
        assert accountant.bandwidth_efficiency() == pytest.approx(0.25)

    def test_efficiency_with_no_traffic(self):
        assert BandwidthAccountant().bandwidth_efficiency() == 1.0

    def test_utilization(self):
        accountant = BandwidthAccountant(block_size=64)
        accountant.record_block_transfer(TrafficClass.DEMAND_FETCH, blocks=1000)
        utilization = accountant.utilization(elapsed_seconds=1e-6, peak_bytes_per_second=128e9)
        assert utilization == pytest.approx(64000 / 128e3)

    def test_utilization_invalid_args(self):
        with pytest.raises(ValueError):
            BandwidthAccountant().utilization(0, 1)
