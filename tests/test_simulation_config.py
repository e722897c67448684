"""Tests for repro.simulation.config."""

import copy
import pickle

import pytest

from repro.core.region import RegionGeometry
from repro.simulation.config import MachineConfig, SimulationConfig


class TestMachineConfig:
    def test_paper_defaults(self):
        machine = MachineConfig.paper_default()
        assert machine.clock_ghz == 4.0
        assert machine.l2_hit_cycles == 25
        assert machine.memory_latency_ns == 60.0
        assert (machine.torus_width, machine.torus_height) == (4, 4)
        assert machine.hop_latency_ns == 25.0

    def test_cycle_conversion(self):
        machine = MachineConfig()
        assert machine.memory_latency_cycles == pytest.approx(240.0)

    def test_off_chip_latency_includes_network(self):
        machine = MachineConfig()
        assert machine.off_chip_latency_cycles > machine.memory_latency_cycles
        assert machine.remote_network_cycles > 0

    def test_network_latency_is_exact(self):
        # A 4x4 torus: 32 hops from one node to the other 15, a 2 x 25 ns
        # round trip per hop, at 4 GHz.  Exact equality: the timing model's
        # speedups (Figures 12-13) are computed from these doubles.
        machine = MachineConfig()
        assert machine.average_hop_count == 32 / 15
        assert machine.remote_network_cycles == 426.6666666666667
        assert machine.off_chip_latency_cycles == 666.6666666666667


class TestSimulationConfig:
    def test_paper_default(self):
        config = SimulationConfig.paper_default()
        assert config.num_cpus == 16
        assert config.l1_capacity == 64 * 1024
        assert config.l2_capacity == 8 * 1024 * 1024
        assert config.block_size == 64

    def test_small_keeps_l1_geometry(self):
        config = SimulationConfig.small(num_cpus=4)
        assert config.num_cpus == 4
        assert config.l1_capacity == 64 * 1024
        assert config.l2_capacity < 8 * 1024 * 1024

    def test_with_block_size(self):
        config = SimulationConfig.paper_default().with_block_size(512)
        assert config.block_size == 512
        assert config.l1_capacity == SimulationConfig.paper_default().l1_capacity

    def test_with_block_size_keeps_every_other_field(self):
        config = SimulationConfig(
            num_cpus=3, block_size=128, l1_capacity=32 * 1024, l1_associativity=4,
            l1_mshrs=8, sms_stream_slots=4, l2_capacity=1024 * 1024, l2_associativity=4,
            l2_mshrs=8, classify_false_sharing=False,
            warmup_fraction=0.1, warmup_accesses=7,
        )
        defaults = SimulationConfig()
        copy = config.with_block_size(256)
        assert copy.block_size == 256
        # The class's own field tuple: every attribute an instance can hold.
        assert not hasattr(config, "__dict__")
        for name in SimulationConfig.__slots__:
            # A field added later must be given a non-default value above,
            # or a copy that resets it to the default would go unnoticed.
            assert getattr(config, name) != getattr(defaults, name), name
            if name != "block_size":
                assert getattr(copy, name) == getattr(config, name), name

    def test_invalid_cpus(self):
        with pytest.raises(ValueError, match="num_cpus must be positive, got 0"):
            SimulationConfig(num_cpus=0)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError, match=r"warmup_fraction must be in \[0, 1\), got 1.0"):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError, match="warmup_fraction"):
            SimulationConfig(warmup_fraction=-0.1)
        with pytest.raises(ValueError, match="warmup_accesses must be non-negative, got -1"):
            SimulationConfig(warmup_accesses=-1)

    def test_compares_and_hashes_by_value(self):
        assert SimulationConfig.small(num_cpus=2) == SimulationConfig.small(num_cpus=2)
        assert SimulationConfig.small(num_cpus=2) != SimulationConfig.small(num_cpus=4)
        assert hash(SimulationConfig(warmup_accesses=5)) == hash(SimulationConfig(warmup_accesses=5))
        assert len({SimulationConfig(), SimulationConfig(), SimulationConfig(num_cpus=2)}) == 2
        # Not a tuple of its fields.
        assert SimulationConfig() != (16, 64, 65536, 2, 32, 16, 8388608, 8, 32, True, 0.3, None)

    def test_repr_names_every_field(self):
        assert repr(SimulationConfig()) == (
            "SimulationConfig(num_cpus=16, block_size=64, l1_capacity=65536, "
            "l1_associativity=2, l1_mshrs=32, sms_stream_slots=16, l2_capacity=8388608, "
            "l2_associativity=8, l2_mshrs=32, classify_false_sharing=True, "
            "warmup_fraction=0.3, warmup_accesses=None)"
        )


class TestImmutableValueTypes:
    """The value-compared types refuse assignment, so copying and pickling
    (a sweep argument on its way to a pool worker) rebuild them through their
    constructors."""

    @pytest.mark.parametrize(
        "value",
        [
            SimulationConfig.small(num_cpus=2),
            RegionGeometry(region_size=1024, block_size=32),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_copy_and_pickle_round_trip(self, value):
        first_field = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, first_field, 1)
        for restored in (
            copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        ):
            assert type(restored) is type(value)
            assert restored == value and hash(restored) == hash(value)
