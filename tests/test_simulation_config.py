"""Tests for repro.simulation.config."""

import dataclasses

import pytest

from repro.simulation.config import MachineConfig, SimulationConfig


class TestMachineConfig:
    def test_paper_defaults(self):
        machine = MachineConfig.paper_default()
        assert machine.clock_ghz == 4.0
        assert machine.l2_hit_cycles == 25
        assert machine.memory_latency_ns == 60.0
        assert machine.torus.num_nodes == 16

    def test_cycle_conversion(self):
        machine = MachineConfig()
        assert machine.cycle_ns == pytest.approx(0.25)
        assert machine.memory_latency_cycles == pytest.approx(240.0)

    def test_off_chip_latency_includes_network(self):
        machine = MachineConfig()
        assert machine.off_chip_latency_cycles > machine.memory_latency_cycles
        assert machine.remote_network_cycles > 0


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
        for field in dataclasses.fields(SimulationConfig):
            # A field added later must be given a non-default value above,
            # or a copy that resets it to the default would go unnoticed.
            assert getattr(config, field.name) != getattr(defaults, field.name), field.name
            if field.name != "block_size":
                assert getattr(copy, field.name) == getattr(config, field.name), field.name

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
