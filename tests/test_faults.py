"""Tests for the soft-error fault models, fault maps and injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mitigation import _corrupt_registers
from repro.faults.bitflip import WeightBitFlipModel
from repro.faults.fault_map import FaultMap, FaultMapGenerator
from repro.faults.injector import FaultInjector
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.faults.neuron_faults import NeuronFaultInjector
from repro.snn.oracle import build_network
from repro.snn.quantization import WeightQuantizer


class TestComputeEngineFaultConfig:
    def test_constructors(self):
        synapses = ComputeEngineFaultConfig.synapses_only(0.01)
        assert synapses.inject_synapses and not synapses.inject_neurons
        neurons = ComputeEngineFaultConfig.neurons_only(
            0.01, fault_type=NeuronFaultType.VMEM_RESET
        )
        assert neurons.restrict_neuron_fault_type == NeuronFaultType.VMEM_RESET
        both = ComputeEngineFaultConfig.full_compute_engine(0.5)
        assert both.inject_synapses and both.inject_neurons

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            ComputeEngineFaultConfig(fault_rate=1.5)

    def test_nothing_to_inject_raises(self):
        with pytest.raises(ValueError):
            ComputeEngineFaultConfig(
                fault_rate=0.1, inject_synapses=False, inject_neurons=False
            )

    def test_bad_restrict_type_raises(self):
        with pytest.raises(TypeError):
            ComputeEngineFaultConfig(fault_rate=0.1, restrict_neuron_fault_type="reset")


class TestWeightBitFlipModel:
    def _model(self):
        return WeightBitFlipModel(WeightQuantizer(bits=8, full_scale=1.0))

    def test_zero_rate_produces_no_faults(self):
        indices, bits = self._model().draw_fault_locations(100, 0.0, rng=0)
        assert indices.size == 0 and bits.size == 0

    def test_per_bit_rate_one_hits_every_bit(self):
        indices, bits = self._model().draw_fault_locations(10, 1.0, rng=0)
        assert indices.size == 80
        assert set(bits.tolist()) == set(range(8))

    def test_expected_fault_count_scales_with_rate(self):
        n_registers = 2000
        _, bits_low = self._model().draw_fault_locations(n_registers, 0.01, rng=1)
        _, bits_high = self._model().draw_fault_locations(n_registers, 0.1, rng=1)
        assert bits_high.size > bits_low.size

    # Registers are corrupted by replaying a FaultMap onto them
    # (repro.core.mitigation._corrupt_registers); these four check the
    # injection contracts on that route.
    def test_inject_flips_only_selected(self):
        registers = np.zeros((4, 4), dtype=np.uint8)
        fault_map = FaultMap(
            crossbar_shape=(4, 4),
            synapse_flat_indices=np.array([3]),
            synapse_bit_positions=np.array([2]),
        )
        faulty = _corrupt_registers(registers, fault_map, self._model().quantizer)
        assert faulty.ravel()[3] == 4
        assert faulty.sum() == 4 and faulty.dtype == registers.dtype
        assert fault_map.n_synapse_faults == 1
        assert registers.sum() == 0  # original untouched

    def test_inject_requires_paired_replay_arguments(self):
        with pytest.raises(ValueError, match="equal length"):
            FaultMap(
                crossbar_shape=(2, 2),
                synapse_flat_indices=np.array([0]),
                synapse_bit_positions=np.array([], dtype=np.int64),
            )

    @pytest.mark.parametrize("bad_rate", [-0.1, 1.5])
    def test_inject_validates_rate_on_replay_path(self, bad_rate):
        # A replayed map carries the rate it was drawn at; a nonsensical
        # stored rate must not round-trip unchecked just because the
        # locations are explicit.
        with pytest.raises(ValueError, match="fault_rate"):
            FaultMap(
                crossbar_shape=(2, 2),
                synapse_flat_indices=np.array([0]),
                synapse_bit_positions=np.array([1]),
                fault_rate=bad_rate,
            )

    def test_inject_validates_rate_on_draw_path(self):
        with pytest.raises(ValueError, match="fault_rate"):
            self._model().draw_fault_locations(4, 2.0)

    def test_weight_change_summary(self):
        model = self._model()
        clean = np.array([[10, 20], [30, 40]], dtype=np.uint8)
        faulty = np.array([[138, 20], [14, 40]], dtype=np.uint8)
        summary = model.weight_change_summary(clean, faulty)
        assert summary["n_increased"] == 1
        assert summary["n_decreased"] == 1
        assert summary["n_unchanged"] == 2
        assert summary["n_above_clean_max"] == 1

    @given(rate=st.floats(min_value=0.0, max_value=0.3), seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_draw_locations_within_bounds_property(self, rate, seed):
        indices, bits = self._model().draw_fault_locations(64, rate, rng=seed)
        if indices.size:
            assert indices.min() >= 0 and indices.max() < 64
            assert bits.min() >= 0 and bits.max() < 8


class TestNeuronFaultInjector:
    def test_zero_rate_is_healthy(self):
        outcome = NeuronFaultInjector(10).inject(0.0, rng=0)
        assert not outcome.status.any_faulty
        assert outcome.n_faults == 0

    def test_rate_one_per_operation_breaks_every_operation(self):
        outcome = NeuronFaultInjector(5).inject(1.0, rng=0)
        assert outcome.n_faults == 20
        assert not outcome.status.vmem_reset_ok.any()
        assert not outcome.status.spike_generation_ok.any()

    def test_restricted_type_only_affects_that_operation(self):
        outcome = NeuronFaultInjector(20).inject(
            1.0, rng=0, restrict_type=NeuronFaultType.VMEM_RESET
        )
        assert not outcome.status.vmem_reset_ok.any()
        assert outcome.status.vmem_increase_ok.all()
        assert outcome.status.spike_generation_ok.all()
        assert set(dict(outcome.count_by_type()).values()) == {0, 20}

    def test_outcome_from_faults_replay(self):
        injector = NeuronFaultInjector(4)
        outcome = injector.outcome_from_faults(
            [(1, NeuronFaultType.VMEM_LEAK), (3, NeuronFaultType.SPIKE_GENERATION)]
        )
        assert not outcome.status.vmem_leak_ok[1]
        assert not outcome.status.spike_generation_ok[3]
        assert outcome.faulty_neuron_indices().tolist() == [1, 3]

    def test_replay_validation(self):
        injector = NeuronFaultInjector(2)
        with pytest.raises(ValueError):
            injector.outcome_from_faults([(5, NeuronFaultType.VMEM_RESET)])
        with pytest.raises(TypeError):
            injector.outcome_from_faults([(0, "reset")])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NeuronFaultInjector(0)


class TestFaultMap:
    def test_summary_counts(self):
        fault_map = FaultMap(
            crossbar_shape=(8, 4),
            synapse_flat_indices=np.array([0, 5]),
            synapse_bit_positions=np.array([1, 7]),
            neuron_faults=[(0, NeuronFaultType.VMEM_RESET)],
            fault_rate=0.1,
        )
        assert fault_map.n_synapse_faults == 2
        assert fault_map.n_neuron_faults == 1
        assert fault_map.n_faults == 3
        assert not fault_map.is_empty
        assert fault_map.neuron_fault_counts()[NeuronFaultType.VMEM_RESET] == 1
        assert fault_map.summary()["n_synapse_faults"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultMap(crossbar_shape=(0, 4))
        with pytest.raises(ValueError):
            FaultMap(
                crossbar_shape=(2, 2),
                synapse_flat_indices=np.array([10]),
                synapse_bit_positions=np.array([0]),
            )
        with pytest.raises(ValueError):
            FaultMap(
                crossbar_shape=(2, 2),
                neuron_faults=[(5, NeuronFaultType.VMEM_RESET)],
            )

    def test_negative_bit_positions_rejected(self):
        # Regression: negative positions used to pass FaultMap validation,
        # deferring the failure to replay time deep inside the injector.
        with pytest.raises(ValueError, match="non-negative"):
            FaultMap(
                crossbar_shape=(2, 2),
                synapse_flat_indices=np.array([0]),
                synapse_bit_positions=np.array([-1]),
            )

    def test_out_of_width_bit_positions_rejected(self):
        # Regression: a position at or beyond the drawn bit width used to
        # be accepted; replayed through a wider register format it would
        # silently flip bits the original quantizer cannot hold.
        with pytest.raises(ValueError, match="8-bit"):
            FaultMap(
                crossbar_shape=(2, 2),
                synapse_flat_indices=np.array([0]),
                synapse_bit_positions=np.array([8]),
                bit_width=8,
            )
        # In-range positions are fine, and the width is recorded.
        fault_map = FaultMap(
            crossbar_shape=(2, 2),
            synapse_flat_indices=np.array([0]),
            synapse_bit_positions=np.array([7]),
            bit_width=8,
        )
        assert fault_map.bit_width == 8

    def test_generated_maps_carry_bit_width(self):
        generator = FaultMapGenerator((8, 4), quantizer=WeightQuantizer(bits=8))
        fault_map = generator.generate(
            ComputeEngineFaultConfig.full_compute_engine(0.2), rng=0
        )
        assert fault_map.bit_width == 8


class TestFaultMapGenerator:
    def _generator(self):
        return FaultMapGenerator((16, 8), quantizer=WeightQuantizer(bits=8))

    def test_generate_respects_injection_switches(self):
        generator = self._generator()
        synapse_only = generator.generate(
            ComputeEngineFaultConfig.synapses_only(0.5), rng=0
        )
        assert synapse_only.n_synapse_faults > 0
        assert synapse_only.n_neuron_faults == 0
        neuron_only = generator.generate(
            ComputeEngineFaultConfig.neurons_only(0.5), rng=0
        )
        assert neuron_only.n_synapse_faults == 0
        assert neuron_only.n_neuron_faults > 0

    def test_same_seed_same_map(self):
        generator = self._generator()
        config = ComputeEngineFaultConfig.full_compute_engine(0.2)
        a = generator.generate(config, rng=42)
        b = generator.generate(config, rng=42)
        assert np.array_equal(a.synapse_flat_indices, b.synapse_flat_indices)
        assert a.neuron_faults == b.neuron_faults

    def test_different_seeds_usually_differ(self):
        generator = self._generator()
        config = ComputeEngineFaultConfig.full_compute_engine(0.2)
        a = generator.generate(config, rng=1)
        b = generator.generate(config, rng=2)
        assert (
            not np.array_equal(a.synapse_flat_indices, b.synapse_flat_indices)
            or a.neuron_faults != b.neuron_faults
        )


class TestFaultInjector:
    def test_inject_corrupts_network_state(self, trained_model):
        network = build_network(trained_model, rng=0)
        clean_registers = network.synapses.registers
        injector = FaultInjector(network)
        report = injector.inject(
            ComputeEngineFaultConfig.full_compute_engine(0.05), rng=1
        )
        assert report.n_synapse_faults > 0
        assert not np.array_equal(network.synapses.registers, clean_registers)
        assert network.neurons.operation_status.any_faulty or report.n_neuron_faults == 0

    def test_replaying_map_is_deterministic(self, trained_model):
        network_a = build_network(trained_model, rng=0)
        network_b = build_network(trained_model, rng=0)
        injector_a = FaultInjector(network_a)
        fault_map = injector_a.draw_fault_map(
            ComputeEngineFaultConfig.full_compute_engine(0.05), rng=7
        )
        injector_a.apply_fault_map(fault_map)
        FaultInjector(network_b).apply_fault_map(fault_map)
        assert np.array_equal(network_a.synapses.registers, network_b.synapses.registers)

    def test_mismatched_fault_map_rejected(self, trained_model):
        network = build_network(trained_model, rng=0)
        foreign = FaultMap(crossbar_shape=(2, 2))
        with pytest.raises(ValueError):
            FaultInjector(network).apply_fault_map(foreign)

    def test_restore_registers(self, trained_model):
        network = build_network(trained_model, rng=0)
        clean = network.synapses.registers
        injector = FaultInjector(network)
        injector.inject(ComputeEngineFaultConfig.synapses_only(0.1), rng=3)
        injector.restore_registers(clean)
        assert np.array_equal(network.synapses.registers, clean)

    def test_weight_increase_statistics_match_fig9_story(self, trained_model):
        """Bit flips must be able to push weights above the clean maximum."""
        network = build_network(trained_model, rng=0)
        injector = FaultInjector(network)
        report = injector.inject(ComputeEngineFaultConfig.synapses_only(0.1), rng=5)
        summary = report.weight_change_summary
        assert summary["n_above_clean_max"] > 0
        assert summary["faulty_max_weight"] > summary["clean_max_weight"]
