"""Spike-exact parity between the inference engine and the sequential oracle.

The inference engine (:mod:`repro.snn.engine`), driven through
``InferenceEngine.evaluate`` and the per-network ``BatchedInferenceEngine``
front end, and — for Bound-and-Protect — through a planned one-row
``evaluate_rows`` call, must be indistinguishable — spike raster for spike
raster, prediction for prediction — from the per-timestep reference loop
(:mod:`repro.snn.oracle`), under a fixed RNG, for
every fault scenario of the paper: the clean network, synapse-register bit
flips, and faulty neuron operations, including the faulty-``Vmem reset``
burst latch that couples consecutive samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bound_and_protect import BnPVariant, NeuronProtection
from repro.core.mitigation import BnPTechnique, NoMitigation
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.faults.injector import FaultInjector
from repro.faults.models import ComputeEngineFaultConfig
from repro.snn.engine import BatchedInferenceEngine, MapRow
from repro.snn.inference import InferenceEngine, evaluate_rows
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.neuron import NeuronOperationStatus
from repro.snn.oracle import evaluate_sequential, present_sequential
from repro.snn.synapse import BoundedWeightRule

N_NEURONS = 24
N_CLASSES = 6
TIMESTEPS = 40


@pytest.fixture(scope="module")
def parity_dataset():
    """Fourteen small synthetic digits."""
    return SyntheticMNIST().generate(n_samples=14, rng=11)


@pytest.fixture(scope="module")
def parity_config():
    return NetworkConfig(n_inputs=784, n_neurons=N_NEURONS, timesteps=TIMESTEPS)


@pytest.fixture()
def labels():
    return np.arange(N_NEURONS, dtype=np.int64) % N_CLASSES


def build_network(config, status=None):
    network = DiehlCookNetwork(config, rng=1)
    if status is not None:
        network.set_neuron_fault_status(status.copy())
    return network


def evaluate_as_row(network, labels, dataset, rng, batch_size, **mitigation):
    """Evaluate *network* as one planned row, the route Bound-and-Protect takes.

    ``mitigation`` holds the row's ``weight_rule`` and/or
    ``protection_trigger_cycles``.
    """
    row = MapRow(
        0, network.synapses.registers, network.neurons.operation_status, **mitigation
    )
    [result] = evaluate_rows(
        [row],
        [network.encoder.encode_batch(dataset.images, rng=rng)],
        labels,
        dataset.labels,
        quantizer=network.synapses.quantizer,
        params=network.neurons.params,
        theta=network.neurons.theta,
        batch_size=batch_size,
    )
    return result


def assert_results_identical(sequential, batched):
    assert np.array_equal(sequential.predictions, batched.predictions)
    assert np.array_equal(sequential.spike_counts, batched.spike_counts)
    assert sequential.total_input_spikes == batched.total_input_spikes
    assert sequential.accuracy == batched.accuracy


class TestCleanParity:
    def test_evaluate_matches_sequential(self, parity_dataset, parity_config, labels):
        sequential = evaluate_sequential(
            InferenceEngine(build_network(parity_config), labels),
            parity_dataset,
            rng=np.random.default_rng(7),
        )
        batched = InferenceEngine(build_network(parity_config), labels).evaluate(
            parity_dataset, rng=np.random.default_rng(7), batch_size=5
        )
        assert_results_identical(sequential, batched)

    def test_chunk_size_invariance(self, parity_dataset, parity_config, labels):
        outcomes = [
            InferenceEngine(build_network(parity_config), labels).evaluate(
                parity_dataset, rng=np.random.default_rng(7), batch_size=batch_size
            )
            for batch_size in (1, 5, 64)
        ]
        for other in outcomes[1:]:
            assert np.array_equal(outcomes[0].predictions, other.predictions)
            assert np.array_equal(outcomes[0].spike_counts, other.spike_counts)

    def test_spike_rasters_bitwise_identical(
        self, parity_dataset, parity_config, labels
    ):
        network = build_network(parity_config)
        generator = np.random.default_rng(3)
        reference = [
            present_sequential(network, image, rng=generator).output_spikes
            for image, _ in parity_dataset
        ]
        engine = BatchedInferenceEngine(build_network(parity_config))
        result = engine.run(parity_dataset.images, rng=np.random.default_rng(3))
        assert result.output_spikes.shape == (
            len(parity_dataset),
            TIMESTEPS,
            N_NEURONS,
        )
        for index, raster in enumerate(reference):
            assert np.array_equal(raster, result.output_spikes[index])

    def test_encode_batch_bitwise_matches_sequential_stream(self, parity_dataset):
        encoder = build_network(
            NetworkConfig(n_inputs=784, n_neurons=4, timesteps=TIMESTEPS)
        ).encoder
        sequential_rng = np.random.default_rng(9)
        reference = np.stack(
            [
                encoder.encode(image, rng=sequential_rng)
                for image in parity_dataset.images
            ]
        )
        batched = encoder.encode_batch(
            parity_dataset.images, rng=np.random.default_rng(9)
        )
        assert np.array_equal(reference, batched)

    def test_present_wrapper_matches_sequential(self, parity_config):
        image = SyntheticMNIST().render(4, rng=2)
        seq_net = build_network(parity_config)
        bat_net = build_network(parity_config)
        reference = present_sequential(seq_net, image, rng=np.random.default_rng(5))
        wrapped = bat_net.present(image, rng=np.random.default_rng(5))
        assert np.array_equal(reference.output_spikes, wrapped.output_spikes)
        assert np.array_equal(reference.spike_counts, wrapped.spike_counts)
        assert reference.input_spike_count == wrapped.input_spike_count
        # The wrapper leaves the neuron group in the sequential final state.
        assert np.array_equal(seq_net.neurons.last_spikes, bat_net.neurons.last_spikes)
        assert np.array_equal(
            seq_net.neurons.refractory_remaining,
            bat_net.neurons.refractory_remaining,
        )

    def test_classify_batch_matches_classify_counts(
        self, parity_dataset, parity_config, labels
    ):
        engine = InferenceEngine(build_network(parity_config), labels)
        counts = np.random.default_rng(0).integers(
            0, 30, size=(12, N_NEURONS)
        )
        batched = engine.classify_batch(counts)
        for index in range(counts.shape[0]):
            assert batched[index] == engine.classify_counts(counts[index])


class TestSynapseFaultParity:
    def _faulted_network(self, config, rate):
        network = build_network(config)
        injector = FaultInjector(network)
        injector.inject(
            ComputeEngineFaultConfig.synapses_only(rate),
            rng=np.random.default_rng(21),
        )
        return network

    @pytest.mark.parametrize("rate", [1e-2, 1e-1])
    def test_bit_flip_parity(self, parity_dataset, parity_config, labels, rate):
        sequential = evaluate_sequential(
            InferenceEngine(self._faulted_network(parity_config, rate), labels),
            parity_dataset,
            rng=np.random.default_rng(7),
        )
        batched = InferenceEngine(
            self._faulted_network(parity_config, rate), labels
        ).evaluate(parity_dataset, rng=np.random.default_rng(7), batch_size=4)
        assert_results_identical(sequential, batched)

    def test_effective_weights_parity(self, parity_dataset, parity_config, labels):
        # The engine's override is the symbolic bounding rule; bound at half
        # the clean maximum so many faulty and clean synapses are replaced.
        clean_max = build_network(parity_config).synapses.max_weight()
        bounded = BoundedWeightRule(threshold=0.5 * clean_max, substitute=0.1 * clean_max)
        sequential = evaluate_sequential(
            InferenceEngine(self._faulted_network(parity_config, 1e-1), labels),
            parity_dataset,
            rng=np.random.default_rng(7),
            effective_weights=bounded,
        )
        batched = evaluate_as_row(
            self._faulted_network(parity_config, 1e-1),
            labels,
            parity_dataset,
            rng=np.random.default_rng(7),
            batch_size=6,
            weight_rule=bounded,
        )
        assert_results_identical(sequential, batched)
        assert batched.bounded_synapses > 0


class TestNeuronFaultParity:
    def _status(self):
        status = NeuronOperationStatus.healthy(N_NEURONS)
        status.vmem_leak_ok[3] = False
        status.vmem_increase_ok[6] = False
        status.spike_generation_ok[9] = False
        status.vmem_reset_ok[[1, 12]] = False
        return status

    def test_all_operation_faults_parity(self, parity_dataset, parity_config, labels):
        seq_net = build_network(parity_config, self._status())
        bat_net = build_network(parity_config, self._status())
        sequential = evaluate_sequential(
            InferenceEngine(seq_net, labels),
            parity_dataset, rng=np.random.default_rng(7)
        )
        batched = InferenceEngine(bat_net, labels).evaluate(
            parity_dataset, rng=np.random.default_rng(7), batch_size=5
        )
        assert_results_identical(sequential, batched)
        # The faulty-reset burst latch must agree after the whole dataset…
        assert np.array_equal(
            seq_net.neurons.reset_fault_latched, bat_net.neurons.reset_fault_latched
        )
        assert seq_net.neurons.reset_fault_latched.any()

    def test_latch_crosses_sample_boundaries_mid_batch(self, parity_config, labels):
        # Sample 0 is blank (no input spikes, nothing can latch); the bright
        # samples afterwards trip the faulty-reset latch mid-batch, forcing
        # the engine's fix-up to re-simulate the tail with updated latches.
        renderer = SyntheticMNIST()
        images = np.stack(
            [np.zeros((28, 28))]
            + [renderer.render(d, rng=d) for d in (3, 8, 1, 5, 0, 7)]
        )
        from repro.data.datasets import Dataset

        dataset = Dataset(images=images, labels=np.zeros(7, dtype=np.int64))

        status = NeuronOperationStatus.healthy(N_NEURONS)
        status.vmem_reset_ok[[2, 17]] = False

        seq_net = build_network(parity_config, status)
        bat_net = build_network(parity_config, status)
        sequential = evaluate_sequential(
            InferenceEngine(seq_net, labels),
            dataset, rng=np.random.default_rng(13)
        )
        engine = BatchedInferenceEngine(bat_net)
        result = engine.run(dataset.images, rng=np.random.default_rng(13))
        assert result.simulation_passes > 1
        assert np.array_equal(sequential.spike_counts, result.spike_counts)
        assert np.array_equal(
            seq_net.neurons.reset_fault_latched, result.final_reset_latch
        )
        # The blank first sample must not carry any latch.
        assert not result.final_state.reset_fault_latched[0][
            ~seq_net.neurons.reset_fault_latched
        ].any()

    def test_latch_fixup_iterates_until_no_new_latch(self, parity_config, labels):
        # Half the neurons have faulty resets; one of them first latches a
        # sample after the others, so the fix-up needs a second
        # re-simulation with the grown latch set.
        renderer = SyntheticMNIST()
        images = np.stack(
            [np.zeros((28, 28))]
            + [renderer.render(d, rng=d) for d in (3, 8, 1, 5, 0, 7, 2, 6)]
        )
        from repro.data.datasets import Dataset

        dataset = Dataset(images=images, labels=np.zeros(9, dtype=np.int64))
        status = NeuronOperationStatus.healthy(N_NEURONS)
        status.vmem_reset_ok[::2] = False

        seq_net = build_network(parity_config, status)
        sequential = evaluate_sequential(
            InferenceEngine(seq_net, labels), dataset, rng=np.random.default_rng(13)
        )
        result = BatchedInferenceEngine(build_network(parity_config, status)).run(
            dataset.images, rng=np.random.default_rng(13)
        )
        assert result.simulation_passes >= 3
        assert np.array_equal(sequential.spike_counts, result.spike_counts)
        assert np.array_equal(
            seq_net.neurons.reset_fault_latched, result.final_reset_latch
        )


class TestProtectionParity:
    def _status(self):
        status = NeuronOperationStatus.healthy(N_NEURONS)
        status.vmem_reset_ok[[2, 17]] = False
        return status

    def test_neuron_protection_gating_and_stats(
        self, parity_dataset, parity_config, labels
    ):
        seq_net = build_network(parity_config, self._status())
        protection = NeuronProtection(trigger_cycles=2)
        sequential = evaluate_sequential(
            InferenceEngine(seq_net, labels),
            parity_dataset,
            rng=np.random.default_rng(7),
            step_monitor=protection,
        )
        batched = evaluate_as_row(
            build_network(parity_config, self._status()),
            labels,
            parity_dataset,
            rng=np.random.default_rng(7),
            batch_size=4,
            protection_trigger_cycles=2,
        )
        assert_results_identical(sequential, batched)
        assert batched.protected_neurons == protection.protected_neurons
        assert batched.protection_activations == protection.activation_count
        assert protection.n_protected > 0

    def test_bnp_technique_batch_size_invariance(self, trained_model, small_split):
        _, test_set = small_split
        technique = BnPTechnique(BnPVariant.BNP2)
        config = ComputeEngineFaultConfig.full_compute_engine(1e-1)
        outcomes = [
            technique.evaluate(
                trained_model,
                test_set,
                fault_config=config,
                rng=np.random.default_rng(17),
                batch_size=batch_size,
            )
            for batch_size in (3, 64)
        ]
        assert np.array_equal(outcomes[0].predictions, outcomes[1].predictions)
        assert np.array_equal(outcomes[0].spike_counts, outcomes[1].spike_counts)

    def test_no_mitigation_batch_size_invariance(self, trained_model, small_split):
        _, test_set = small_split
        outcomes = [
            NoMitigation().evaluate(
                trained_model,
                test_set,
                fault_config=ComputeEngineFaultConfig.synapses_only(1e-2),
                rng=np.random.default_rng(23),
                batch_size=batch_size,
            )
            for batch_size in (2, 60)
        ]
        assert np.array_equal(outcomes[0].predictions, outcomes[1].predictions)


class TestEngineValidation:
    def test_rejects_bad_batch_size(self, parity_dataset, parity_config, labels):
        engine = InferenceEngine(build_network(parity_config), labels)
        with pytest.raises(ValueError):
            engine.evaluate(parity_dataset, rng=0, batch_size=0)

    def test_rejects_wrong_image_width(self, parity_config):
        engine = BatchedInferenceEngine(build_network(parity_config))
        with pytest.raises(ValueError):
            engine.run(np.zeros((3, 10, 10)))

    def test_rejects_empty_batch(self, parity_config):
        engine = BatchedInferenceEngine(build_network(parity_config))
        with pytest.raises(ValueError):
            engine.run_encoded(np.zeros((0, TIMESTEPS, 784), dtype=bool))

    def test_rejects_bad_raster_shape(self, parity_config):
        engine = BatchedInferenceEngine(build_network(parity_config))
        with pytest.raises(ValueError):
            engine.run_encoded(np.zeros((2, TIMESTEPS, 99), dtype=bool))
