"""Tests for the network, training pipeline and inference engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_mnist import SyntheticMNIST
from repro.snn.engine import MapParallelEngine, MapRow
from repro.snn.inference import InferenceEngine, InferenceResult
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.oracle import build_network, train_sequential
from repro.snn.stdp import STDPConfig
from repro.snn.synapse import BoundedWeightRule
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner


class TestNetworkConfig:
    def test_defaults_valid(self):
        config = NetworkConfig()
        assert config.n_inputs == 784
        assert config.make_quantizer(0.05).bits == 8

    def test_auto_full_scale_uses_clean_max(self):
        config = NetworkConfig()
        quantizer = config.make_quantizer(clean_max_weight=0.05)
        assert quantizer.full_scale == pytest.approx(0.1)

    def test_explicit_full_scale_wins(self):
        config = NetworkConfig(weight_full_scale=3.0)
        assert config.make_quantizer(0.05).full_scale == 3.0

    def test_training_quantizer_is_high_precision(self):
        assert NetworkConfig().make_training_quantizer().bits == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_neurons=0)
        with pytest.raises(ValueError):
            NetworkConfig(timesteps=0)
        with pytest.raises(ValueError):
            NetworkConfig(weight_full_scale=-1.0)
        with pytest.raises(ValueError):
            NetworkConfig(target_total_intensity=0.0)


class TestDiehlCookNetwork:
    def _network(self, n_neurons=10, timesteps=40):
        config = NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=timesteps)
        return DiehlCookNetwork(config, rng=0)

    def test_present_returns_sample_result(self):
        network = self._network()
        image = SyntheticMNIST().render(3, rng=1)
        result = network.present(image, rng=2)
        assert result.spike_counts.shape == (10,)
        assert result.output_spikes.shape == (40, 10)
        assert result.input_spike_count > 0

    def test_wrong_image_size_raises(self):
        network = self._network()
        with pytest.raises(ValueError):
            network.present(np.zeros((10, 10)))

    def test_learning_changes_weights(self):
        # Same seed, same presentations; only the STDP learning rates
        # differ, so any weight difference is the learning rule's doing.
        # A large normalisation total makes the untrained network spike
        # (at the default 3.0 it stays silent on one sample).
        dataset = SyntheticMNIST().generate(n_samples=1, rng=1)
        training = TrainingConfig(
            epochs=1,
            learning_mode="pairwise_stdp",
            label_assignment_mode="fast",
            weight_norm_total=20.0,
        )

        def train(stdp):
            config = NetworkConfig(
                n_inputs=784, n_neurons=10, timesteps=40, stdp=stdp
            )
            return train_sequential(
                TrainingRunner(config, training), dataset, rng=2
            ).weights

        before = train(STDPConfig(learning_rate_pre=0.0, learning_rate_post=0.0))
        assert not np.allclose(train(STDPConfig()), before)

    def test_inference_does_not_change_weights(self):
        network = self._network()
        before = network.synapses.weights
        image = SyntheticMNIST().render(0, rng=1)
        network.present(image, rng=2)
        assert np.array_equal(network.synapses.weights, before)

    def test_effective_weights_override(self):
        network = self._network()
        image = SyntheticMNIST().render(5, rng=1)
        # The bounding rule reaches the engine on a row: a zero threshold
        # bounds every synapse, a zero substitute silences it.
        row = MapRow(
            0,
            network.synapses.registers,
            network.neurons.operation_status,
            weight_rule=BoundedWeightRule(0.0, 0.0),
        )
        engine = MapParallelEngine(
            [row],
            quantizer=network.synapses.quantizer,
            params=network.neurons.params,
            theta=network.neurons.theta,
        )
        silent = engine.run_encoded([network.encoder.encode_batch(image, rng=3)])
        assert silent.spike_counts.sum() == 0
        assert network.present(image, rng=3).total_output_spikes > 0

    def test_normalize_weights_sets_column_sums(self):
        network = self._network()
        network.normalize_weights(2.5)
        sums = network.synapses.weights.sum(axis=0)
        # The deployed 8-bit register grid re-quantises the normalised weights,
        # so the column sums land near (not exactly on) the target, and all
        # columns are balanced against each other.
        assert np.all(np.abs(sums - 2.5) < 0.4)
        assert sums.max() - sums.min() < 0.4

    def test_normalize_weights_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self._network().normalize_weights(0.0)

    def test_clear_neuron_faults(self):
        network = self._network()
        status = network.neurons.operation_status
        status.vmem_reset_ok[0] = False
        network.set_neuron_fault_status(status)
        network.clear_neuron_faults()
        assert not network.neurons.operation_status.any_faulty


class TestTrainingConfig:
    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_mode="backprop")
        with pytest.raises(ValueError):
            TrainingConfig(label_assignment_mode="magic")

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            TrainingConfig(wta_learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(conscience_decay=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)


class TestSTDPTrainer:
    @pytest.fixture(scope="class")
    def tiny_data(self):
        data = SyntheticMNIST().generate(n_samples=40, rng=3, classes=[0, 1, 2, 3])
        return data

    def _config(self, n_neurons=16, timesteps=50):
        return NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=timesteps)

    def test_fast_wta_training_produces_valid_model(self, tiny_data):
        trainer = TrainingRunner(
            self._config(),
            TrainingConfig(epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"),
        )
        model = trainer.train(tiny_data, rng=0)
        assert model.weights.shape == (784, 16)
        assert model.clean_max_weight > 0
        assert 0 <= model.clean_most_probable_weight <= model.clean_max_weight
        assert model.neuron_labels.shape == (16,)
        assert set(np.unique(model.neuron_labels)).issubset(set(range(10)))

    def test_most_probable_weight_within_clean_range(self, tiny_data):
        """``wgh_hp`` (BnP3's substitute) is a non-zero weight up to ``wgh_max``."""
        model = TrainingRunner(
            self._config(),
            TrainingConfig(epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"),
        ).train(tiny_data, rng=0)
        assert 0.0 < model.clean_most_probable_weight <= model.clean_max_weight

    def test_spiking_wta_training_runs(self, tiny_data):
        trainer = TrainingRunner(
            self._config(n_neurons=8, timesteps=40),
            TrainingConfig(
                epochs=1, learning_mode="spiking_wta", label_assignment_mode="fast"
            ),
        )
        model = trainer.train(tiny_data.take(16, rng=0), rng=1)
        assert model.clean_max_weight > 0
        assert "epoch_neurons_used" in model.training_history

    def test_pairwise_stdp_training_runs(self, tiny_data):
        trainer = TrainingRunner(
            self._config(n_neurons=8, timesteps=30),
            TrainingConfig(epochs=1, learning_mode="pairwise_stdp",
                           label_assignment_mode="fast"),
        )
        model = trainer.train(tiny_data.take(10, rng=0), rng=1)
        assert model.weights.min() >= 0.0
        assert "epoch_mean_spikes" in model.training_history

    def test_training_is_deterministic_given_seed(self, tiny_data):
        def train_once():
            trainer = TrainingRunner(
                self._config(),
                TrainingConfig(epochs=1, learning_mode="fast_wta",
                               label_assignment_mode="fast"),
            )
            return trainer.train(tiny_data, rng=5)

        a, b = train_once(), train_once()
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.neuron_labels, b.neuron_labels)

    def test_learning_achieves_better_than_chance(self, tiny_data):
        trainer = TrainingRunner(
            self._config(n_neurons=20),
            TrainingConfig(epochs=2, learning_mode="fast_wta",
                           label_assignment_mode="fast"),
        )
        model = trainer.train(tiny_data, rng=2)
        engine = InferenceEngine(build_network(model, rng=3), model.neuron_labels)
        result = engine.evaluate(tiny_data, rng=4)
        # Four classes -> chance is 25%; the trained network must beat it clearly.
        assert result.accuracy_percent > 40.0

    def test_empty_dataset_raises(self):
        trainer = TrainingRunner(self._config())
        with pytest.raises(ValueError):
            trainer.train(
                SyntheticMNIST().generate(n_samples=5, rng=0).subset(np.array([], int))
            )

    def test_wrong_input_dimension_raises(self):
        small_images = SyntheticMNIST(side=14).generate(n_samples=5, rng=0)
        trainer = TrainingRunner(self._config())
        with pytest.raises(ValueError):
            trainer.train(small_images)


class TestTrainedModel:
    def test_build_network_loads_weights_and_is_independent(self, trained_model):
        net_a = build_network(trained_model, rng=0)
        net_b = build_network(trained_model, rng=0)
        net_a.synapses.apply_bit_flips(np.array([0]), np.array([7]))
        assert not np.array_equal(net_a.synapses.registers, net_b.synapses.registers)
        # The deployed full scale has the documented 2x headroom.
        assert net_b.synapses.quantizer.full_scale == pytest.approx(
            2.0 * trained_model.clean_max_weight
        )

    def test_deployment_full_scale_property(self, trained_model):
        assert trained_model.deployment_full_scale == pytest.approx(
            2.0 * trained_model.clean_max_weight
        )

    def test_to_dict_is_serialisable(self, trained_model):
        payload = trained_model.to_dict()
        assert payload["n_neurons"] == trained_model.n_neurons
        assert len(payload["neuron_labels"]) == trained_model.n_neurons

    def test_shape_validation(self, tiny_network_config):
        with pytest.raises(ValueError):
            TrainedModel(
                network_config=tiny_network_config,
                weights=np.zeros((3, 3)),
                theta=np.zeros(tiny_network_config.n_neurons),
                neuron_labels=np.zeros(tiny_network_config.n_neurons, dtype=int),
                clean_max_weight=0.1,
                clean_most_probable_weight=0.05,
            )


class TestInferenceEngine:
    def test_evaluate_returns_consistent_result(self, trained_model, small_split):
        _, test_set = small_split
        engine = InferenceEngine(
            build_network(trained_model, rng=1), trained_model.neuron_labels
        )
        result = engine.evaluate(test_set, rng=2)
        assert result.n_samples == len(test_set)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.spike_counts.shape == (len(test_set), trained_model.n_neurons)
        assert result.total_input_spikes > 0

    def test_confusion_matrix_rows_sum_to_class_counts(self, trained_model, small_split):
        _, test_set = small_split
        engine = InferenceEngine(
            build_network(trained_model, rng=1), trained_model.neuron_labels
        )
        result = engine.evaluate(test_set, rng=2)
        matrix = result.confusion_matrix()
        for cls, count in test_set.class_counts().items():
            assert matrix[cls].sum() == count

    def test_classify_counts_prefers_most_active_label_group(self, trained_model):
        engine = InferenceEngine(
            build_network(trained_model, rng=1), trained_model.neuron_labels
        )
        counts = np.zeros(trained_model.n_neurons)
        target_label = int(trained_model.neuron_labels[0])
        counts[trained_model.neuron_labels == target_label] = 10
        assert engine.classify_counts(counts) == target_label

    def test_label_shape_validation(self, trained_model):
        with pytest.raises(ValueError):
            InferenceEngine(build_network(trained_model, rng=0), np.zeros(3, dtype=int))

    def test_empty_dataset_raises(self, trained_model, small_dataset):
        engine = InferenceEngine(
            build_network(trained_model, rng=1), trained_model.neuron_labels
        )
        with pytest.raises(ValueError):
            engine.evaluate(small_dataset.subset(np.array([], dtype=int)))

    def test_inference_result_validation(self):
        with pytest.raises(ValueError):
            InferenceResult(
                predictions=np.zeros(3, dtype=int),
                labels=np.zeros(4, dtype=int),
                spike_counts=np.zeros((3, 2), dtype=int),
            )
