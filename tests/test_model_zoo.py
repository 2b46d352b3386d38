"""Model-zoo suite: per-model parity, encoders, registries and round-trips.

The neuron-model layer's contract is that every registered model composes
with the existing fault-injection, mitigation and campaign machinery
unchanged, and that the default LIF/Poisson pair stays byte-identical to
the pre-zoo behaviour.  This suite pins both halves: kernel-level
equivalences (CUBA with zero current decay *is* the LIF model; the
fixed-point model stays on its integer grid; every model's advance is
pinned to a golden digest; a model defining only its dynamics runs
through the shared timestep loop), per-model /
per-encoding engine parity (chunk-size invariance under clean, faulty and
protected modes; map-parallel vs batched bit-identity), training parity
(vectorized vs sequential WTA per model; the pairwise-STDP guard),
snapshot and serving-registry round-trips including sidecars written
before the zoo existed, and the campaign-layer serialization contract
(labels, ``to_dict`` omission at defaults, grid axes).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.bound_and_protect import BnPVariant, WeightBounding
from repro.eval.campaign import CampaignSpec
from repro.eval.experiment import ExperimentConfig
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.hardware.enhancements import MitigationKind
from repro.serve.registry import ModelRegistry
from repro.snn.encoding import (
    DEFAULT_ENCODING,
    PoissonEncoder,
    TTFSEncoder,
    available_encodings,
    get_encoder,
    register_encoder,
)
from repro.snn.engine import MapParallelEngine, MapRow, protection_counts
from repro.snn import oracle
from repro.snn.oracle import evaluate_sequential, train_sequential
from repro.snn.inference import InferenceEngine, class_indicator, evaluate_rows
from repro.snn.kernels import (
    KernelWorkspace,
    LIFDynamics,
    LIFStepConfig,
    OperationMasks,
)
from repro.snn.models import (
    DEFAULT_NEURON_MODEL,
    CurrentLIFModel,
    FixedPointLIFModel,
    LIFModel,
    NeuronModel,
    available_models,
    get_model,
    register_model,
    resolve_model,
)
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.neuron import NeuronOperationStatus
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner
from repro.utils.serialization import load_json, save_json

N_NEURONS = 16
TIMESTEPS = 30
MODELS = ("lif", "cuba_lif", "fixed_point_lif")
ENCODINGS = ("poisson", "ttfs")


@pytest.fixture(scope="module")
def zoo_dataset():
    """Ten small synthetic digits shared by the parity tests."""
    return SyntheticMNIST().generate(n_samples=10, rng=11)


@pytest.fixture()
def labels():
    return np.arange(N_NEURONS, dtype=np.int64) % 4


def zoo_config(model=DEFAULT_NEURON_MODEL, encoding=DEFAULT_ENCODING):
    return NetworkConfig(
        n_inputs=784,
        n_neurons=N_NEURONS,
        timesteps=TIMESTEPS,
        neuron_model=model,
        encoding=encoding,
    )


def build_network(config, status=None):
    network = DiehlCookNetwork(config, rng=1)
    if status is not None:
        network.set_neuron_fault_status(status.copy())
    return network


def faulty_status():
    """One fault of every operation kind, including two faulty resets."""
    status = NeuronOperationStatus.healthy(N_NEURONS)
    status.vmem_leak_ok[3] = False
    status.vmem_increase_ok[6] = False
    status.spike_generation_ok[9] = False
    status.vmem_reset_ok[[1, 12]] = False
    return status


def handmade_model(model_name, encoding=DEFAULT_ENCODING):
    """A deterministic trained model without paying for actual training."""
    config = zoo_config(model_name, encoding)
    rng = np.random.default_rng(3)
    return TrainedModel(
        network_config=config,
        weights=rng.random((784, N_NEURONS)),
        theta=rng.random(N_NEURONS) * 0.05,
        neuron_labels=np.arange(N_NEURONS, dtype=np.int64) % 4,
        clean_max_weight=1.0,
        clean_most_probable_weight=0.6,
    )


def row_engine(network, protection_trigger_cycles=None):
    """A one-row engine of *network*'s registers, health and neuron model."""
    row = MapRow(
        0,
        network.synapses.registers,
        network.neurons.operation_status,
        protection_trigger_cycles=protection_trigger_cycles,
    )
    return MapParallelEngine(
        [row],
        quantizer=network.synapses.quantizer,
        params=network.neurons.params,
        theta=network.neurons.theta,
        model=network.config.neuron_model,
    )


def run_chunked(engine, raster, batch_size):
    """Chunked ``run_encoded`` calls of a one-row engine, latch carried.

    Returns the spike counts, the final faulty-reset latch, the protection
    activations and the mask of protected neurons.
    """
    latch = None
    counts = []
    activations = 0
    protected = np.zeros(engine.n_neurons, dtype=bool)
    for start in range(0, raster.shape[0], batch_size):
        chunk = engine.run_encoded(
            [raster[start : start + batch_size]], initial_reset_latch=latch
        )
        latch = chunk.final_reset_latch
        counts.append(chunk.spike_counts[0])
        gated, gated_neurons = protection_counts(chunk.final_state.spike_disabled[0])
        activations += int(gated)
        protected |= gated_neurons
    return np.concatenate(counts), latch[0], activations, protected


def assert_outcomes_equal(first, second):
    for ours, theirs in zip(first, second):
        assert np.array_equal(ours, theirs)


# --------------------------------------------------------------------- #
# registries
# --------------------------------------------------------------------- #
class TestModelRegistry:
    def test_shipped_models_are_registered(self):
        names = available_models()
        for name in MODELS:
            assert name in names

    def test_unknown_model_raises_with_known_names(self):
        with pytest.raises(ValueError, match="lif"):
            get_model("hodgkin_huxley")

    def test_duplicate_registration_requires_replace(self):
        class _Probe(NeuronModel):
            name = "_zoo_probe"

        register_model(_Probe())
        with pytest.raises(ValueError, match="already registered"):
            register_model(_Probe())
        register_model(_Probe(), replace=True)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_model(NeuronModel())

    def test_resolve_model_normalises_selectors(self):
        assert resolve_model(None) is get_model(DEFAULT_NEURON_MODEL)
        assert resolve_model("cuba_lif") is get_model("cuba_lif")
        instance = CurrentLIFModel(current_decay=0.25)
        assert resolve_model(instance) is instance

    def test_shipped_model_types(self):
        assert isinstance(get_model("lif"), LIFModel)
        assert isinstance(get_model("cuba_lif"), CurrentLIFModel)
        assert isinstance(get_model("fixed_point_lif"), FixedPointLIFModel)

    def test_hyper_parameter_validation(self):
        with pytest.raises(ValueError):
            CurrentLIFModel(current_decay=1.0)
        with pytest.raises(ValueError):
            FixedPointLIFModel(weight_exp=17)
        with pytest.raises(ValueError):
            FixedPointLIFModel(decay_bits=0)

    def test_network_config_validates_names_at_construction(self):
        with pytest.raises(ValueError, match="unknown neuron model"):
            NetworkConfig(n_neurons=4, neuron_model="bogus")
        with pytest.raises(ValueError, match="unknown encoding"):
            NetworkConfig(n_neurons=4, encoding="bogus")


class TestEncoderRegistry:
    def test_shipped_encodings_are_registered(self):
        names = available_encodings()
        for name in ENCODINGS:
            assert name in names

    def test_unknown_encoding_raises_with_known_names(self):
        with pytest.raises(ValueError, match="poisson"):
            get_encoder("rank_order")

    def test_duplicate_registration_requires_replace(self):
        register_encoder("_zoo_probe_enc", PoissonEncoder)
        with pytest.raises(ValueError, match="already registered"):
            register_encoder("_zoo_probe_enc", PoissonEncoder)
        register_encoder("_zoo_probe_enc", TTFSEncoder, replace=True)

    def test_make_encoder_dispatches_by_name(self):
        assert isinstance(zoo_config().make_encoder(), PoissonEncoder)
        encoder = zoo_config(encoding="ttfs").make_encoder()
        assert isinstance(encoder, TTFSEncoder)
        assert encoder.timesteps == TIMESTEPS


# --------------------------------------------------------------------- #
# TTFS encoder semantics
# --------------------------------------------------------------------- #
class TestTTFSEncoder:
    def _encoder(self):
        return TTFSEncoder(timesteps=TIMESTEPS, max_rate=0.25)

    def test_one_spike_per_active_pixel(self):
        image = SyntheticMNIST().render(5, rng=2)
        encoder = self._encoder()
        raster = encoder.encode(image)
        counts = raster.sum(axis=0)
        assert np.array_equal(
            counts.astype(np.float64), encoder.expected_spike_counts(image)
        )
        assert counts.max() <= 1

    def test_brighter_pixels_spike_earlier(self):
        image = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        times = self._encoder().spike_times(image)
        assert times[0] == -1  # zero-intensity pixel stays silent
        active = times[times >= 0]
        # Monotone non-increasing latency as intensity rises.
        assert np.all(np.diff(active) <= 0)
        assert active[-1] == 0  # the brightest pixel fires first

    def test_deterministic_and_rng_untouched(self):
        image = SyntheticMNIST().render(3, rng=4)
        encoder = self._encoder()
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        first = encoder.encode(image, rng=rng)
        assert rng.bit_generator.state == state_before
        second = encoder.encode(image, rng=np.random.default_rng(999))
        assert np.array_equal(first, second)

    def test_batch_equals_stacked_sequential(self):
        images = np.stack([SyntheticMNIST().render(d, rng=d) for d in (1, 4, 7)])
        encoder = self._encoder()
        stacked = np.stack([encoder.encode(image) for image in images])
        batched = encoder.encode_batch(images, rng=np.random.default_rng(1))
        assert np.array_equal(stacked, batched)

    def test_blank_image_is_silent(self):
        raster = self._encoder().encode(np.zeros((28, 28)))
        assert not raster.any()


# --------------------------------------------------------------------- #
# kernel-level equivalences
# --------------------------------------------------------------------- #
class TestKernelEquivalences:
    def _setup(self, rng, rows=2, batch=3, n=8, timesteps=20):
        statuses = [NeuronOperationStatus.healthy(n) for _ in range(rows)]
        statuses[0].vmem_reset_ok[1] = False
        statuses[0].spike_generation_ok[2] = False
        masks = OperationMasks.stack(statuses)
        currents = rng.random((timesteps, rows, batch, n)) * 2.0 - 0.2
        threshold = 0.8 + rng.random(n)
        shape = (rows, batch, n)
        state = {
            "v": rng.random(shape),
            "refractory": np.zeros(shape, dtype=np.int64),
            "counter": np.zeros(shape, dtype=np.int64),
            "disabled": np.zeros(shape, dtype=bool),
            "latched": np.zeros(shape, dtype=bool),
        }
        config = LIFStepConfig(
            v_rest=0.0,
            v_reset=0.0,
            v_min=-2.0,
            membrane_decay=0.9,
            refractory_period=3,
            inhibition_strength=1.0,
        )
        return masks, currents, threshold, state, config

    def _advance(self, model, masks, currents, threshold, state, config):
        state = {key: value.copy() for key, value in state.items()}
        shape = state["v"].shape
        output = np.zeros(currents.shape, dtype=bool)
        model.advance(
            currents,
            output,
            state["v"],
            state["refractory"],
            state["counter"],
            state["disabled"],
            state["latched"],
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            masks,
            threshold,
            config,
            KernelWorkspace(),
        )
        return output, state

    def test_cuba_zero_decay_is_lif_bitwise(self):
        """``current_decay=0`` degenerates CUBA to the LIF kernel exactly."""
        masks, currents, threshold, state, config = self._setup(
            np.random.default_rng(42)
        )
        lif_out, lif_state = self._advance(
            LIFModel(), masks, currents, threshold, state, config
        )
        cuba_out, cuba_state = self._advance(
            CurrentLIFModel(current_decay=0.0),
            masks, currents, threshold, state, config,
        )
        assert np.array_equal(lif_out, cuba_out)
        for key in state:
            assert np.array_equal(lif_state[key], cuba_state[key]), key

    def test_cuba_current_state_changes_dynamics(self):
        """Nonzero decay must actually integrate a current state."""
        masks, currents, threshold, state, config = self._setup(
            np.random.default_rng(43)
        )
        zero, _ = self._advance(
            CurrentLIFModel(current_decay=0.0),
            masks, currents, threshold, state, config,
        )
        half, _ = self._advance(
            CurrentLIFModel(current_decay=0.5),
            masks, currents, threshold, state, config,
        )
        assert not np.array_equal(zero, half)

    def test_fixed_point_membrane_stays_on_grid(self):
        """Exit membranes are exact multiples of ``2**-weight_exp``."""
        masks, currents, threshold, state, config = self._setup(
            np.random.default_rng(44)
        )
        weight_exp = 6
        _, fp_state = self._advance(
            FixedPointLIFModel(weight_exp=weight_exp, decay_bits=12),
            masks, currents, threshold, state, config,
        )
        scaled = fp_state["v"] * (1 << weight_exp)
        assert np.array_equal(scaled, np.floor(scaled))


#: sha256 of one seeded advance per shipped model (faulty masks of all four
#: operations, protection triggers, lateral inhibition on): the output
#: raster followed by the final v / refractory / counter / disabled /
#: latched bytes.  Pinned from the per-model kernels, so any change to the
#: shared timestep skeleton or a model's dynamics that moves one bit fails.
GOLDEN_ADVANCE_DIGESTS = {
    "lif": "32704d646ff3e79a026a214bfa4bbd61c75361e8eb9c835990ae69ce7ffadbaf",
    "cuba_lif": "d525c814f4153267d71fd928a2ddcb2664c3c0dd68d1fe36bab5522b754b674f",
    "fixed_point_lif": (
        "eb82ddc2c06e9ebf66065e7ca3c32789d609410975da799ee1926e1d52b68315"
    ),
}


class TestGoldenAdvanceDigests:
    @staticmethod
    def _case():
        rng = np.random.default_rng(2024)
        rows, batch, n, timesteps = 2, 3, 10, 40
        statuses = [NeuronOperationStatus.healthy(n) for _ in range(rows)]
        statuses[0].vmem_leak_ok[[2, 7]] = False
        statuses[0].vmem_increase_ok[4] = False
        statuses[0].vmem_reset_ok[[1, 5]] = False
        statuses[0].spike_generation_ok[8] = False
        statuses[1].vmem_reset_ok[3] = False
        statuses[1].spike_generation_ok[[0, 6]] = False
        currents = rng.random((timesteps, rows, batch, n)) * 1.6 - 0.2
        threshold = 0.7 + rng.random(n)
        shape = (rows, batch, n)
        state = [
            rng.random(shape) - 0.5,
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
        ]
        config = LIFStepConfig(
            v_rest=0.0,
            v_reset=-0.25,
            v_min=-1.5,
            membrane_decay=0.85,
            refractory_period=2,
            inhibition_strength=0.3,
        )
        triggers = np.array([3, 5], dtype=np.int64)
        return OperationMasks.stack(statuses), currents, threshold, state, config, triggers

    @pytest.mark.parametrize("model", MODELS)
    def test_advance_matches_pinned_digest(self, model):
        import hashlib

        masks, currents, threshold, state, config, triggers = self._case()
        shape = state[0].shape
        output = np.zeros(currents.shape, dtype=bool)
        get_model(model).advance(
            currents,
            output,
            *state,
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            masks,
            threshold,
            config,
            KernelWorkspace(),
            triggers=triggers,
        )
        assert output.any() and state[4].any() and state[3].any()
        digest = hashlib.sha256()
        for array in (output, *state):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == GOLDEN_ADVANCE_DIGESTS[model]


class _SlowLeakModel(NeuronModel):
    """A toy model that defines only its dynamics: LIF with a slower leak."""

    name = "_zoo_slow_leak"

    def dynamics(self, config, threshold, v):
        return LIFDynamics(replace(config, membrane_decay=0.99), threshold)


class TestDynamicsOnlyModel:
    """The shared timestep loop supplies everything but the dynamics."""

    def test_registered_toy_model_is_chunk_size_invariant(self, zoo_dataset):
        model = register_model(_SlowLeakModel(), replace=True)
        assert "advance" not in vars(type(model))
        network = build_network(zoo_config(model.name), faulty_status())
        raster = network.encoder.encode_batch(
            zoo_dataset.images, rng=np.random.default_rng(7)
        )
        engine = row_engine(network, protection_trigger_cycles=2)
        outcomes = [run_chunked(engine, raster, batch_size) for batch_size in (1, 4)]
        assert outcomes[0][0].sum() > 0
        assert_outcomes_equal(*outcomes)
        lif = row_engine(
            build_network(zoo_config(), faulty_status()), protection_trigger_cycles=2
        )
        assert not np.array_equal(run_chunked(lif, raster, 4)[0], outcomes[0][0])


# --------------------------------------------------------------------- #
# per-model engine parity
# --------------------------------------------------------------------- #
class TestPerModelEngineParity:
    """Batch-of-one chunking is the sequential-order reference for models
    whose dynamics the per-timestep ``LIFNeuronGroup`` loop cannot express."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("model", MODELS)
    def test_chunk_size_invariance_clean(self, zoo_dataset, labels, model, encoding):
        config = zoo_config(model, encoding)
        outcomes = [
            InferenceEngine(build_network(config), labels).evaluate(
                zoo_dataset, rng=np.random.default_rng(7), batch_size=batch_size
            )
            for batch_size in (1, 4, 64)
        ]
        assert outcomes[0].spike_counts.sum() > 0  # the model actually spikes
        for other in outcomes[1:]:
            assert np.array_equal(outcomes[0].predictions, other.predictions)
            assert np.array_equal(outcomes[0].spike_counts, other.spike_counts)

    @pytest.mark.parametrize("model", MODELS)
    def test_chunk_size_invariance_faulty(self, zoo_dataset, labels, model):
        config = zoo_config(model)
        networks = [build_network(config, faulty_status()) for _ in range(2)]
        outcomes = [
            InferenceEngine(network, labels).evaluate(
                zoo_dataset, rng=np.random.default_rng(7), batch_size=batch_size
            )
            for network, batch_size in zip(networks, (1, 5))
        ]
        assert np.array_equal(outcomes[0].predictions, outcomes[1].predictions)
        assert np.array_equal(outcomes[0].spike_counts, outcomes[1].spike_counts)
        # The faulty-reset latch crosses chunk boundaries identically.
        assert np.array_equal(
            networks[0].neurons.reset_fault_latched,
            networks[1].neurons.reset_fault_latched,
        )

    @pytest.mark.parametrize("model", MODELS)
    def test_chunk_size_invariance_protected(self, zoo_dataset, model):
        network = build_network(zoo_config(model), faulty_status())
        raster = network.encoder.encode_batch(
            zoo_dataset.images, rng=np.random.default_rng(7)
        )
        engine = row_engine(network, protection_trigger_cycles=2)
        outcomes = [run_chunked(engine, raster, batch_size) for batch_size in (1, 5)]
        assert outcomes[0][2] > 0
        assert_outcomes_equal(*outcomes)

    def test_lif_model_still_matches_sequential_reference(
        self, zoo_dataset, labels
    ):
        """The default model keeps its original per-timestep-loop parity."""
        config = zoo_config()
        sequential = evaluate_sequential(
            InferenceEngine(build_network(config, faulty_status()), labels),
            zoo_dataset,
            rng=np.random.default_rng(7),
        )
        batched = InferenceEngine(
            build_network(config, faulty_status()), labels
        ).evaluate(zoo_dataset, rng=np.random.default_rng(7), batch_size=4)
        assert np.array_equal(sequential.predictions, batched.predictions)
        assert np.array_equal(sequential.spike_counts, batched.spike_counts)

    @pytest.mark.parametrize("model", MODELS)
    def test_map_parallel_matches_batched_engine(self, model):
        """Fused rows equal one-row engine runs for every model."""
        trained = handmade_model(model)
        network = oracle.build_network(trained, rng=0)
        encoder = trained.network_config.make_encoder()
        images = np.stack(
            [SyntheticMNIST().render(digit, rng=digit) for digit in (2, 5, 8, 1, 6)]
        )
        raster = encoder.encode_batch(images, rng=np.random.default_rng(31))

        clean_registers = np.asarray(network.synapses.registers).copy()
        faulty_registers = clean_registers.copy()
        faulty_registers.flat[[3, 500, 1207]] = trained.network_config.make_quantizer(
            trained.clean_max_weight
        ).max_code
        bounding = WeightBounding.for_variant(
            BnPVariant.BNP3,
            clean_max_weight=trained.clean_max_weight,
            most_probable_weight=trained.clean_most_probable_weight,
        ).as_weight_rule()
        rows = [
            MapRow(0, clean_registers, NeuronOperationStatus.healthy(N_NEURONS)),
            MapRow(0, faulty_registers, faulty_status()),
            MapRow(
                0,
                faulty_registers,
                faulty_status(),
                weight_rule=bounding,
                protection_trigger_cycles=2,
            ),
        ]
        results = evaluate_rows(
            rows,
            [raster],
            trained.neuron_labels,
            np.zeros(raster.shape[0], dtype=np.int64),
            quantizer=trained.network_config.make_quantizer(
                trained.clean_max_weight
            ),
            params=trained.network_config.neuron_params,
            theta=trained.theta,
            batch_size=2,
            model=model,
        )
        for row, result in zip(rows, results):
            engine = MapParallelEngine(
                [row],
                quantizer=trained.network_config.make_quantizer(
                    trained.clean_max_weight
                ),
                params=trained.network_config.neuron_params,
                theta=trained.theta,
                model=model,
            )
            spike_counts = run_chunked(engine, raster, 2)[0]
            votes = spike_counts.astype(np.float64) @ class_indicator(
                trained.neuron_labels
            )
            assert np.array_equal(result.spike_counts, spike_counts)
            assert np.array_equal(
                result.predictions, np.argmax(votes, axis=1).astype(np.int64)
            )


# --------------------------------------------------------------------- #
# training-layer behaviour
# --------------------------------------------------------------------- #
class TestPerModelTraining:
    def _train(self, model, vectorized, mode="spiking_wta"):
        dataset = SyntheticMNIST().generate(
            n_samples=12, rng=9, classes=[0, 1, 2]
        )
        runner = TrainingRunner(
            zoo_config(model),
            TrainingConfig(
                epochs=1, learning_mode=mode, label_assignment_mode="fast"
            ),
        )
        if vectorized:
            return runner.train(dataset, rng=5)
        return train_sequential(runner, dataset, rng=5)

    @pytest.mark.parametrize("model", MODELS)
    def test_vectorized_equals_sequential_spiking_wta(self, model):
        vectorized = self._train(model, vectorized=True)
        sequential = self._train(model, vectorized=False)
        assert np.array_equal(vectorized.weights, sequential.weights)
        assert np.array_equal(vectorized.theta, sequential.theta)
        assert np.array_equal(vectorized.neuron_labels, sequential.neuron_labels)

    @pytest.mark.parametrize("model", ["cuba_lif", "fixed_point_lif"])
    def test_pairwise_stdp_rejects_non_lif(self, model):
        dataset = SyntheticMNIST().generate(n_samples=4, rng=9)
        runner = TrainingRunner(
            zoo_config(model),
            TrainingConfig(epochs=1, learning_mode="pairwise_stdp"),
        )
        with pytest.raises(ValueError, match="pairwise_stdp"):
            runner.train(dataset, rng=5)

    def test_models_produce_distinct_dynamics(self, zoo_dataset, labels):
        """The zoo is not a rename: each model really changes the spikes."""
        counts = {}
        for model in MODELS:
            result = InferenceEngine(
                build_network(zoo_config(model)), labels
            ).evaluate(zoo_dataset, rng=np.random.default_rng(7), batch_size=4)
            counts[model] = result.spike_counts
        assert not np.array_equal(counts["lif"], counts["cuba_lif"])
        assert not np.array_equal(counts["lif"], counts["fixed_point_lif"])


# --------------------------------------------------------------------- #
# snapshot + serving-registry round-trips
# --------------------------------------------------------------------- #
class TestSnapshotRoundTrip:
    def test_non_default_model_round_trips(self, tmp_path):
        trained = handmade_model("cuba_lif", encoding="ttfs")
        trained.save(tmp_path / "zoo")
        loaded = TrainedModel.load(tmp_path / "zoo")
        assert loaded.network_config.neuron_model == "cuba_lif"
        assert loaded.network_config.encoding == "ttfs"
        assert np.array_equal(loaded.weights, trained.weights)

    def test_pre_zoo_sidecar_loads_as_default_lif(self, tmp_path):
        """Snapshots written before the zoo carry no model/encoding keys."""
        handmade_model(DEFAULT_NEURON_MODEL).save(tmp_path / "legacy")
        sidecar_path = tmp_path / "legacy.json"
        metadata = load_json(sidecar_path)
        del metadata["network_config"]["neuron_model"]
        del metadata["network_config"]["encoding"]
        save_json(metadata, sidecar_path)
        loaded = TrainedModel.load(tmp_path / "legacy")
        assert loaded.network_config.neuron_model == DEFAULT_NEURON_MODEL
        assert loaded.network_config.encoding == DEFAULT_ENCODING

    def test_registry_entry_carries_model_and_encoding(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        entry = registry.register(
            handmade_model("fixed_point_lif", encoding="ttfs"), "zoo-model"
        )
        assert entry.neuron_model == "fixed_point_lif"
        assert entry.encoding == "ttfs"
        description = entry.to_dict()
        assert description["neuron_model"] == "fixed_point_lif"
        assert description["encoding"] == "ttfs"
        assert registry.load("zoo-model").network_config.neuron_model == (
            "fixed_point_lif"
        )

    def test_registry_defaults_for_pre_zoo_snapshot(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.register(handmade_model(DEFAULT_NEURON_MODEL), "legacy-model")
        sidecar_path = tmp_path / "models" / "legacy-model.json"
        metadata = load_json(sidecar_path)
        del metadata["network_config"]["neuron_model"]
        del metadata["network_config"]["encoding"]
        save_json(metadata, sidecar_path)
        fresh = ModelRegistry(tmp_path / "models")
        entry = fresh.entry("legacy-model")
        assert entry.neuron_model == DEFAULT_NEURON_MODEL
        assert entry.encoding == DEFAULT_ENCODING


# --------------------------------------------------------------------- #
# campaign-layer serialization and grid axes
# --------------------------------------------------------------------- #
class TestExperimentConfigZoo:
    def test_defaults_keep_historical_label_and_dict(self):
        config = ExperimentConfig(workload="mnist", n_neurons=100)
        assert config.label() == "mnist/N100"
        data = config.to_dict()
        assert "model" not in data
        assert "encoding" not in data

    def test_non_default_label_and_dict(self):
        config = ExperimentConfig(
            workload="mnist", n_neurons=100, model="cuba_lif", encoding="ttfs"
        )
        assert config.label() == "mnist/N100/cuba_lif+ttfs"
        data = config.to_dict()
        assert data["model"] == "cuba_lif"
        assert data["encoding"] == "ttfs"

    def test_single_axis_label(self):
        assert (
            ExperimentConfig(n_neurons=100, model="fixed_point_lif").label()
            == "mnist/N100/fixed_point_lif"
        )
        assert (
            ExperimentConfig(n_neurons=100, encoding="ttfs").label()
            == "mnist/N100/ttfs"
        )

    @pytest.mark.parametrize("model,encoding", [
        (DEFAULT_NEURON_MODEL, DEFAULT_ENCODING),
        ("cuba_lif", "ttfs"),
    ])
    def test_dict_round_trip(self, model, encoding):
        config = ExperimentConfig(n_neurons=50, model=model, encoding=encoding)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_names_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown neuron model"):
            ExperimentConfig(model="bogus")
        with pytest.raises(ValueError, match="unknown encoding"):
            ExperimentConfig(encoding="bogus")

    def test_network_config_carries_model_and_encoding(self):
        config = ExperimentConfig(model="cuba_lif", encoding="ttfs")
        network_config = config.network_config()
        assert network_config.neuron_model == "cuba_lif"
        assert network_config.encoding == "ttfs"


class TestCampaignGridAxes:
    def _grid(self, models=None, encodings=None):
        return CampaignSpec.grid(
            name="zoo",
            workloads=["mnist"],
            network_sizes=[16],
            fault_rates=[1e-2],
            technique_kinds=[MitigationKind.NO_MITIGATION],
            base=ExperimentConfig(
                n_train=48, n_test=16, timesteps=TIMESTEPS, epochs=1
            ),
            models=models,
            encodings=encodings,
            n_trials=1,
        )

    def test_default_grid_has_single_default_cell(self):
        spec = self._grid()
        assert len(spec.experiments) == 1
        assert spec.experiments[0].model == DEFAULT_NEURON_MODEL
        assert spec.experiments[0].encoding == DEFAULT_ENCODING

    def test_models_times_encodings_cross_product(self):
        spec = self._grid(models=list(MODELS), encodings=list(ENCODINGS))
        assert len(spec.experiments) == len(MODELS) * len(ENCODINGS)
        combos = {
            (experiment.model, experiment.encoding)
            for experiment in spec.experiments
        }
        assert combos == {
            (model, encoding) for model in MODELS for encoding in ENCODINGS
        }
        labels = [experiment.label() for experiment in spec.experiments]
        assert len(set(labels)) == len(labels)

    def test_techniques_survive_model_axis(self):
        spec = self._grid(models=["lif", "cuba_lif"])
        assert [technique.kind for technique in spec.techniques] == [
            MitigationKind.NO_MITIGATION
        ]
        assert len(spec.experiment_keys) == 2
