"""Tests for the mitigation techniques and the SoftSNN methodology facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bound_and_protect import BnPVariant
from repro.core.methodology import SoftSNNMethodology
from repro.core.mitigation import (
    BnPTechnique,
    NoMitigation,
    ReExecutionTMR,
    build_technique,
)
from repro.faults.fault_map import FaultMapGenerator
from repro.faults.injector import FaultInjector
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.hardware.enhancements import MitigationKind
from repro.snn.encoding import PoissonEncoder
from repro.snn.inference import MAP_PARALLEL_CHUNK_SIZE, InferenceEngine
from repro.snn.oracle import build_network


@pytest.fixture(scope="module")
def catastrophic_fault_map(trained_model):
    """A fault map with many faulty Vmem-reset neurons plus register flips.

    This is the scenario the paper's Fig. 13 shows at high fault rates: the
    unmitigated network collapses while BnP recovers most of the accuracy.
    """
    network = build_network(trained_model, rng=0)
    generator = FaultMapGenerator(
        network.synapses.shape, quantizer=network.synapses.quantizer
    )
    rng = np.random.default_rng(77)
    fault_map = generator.generate(
        ComputeEngineFaultConfig.synapses_only(0.1), rng=rng
    )
    # Force a third of the neurons into the catastrophic faulty-reset mode.
    n_neurons = trained_model.n_neurons
    fault_map.neuron_faults.extend(
        (index, NeuronFaultType.VMEM_RESET) for index in range(0, n_neurons, 3)
    )
    return fault_map


class TestNoMitigation:
    def test_clean_evaluation_matches_model_quality(self, trained_model, small_split):
        _, test_set = small_split
        result = NoMitigation().evaluate(trained_model, test_set, rng=0)
        assert result.n_samples == len(test_set)
        assert result.accuracy_percent > 40.0  # five-class problem, chance is 20 %

    def test_faults_degrade_accuracy(
        self, trained_model, small_split, catastrophic_fault_map
    ):
        _, test_set = small_split
        clean = NoMitigation().evaluate(trained_model, test_set, rng=1)
        faulty = NoMitigation().evaluate(
            trained_model,
            test_set,
            fault_config=ComputeEngineFaultConfig.full_compute_engine(0.1),
            rng=1,
            fault_map=catastrophic_fault_map,
        )
        assert faulty.accuracy_percent < clean.accuracy_percent - 15.0

    @pytest.mark.parametrize("fault_rate", [0.0, 1e-2, 0.1])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_matches_network_route(
        self, trained_model, small_split, fault_rate, seed
    ):
        """The map route consumes the stream a built-and-injected network does."""
        _, test_set = small_split
        config = ComputeEngineFaultConfig.full_compute_engine(fault_rate)
        mapped_generator = np.random.default_rng(seed)
        mapped = NoMitigation().evaluate(
            trained_model, test_set, config, rng=mapped_generator
        )

        generator = np.random.default_rng(seed)
        network = build_network(trained_model, rng=generator)
        if fault_rate > 0:
            FaultInjector(network).inject(config, rng=generator)
        reference = InferenceEngine(network, trained_model.neuron_labels).evaluate(
            test_set, rng=generator
        )
        assert np.array_equal(mapped.predictions, reference.predictions)
        assert np.array_equal(mapped.spike_counts, reference.spike_counts)
        assert mapped.total_input_spikes == reference.total_input_spikes
        # Both routes consumed the same number of draws.
        assert mapped_generator.random() == generator.random()

    @pytest.mark.parametrize(
        "technique, batch_size, chunks",
        [
            # A lone engine keeps the caller's chunk (default 64)...
            (NoMitigation(), None, [45]),
            (NoMitigation(), 4, [4] * 11 + [1]),
            (NoMitigation(), 32, [32, 13]),
            # ...several distinct engines are capped at the map-parallel chunk.
            (ReExecutionTMR(), 32, [MAP_PARALLEL_CHUNK_SIZE] * 2 + [13]),
        ],
    )
    def test_encoding_is_streamed_one_chunk_at_a_time(
        self, monkeypatch, trained_model, small_split, technique, batch_size, chunks
    ):
        train_set, _ = small_split
        assert len(train_set) == 45
        encoded = []
        encode_batch = PoissonEncoder.encode_batch

        def recording(self, images, rng=None):
            encoded.append(len(images))
            return encode_batch(self, images, rng=rng)

        monkeypatch.setattr(PoissonEncoder, "encode_batch", recording)
        technique.evaluate(
            trained_model,
            train_set,
            ComputeEngineFaultConfig.full_compute_engine(1e-2),
            rng=9,
            batch_size=batch_size,
        )
        # One encode per engine chunk, in order, covering every sample once.
        assert encoded == chunks

    def test_model_is_not_mutated(self, trained_model, small_split):
        _, test_set = small_split
        weights_before = trained_model.weights.copy()
        NoMitigation().evaluate(
            trained_model,
            test_set,
            fault_config=ComputeEngineFaultConfig.full_compute_engine(0.1),
            rng=2,
        )
        assert np.array_equal(trained_model.weights, weights_before)


class TestReExecutionTMR:
    def test_recovers_accuracy_under_faults(
        self, trained_model, small_split, catastrophic_fault_map
    ):
        _, test_set = small_split
        config = ComputeEngineFaultConfig.full_compute_engine(0.1)
        unmitigated = NoMitigation().evaluate(
            trained_model, test_set, config, rng=3, fault_map=catastrophic_fault_map
        )
        tmr = ReExecutionTMR().evaluate(
            trained_model, test_set, config, rng=3, fault_map=catastrophic_fault_map
        )
        assert tmr.accuracy_percent > unmitigated.accuracy_percent

    @pytest.mark.parametrize("n_executions", [1, 5])
    def test_vote_elects_clean_row_once_re_executed(
        self, trained_model, small_split, catastrophic_fault_map, n_executions
    ):
        """One execution returns the faulty row; re-executions outvote it.

        With an explicit fault map no map is drawn, so a clean
        ``NoMitigation`` evaluation on the same seed presents the same
        encoded inputs as the re-executions.
        """
        _, test_set = small_split
        config = ComputeEngineFaultConfig.full_compute_engine(0.1)
        faulty = NoMitigation().evaluate(
            trained_model, test_set, config, rng=3, fault_map=catastrophic_fault_map
        )
        clean = NoMitigation().evaluate(trained_model, test_set, rng=3)
        assert not np.array_equal(faulty.predictions, clean.predictions)
        tmr = ReExecutionTMR(n_executions=n_executions).evaluate(
            trained_model, test_set, config, rng=3, fault_map=catastrophic_fault_map
        )
        elected = faulty if n_executions == 1 else clean
        assert np.array_equal(tmr.predictions, elected.predictions)
        assert np.array_equal(tmr.spike_counts, faulty.spike_counts)
        assert tmr.total_input_spikes == n_executions * faulty.total_input_spikes

    def test_even_execution_count_rejected(self):
        with pytest.raises(ValueError):
            ReExecutionTMR(n_executions=2)

    def test_kind_is_re_execution(self):
        assert ReExecutionTMR().kind == MitigationKind.RE_EXECUTION


class TestBnPTechniques:
    @pytest.mark.parametrize("variant", list(BnPVariant))
    def test_bnp_recovers_accuracy_under_faults(
        self, trained_model, small_split, catastrophic_fault_map, variant
    ):
        """The headline claim: BnP keeps accuracy close to clean without re-execution."""
        _, test_set = small_split
        config = ComputeEngineFaultConfig.full_compute_engine(0.1)
        clean = NoMitigation().evaluate(trained_model, test_set, rng=4)
        unmitigated = NoMitigation().evaluate(
            trained_model, test_set, config, rng=4, fault_map=catastrophic_fault_map
        )
        technique = BnPTechnique(variant)
        protected = technique.evaluate(
            trained_model, test_set, config, rng=4, fault_map=catastrophic_fault_map
        )
        assert protected.accuracy_percent > unmitigated.accuracy_percent
        # Degradation versus clean stays bounded (the paper reports < 3 % at
        # full scale; this 20-neuron, 15-sample configuration allows a wider
        # gap — each misclassified sample costs 6.7 points).
        assert protected.accuracy_percent >= clean.accuracy_percent - 27.0
        # The neuron protection must actually have fired for the stuck neurons.
        assert len(protected.protected_neurons) > 0
        activations = protected.protection_activations
        assert activations >= len(protected.protected_neurons)

    def test_bounding_rule_derivation(self, trained_model):
        technique = BnPTechnique(BnPVariant.BNP3)
        bounding = technique.bounding_for(trained_model)
        assert bounding.threshold == trained_model.clean_max_weight
        assert bounding.substitute == trained_model.clean_most_probable_weight

    def test_bounded_count_tracked(self, trained_model, small_split, catastrophic_fault_map):
        _, test_set = small_split
        technique = BnPTechnique(BnPVariant.BNP1)
        result = technique.evaluate(
            trained_model,
            test_set.subset(np.arange(3)),
            ComputeEngineFaultConfig.synapses_only(0.1),
            rng=5,
            fault_map=catastrophic_fault_map,
        )
        # The count is the bounding rule applied to the faulty network's
        # stored weights.
        network = build_network(trained_model, rng=5)
        FaultInjector(network).apply_fault_map(catastrophic_fault_map)
        expected = technique.bounding_for(trained_model).count_bounded(
            network.synapses.weights
        )
        assert result.bounded_synapses == expected > 0
        assert NoMitigation().evaluate(
            trained_model,
            test_set.subset(np.arange(3)),
            rng=5,
            fault_map=catastrophic_fault_map,
        ).bounded_synapses == 0

    def test_clean_inference_is_barely_affected(self, trained_model, small_split):
        """With no faults, BnP must not hurt accuracy much (safe weights pass through)."""
        _, test_set = small_split
        clean = NoMitigation().evaluate(trained_model, test_set, rng=6)
        for variant in (BnPVariant.BNP2, BnPVariant.BNP3):
            protected = BnPTechnique(variant).evaluate(trained_model, test_set, rng=6)
            assert abs(protected.accuracy_percent - clean.accuracy_percent) <= 10.0

    def test_invalid_variant_rejected(self):
        with pytest.raises(TypeError):
            BnPTechnique("bnp1")
        with pytest.raises(ValueError):
            BnPTechnique(BnPVariant.BNP1, protection_trigger_cycles=0)


class TestBuildTechnique:
    @pytest.mark.parametrize(
        "kind, expected_type",
        [
            (MitigationKind.NO_MITIGATION, NoMitigation),
            (MitigationKind.RE_EXECUTION, ReExecutionTMR),
            (MitigationKind.BNP1, BnPTechnique),
            (MitigationKind.BNP2, BnPTechnique),
            (MitigationKind.BNP3, BnPTechnique),
        ],
    )
    def test_factory_dispatch(self, kind, expected_type):
        technique = build_technique(kind)
        assert isinstance(technique, expected_type)
        assert technique.kind == kind

    def test_factory_forwards_kwargs(self):
        technique = build_technique(MitigationKind.RE_EXECUTION, n_executions=5)
        assert technique.n_executions == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_technique("tmr")


class TestSoftSNNMethodology:
    def test_deploy_produces_consistent_artifacts(self, trained_model):
        methodology = SoftSNNMethodology(trained_model, variant=BnPVariant.BNP3)
        deployment = methodology.deploy()
        assert deployment.variant == BnPVariant.BNP3
        assert deployment.bounding.threshold == trained_model.clean_max_weight
        assert deployment.technique.kind == MitigationKind.BNP3
        assert deployment.hardware_overheads["area"] == pytest.approx(1.18, abs=0.01)
        assert deployment.hardware_overheads["latency"] <= 1.07

    def test_protected_inference_runs(self, trained_model, small_split):
        _, test_set = small_split
        methodology = SoftSNNMethodology(trained_model, variant=BnPVariant.BNP1)
        result = methodology.protected_inference(
            test_set.subset(np.arange(5)),
            fault_config=ComputeEngineFaultConfig.full_compute_engine(0.05),
            rng=0,
        )
        assert result.n_samples == 5

    def test_hardware_report_covers_all_techniques(self, trained_model):
        report = SoftSNNMethodology(trained_model).hardware_report()
        assert set(report) == {kind.value for kind in MitigationKind.all_kinds()}
        assert report["re_execution"]["latency"] == pytest.approx(3.0)

    def test_invalid_variant_rejected(self, trained_model):
        with pytest.raises(TypeError):
            SoftSNNMethodology(trained_model, variant="bnp1")
