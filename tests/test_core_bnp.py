"""Tests for weight bounding, neuron protection and the fault-tolerance analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bound_and_protect import BnPVariant, NeuronProtection, WeightBounding
from repro.core.fault_analysis import FaultToleranceAnalyzer
from repro.faults.injector import FaultInjector
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.hardware.enhancements import MitigationKind
from repro.snn.neuron import LIFNeuronGroup, LIFParameters, NeuronOperationStatus
from repro.snn.oracle import build_network


class TestWeightBounding:
    def test_eq1_semantics(self):
        bounding = WeightBounding(threshold=1.0, substitute=0.25)
        weights = np.array([0.5, 1.0, 1.5, 0.99])
        bounded = bounding.apply(weights)
        assert bounded.tolist() == [0.5, 0.25, 0.25, 0.99]

    def test_threshold_is_inclusive(self):
        bounding = WeightBounding(threshold=1.0, substitute=0.0)
        assert bounding.apply(np.array([1.0]))[0] == 0.0

    def test_variant_constructors(self):
        assert WeightBounding.bnp1(0.8).substitute == 0.0
        assert WeightBounding.bnp2(0.8).substitute == pytest.approx(0.8)
        assert WeightBounding.bnp3(0.8, 0.1).substitute == pytest.approx(0.1)

    def test_for_variant_dispatch(self):
        assert (
            WeightBounding.for_variant(BnPVariant.BNP1, 0.5).substitute == 0.0
        )
        assert (
            WeightBounding.for_variant(BnPVariant.BNP2, 0.5).substitute == 0.5
        )
        assert (
            WeightBounding.for_variant(BnPVariant.BNP3, 0.5, 0.2).substitute == 0.2
        )

    def test_bnp3_without_whp_raises(self):
        with pytest.raises(ValueError):
            WeightBounding.for_variant(BnPVariant.BNP3, 0.5)

    def test_out_of_range_mask_and_count(self):
        bounding = WeightBounding(threshold=0.5, substitute=0.0)
        weights = np.array([[0.1, 0.6], [0.5, 0.4]])
        assert bounding.out_of_range_mask(weights).sum() == 2
        assert bounding.count_bounded(weights) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightBounding(threshold=0.0, substitute=0.0)
        with pytest.raises(ValueError):
            WeightBounding(threshold=0.5, substitute=0.6)
        with pytest.raises(ValueError):
            WeightBounding(threshold=-1.0, substitute=0.0)

    def test_mitigation_kind_mapping(self):
        assert BnPVariant.BNP1.mitigation_kind == MitigationKind.BNP1
        assert BnPVariant.BNP2.mitigation_kind == MitigationKind.BNP2
        assert BnPVariant.BNP3.mitigation_kind == MitigationKind.BNP3

    @given(
        threshold=st.floats(min_value=0.1, max_value=2.0),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_weights_never_exceed_threshold_unless_clean_property(
        self, threshold, seed
    ):
        """After bounding, every weight is either below the threshold or equal
        to the substitute value — the safe-range invariant of Eq. 1."""
        rng = np.random.default_rng(seed)
        weights = rng.random(50) * 2 * threshold
        substitute = min(threshold, rng.random() * threshold)
        bounding = WeightBounding(threshold=threshold, substitute=substitute)
        bounded = bounding.apply(weights)
        assert ((bounded < threshold) | np.isclose(bounded, substitute)).all()


class TestNeuronProtection:
    def _stuck_group(self):
        """One neuron with a faulty reset, driven hard so it sticks above Vth."""
        status = NeuronOperationStatus.healthy(2)
        status.vmem_reset_ok[0] = False
        return LIFNeuronGroup(2, LIFParameters(inhibition_strength=0.0), status)

    def test_protection_silences_stuck_neuron(self):
        group = self._stuck_group()
        protection = NeuronProtection(trigger_cycles=2)
        spikes_after_protection = 0
        for step in range(30):
            spikes = group.step(np.array([2.0, 0.0]))
            protection(group)
            if step > 5:
                spikes_after_protection += int(spikes[0])
        assert protection.n_protected == 1
        assert 0 in protection.protected_neurons
        assert spikes_after_protection == 0

    def test_protection_leaves_healthy_neurons_alone(self):
        group = LIFNeuronGroup(3, LIFParameters(inhibition_strength=0.0))
        protection = NeuronProtection(trigger_cycles=2)
        total_spikes = 0
        for _ in range(40):
            total_spikes += group.step(np.full(3, 2.0)).sum()
            protection(group)
        assert protection.n_protected == 0
        assert total_spikes > 0

    def test_statistics_and_reset(self):
        group = self._stuck_group()
        protection = NeuronProtection()
        for _ in range(10):
            group.step(np.array([2.0, 0.0]))
            protection(group)
        stats = protection.statistics()
        assert stats["n_protected_neurons"] == 1
        assert stats["trigger_cycles"] == 2
        protection.reset_statistics()
        assert protection.n_protected == 0

    def test_invalid_trigger_raises(self):
        with pytest.raises(ValueError):
            NeuronProtection(trigger_cycles=0)


class TestFaultToleranceAnalyzer:
    def test_weight_distribution_analysis(self, trained_model):
        analyzer = FaultToleranceAnalyzer(trained_model)
        analysis = analyzer.weight_distribution(fault_rate=0.1, rng=0)
        assert analysis.clean_counts.sum() == analysis.faulty_counts.sum()
        assert analysis.n_weights_above_clean_max > 0
        assert analysis.n_increased > 0
        assert analysis.clean_max_weight == pytest.approx(
            trained_model.clean_max_weight, rel=0.05
        )
        assert "fault_rate" in analysis.summary()

    @pytest.mark.parametrize("seed", [0, 9])
    def test_weight_distribution_matches_network_route(self, trained_model, seed):
        """The register route equals the oracle network struck by
        ``FaultInjector.inject`` on one generator: histograms, summary and
        the generator's end state."""
        analysis_rng = np.random.default_rng(seed)
        analysis = FaultToleranceAnalyzer(trained_model).weight_distribution(
            fault_rate=0.1, bins=16, rng=analysis_rng
        )

        network_rng = np.random.default_rng(seed)
        network = build_network(trained_model, rng=network_rng)
        clean_weights = network.synapses.weights
        report = FaultInjector(network).inject(
            ComputeEngineFaultConfig.synapses_only(0.1), rng=network_rng
        )
        edges = np.linspace(0.0, network.synapses.quantizer.full_scale, 17)
        assert np.array_equal(analysis.bin_edges, edges)
        assert np.array_equal(
            analysis.clean_counts, np.histogram(clean_weights, bins=edges)[0]
        )
        assert np.array_equal(
            analysis.faulty_counts,
            np.histogram(network.synapses.weights, bins=edges)[0],
        )
        summary = report.weight_change_summary
        assert analysis.clean_max_weight == float(clean_weights.max())
        assert analysis.clean_max_weight == summary["clean_max_weight"]
        assert analysis.n_weights_above_clean_max == summary["n_above_clean_max"]
        assert analysis.n_increased == summary["n_increased"]
        assert analysis.n_decreased == summary["n_decreased"]
        assert analysis.n_increased + analysis.n_decreased > 0
        assert analysis_rng.random() == network_rng.random()

    def test_derive_safe_range_matches_model_statistics(self, trained_model):
        safe_range = FaultToleranceAnalyzer(trained_model).derive_safe_range()
        assert safe_range.weight_threshold == trained_model.clean_max_weight
        assert safe_range.bnp1_substitute == 0.0
        assert safe_range.bnp2_substitute == trained_model.clean_max_weight
        assert safe_range.bnp3_substitute == trained_model.clean_most_probable_weight

    def test_neuron_fault_sensitivity_flags_reset_as_critical(
        self, trained_model, small_split
    ):
        _, test_set = small_split
        analyzer = FaultToleranceAnalyzer(trained_model)
        sensitivity = analyzer.neuron_fault_sensitivity(
            test_set, fault_rates=[1.0], rng=3
        )
        critical = sensitivity.critical_types(tolerance_percent=15.0)
        assert NeuronFaultType.VMEM_RESET in critical
        # Faulty reset at rate 1.0 must be far worse than faulty leak.
        reset_acc = sensitivity.accuracy_by_type[NeuronFaultType.VMEM_RESET][0]
        leak_acc = sensitivity.accuracy_by_type[NeuronFaultType.VMEM_LEAK][0]
        assert reset_acc < leak_acc
        assert "accuracy_by_type" in sensitivity.summary()

    def test_accuracy_under_faults_clean_equals_baseline(
        self, trained_model, small_split
    ):
        _, test_set = small_split
        analyzer = FaultToleranceAnalyzer(trained_model)
        accuracy = analyzer.accuracy_under_faults(test_set, None, rng=1)
        assert 0.0 <= accuracy <= 100.0
