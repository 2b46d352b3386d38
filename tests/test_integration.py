"""End-to-end integration tests reproducing the paper's qualitative claims.

Each test exercises the full pipeline — synthetic data, unsupervised
training, 8-bit deployment, fault injection, mitigation, hardware costing —
and asserts the *shape* of the paper's headline results at a scaled-down
size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bound_and_protect import BnPVariant
from repro.core.mitigation import BnPTechnique, NoMitigation, ReExecutionTMR
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.overheads import overhead_tables_for_sizes
from repro.eval.sweep import FaultRateSweep
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.hardware.enhancements import MitigationKind
from repro.snn.oracle import build_network


@pytest.fixture(scope="module")
def prepared():
    """One moderately sized prepared experiment shared by the integration tests."""
    runner = ExperimentRunner(root_seed=0)
    return runner.prepare(
        ExperimentConfig(
            workload="mnist",
            n_neurons=60,
            n_train=150,
            n_test=40,
            timesteps=100,
            epochs=2,
        )
    )


class TestHeadlineAccuracyClaim:
    """Fig. 13: BnP ~ re-execution >> no mitigation at high fault rates."""

    def test_mitigation_ordering_at_high_fault_rate(self, prepared):
        techniques = [
            NoMitigation(),
            ReExecutionTMR(),
            BnPTechnique(BnPVariant.BNP1),
            BnPTechnique(BnPVariant.BNP3),
        ]
        sweep = FaultRateSweep(prepared.model, prepared.test_set, techniques)
        result = sweep.run(fault_rates=[0.1], rng=21, label="integration")

        no_mit = result.techniques[MitigationKind.NO_MITIGATION].accuracies[0]
        tmr = result.techniques[MitigationKind.RE_EXECUTION].accuracies[0]
        bnp1 = result.techniques[MitigationKind.BNP1].accuracies[0]
        bnp3 = result.techniques[MitigationKind.BNP3].accuracies[0]

        # The unprotected engine collapses; every mitigation recovers most of it.
        assert no_mit < result.clean_accuracy - 20.0
        for mitigated in (tmr, bnp1, bnp3):
            assert mitigated > no_mit + 15.0
            assert mitigated >= result.clean_accuracy - 15.0

    def test_low_fault_rates_are_benign(self, prepared):
        sweep = FaultRateSweep(
            prepared.model, prepared.test_set, [NoMitigation()], n_trials=1
        )
        result = sweep.run(fault_rates=[1e-4], rng=22)
        accuracy = result.techniques[MitigationKind.NO_MITIGATION].accuracies[0]
        assert accuracy >= result.clean_accuracy - 10.0


class TestFaultTypeClaim:
    """Fig. 10(a): only faulty 'Vmem reset' is catastrophic."""

    def test_reset_faults_dominate_degradation(self, prepared):
        baseline = NoMitigation().evaluate(
            prepared.model, prepared.test_set, rng=30
        ).accuracy_percent
        accuracies = {}
        for fault_type in NeuronFaultType.all_types():
            config = ComputeEngineFaultConfig.neurons_only(0.5, fault_type=fault_type)
            accuracies[fault_type] = (
                NoMitigation()
                .evaluate(prepared.model, prepared.test_set, config, rng=30)
                .accuracy_percent
            )
        reset_drop = baseline - accuracies[NeuronFaultType.VMEM_RESET]
        other_drops = [
            baseline - accuracies[ft]
            for ft in NeuronFaultType.all_types()
            if ft != NeuronFaultType.VMEM_RESET
        ]
        assert reset_drop > max(other_drops)
        assert reset_drop > 20.0


class TestWeightBoundingClaim:
    """Fig. 9: faults push weights beyond the clean maximum; bounding removes them."""

    def test_bounded_effective_weights_stay_in_safe_range(self, prepared):
        model = prepared.model
        network = build_network(model, rng=0)
        from repro.faults.injector import FaultInjector

        FaultInjector(network).inject(
            ComputeEngineFaultConfig.synapses_only(0.1), rng=31
        )
        faulty = network.synapses.weights
        assert faulty.max() > model.clean_max_weight

        technique = BnPTechnique(BnPVariant.BNP3)
        bounded = technique.bounding_for(model).apply(faulty)
        assert bounded.max() <= model.clean_max_weight + 1e-9


class TestOverheadClaims:
    """Fig. 3(b) / Fig. 14: 3x latency & energy for TMR, small overheads for BnP."""

    def test_savings_match_paper_scale(self):
        tables = overhead_tables_for_sizes(network_sizes=[400, 900])
        latency = tables["latency"]
        energy = tables["energy"]
        # Up to 3x latency and ~2.3x energy saved versus re-execution.
        assert max(
            latency.savings_versus(MitigationKind.BNP1, MitigationKind.RE_EXECUTION)
        ) == pytest.approx(3.0)
        assert max(
            energy.savings_versus(MitigationKind.BNP3, MitigationKind.RE_EXECUTION)
        ) >= 1.8
        # BnP latency overhead stays below 1.06x of the same-size baseline.
        for index in range(2):
            ratio = latency.row(MitigationKind.BNP2)[index] / latency.row(
                MitigationKind.NO_MITIGATION
            )[index]
            assert ratio <= 1.061


class TestReproducibility:
    def test_full_pipeline_is_deterministic(self, prepared):
        def run_once():
            technique = BnPTechnique(BnPVariant.BNP2)
            return technique.evaluate(
                prepared.model,
                prepared.test_set.subset(np.arange(10)),
                ComputeEngineFaultConfig.full_compute_engine(0.05),
                rng=55,
            ).predictions

        assert np.array_equal(run_once(), run_once())
