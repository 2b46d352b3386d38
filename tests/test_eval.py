"""Tests for the evaluation harness: experiments, sweeps, overheads, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mitigation import BnPTechnique, NoMitigation
from repro.core.bound_and_protect import BnPVariant
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.overheads import overhead_tables_for_sizes
from repro.eval.reporting import format_series, format_table
from repro.eval.sweep import FaultRateSweep
from repro.hardware.enhancements import MitigationKind


class TestExperimentConfig:
    def test_label_formats(self):
        config = ExperimentConfig(workload="mnist", n_neurons=80)
        assert config.label() == "mnist/N80"
        proxy = config.with_network_size(80, paper_network_size=400)
        assert "N400" in proxy.label()

    def test_network_and_training_configs(self):
        config = ExperimentConfig(n_neurons=30, timesteps=70, epochs=3)
        assert config.network_config().n_neurons == 30
        assert config.network_config().timesteps == 70
        assert config.training_config().epochs == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_neurons=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_train=0)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)


class TestExperimentRunner:
    def test_prepare_trains_and_caches(self):
        runner = ExperimentRunner(root_seed=1)
        config = ExperimentConfig(
            workload="mnist", n_neurons=12, n_train=30, n_test=10, timesteps=40
        )
        first = runner.prepare(config)
        second = runner.prepare(config)
        assert first is second  # cached
        assert first.model.n_neurons == 12
        assert len(first.train_set) + len(first.test_set) == 40

    def test_different_configs_not_shared(self):
        runner = ExperimentRunner(root_seed=1)
        a = runner.prepare(
            ExperimentConfig(n_neurons=10, n_train=24, n_test=8, timesteps=40)
        )
        b = runner.prepare(
            ExperimentConfig(n_neurons=14, n_train=24, n_test=8, timesteps=40)
        )
        assert a is not b
        runner.clear_cache()
        assert runner.prepare(a.config) is not a

    def test_paper_size_proxy_not_aliased_in_cache(self):
        # paper_network_size participates in the seed-stream label, so a
        # proxy config must not reuse the plain config's cached assets.
        runner = ExperimentRunner(root_seed=1)
        plain = ExperimentConfig(n_neurons=10, n_train=24, n_test=8, timesteps=40)
        proxy = plain.with_network_size(10, paper_network_size=400)
        a = runner.prepare(plain)
        b = runner.prepare(proxy)
        assert a is not b
        assert not np.array_equal(a.test_set.images, b.test_set.images)

    def test_same_root_seed_reproducible(self):
        config = ExperimentConfig(n_neurons=10, n_train=24, n_test=8, timesteps=40)
        model_a = ExperimentRunner(root_seed=5).prepare(config).model
        model_b = ExperimentRunner(root_seed=5).prepare(config).model
        assert np.array_equal(model_a.weights, model_b.weights)

    def test_eval_batch_size_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eval_batch_size=0)


class TestFaultRateSweep:
    def test_sweep_produces_paired_series(self, trained_model, small_split):
        _, test_set = small_split
        subset = test_set.subset(np.arange(min(10, len(test_set))))
        techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP3)]
        sweep = FaultRateSweep(trained_model, subset, techniques, n_trials=1)
        result = sweep.run(fault_rates=[1e-3, 1e-1], rng=9, label="test-sweep")
        assert result.fault_rates == [1e-3, 1e-1]
        assert set(result.techniques) == {
            MitigationKind.NO_MITIGATION,
            MitigationKind.BNP3,
        }
        for series in result.techniques.values():
            assert len(series.accuracies) == 2
            assert all(0.0 <= acc <= 100.0 for acc in series.accuracies)
        assert result.clean_accuracy > 0.0
        rows = result.accuracy_table()
        assert len(rows) == 2 and len(rows[0]) == 3

    def test_accuracy_at_tolerates_recomputed_rates(self, trained_model, small_split):
        _, test_set = small_split
        subset = test_set.subset(np.arange(5))
        result = FaultRateSweep(trained_model, subset, [NoMitigation()]).run(
            fault_rates=[1e-1, 1e-3], rng=12
        )
        series = result.techniques[MitigationKind.NO_MITIGATION]
        # Rates recomputed elsewhere (10**-1, a lossy sum) must still
        # resolve to the swept entries instead of raising KeyError.
        assert series.accuracy_at(10 ** -1) == series.accuracies[0]
        assert series.accuracy_at(0.0001 * 10) == series.accuracies[1]
        with pytest.raises(KeyError):
            series.accuracy_at(5e-2)

    def test_improvement_helper(self, trained_model, small_split):
        _, test_set = small_split
        subset = test_set.subset(np.arange(min(8, len(test_set))))
        sweep = FaultRateSweep(
            trained_model, subset, [NoMitigation(), BnPTechnique(BnPVariant.BNP1)]
        )
        result = sweep.run(fault_rates=[1e-1], rng=10)
        improvement = result.improvement_over_no_mitigation(MitigationKind.BNP1)
        assert isinstance(improvement, float)
        with pytest.raises(KeyError):
            result.techniques[MitigationKind.BNP1].accuracy_at(0.5)

    def test_summary_is_json_friendly(self, trained_model, small_split):
        _, test_set = small_split
        subset = test_set.subset(np.arange(5))
        result = FaultRateSweep(
            trained_model, subset, [NoMitigation()], n_trials=2
        ).run(fault_rates=[1e-2], rng=11)
        summary = result.summary()
        series = summary["techniques"]["no_mitigation"]
        # Raw per-trial accuracies survive serialisation (campaign store
        # requirement) alongside the per-rate means.
        assert summary["n_trials"] == 2
        assert len(series["per_trial"]) == 1 and len(series["per_trial"][0]) == 2
        assert series["accuracies"][0] == sum(series["per_trial"][0]) / 2
        from repro.eval.sweep import SweepResult

        assert SweepResult.from_summary(summary).summary() == summary

    def test_validation(self, trained_model, small_split):
        _, test_set = small_split
        with pytest.raises(ValueError):
            FaultRateSweep(trained_model, test_set, [])
        with pytest.raises(ValueError):
            FaultRateSweep(trained_model, test_set, [NoMitigation()], n_trials=0)


class TestOverheadTables:
    def test_paper_size_sweep(self):
        tables = overhead_tables_for_sizes()
        latency = tables["latency"]
        assert latency.row(MitigationKind.NO_MITIGATION) == pytest.approx(
            [1.0, 2.0, 3.5, 5.0, 7.5]
        )
        assert latency.row(MitigationKind.RE_EXECUTION) == pytest.approx(
            [3.0, 6.0, 10.5, 15.0, 22.5]
        )
        energy = tables["energy"]
        assert energy.row(MitigationKind.BNP1)[0] == pytest.approx(1.3, abs=0.02)
        area = tables["area"]
        assert area.row(MitigationKind.BNP1) == pytest.approx([1.14] * 5, abs=0.01)

    def test_savings_helper(self):
        tables = overhead_tables_for_sizes(network_sizes=[400])
        savings = tables["latency"].savings_versus(
            MitigationKind.BNP1, reference=MitigationKind.RE_EXECUTION
        )
        assert savings[0] == pytest.approx(3.0)

    def test_as_rows(self):
        table = overhead_tables_for_sizes(network_sizes=[400, 900])["latency"]
        rows = table.as_rows()
        assert len(rows) == len(MitigationKind.all_kinds())
        assert all(len(row) == 3 for row in rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            overhead_tables_for_sizes(network_sizes=[])
        with pytest.raises(ValueError):
            overhead_tables_for_sizes(network_sizes=[0])


class TestReporting:
    def test_format_table_alignment_and_content(self):
        text = format_table(
            ["technique", "acc"],
            [["bnp1", 91.234], ["no_mitigation", 10.0]],
            title="Fig. X",
        )
        assert "Fig. X" in text
        assert "bnp1" in text and "91.23" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        text = format_series("bnp1", [1e-3, 1e-1], [90.0, 88.5], x_label="fault rate")
        assert "bnp1" in text and "0.00" in text or "0.001" in text
        assert "88.50" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], [1.0])
