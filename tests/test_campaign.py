"""Tests for campaign orchestration: spec expansion, executors, store, resume.

The heart of the subsystem is the determinism contract: every sweep cell is
seeded from its grid coordinates, so serial execution, process-pool
execution and the :class:`FaultRateSweep` front end must all produce
bit-identical per-trial accuracies for the same spec and seed, and a
half-completed campaign must resume from the store without recomputing
(or duplicating) finished cells.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro.eval.campaign as campaign_module
from repro.core.bound_and_protect import BnPVariant
from repro.core.mitigation import BnPTechnique, NoMitigation
from repro.eval.campaign import (
    CampaignSpec,
    CellResult,
    SweepCell,
    TechniqueSpec,
    build_experiment_cells,
    execute_cell_group,
    run_campaign,
)
from repro.eval.experiment import ExperimentConfig, ExperimentRunner, prepare_datasets
from repro.eval.store import ResultStore, StoreMismatchError
from repro.eval.sweep import FaultRateSweep, SweepResult
from repro.hardware.enhancements import MitigationKind
from repro.snn.training import TrainedModel
from repro.utils.rng import SeedSequenceFactory, derive_cell_seed, derive_root_seed


TINY_CONFIG = ExperimentConfig(
    workload="mnist", n_neurons=10, n_train=24, n_test=8, timesteps=40, epochs=1
)
RATES = [1e-3, 1e-1]
CAMPAIGN_SEED = 5
RUNNER_SEED = 3


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="tiny",
        experiments=[TINY_CONFIG],
        fault_rates=list(RATES),
        techniques=[
            TechniqueSpec(MitigationKind.NO_MITIGATION),
            TechniqueSpec(MitigationKind.BNP3),
        ],
        n_trials=2,
        seed=CAMPAIGN_SEED,
        runner_seed=RUNNER_SEED,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def serial_result():
    """One serial campaign run shared by the parity and resume tests."""
    return run_campaign(tiny_spec(), n_workers=1)


class TestSeedDerivation:
    def test_cell_seeds_depend_only_on_coordinates(self):
        a = derive_cell_seed(7, "mnist/N10", 1, 0)
        b = derive_cell_seed(7, "mnist/N10", 1, 0)
        assert a == b
        assert derive_cell_seed(7, "mnist/N10", 1, 1) != a
        assert derive_cell_seed(7, "mnist/N10", 0, 0) != a
        assert derive_cell_seed(8, "mnist/N10", 1, 0) != a
        assert derive_cell_seed(7, "mnist/N12", 1, 0) != a

    def test_root_seed_derivation(self):
        assert derive_root_seed(42) == 42
        generator = np.random.default_rng(1)
        drawn = derive_root_seed(generator)
        assert derive_root_seed(np.random.default_rng(1)) == drawn
        with pytest.raises(ValueError):
            derive_root_seed(-1)


class TestCellExpansion:
    def test_counts_and_ids_unique(self):
        cells = build_experiment_cells("exp", RATES, 3, root_seed=0)
        assert len(cells) == 1 + len(RATES) * 3  # clean + grid
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids)
        assert cells[0].is_clean

    def test_expansion_is_order_independent_of_execution(self):
        first = build_experiment_cells("exp", RATES, 2, root_seed=9)
        second = build_experiment_cells("exp", RATES, 2, root_seed=9)
        assert [c.seed for c in first] == [c.seed for c in second]

    def test_cell_round_trip(self):
        cell = build_experiment_cells("exp", RATES, 1, root_seed=1)[1]
        assert SweepCell.from_dict(cell.to_dict()) == cell

    def test_spec_expand_covers_all_experiments(self):
        other = TINY_CONFIG.with_network_size(12)
        spec = tiny_spec(experiments=[TINY_CONFIG, other])
        cells = spec.expand()
        per_experiment = 1 + len(RATES) * spec.n_trials
        assert len(cells) == 2 * per_experiment
        assert {c.experiment_key for c in cells} == {
            TINY_CONFIG.label(),
            other.label(),
        }

    def test_duplicate_experiment_labels_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(experiments=[TINY_CONFIG, TINY_CONFIG])

    def test_spec_round_trip_preserves_fingerprint(self):
        spec = tiny_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.fingerprint() == spec.fingerprint()
        assert clone.experiment_keys == spec.experiment_keys

    def test_fingerprint_changes_with_grid(self):
        assert tiny_spec().fingerprint() != tiny_spec(seed=99).fingerprint()


class TestSerialParallelParity:
    def test_pool_matches_serial_bit_identically(self, serial_result, tmp_path):
        parallel = run_campaign(
            tiny_spec(), store_path=tmp_path / "par.jsonl", n_workers=2
        )
        key = TINY_CONFIG.label()
        serial_sweep = serial_result.sweeps[key]
        parallel_sweep = parallel.sweeps[key]
        assert parallel_sweep.clean_accuracy == serial_sweep.clean_accuracy
        for kind, series in serial_sweep.techniques.items():
            assert parallel_sweep.techniques[kind].per_trial == series.per_trial
            assert parallel_sweep.techniques[kind].accuracies == series.accuracies

    def test_fault_rate_sweep_matches_campaign(self, serial_result):
        """The thin-wrapper path reproduces the campaign bit-for-bit."""
        key = TINY_CONFIG.label()
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        sweep = FaultRateSweep(
            prepared.model,
            prepared.test_set,
            [NoMitigation(), BnPTechnique(BnPVariant.BNP3)],
            n_trials=2,
            batch_size=TINY_CONFIG.eval_batch_size,
        )
        result = sweep.run(fault_rates=RATES, rng=CAMPAIGN_SEED, label=key)
        # The whole summary: clean baselines (shared and per technique),
        # rates, means and raw per-trial accuracies.
        assert result.summary() == serial_result.sweeps[key].summary()

    def test_execute_cell_is_deterministic(self, serial_result):
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP3)]
        cell = build_experiment_cells(
            TINY_CONFIG.label(), RATES, 2, root_seed=CAMPAIGN_SEED
        )[3]
        a = execute_cell_group([cell], prepared.model, prepared.test_set, techniques)[0]
        b = execute_cell_group([cell], prepared.model, prepared.test_set, techniques)[0]
        assert a.accuracies == b.accuracies
        assert a.n_faults == b.n_faults

    def test_serial_duration_excludes_input_preparation(self, monkeypatch):
        """A serial unit times its engine pass only, as a pooled unit does:
        a slow fault-map preparation must not show in ``duration_seconds``."""
        prepared = ExperimentRunner(root_seed=RUNNER_SEED).prepare(TINY_CONFIG)
        techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP3)]
        cell = build_experiment_cells(
            TINY_CONFIG.label(), RATES, 2, root_seed=CAMPAIGN_SEED
        )[3]
        prepare = campaign_module.prepare_unit_inputs

        def slow_prepare(*args, **kwargs):
            time.sleep(0.5)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "prepare_unit_inputs", slow_prepare)
        began = time.perf_counter()
        result = execute_cell_group(
            [cell], prepared.model, prepared.test_set, techniques
        )[0]
        assert time.perf_counter() - began >= 0.5  # the slow stage did run
        assert result.duration_seconds < 0.5


class TestResume:
    def test_half_completed_campaign_resumes_without_recompute(
        self, serial_result, tmp_path
    ):
        """Kill after k cells → re-run → each cell exactly once, same numbers."""
        spec = tiny_spec()
        full_store = tmp_path / "full.jsonl"
        run_campaign(spec, store_path=full_store, n_workers=1)

        lines = full_store.read_text().splitlines()
        n_cells = len(lines) - 1  # minus meta record
        k = 2
        half_store = tmp_path / "half.jsonl"
        half_store.write_text("\n".join(lines[: 1 + k]) + "\n")

        resumed = run_campaign(spec, store_path=half_store, n_workers=1)
        assert resumed.n_skipped == k
        assert resumed.n_executed == n_cells - k

        records = [json.loads(line) for line in half_store.read_text().splitlines()]
        cell_ids = [r["cell_id"] for r in records if r["type"] == "cell"]
        assert len(cell_ids) == n_cells
        assert len(set(cell_ids)) == n_cells  # each cell exactly once

        key = TINY_CONFIG.label()
        for kind, series in serial_result.sweeps[key].techniques.items():
            assert resumed.sweeps[key].techniques[kind].per_trial == series.per_trial

    def test_completed_campaign_reruns_as_pure_read(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "done.jsonl"
        first = run_campaign(spec, store_path=store, n_workers=1)
        again = run_campaign(spec, store_path=store, n_workers=1)
        assert again.n_executed == 0
        assert again.n_skipped == first.n_cells
        key = TINY_CONFIG.label()
        assert again.sweeps[key].summary() == first.sweeps[key].summary()

    def test_truncated_tail_line_is_reexecuted(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "torn.jsonl"
        run_campaign(spec, store_path=store, n_workers=1)
        text = store.read_text()
        store.write_text(text[: len(text) - 25])  # tear the last record
        resumed = run_campaign(spec, store_path=store, n_workers=1)
        assert resumed.n_executed == 1

    def test_no_resume_truncates(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "reset.jsonl"
        run_campaign(spec, store_path=store, n_workers=1)
        rerun = run_campaign(spec, store_path=store, n_workers=1, resume=False)
        assert rerun.n_skipped == 0
        assert rerun.n_executed == rerun.n_cells


class TestResultStore:
    def test_spec_mismatch_refused(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.initialize(tiny_spec())
        with pytest.raises(StoreMismatchError):
            store.initialize(tiny_spec(seed=123))

    def test_meta_and_records(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        store.initialize(spec)
        assert store.meta()["campaign"] == "tiny"
        assert store.spec_dict()["n_trials"] == spec.n_trials
        assert len(store) == 0
        result = CellResult(
            cell_id="x::clean",
            experiment_key="x",
            fault_rate=None,
            rate_index=-1,
            trial_index=-1,
            accuracies={"clean": 50.0},
        )
        store.append_cell(result)
        assert store.completed_cell_ids() == ["x::clean"]
        loaded = store.cell_records()["x::clean"]
        assert loaded.accuracies == {"clean": 50.0}
        assert loaded.fault_rate is None

    def test_duplicate_cell_records_first_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.initialize(tiny_spec())
        first = CellResult("a", "x", 0.1, 0, 0, {"no_mitigation": 10.0})
        second = CellResult("a", "x", 0.1, 0, 0, {"no_mitigation": 90.0})
        store.append_cell(first)
        store.append_cell(second)
        assert store.cell_records()["a"].accuracies["no_mitigation"] == 10.0

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.initialize(tiny_spec())
        store.append_cell(CellResult("a", "x", 0.1, 0, 0, {"no_mitigation": 1.0}))
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            store.cell_records()

    def test_corrupt_middle_record_blocks_resume(self, tmp_path):
        """Mid-file corruption is refused at initialize time, not repaired.

        Only a *torn tail* is the footprint of an interrupted append; a
        malformed record with complete records after it means the store
        itself is damaged, and resuming into it would silently drop
        finished cells — so ``initialize`` raises instead of truncating.
        """
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.initialize(tiny_spec())
        store.append_cell(CellResult("a", "x", 0.1, 0, 0, {"no_mitigation": 1.0}))
        store.append_cell(CellResult("b", "x", 0.1, 1, 0, {"no_mitigation": 2.0}))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10]  # corrupt the first cell, keep the second
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt store record"):
            ResultStore(path).initialize(tiny_spec())

    def test_corrupt_tail_record_is_repaired_on_resume(self, tmp_path):
        """A torn *final* record (no trailing newline) is cut back silently."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.initialize(tiny_spec())
        store.append_cell(CellResult("a", "x", 0.1, 0, 0, {"no_mitigation": 1.0}))
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"type": "cell", "cell_id": "torn')
        fresh = ResultStore(path)
        fresh.initialize(tiny_spec())
        assert fresh.completed_cell_ids() == ["a"]


class TestTrainedModelSnapshot:
    def test_save_load_round_trip(self, tmp_path):
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        model = prepared.model
        npz_path = model.save(tmp_path / "model")
        assert npz_path.exists()
        assert npz_path.with_suffix(".json").exists()

        loaded = TrainedModel.load(tmp_path / "model")
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.theta, model.theta)
        assert np.array_equal(loaded.neuron_labels, model.neuron_labels)
        assert loaded.clean_max_weight == model.clean_max_weight
        assert loaded.clean_most_probable_weight == model.clean_most_probable_weight
        assert loaded.network_config == model.network_config

    def test_loaded_model_evaluates_identically(self, tmp_path):
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        prepared.model.save(tmp_path / "model.npz")
        loaded = TrainedModel.load(tmp_path / "model.npz")
        a = NoMitigation().evaluate(prepared.model, prepared.test_set, rng=4)
        b = NoMitigation().evaluate(loaded, prepared.test_set, rng=4)
        assert np.array_equal(a.predictions, b.predictions)

    def test_load_rejects_unknown_format(self, tmp_path):
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        prepared.model.save(tmp_path / "model")
        meta_path = tmp_path / "model.json"
        data = json.loads(meta_path.read_text())
        data["format"] = 999
        meta_path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            TrainedModel.load(tmp_path / "model")


class TestWorkerDataReconstruction:
    def test_prepare_datasets_matches_runner(self):
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        _, test_set = prepare_datasets(
            TINY_CONFIG, SeedSequenceFactory(root_seed=RUNNER_SEED)
        )
        assert np.array_equal(test_set.images, prepared.test_set.images)
        assert np.array_equal(test_set.labels, prepared.test_set.labels)


class TestSummaryRoundTrip:
    def test_sweep_result_from_summary(self, serial_result):
        sweep = serial_result.sweeps[TINY_CONFIG.label()]
        summary = sweep.summary()
        assert summary["n_trials"] == 2
        for series in summary["techniques"].values():
            assert len(series["per_trial"]) == len(RATES)
            assert all(len(trials) == 2 for trials in series["per_trial"])
        restored = SweepResult.from_summary(summary)
        assert restored.summary() == summary
        assert restored.techniques[MitigationKind.BNP3].per_trial == (
            sweep.techniques[MitigationKind.BNP3].per_trial
        )

    def test_campaign_summary_contains_per_trial(self, serial_result):
        summary = serial_result.summary()
        experiment = summary["experiments"][TINY_CONFIG.label()]
        assert experiment["n_trials"] == 2
        assert "per_trial" in experiment["techniques"]["bnp3"]


class TestCampaignCLI:
    def test_smoke_preset_end_to_end(self, tmp_path, capsys):
        from repro.campaign import main

        store = tmp_path / "smoke.jsonl"
        report_path = tmp_path / "smoke-report.json"
        code = main(
            [
                "smoke",
                "--store",
                str(store),
                "--workers",
                "1",
                "--quiet",
                "--run-report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no_mitigation" in out and "bnp3" in out
        assert store.exists()
        assert store.with_suffix(".summary.json").exists()
        summary = json.loads(store.with_suffix(".summary.json").read_text())
        assert summary["campaign"] == "smoke"

        report = json.loads(report_path.read_text())
        assert report["campaign"] == "smoke"
        assert report["n_executed"] == report["n_cells"] == len(report["cells"])
        assert all(cell["duration_seconds"] >= 0 for cell in report["cells"])
        assert "softsnn_campaign_cells_total" in report["metrics"]
        assert "softsnn_span_seconds" in report["metrics"]

        # Re-running resumes entirely from the store.
        code = main(["smoke", "--store", str(store), "--quiet"])
        assert code == 0
        assert "0 executed" in capsys.readouterr().out.replace("(", " ").strip()

    def test_override_flags(self, tmp_path, capsys):
        from repro.campaign import main

        code = main(
            [
                "smoke",
                "--no-store",
                "--rates",
                "1e-1",
                "--trials",
                "1",
                "--techniques",
                "no_mitigation",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.1" in out
        assert "bnp3" not in out
