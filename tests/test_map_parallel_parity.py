"""Parity suite for stacked rows of the map-parallel inference engine.

The load-bearing contract of :class:`repro.snn.engine.MapParallelEngine` is
bitwise identity: evaluating N fault maps (and techniques) stacked into one
fused pass must produce, per row, exactly the spikes, predictions and spike
counts the row yields alone in a one-row engine over the same rasters —
across clean, faulty and protected modes, for any map count (including the
single-map degenerate case) and any chunking.  On top of the engine
parity, the campaign-level tests pin that grouped map-parallel cell
execution writes byte-identical result-store records to cell-at-a-time
execution.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.bound_and_protect import BnPVariant, WeightBounding
from repro.core.mitigation import (
    BnPTechnique,
    MitigationTechnique,
    NoMitigation,
    ReExecutionTMR,
    evaluate_techniques_mapped,
    prepare_map_assets,
)
from repro.data.datasets import Dataset
from repro.eval.campaign import (
    CampaignSpec,
    TechniqueSpec,
    build_experiment_cells,
    collect_sweep_result,
    execute_cell_group,
    group_cells,
    run_campaign,
)
from repro.eval.store import ResultStore
from repro.eval.sweep import FaultRateSweep
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.faults.fault_map import FaultMap
from repro.faults.models import NeuronFaultType
from repro.hardware.enhancements import MitigationKind
from repro.snn.engine import MapParallelEngine, MapRow
from repro.snn.inference import class_indicator, evaluate_rows
from repro.snn.network import NetworkConfig
from repro.snn.training import TrainedModel


# --------------------------------------------------------------------- #
# reference path: one row at a time through a one-row engine
# --------------------------------------------------------------------- #
def reference_row(model, row: MapRow, raster: np.ndarray, batch_size: int):
    """Evaluate one row alone through its own one-row engine.

    Returns ``(spike_counts, predictions)``: the row (its registers,
    operation status, bounding rule and protection trigger) in a
    :class:`MapParallelEngine` of its own, run in chunked ``run_encoded``
    calls with the faulty-reset latch carried across chunks.
    """
    engine = MapParallelEngine(
        [replace(row, raster_index=0)],
        quantizer=model.network_config.make_quantizer(model.clean_max_weight),
        params=model.network_config.neuron_params,
        theta=model.theta,
        model=model.network_config.neuron_model,
    )
    latch = None
    counts = []
    for start in range(0, raster.shape[0], batch_size):
        chunk = engine.run_encoded(
            [raster[start : start + batch_size]], initial_reset_latch=latch
        )
        latch = chunk.final_reset_latch
        counts.append(chunk.spike_counts[0])
    spike_counts = np.concatenate(counts)
    votes = spike_counts.astype(np.float64) @ class_indicator(model.neuron_labels)
    return spike_counts, np.argmax(votes, axis=1).astype(np.int64)


def crafted_fault_maps(model) -> list:
    """Deterministic fault maps covering every corruption mode.

    Hand-picked rather than drawn so the suite always exercises high-bit
    register flips (the bounding path), a faulty ``Vmem reset`` (the
    cross-sample latch fix-up), a gated spike generator, and a broken leak
    — independent of any RNG draw.
    """
    shape = (model.network_config.n_inputs, model.n_neurons)
    bits = model.network_config.weight_bits
    return [
        # High-bit synapse flips only: weights blow past the clean maximum.
        FaultMap(
            crossbar_shape=shape,
            synapse_flat_indices=np.array([3, 40, 41, 500, 1207]),
            synapse_bit_positions=np.array([bits - 1] * 5),
            fault_rate=1e-2,
            bit_width=bits,
        ),
        # Faulty resets (latch fix-up) plus a dead spike generator.
        FaultMap(
            crossbar_shape=shape,
            synapse_flat_indices=np.array([7, 123]),
            synapse_bit_positions=np.array([bits - 1, 2]),
            neuron_faults=[
                (1, NeuronFaultType.VMEM_RESET),
                (4, NeuronFaultType.SPIKE_GENERATION),
            ],
            fault_rate=1e-2,
            bit_width=bits,
        ),
        # Neuron faults only: broken leak and increase, second faulty reset.
        FaultMap(
            crossbar_shape=shape,
            neuron_faults=[
                (0, NeuronFaultType.VMEM_LEAK),
                (2, NeuronFaultType.VMEM_INCREASE),
                (3, NeuronFaultType.VMEM_RESET),
            ],
            fault_rate=1e-2,
            bit_width=bits,
        ),
    ]


@pytest.fixture(scope="module")
def parity_rasters(trained_model, small_split):
    """Three per-cell encodings of the shared test set."""
    _, test_set = small_split
    encoder = trained_model.network_config.make_encoder()
    flat = np.asarray(test_set.images, dtype=np.float64).reshape(len(test_set), -1)
    return [
        encoder.encode_batch(flat[:, np.newaxis, :], rng=np.random.default_rng(seed))
        for seed in (11, 22, 33)
    ]


class TestEngineParity:
    def _rows_for(self, model, assets, mode: str):
        bounding = WeightBounding.for_variant(
            BnPVariant.BNP3,
            clean_max_weight=model.clean_max_weight,
            most_probable_weight=model.clean_most_probable_weight,
        ).as_weight_rule()
        rows = []
        for asset in assets:
            if mode == "clean":
                rows.append(
                    MapRow(asset.raster_index, asset.clean_registers,
                           asset.healthy_status)
                )
            elif mode == "faulty":
                rows.append(
                    MapRow(asset.raster_index, asset.faulty_registers, asset.status)
                )
            else:  # protected
                rows.append(
                    MapRow(
                        asset.raster_index,
                        asset.faulty_registers,
                        asset.status,
                        weight_rule=bounding,
                        protection_trigger_cycles=2,
                    )
                )
        return rows

    @pytest.mark.parametrize("mode", ["clean", "faulty", "protected"])
    @pytest.mark.parametrize("n_maps", [1, 2, 3])
    def test_bit_identical_to_batched_engine(
        self, trained_model, small_split, parity_rasters, mode, n_maps
    ):
        """Fused rows equal per-row batched evaluation, spike for spike."""
        _, test_set = small_split
        maps = crafted_fault_maps(trained_model)[:n_maps]
        assets = prepare_map_assets(trained_model, maps, n_maps)
        rows = self._rows_for(trained_model, assets, mode)
        rasters = parity_rasters[:n_maps]

        # Odd chunk size: exercises partial tails and latch carry.
        results = evaluate_rows(
            rows,
            rasters,
            trained_model.neuron_labels,
            test_set.labels,
            quantizer=trained_model.network_config.make_quantizer(
                trained_model.clean_max_weight
            ),
            params=trained_model.network_config.neuron_params,
            theta=trained_model.theta,
            batch_size=7,
        )
        for row, raster, result in zip(rows, rasters, results):
            ref_counts, ref_predictions = reference_row(
                trained_model, row, raster, batch_size=7
            )
            assert np.array_equal(result.spike_counts, ref_counts)
            assert np.array_equal(result.predictions, ref_predictions)
            assert result.total_input_spikes == int(raster.sum())

    def test_mixed_technique_rows_share_one_pass(
        self, trained_model, small_split, parity_rasters
    ):
        """Heterogeneous rows (clean + faulty + bounded) stay bit-exact.

        This is the campaign shape: the same base GEMM serves unbounded and
        bounded rows, different thresholds coexist, and protected rows ride
        next to unprotected ones.
        """
        _, test_set = small_split
        maps = crafted_fault_maps(trained_model)
        assets = prepare_map_assets(trained_model, maps, len(maps))
        bnp1 = WeightBounding.bnp1(trained_model.clean_max_weight).as_weight_rule()
        bnp2 = WeightBounding.bnp2(trained_model.clean_max_weight).as_weight_rule()
        rows = []
        for asset in assets:
            rows.extend(
                [
                    MapRow(asset.raster_index, asset.faulty_registers, asset.status),
                    MapRow(asset.raster_index, asset.clean_registers,
                           asset.healthy_status),
                    MapRow(asset.raster_index, asset.faulty_registers, asset.status,
                           weight_rule=bnp1, protection_trigger_cycles=2),
                    MapRow(asset.raster_index, asset.faulty_registers, asset.status,
                           weight_rule=bnp2, protection_trigger_cycles=3),
                ]
            )
        results = evaluate_rows(
            rows,
            parity_rasters,
            trained_model.neuron_labels,
            test_set.labels,
            quantizer=trained_model.network_config.make_quantizer(
                trained_model.clean_max_weight
            ),
            params=trained_model.network_config.neuron_params,
            theta=trained_model.theta,
            batch_size=8,
        )
        for row, result in zip(rows, results):
            ref_counts, ref_predictions = reference_row(
                trained_model, row, parity_rasters[row.raster_index], batch_size=8
            )
            assert np.array_equal(result.spike_counts, ref_counts)
            assert np.array_equal(result.predictions, ref_predictions)

    def test_techniques_mapped_match_plans(
        self, trained_model, small_split, parity_rasters
    ):
        """The fused technique evaluation equals per-row references.

        Covers the combine step too: re-execution's result must equal a
        per-sample majority vote over explicitly repeated runs.
        """
        _, test_set = small_split
        maps = crafted_fault_maps(trained_model)
        techniques = [
            NoMitigation(),
            ReExecutionTMR(),
            BnPTechnique(BnPVariant.BNP3),
        ]
        outcomes = evaluate_techniques_mapped(
            trained_model,
            test_set,
            techniques,
            fault_maps=maps,
            rasters=parity_rasters,
            batch_size=8,
        )
        assets = prepare_map_assets(trained_model, maps, len(maps))
        for index, asset in enumerate(assets):
            raster = parity_rasters[index]
            # No mitigation: the faulty engine as-is.
            counts, predictions = reference_row(
                trained_model,
                MapRow(index, asset.faulty_registers, asset.status),
                raster,
                batch_size=8,
            )
            outcome = outcomes[MitigationKind.NO_MITIGATION][index]
            assert np.array_equal(outcome.predictions, predictions)
            assert np.array_equal(outcome.spike_counts, counts)

            # Re-execution: majority of [faulty, clean, clean] per sample.
            clean_counts, clean_predictions = reference_row(
                trained_model,
                MapRow(index, asset.clean_registers, asset.healthy_status),
                raster,
                batch_size=8,
            )
            # Two agreeing runs out of three carry the sample; with three
            # distinct predictions the first run's stands.
            runs = np.stack([predictions, clean_predictions, clean_predictions])
            voted = np.array(
                [
                    np.bincount(votes).argmax() if len(set(votes)) < 3 else votes[0]
                    for votes in runs.T
                ]
            )
            tmr = outcomes[MitigationKind.RE_EXECUTION][index]
            assert np.array_equal(tmr.predictions, voted)
            assert np.array_equal(tmr.spike_counts, counts)
            assert tmr.total_input_spikes == 3 * int(raster.sum())


# --------------------------------------------------------------------- #
# campaign-level: grouped units vs cell-at-a-time execution
# --------------------------------------------------------------------- #
def _campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        name="parity",
        experiments=[
            ExperimentConfig(
                workload="mnist",
                n_neurons=16,
                n_train=48,
                n_test=16,
                timesteps=40,
                epochs=1,
            )
        ],
        fault_rates=[1e-3, 1e-1],
        techniques=[
            TechniqueSpec(MitigationKind.NO_MITIGATION),
            TechniqueSpec(MitigationKind.RE_EXECUTION),
            TechniqueSpec(MitigationKind.BNP3),
        ],
        n_trials=2,
        seed=77,
        runner_seed=77,
    )


class TestCampaignGrouping:
    def test_group_cells_partition(self):
        cells = build_experiment_cells("exp", [1e-3, 1e-1], 3, root_seed=0)
        units = group_cells(cells)
        # clean cell alone, then one unit of three trials per rate
        assert [len(unit) for unit in units] == [1, 3, 3]
        assert units[0][0].is_clean
        assert {cell.rate_index for cell in units[1]} == {0}
        assert {cell.rate_index for cell in units[2]} == {1}

    def test_grouped_records_equal_per_cell_records(self, trained_model, small_split):
        """A grouped unit equals one-cell units per cell, field for field."""
        _, test_set = small_split
        techniques = [NoMitigation(), ReExecutionTMR(), BnPTechnique(BnPVariant.BNP1)]
        cells = build_experiment_cells(
            "exp", [1e-2], 3, root_seed=5, batch_size=8, include_clean=False
        )
        grouped = execute_cell_group(cells, trained_model, test_set, techniques)
        for cell, grouped_result in zip(cells, grouped):
            single = execute_cell_group([cell], trained_model, test_set, techniques)[0]
            assert single.cell_id == grouped_result.cell_id
            assert single.accuracies == grouped_result.accuracies
            assert single.n_faults == grouped_result.n_faults

    def test_campaign_store_records_byte_identical(self, tmp_path):
        """Grouped and cell-at-a-time campaigns write identical records.

        The full pipeline — spec expansion, execution, the JSONL result
        store — must agree byte for byte once the (inherently timing
        dependent) duration field is normalised.
        """
        spec = _campaign_spec()
        runner = ExperimentRunner(root_seed=spec.runner_seed)
        grouped = run_campaign(
            spec, store_path=tmp_path / "grouped.jsonl", runner=runner
        )
        assert grouped.n_executed == grouped.n_cells

        # Reference store: every cell executed alone, appended in grid order.
        prepared = runner.prepare(spec.experiments[0])
        techniques = [tspec.build() for tspec in spec.techniques]
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        serial_store.initialize(spec, reset=True)
        serial_results = {}
        for cell in spec.expand():
            result = execute_cell_group(
                [cell], prepared.model, prepared.test_set, techniques
            )[0]
            serial_store.append_cell(result)
            serial_results[result.cell_id] = result

        def normalised_records(path):
            records = {}
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record.get("type") != "cell":
                    continue
                record["duration_seconds"] = 0.0
                records[record["cell_id"]] = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
            return records

        grouped_records = normalised_records(tmp_path / "grouped.jsonl")
        serial_records = normalised_records(tmp_path / "serial.jsonl")
        assert grouped_records == serial_records
        # And the aggregated sweeps agree exactly.
        key = spec.experiment_keys[0]
        serial_sweep = collect_sweep_result(
            label=key,
            fault_rates=spec.fault_rates,
            technique_kinds=spec.technique_kinds,
            n_trials=spec.n_trials,
            records=serial_results,
            experiment_key=key,
        )
        assert grouped.sweeps[key].summary() == serial_sweep.summary()


class _EvaluateOnlyTechnique(MitigationTechnique):
    """A user-style technique implementing only the evaluate() interface."""

    kind = MitigationKind.RE_EXECUTION

    def evaluate(
        self, model, dataset, fault_config=None, rng=None, fault_map=None,
        batch_size=None,
    ):
        """Never reached: the class cannot be instantiated."""
        raise AssertionError("unreachable")


class TestRowProtocolContract:
    def test_technique_without_plan_rows_cannot_be_instantiated(self):
        """``plan_rows`` is abstract: every technique runs as engine rows."""
        with pytest.raises(TypeError, match="plan_rows"):
            _EvaluateOnlyTechnique()

    def test_fault_rate_sweep_rejects_duplicate_kinds(
        self, trained_model, small_split
    ):
        """Results are keyed by kind: a second BNP3 must not overwrite the first."""
        _, test_set = small_split
        sweep = FaultRateSweep(
            trained_model,
            test_set,
            [
                BnPTechnique(BnPVariant.BNP3, protection_trigger_cycles=1),
                BnPTechnique(BnPVariant.BNP3, protection_trigger_cycles=50),
            ],
        )
        with pytest.raises(ValueError, match="distinct kinds"):
            sweep.run([0.3], rng=1)


# --------------------------------------------------------------------- #
# headline bugfix: per-technique clean baselines
# --------------------------------------------------------------------- #
def _bounding_sensitive_model_and_dataset():
    """A model whose BnP1 clean accuracy *provably* differs from unmitigated.

    Every discriminative weight sits exactly at the clean maximum, so BnP1
    (substitute 0) silences the whole network at fault rate zero: class 1
    samples can no longer be recognised, while the unmitigated clean
    network classifies both classes perfectly.
    """
    config = NetworkConfig(
        n_inputs=4, n_neurons=2, timesteps=50, target_total_intensity=None,
        max_rate=0.25,
    )
    weights = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 1.0],
        ]
    )
    model = TrainedModel(
        network_config=config,
        weights=weights,
        theta=np.zeros(2),
        neuron_labels=np.array([0, 1]),
        clean_max_weight=1.0,
        clean_most_probable_weight=1.0,
    )
    images = np.array(
        [[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]] * 8
    )
    labels = np.array([0, 1] * 8)
    return model, Dataset(images=images, labels=labels, name="bounding-probe")


class TestCleanCellAttribution:
    def test_clean_cell_reports_per_technique_baselines(self):
        """Regression: BnP's clean baseline must be its own, not technique[0]'s.

        Under the old ``techniques[0]`` attribution the clean record held a
        single shared accuracy, so this test fails there twice over: the
        per-technique key is absent, and BnP1's true fault-free baseline
        (bounding silences the max-weight synapses) differs from the
        unmitigated one.
        """
        model, dataset = _bounding_sensitive_model_and_dataset()
        techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP1)]
        clean_cell = build_experiment_cells(
            "probe", [1e-2], 1, root_seed=3, batch_size=4
        )[0]
        assert clean_cell.is_clean
        result = execute_cell_group([clean_cell], model, dataset, techniques)[0]

        assert set(result.accuracies) == {"no_mitigation", "bnp1", "clean"}
        # The unmitigated clean network is perfect; the bounded one loses
        # every class-1 sample (a silent network votes class 0).
        assert result.accuracies["no_mitigation"] == 100.0
        assert result.accuracies["bnp1"] == 50.0
        # The legacy shared entry keeps the unmitigated reference.
        assert result.accuracies["clean"] == result.accuracies["no_mitigation"]

    def test_sweep_exposes_per_technique_clean_baselines(self):
        """collect_sweep_result surfaces the per-technique clean accuracies."""
        from repro.eval.campaign import collect_sweep_result

        model, dataset = _bounding_sensitive_model_and_dataset()
        techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP1)]
        cells = build_experiment_cells("probe", [1e-2], 1, root_seed=3, batch_size=4)
        records = {}
        for unit in group_cells(cells):
            for result in execute_cell_group(unit, model, dataset, techniques):
                records[result.cell_id] = result
        sweep = collect_sweep_result(
            label="probe",
            fault_rates=[1e-2],
            technique_kinds=[MitigationKind.NO_MITIGATION, MitigationKind.BNP1],
            n_trials=1,
            records=records,
        )
        assert sweep.clean_accuracy == 100.0
        assert sweep.clean_accuracy_of(MitigationKind.NO_MITIGATION) == 100.0
        assert sweep.clean_accuracy_of(MitigationKind.BNP1) == 50.0
        # Summary round-trips the per-technique baselines.
        from repro.eval.sweep import SweepResult

        assert SweepResult.from_summary(sweep.summary()).summary() == sweep.summary()
