"""Tests for the warm persistent campaign worker pool.

The pool's contract has three legs, each covered here:

* **Bit-identity** — store records produced through the pool equal the
  serial ones byte for byte (modulo the measured ``duration_seconds``),
  because each worker re-derives a unit's random streams from the cell
  seeds and consumes them in the same order the serial path does.
* **Robustness** — a worker that dies mid-unit is detected, the unit is
  named and re-executed serially once, and a half-finished pooled
  campaign resumes from its store exactly like a serial one.
* **Hygiene** — no worker process outlives a normal run or a
  ``KeyboardInterrupt`` in the orchestrator.
"""

from __future__ import annotations

import json
import logging
import multiprocessing as mp
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.eval.pool as pool_module
from repro.campaign import _parse_workers
from repro.core.mitigation import fault_map_generator
from repro.eval.campaign import (
    CampaignSpec,
    TechniqueSpec,
    UnitInputs,
    execute_cell_group,
    group_cells,
    prepare_unit_inputs,
    resolve_worker_count,
    run_campaign,
)
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.pool import execute_units_pooled
from repro.faults.models import ComputeEngineFaultConfig
from repro.hardware.enhancements import MitigationKind
from repro.snn.engine import flatten_images

TINY_CONFIG = ExperimentConfig(
    workload="mnist", n_neurons=10, n_train=24, n_test=8, timesteps=40, epochs=1
)
RATES = [1e-3, 1e-1]
CAMPAIGN_SEED = 5
RUNNER_SEED = 3


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="tiny-pool",
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


def store_cells(path: Path) -> list:
    """Cell records of a store, duration-normalized and sorted by id."""
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") != "cell":
            continue
        record["duration_seconds"] = 0.0
        records.append(record)
    records.sort(key=lambda record: record["cell_id"])
    return records


def _numpy_blas_name() -> str:
    """Lower-cased name of the BLAS numpy was built against ("" if unknown)."""
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"].lower()
    except Exception:  # noqa: BLE001 - older numpy: no dict config
        return ""


def pooled_assets(tmp_path: Path):
    """Orchestrator-side assets + snapshot paths for direct pool calls."""
    spec = tiny_spec()
    runner = ExperimentRunner(root_seed=RUNNER_SEED)
    prepared = runner.prepare(TINY_CONFIG)
    key = TINY_CONFIG.label()
    techniques = [tspec.build() for tspec in spec.techniques]
    assets = {key: (prepared.model, prepared.test_set, techniques)}
    model_paths = {key: str(prepared.model.save(tmp_path / "model"))}
    units = group_cells(spec.expand())
    return spec, units, assets, model_paths


class TestWorkerCountResolution:
    def test_auto_resolves_to_cpu_count(self):
        assert resolve_worker_count(None) == max(1, os.cpu_count() or 1)

    def test_explicit_counts_pass_through(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(7) == 7

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        with pytest.raises(ValueError):
            resolve_worker_count(-2)

    def test_cli_workers_parser(self):
        import argparse

        assert _parse_workers("auto") is None
        assert _parse_workers("AUTO") is None
        assert _parse_workers("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_workers("0")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_workers("many")


class TestPreparedInputs:
    def test_prepared_inputs_reproduce_inline_execution(self):
        """execute_cell_group(inputs=...) equals the self-preparing path."""
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        techniques = [tspec.build() for tspec in tiny_spec().techniques]
        for unit in group_cells(tiny_spec().expand()):
            inline = execute_cell_group(
                unit, prepared.model, prepared.test_set, techniques
            )
            inputs = prepare_unit_inputs(unit, prepared.model, prepared.test_set)
            outer = execute_cell_group(
                unit, prepared.model, prepared.test_set, techniques, inputs=inputs
            )
            for a, b in zip(inline, outer):
                assert a.accuracies == b.accuracies
                assert a.n_faults == b.n_faults

    def test_streamed_unit_matches_eagerly_encoded_unit(self):
        """Streamed rasters give the records of whole-test-set encodes.

        The eager inputs consume each cell's generator in the documented
        order — fault map first, then the whole test set in one encode.
        A 3-sample chunk makes the streamed encodes cross chunk boundaries.
        """
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        model, test_set = prepared.model, prepared.test_set
        techniques = [tspec.build() for tspec in tiny_spec().techniques]
        encoder = model.network_config.make_encoder()
        flat = flatten_images(test_set.images, model.network_config.n_inputs)
        for unit in group_cells(tiny_spec().expand()):
            unit = [replace(cell, batch_size=3) for cell in unit]
            generators = [np.random.default_rng(cell.seed) for cell in unit]
            fault_maps = None
            if not unit[0].is_clean:
                config = ComputeEngineFaultConfig(
                    fault_rate=unit[0].fault_rate,
                    inject_synapses=unit[0].inject_synapses,
                    inject_neurons=unit[0].inject_neurons,
                )
                fault_maps = [
                    fault_map_generator(model).generate(config, rng=generator)
                    for generator in generators
                ]
            eager = UnitInputs(
                fault_maps=fault_maps,
                rasters=[
                    encoder.encode_batch(flat[:, np.newaxis, :], rng=generator)
                    for generator in generators
                ],
            )
            streamed = prepare_unit_inputs(unit, model, test_set)
            assert all(isinstance(r, np.ndarray) for r in eager.rasters)
            assert not any(isinstance(r, np.ndarray) for r in streamed.rasters)
            records = [
                [
                    {**result.to_dict(), "duration_seconds": 0.0}
                    for result in execute_cell_group(
                        unit, model, test_set, techniques, inputs=inputs
                    )
                ]
                for inputs in (eager, streamed)
            ]
            assert records[0] == records[1]

    def test_streamed_inputs_serve_one_execution(self):
        """Executing a streamed unit twice raises instead of re-encoding."""
        runner = ExperimentRunner(root_seed=RUNNER_SEED)
        prepared = runner.prepare(TINY_CONFIG)
        techniques = [tspec.build() for tspec in tiny_spec().techniques]
        unit = group_cells(tiny_spec().expand())[1]
        args = (unit, prepared.model, prepared.test_set, techniques)
        inputs = prepare_unit_inputs(*args[:3])
        execute_cell_group(*args, inputs=inputs)
        with pytest.raises(ValueError, match="read once"):
            execute_cell_group(*args, inputs=inputs)


class TestPoolBitIdentity:
    def test_store_records_byte_identical(self, tmp_path):
        """Serial and warm-pool stores hold the same records, byte for byte."""
        spec = tiny_spec()
        serial_store = tmp_path / "serial.jsonl"
        pool_store = tmp_path / "pool.jsonl"
        run_campaign(spec, store_path=serial_store, n_workers=1)
        run_campaign(spec, store_path=pool_store, n_workers=2)
        serial_records = store_cells(serial_store)
        pool_records = store_cells(pool_store)
        assert len(serial_records) == len(spec.expand())
        assert [
            json.dumps(record, sort_keys=True) for record in serial_records
        ] == [json.dumps(record, sort_keys=True) for record in pool_records]

    def test_multi_experiment_grid_matches_serial(self, tmp_path):
        """Affinity routing across two experiments changes nothing."""
        other = TINY_CONFIG.with_network_size(12)
        spec = tiny_spec(experiments=[TINY_CONFIG, other], n_trials=1)
        serial_store = tmp_path / "serial.jsonl"
        pool_store = tmp_path / "pool.jsonl"
        run_campaign(spec, store_path=serial_store, n_workers=1)
        run_campaign(spec, store_path=pool_store, n_workers=2)
        assert store_cells(serial_store) == store_cells(pool_store)

    def test_spawned_workers_match_serial(self, tmp_path, monkeypatch):
        """Spawned workers (contexts pickled, not inherited) match serial."""
        spawn = mp.get_context("spawn")
        monkeypatch.setattr(
            "repro.eval.pool.mp.get_context", lambda *args, **kwargs: spawn
        )
        spec = tiny_spec()
        serial_store = tmp_path / "serial.jsonl"
        pool_store = tmp_path / "pool.jsonl"
        run_campaign(spec, store_path=serial_store, n_workers=1)
        pooled = run_campaign(spec, store_path=pool_store, n_workers=2)
        # The spawned workers did the work: no serial fallback or retry.
        stats = pooled.pool_stats
        assert stats is not None and stats["serial_retries"] == 0
        assert all(worker["units"] > 0 for worker in stats["workers"])
        assert store_cells(serial_store) == store_cells(pool_store)


class TestPoolResume:
    def test_resume_after_kill_with_pool_workers(self, tmp_path):
        """Truncate a pooled store mid-campaign, resume with pool workers."""
        spec = tiny_spec()
        full_store = tmp_path / "full.jsonl"
        run_campaign(spec, store_path=full_store, n_workers=2)
        lines = full_store.read_text().splitlines()
        n_cells = len(lines) - 1  # minus meta record
        k = 2
        half_store = tmp_path / "half.jsonl"
        half_store.write_text("\n".join(lines[: 1 + k]) + "\n")

        resumed = run_campaign(spec, store_path=half_store, n_workers=2)
        assert resumed.n_skipped == k
        assert resumed.n_executed == n_cells - k
        records = store_cells(half_store)
        assert len(records) == n_cells
        assert len({record["cell_id"] for record in records}) == n_cells
        assert records == store_cells(full_store)


class TestCrashRecovery:
    def test_crashed_worker_unit_is_named_and_retried(
        self, tmp_path, monkeypatch, caplog
    ):
        """A worker dying mid-unit costs one serial retry, not the run."""
        monkeypatch.setenv("_SOFTSNN_POOL_CRASH_UNIT", "0")
        spec = tiny_spec()
        serial_store = tmp_path / "serial.jsonl"
        pool_store = tmp_path / "pool.jsonl"
        monkeypatch.delenv("_SOFTSNN_POOL_CRASH_UNIT", raising=False)
        run_campaign(spec, store_path=serial_store, n_workers=1)
        monkeypatch.setenv("_SOFTSNN_POOL_CRASH_UNIT", "0")
        # A CLI test earlier in the session may have called
        # configure_logging(), which stops repro.* records propagating to
        # the root logger caplog listens on; restore propagation here.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        # Streamed inputs are read once, so the serial retry must prepare
        # its own (``inputs=None``) instead of reusing the worker's.
        retried_inputs = []
        execute = pool_module.execute_cell_group

        def recording(*args, inputs=None, **kwargs):
            retried_inputs.append(inputs)
            return execute(*args, inputs=inputs, **kwargs)

        monkeypatch.setattr(pool_module, "execute_cell_group", recording)
        with caplog.at_level(logging.WARNING, logger="repro.eval.pool"):
            pooled = run_campaign(spec, store_path=pool_store, n_workers=2)
        assert "died mid-unit" in caplog.text
        assert TINY_CONFIG.label() in caplog.text
        assert store_cells(serial_store) == store_cells(pool_store)
        # Only the started unit re-runs in the orchestrator; the crashed
        # worker's other units go to the survivor.
        assert pooled.pool_stats["crashes"] == 1
        assert pooled.pool_stats["serial_retries"] == 1
        # Recorded in this process only: the one orchestrator-side retry.
        assert retried_inputs == [None]


class TestProcessHygiene:
    def test_no_children_after_normal_run(self, tmp_path):
        """A finished pooled run leaves no worker process behind."""
        run_campaign(tiny_spec(), store_path=tmp_path / "s.jsonl", n_workers=2)
        assert mp.active_children() == []

    def test_no_children_after_keyboard_interrupt(self, tmp_path):
        """Interrupting the orchestrator mid-campaign leaves no workers."""
        _, units, assets, model_paths = pooled_assets(tmp_path)
        received = []

        def interrupt(result):
            received.append(result)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_units_pooled(
                units,
                assets,
                model_paths,
                tiny_spec().techniques,
                n_workers=2,
                on_result=interrupt,
            )
        assert received  # the interrupt fired mid-stream, not before work
        assert mp.active_children() == []


class TestPoolObservability:
    def test_worker_logs_relayed_with_worker_tag(self, monkeypatch):
        """Worker-side debug records reach the orchestrator's logger.

        ``SOFTSNN_LOG_LEVEL=DEBUG`` turns on worker-side debug logging;
        the queue relay must re-emit those records in the parent tagged
        with the worker id.  A handler is attached directly to the
        library root logger because ``configure_logging`` (run by any
        earlier CLI test) sets ``propagate = False``, which hides the
        records from pytest's root-logger capture.
        """
        from repro.utils.logging import get_logger

        monkeypatch.setenv("SOFTSNN_LOG_LEVEL", "DEBUG")
        records = []

        class _Capture(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                records.append(record.getMessage())

        root = get_logger()
        handler = _Capture(level=logging.DEBUG)
        old_level = root.level
        root.addHandler(handler)
        root.setLevel(logging.DEBUG)
        try:
            run_campaign(tiny_spec(), store_path=None, n_workers=2)
        finally:
            root.removeHandler(handler)
            root.setLevel(old_level)
        relayed = [text for text in records if text.startswith("[worker ")]
        assert relayed, "no worker-tagged records reached the orchestrator"
        assert any("executing unit" in text for text in relayed)

    def test_pool_stats_cover_workers(self, tmp_path):
        """The returned run stats account workers and time."""
        result = run_campaign(tiny_spec(), store_path=None, n_workers=2)
        stats = result.pool_stats
        assert stats is not None
        assert stats["n_workers"] == 2
        assert stats["crashes"] == 0 and stats["serial_retries"] == 0
        assert stats["wall_seconds"] > 0
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert 0.0 <= worker["utilization"] <= 1.0
            # Stage seconds as the worker measured them.
            assert worker["prepare_s"] > 0 and worker["execute_s"] > 0
            # The worker's own peak resident set, read after its last unit.
            assert worker["peak_rss_mb"] > 0
        assert result.run_report()["pool"]["workers"] == stats["workers"]
        assert sum(worker["units"] for worker in stats["workers"]) == len(
            group_cells(tiny_spec().expand())
        )
        # Serial execution reports no pool stats.
        serial = run_campaign(tiny_spec(), store_path=None, n_workers=1)
        assert serial.pool_stats is None

    @pytest.mark.skipif(
        "openblas" not in _numpy_blas_name(), reason="numpy's BLAS is not OpenBLAS"
    )
    def test_workers_pin_blas_to_one_thread(self):
        """Every worker reports running its OpenBLAS on one thread."""
        result = run_campaign(tiny_spec(), store_path=None, n_workers=2)
        assert [w["blas_threads"] for w in result.pool_stats["workers"]] == [1, 1]
