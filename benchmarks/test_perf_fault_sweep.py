"""BENCH — map-parallel fault-sweep evaluation vs the per-cell loop.

Runs the Fig. 13 grid at the N400 proxy (all five mitigation techniques,
the paper's fault rates) three ways:

* **legacy per-cell loop** — the pre-map-parallel execution shape: for
  every ``(rate, trial)`` cell, draw the fault map and run each technique
  through its stand-alone :meth:`MitigationTechnique.evaluate` call (one
  full engine pass per (cell, technique), re-encoding the test set each
  time).  This is the baseline the speedup is measured against.
* **cell-at-a-time map-parallel** — :func:`execute_cell_group` on a
  one-cell unit per cell: one fused engine pass per cell covering all
  techniques.
* **grouped map-parallel** — :func:`execute_cell_group` per fault rate:
  all trials *and* all techniques of a rate in one fused pass.

Correctness is asserted hard — grouped and cell-at-a-time execution must
produce bit-identical records (the campaign determinism contract) — and
the grouped path must beat the legacy loop by the ROADMAP floor of 3x
(relaxed in ``PERF_FAULT_SWEEP_SMOKE=1`` CI mode, which also shrinks the
grid; the committed ``results/perf_fault_sweep.json`` records a full run).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.mitigation import build_technique
from repro.eval.campaign import (
    build_experiment_cells,
    execute_cell_group,
    group_cells,
)
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.sweep import PAPER_FAULT_RATES
from repro.faults.fault_map import FaultMapGenerator
from repro.faults.models import ComputeEngineFaultConfig
from repro.hardware.enhancements import MitigationKind

SMOKE = os.environ.get("PERF_FAULT_SWEEP_SMOKE") == "1"

#: Fig. 13 compares every technique of the paper.
TECHNIQUE_KINDS = (
    MitigationKind.NO_MITIGATION,
    MitigationKind.RE_EXECUTION,
    MitigationKind.BNP1,
    MitigationKind.BNP2,
    MitigationKind.BNP3,
)

FAULT_RATES = list(PAPER_FAULT_RATES)[-2:] if SMOKE else list(PAPER_FAULT_RATES)
N_TRIALS = 2
#: CI runners are noisy and share cores; locally the grouped path clears 3x.
MIN_SPEEDUP = 1.5 if SMOKE else 3.0

RESULTS_PATH = Path(__file__).parent / "results" / "perf_fault_sweep.json"


def _legacy_cell_loop(cells, model, dataset, techniques):
    """The pre-map-parallel per-cell loop, reproduced on the stable API.

    One fault map per cell, replayed across the techniques through their
    stand-alone ``evaluate`` calls — n_techniques full engine passes (and
    re-encodings) per cell, which is exactly the cost structure this PR's
    engine removes.
    """
    map_generator = FaultMapGenerator(
        crossbar_shape=(model.network_config.n_inputs, model.n_neurons),
        quantizer=model.network_config.make_quantizer(model.clean_max_weight),
    )
    records = {}
    for cell in cells:
        generator = np.random.default_rng(cell.seed)
        config = ComputeEngineFaultConfig(
            fault_rate=cell.fault_rate,
            inject_synapses=cell.inject_synapses,
            inject_neurons=cell.inject_neurons,
        )
        fault_map = map_generator.generate(config, rng=generator)
        accuracies = {}
        for technique in techniques:
            outcome = technique.evaluate(
                model,
                dataset,
                fault_config=config,
                rng=generator,
                fault_map=fault_map,
                batch_size=cell.batch_size,
            )
            accuracies[technique.kind.value] = outcome.accuracy_percent
        records[cell.cell_id] = accuracies
    return records


def test_fault_sweep_map_parallel_speedup(runner, mnist_n400_config):
    prepared = runner.prepare(mnist_n400_config)
    model, test_set = prepared.model, prepared.test_set
    techniques = [build_technique(kind) for kind in TECHNIQUE_KINDS]

    cells = build_experiment_cells(
        mnist_n400_config.label(),
        FAULT_RATES,
        N_TRIALS,
        root_seed=2022,
        batch_size=mnist_n400_config.eval_batch_size,
        include_clean=False,
    )

    start = time.perf_counter()
    _legacy_cell_loop(cells, model, test_set, techniques)
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cellwise = [
        result
        for cell in cells
        for result in execute_cell_group([cell], model, test_set, techniques)
    ]
    cellwise_seconds = time.perf_counter() - start

    start = time.perf_counter()
    grouped = [
        result
        for unit in group_cells(cells)
        for result in execute_cell_group(unit, model, test_set, techniques)
    ]
    grouped_seconds = time.perf_counter() - start

    # Correctness first: grouped execution must be bit-identical to
    # cell-at-a-time execution, record for record.
    assert len(grouped) == len(cellwise) == len(cells)
    grouped_by_id = {result.cell_id: result for result in grouped}
    for single in cellwise:
        fused = grouped_by_id[single.cell_id]
        assert fused.accuracies == single.accuracies
        assert fused.n_faults == single.n_faults

    speedup = legacy_seconds / grouped_seconds if grouped_seconds > 0 else float("inf")
    n_evaluations = len(cells) * len(techniques)
    summary = {
        "smoke": SMOKE,
        "grid": {
            "experiment": mnist_n400_config.label(),
            "fault_rates": FAULT_RATES,
            "n_trials": N_TRIALS,
            "techniques": [kind.value for kind in TECHNIQUE_KINDS],
            "n_cells": len(cells),
            "n_evaluations": n_evaluations,
        },
        "legacy_per_cell_seconds": round(legacy_seconds, 3),
        "cellwise_map_parallel_seconds": round(cellwise_seconds, 3),
        "grouped_map_parallel_seconds": round(grouped_seconds, 3),
        "legacy_ms_per_evaluation": round(1000.0 * legacy_seconds / n_evaluations, 2),
        "grouped_ms_per_evaluation": round(
            1000.0 * grouped_seconds / n_evaluations, 2
        ),
        "speedup_grouped_vs_legacy": round(speedup, 2),
        "speedup_cellwise_vs_legacy": round(
            legacy_seconds / cellwise_seconds if cellwise_seconds > 0 else 0.0, 2
        ),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")

    print()
    print(
        f"BENCH perf_fault_sweep: {len(cells)} cells x {len(techniques)} "
        f"techniques, legacy {summary['legacy_per_cell_seconds']}s, "
        f"cell-wise {summary['cellwise_map_parallel_seconds']}s, grouped "
        f"{summary['grouped_map_parallel_seconds']}s "
        f"({summary['speedup_grouped_vs_legacy']}x vs legacy)"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"grouped map-parallel sweep is only {speedup:.2f}x faster than the "
        f"per-cell loop (floor {MIN_SPEEDUP}x) on {len(cells)} cells"
    )
