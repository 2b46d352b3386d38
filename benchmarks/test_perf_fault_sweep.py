"""BENCH — map-parallel fault-sweep evaluation vs the per-cell loop.

Runs the Fig. 13 grid at the N400 proxy (all five mitigation techniques,
the paper's fault rates) three ways:

* **legacy per-cell loop** — the pre-map-parallel execution shape: for
  every ``(rate, trial)`` cell, draw the fault map and run each technique
  through its stand-alone :meth:`MitigationTechnique.evaluate` call.  Each
  call is a one-cell, one-technique map-route pass: it re-encodes the
  test set and runs its own engine pass, so a cell costs n_techniques
  encodings and passes with no GEMM shared between techniques
  (re-execution's executions share one raster and one clean row within
  its call).  This is the baseline the speedup is measured against.
* **cell-at-a-time map-parallel** — :func:`execute_cell_group` on a
  one-cell unit per cell: one fused engine pass per cell covering all
  techniques.
* **grouped map-parallel** — :func:`execute_cell_group` per fault rate:
  all trials *and* all techniques of a rate in one fused pass.

Correctness is asserted hard — grouped and cell-at-a-time execution must
produce bit-identical records (the campaign determinism contract) — and
the median of the bench harness's rotated legacy/grouped pairs must clear
the ROADMAP floor of 3x.
"""

from __future__ import annotations

import numpy as np

from _harness import assert_at_least, time_sides, write_record
from repro.core.mitigation import build_technique, fault_map_generator
from repro.eval.campaign import (
    build_experiment_cells,
    execute_cell_group,
    group_cells,
)
from repro.eval.sweep import PAPER_FAULT_RATES
from repro.faults.models import ComputeEngineFaultConfig
from repro.hardware.enhancements import MitigationKind

#: Fig. 13 compares every technique of the paper.
TECHNIQUE_KINDS = (
    MitigationKind.NO_MITIGATION,
    MitigationKind.RE_EXECUTION,
    MitigationKind.BNP1,
    MitigationKind.BNP2,
    MitigationKind.BNP3,
)

FAULT_RATES = list(PAPER_FAULT_RATES)
N_TRIALS = 2
MIN_SPEEDUP = 3.0


def _legacy_cell_loop(cells, model, dataset, techniques):
    """The pre-map-parallel per-cell loop, reproduced on the stable API.

    One fault map per cell, replayed across the techniques through their
    stand-alone ``evaluate`` calls — n_techniques engine passes (and
    encodings) per cell, which is exactly the cost structure the fused
    multi-technique, multi-cell unit removes.
    """
    map_generator = fault_map_generator(model)
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

    def grouped():
        return [
            result
            for unit in group_cells(cells)
            for result in execute_cell_group(unit, model, test_set, techniques)
        ]

    timing = time_sides(
        {
            "legacy": lambda: _legacy_cell_loop(cells, model, test_set, techniques),
            "cellwise": lambda: [
                result
                for cell in cells
                for result in execute_cell_group([cell], model, test_set, techniques)
            ],
            "grouped": grouped,
        },
        warmup=grouped,
    )

    # Correctness first: grouped execution must be bit-identical to
    # cell-at-a-time execution, record for record.
    fused, cellwise = timing.results["grouped"], timing.results["cellwise"]
    assert len(fused) == len(cellwise) == len(cells)
    fused_by_id = {result.cell_id: result for result in fused}
    for single in cellwise:
        assert fused_by_id[single.cell_id].accuracies == single.accuracies
        assert fused_by_id[single.cell_id].n_faults == single.n_faults

    samples = {f"{side}_s": seconds for side, seconds in timing.seconds.items()}
    samples["speedup_grouped_vs_legacy"] = timing.ratios("legacy", "grouped")
    samples["speedup_cellwise_vs_legacy"] = timing.ratios("legacy", "cellwise")
    record = write_record(
        "perf_fault_sweep",
        {
            "experiment": mnist_n400_config.label(),
            "fault_rates": FAULT_RATES,
            "n_trials": N_TRIALS,
            "techniques": [kind.value for kind in TECHNIQUE_KINDS],
            "n_cells": len(cells),
            "n_evaluations": len(cells) * len(techniques),
        },
        samples,
    )
    medians = record["median"]

    print()
    print(
        f"BENCH perf_fault_sweep: {len(cells)} cells x {len(techniques)} "
        f"techniques, legacy {medians['legacy_s']:.3f}s, cell-wise "
        f"{medians['cellwise_s']:.3f}s, grouped {medians['grouped_s']:.3f}s "
        f"({medians['speedup_grouped_vs_legacy']:.2f}x vs legacy)"
    )
    assert_at_least(record, "speedup_grouped_vs_legacy", MIN_SPEEDUP)
