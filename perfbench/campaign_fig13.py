"""Workload ``campaign-fig13``: the paper's Fig. 13 grid as users run it.

``softsnn-campaign fig13 --workers auto`` semantics through the public
``run_campaign(n_workers=None)``: mnist + fashion-mnist at the N400 proxy
(48 neurons), T100, the four paper fault rates, 4 trials and all five
techniques on a 200-image test set, each grid into a fresh fsync'd JSON-lines
store.  Set-up trains the two clean models; one operation is one grid and
its work is the grid's cells.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from common import Outcome, digest, log, median
from tracer import Tracer, install_layers

N_TEST = 200
N_TRIALS = 4
RATE_CHECKED = 0.1
#: BnP3 must beat no mitigation at RATE_CHECKED by this many points.
MIN_BNP3_MARGIN = 10.0


@dataclass
class Assets:
    spec: object
    runner: object
    workdir: Path
    grids: int = 0


@dataclass
class Grid:
    seconds: float
    cells: int
    digest: str
    problems: List[str] = field(default_factory=list)
    pool_stats: Dict[str, object] = field(default_factory=dict)
    #: Wall seconds of each execution unit, as the worker measured it.
    unit_seconds: List[float] = field(default_factory=list)


def setup(seed: int, workdir: Path, tracer: Tracer) -> Assets:
    from repro.eval.campaign import CampaignSpec
    from repro.eval.experiment import ExperimentConfig, ExperimentRunner
    from repro.eval.sweep import PAPER_FAULT_RATES
    from repro.hardware.enhancements import MitigationKind

    base = ExperimentConfig(n_train=200, n_test=N_TEST, timesteps=100, epochs=2)
    spec = CampaignSpec.grid(
        name="fig13",
        workloads=["mnist", "fashion-mnist"],
        network_sizes=[48],
        fault_rates=list(PAPER_FAULT_RATES),
        technique_kinds=list(MitigationKind.all_kinds()),
        base=base,
        paper_sizes={48: 400},
        n_trials=N_TRIALS,
        inject_synapses=True,
        inject_neurons=True,
        seed=seed,
        runner_seed=seed,
    )
    runner = ExperimentRunner(root_seed=seed)
    for config in spec.experiments:
        runner.prepare(config)
    return Assets(spec=spec, runner=runner, workdir=workdir)


def teardown(assets: Assets) -> None:
    """Nothing outlives a grid: the pool and its shared memory end with it."""


def _grid(assets: Assets, n_workers, timed=None) -> Grid:
    """Run one grid into a fresh store and check what the store holds.

    *timed*, a context manager, wraps the ``run_campaign`` call alone (the
    traced run's root span), so the checks stay outside it.
    """
    from repro.eval.campaign import run_campaign
    from repro.eval.store import ResultStore

    assets.grids += 1
    store = assets.workdir / f"grid-{assets.grids}.jsonl"
    with timed or nullcontext():
        started = time.perf_counter()
        result = run_campaign(
            assets.spec,
            store_path=store,
            n_workers=n_workers,
            resume=False,
            runner=assets.runner,
            workdir=assets.workdir / "snapshots",
        )
        seconds = time.perf_counter() - started

    records = []
    units: Dict[tuple, float] = {}
    for record in ResultStore(store).cell_records().values():
        data = record.to_dict()
        unit = (data["experiment_key"], data["rate_index"])
        units[unit] = units.get(unit, 0.0) + data["duration_seconds"]
        data["duration_seconds"] = 0.0
        records.append(data)
    store.unlink()
    records.sort(key=lambda data: data["cell_id"])
    curves = {
        key: {
            kind.value: list(series.accuracies)
            for kind, series in sweep.techniques.items()
        }
        for key, sweep in result.sweeps.items()
    }
    problems = []
    if len(records) != result.n_cells or result.n_executed != result.n_cells:
        problems.append(f"store holds {len(records)} of {result.n_cells} cells")
    rate_index = assets.spec.fault_rates.index(RATE_CHECKED)
    for key, series in curves.items():
        margin = series["bnp3"][rate_index] - series["no_mitigation"][rate_index]
        if margin < MIN_BNP3_MARGIN:
            problems.append(f"{key}: BnP3 beats no mitigation by {margin:.1f} points")
    return Grid(
        seconds=seconds,
        cells=result.n_cells,
        digest=digest({"records": records, "curves": curves}),
        problems=problems,
        pool_stats=result.pool_stats or {},
        unit_seconds=list(units.values()),
    )


def _record(outcome: Outcome, grid: Grid) -> None:
    outcome.record_op(grid.seconds, grid.cells, grid.cells, grid.digest, grid.problems)
    log(f"  grid: {grid.cells} cells in {grid.seconds:.2f}s")


def measure(assets: Assets, seconds: float, outcome: Outcome) -> None:
    """Pooled grids until the run has measured at least *seconds* in all."""
    while outcome.seconds < seconds:
        _record(outcome, _grid(assets, None))


def traced(
    assets: Assets, seconds: float, outcome: Outcome, tracer: Tracer
) -> Dict[str, float]:
    """One untraced serial grid, then a traced pooled and a traced serial grid.

    The pooled grid supplies the orchestrator and pool layers, the serial
    one (``n_workers=1``) the worker-side layers.  Tracing overhead is the
    traced serial grid against the untraced one.  All three grids must
    store identical records.
    """
    baseline = _grid(assets, 1)
    _record(outcome, baseline)
    install_layers(tracer)
    try:
        pooled = _grid(assets, None, tracer.span("eval.pool"))
        serial = _grid(assets, 1, tracer.span("eval.campaign"))
    finally:
        tracer.restore()
    _record(outcome, pooled)
    _record(outcome, serial)

    stats = pooled.pool_stats
    workers = stats.get("workers") or []
    wall = float(stats.get("wall_seconds") or 0.0)
    busy = sum(float(worker["busy_seconds"]) for worker in workers)
    decisions = stats.get("sched_decisions") or {}
    return {
        "trace.wall_s": pooled.seconds + serial.seconds,
        "trace.overhead_share": serial.seconds / baseline.seconds - 1.0,
        "eval.pool.worker_busy_share": (
            busy / (len(workers) * wall) if workers and wall else 0.0
        ),
        "eval.pool.unit_s_p50": median(pooled.unit_seconds),
        # The orchestrator's serial input preparation, children included:
        # the Amdahl term that caps the pool.
        "eval.pool.prepare_share": (
            tracer.inclusive("eval.campaign.prepare") / pooled.seconds
        ),
        "eval.pool.shm_bytes_per_cell": (
            float(stats.get("shm_bytes_published", 0)) / pooled.cells
        ),
        "eval.pool.affinity_share": (
            decisions.get("affinity", 0) / max(1, sum(decisions.values()))
        ),
    }
