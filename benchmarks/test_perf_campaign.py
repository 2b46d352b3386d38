"""BENCH — campaign throughput: serial executor vs the warm worker pool.

Runs a Fig. 13-shaped campaign grid (two workloads, the paper's five fault
rates, clean references included) through the serial in-process executor
and through the warm persistent worker pool at 2 and 4 workers, and records
the scaling curve (the ``speedup_<w>w`` series) in the ``perf_campaign``
record so successive PRs can track orchestration overhead and scaling.

Correctness is asserted hard: every pooled store's records must equal the
serial ones byte for byte (modulo the measured ``duration_seconds``) — the
campaign determinism contract.  Timing follows the bench harness (one
untimed pooled warm-up, then the median of rotated serial/pool pairs) and
is asserted relative to what the machine can deliver: with ``C`` usable
cores, ``w`` workers can at best approach ``min(w, C)``x, so the floor and
the ceiling scale with ``min(w, C)``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

from _harness import assert_at_least, time_sides, write_record
from repro.eval.campaign import CampaignSpec, run_campaign
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.sweep import PAPER_FAULT_RATES
from repro.hardware.enhancements import MitigationKind

WORKLOADS = ["mnist", "fashion-mnist"]
FAULT_RATES = list(PAPER_FAULT_RATES)
N_TRIALS = 2
N_TEST = 100
WORKER_COUNTS = [2, 4]


def _spec() -> CampaignSpec:
    return CampaignSpec.grid(
        name="perf-campaign",
        workloads=WORKLOADS,
        network_sizes=[48],
        fault_rates=FAULT_RATES,
        technique_kinds=[
            MitigationKind.NO_MITIGATION,
            MitigationKind.RE_EXECUTION,
            MitigationKind.BNP3,
        ],
        base=ExperimentConfig(
            n_train=200, n_test=N_TEST, timesteps=100, epochs=2,
            paper_network_size=400,
        ),
        paper_sizes={48: 400},
        n_trials=N_TRIALS,
        seed=2022,
        runner_seed=2022,
    )


def _store_cells(path: Path) -> list:
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") != "cell":
            continue
        record["duration_seconds"] = 0.0
        records.append(record)
    records.sort(key=lambda record: record["cell_id"])
    return [json.dumps(record, sort_keys=True) for record in records]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    return len(os.sched_getaffinity(0))


def _speedup_ceiling(n_workers: int) -> float:
    """Highest physically plausible speedup for *n_workers* on this machine.

    A pool cannot beat ``min(workers, cores)`` — a median above that
    (beyond measurement margin) means the serial runs themselves were
    anomalous (e.g. a load spike during them), and the record would
    inflate every speedup.
    """
    return 1.25 * min(n_workers, _usable_cpus())


def _speedup_floor(n_workers: int) -> float:
    """Lowest acceptable median speedup for *n_workers* on this machine.

    A warm pool cannot beat the core count, so expect 60% of the ideal
    ``min(workers, cores)``x when extra cores exist; on a single core the
    bar is near-parity with serial — the warm pool's whole point is that
    its fixed costs (snapshot load and test-set hand-off once per worker)
    no longer swamp execution the way the old cold pool's did (0.16x).
    """
    usable = min(n_workers, _usable_cpus())
    if usable <= 1:
        # Oversubscribed workers on one core add context-switch noise on
        # top of orchestration; the floor only needs to catch cold-pool
        # pathologies (per-unit reload/re-encode), which sit far below.
        return 0.4
    return 0.6 * usable


def test_speedup_floor_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _speedup_floor(2) == 0.4
    assert _speedup_ceiling(4) == 1.25


def test_campaign_warm_pool_scaling(tmp_path):
    # Train the clean models once up front and share the runner's cache
    # with every timed run, so they measure cell execution and
    # orchestration, not model preparation.
    runner = ExperimentRunner(root_seed=_spec().runner_seed)
    for config in _spec().experiments:
        runner.prepare(config)

    run_ids = itertools.count()

    def run(n_workers):
        # A fresh store per run: an existing one would resume, not execute.
        store = tmp_path / f"w{n_workers}-{next(run_ids)}.jsonl"
        run_campaign(_spec(), store_path=store, n_workers=n_workers, runner=runner)
        return store

    sides = {"serial": lambda: run(1)}
    for n_workers in WORKER_COUNTS:
        sides[f"pool{n_workers}"] = lambda n_workers=n_workers: run(n_workers)
    timing = time_sides(sides, warmup=lambda: run(WORKER_COUNTS[0]))

    # Correctness first: every pooled run must agree with serial byte for byte.
    serial_records = _store_cells(timing.results["serial"])
    for store in sorted(tmp_path.glob("w*.jsonl")):
        assert _store_cells(store) == serial_records, (
            f"{store.name} store records diverged from serial"
        )

    samples = {f"{side}_s": seconds for side, seconds in timing.seconds.items()}
    for n_workers in WORKER_COUNTS:
        samples[f"speedup_{n_workers}w"] = timing.ratios("serial", f"pool{n_workers}")
    record = write_record(
        "perf_campaign",
        {
            "n_cells": len(serial_records),
            "workloads": WORKLOADS,
            "fault_rates": FAULT_RATES,
            "n_trials": N_TRIALS,
            "n_test": N_TEST,
            "worker_counts": WORKER_COUNTS,
        },
        samples,
    )
    medians = record["median"]

    print()
    print(
        f"BENCH perf_campaign: {len(serial_records)} cells on "
        f"{_usable_cpus()} cpu(s), serial {medians['serial_s']:.2f}s, scaling "
        + ", ".join(f"{w}w={medians[f'speedup_{w}w']:.2f}x" for w in WORKER_COUNTS)
    )

    for n_workers in WORKER_COUNTS:
        speedup = medians[f"speedup_{n_workers}w"]
        ceiling = _speedup_ceiling(n_workers)
        assert speedup <= ceiling, (
            f"pool({n_workers}) median 'speedup' {speedup:.2f}x exceeds the "
            f"physical ceiling {ceiling:.2f}x on {_usable_cpus()} cpu(s) — "
            f"the serial runs ({timing.seconds['serial']}) are anomalous"
        )
        assert_at_least(record, f"speedup_{n_workers}w", _speedup_floor(n_workers))
