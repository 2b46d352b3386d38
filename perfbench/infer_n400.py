"""Workload ``infer-n400``: fault-injected inference at the paper's N400 size.

One trained N400 model (784 inputs, T100, unscaled).  Each operation
evaluates a 1024-image test set under one fixed full-compute-engine fault
map at rate 0.1, once through ``NoMitigation().evaluate`` and once through
BnP3's ``evaluate``; its work is the 2048 samples classified.  Rate 0.1
makes the faulty-reset latch fix-up fire and the BnP bounding correction
run.  The batched engine and kernels do nearly all the work; the pool,
store and scheduler do none.

``evaluate`` gets the experiment's ``eval_batch_size`` (64), as the campaign
harness forwards it.  Left to the batch-size autotuner, the timed probe
picked a different chunk size from run to run on a 2-CPU VM, which made
peak memory (127-301 MB) and throughput bimodal across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import Outcome, digest, log, median
from tracer import Tracer, install_layers

N_NEURONS = 400
N_TEST = 1024
FAULT_RATE = 0.1
#: BnP3 accuracy must exceed unmitigated accuracy by this many points.
MIN_BNP3_MARGIN = 30.0


@dataclass
class Assets:
    model: object
    test_set: object
    fault_config: object
    fault_map: object
    techniques: List[object]
    eval_seed: int
    batch_size: int


def setup(seed: int, workdir: Path, tracer: Tracer) -> Assets:
    from repro.core.bound_and_protect import BnPVariant
    from repro.core.mitigation import BnPTechnique, NoMitigation
    from repro.data.datasets import Dataset
    from repro.eval.experiment import ExperimentConfig, ExperimentRunner
    from repro.faults.fault_map import FaultMapGenerator
    from repro.faults.models import ComputeEngineFaultConfig

    config = ExperimentConfig(
        workload="mnist",
        n_neurons=N_NEURONS,
        n_train=200,
        n_test=N_TEST,
        timesteps=100,
        epochs=1,
    )
    prepared = ExperimentRunner(root_seed=seed).prepare(config)
    model = prepared.model
    fault_config = ComputeEngineFaultConfig(fault_rate=FAULT_RATE)
    fault_map = FaultMapGenerator(
        crossbar_shape=(model.network_config.n_inputs, model.n_neurons),
        quantizer=model.network_config.make_quantizer(model.clean_max_weight),
    ).generate(fault_config, rng=seed + 1)
    techniques = [NoMitigation(), BnPTechnique(BnPVariant.BNP3)]

    # Warm-up off the clock: first-call allocations happen here.
    test_set = prepared.test_set
    warm = Dataset(images=test_set.images[:64], labels=test_set.labels[:64])
    for technique in techniques:
        technique.evaluate(
            model,
            warm,
            fault_config=fault_config,
            rng=0,
            fault_map=fault_map,
            batch_size=config.eval_batch_size,
        )
    return Assets(
        model=model,
        test_set=test_set,
        fault_config=fault_config,
        fault_map=fault_map,
        techniques=techniques,
        eval_seed=seed + 2,
        batch_size=config.eval_batch_size,
    )


def teardown(assets: Assets) -> None:
    """In-process assets only."""


def _iteration(assets: Assets, outcome: Outcome) -> float:
    """Evaluate the test set with both techniques; returns the seconds."""
    seconds = 0.0
    accuracies: Dict[str, float] = {}
    predictions: Dict[str, List[int]] = {}
    for technique in assets.techniques:
        started = time.perf_counter()
        result = technique.evaluate(
            assets.model,
            assets.test_set,
            fault_config=assets.fault_config,
            rng=assets.eval_seed,
            fault_map=assets.fault_map,
            batch_size=assets.batch_size,
        )
        seconds += time.perf_counter() - started
        accuracies[technique.name] = result.accuracy_percent
        predictions[technique.name] = [int(value) for value in result.predictions]
    problems = []
    margin = accuracies["bnp3"] - accuracies["no_mitigation"]
    if margin < MIN_BNP3_MARGIN:
        problems.append(
            f"BnP3 {accuracies['bnp3']:.1f}% vs no mitigation "
            f"{accuracies['no_mitigation']:.1f}% at rate {FAULT_RATE}"
        )
    n_samples = len(assets.test_set)
    outcome.record_op(
        seconds,
        work=n_samples * len(assets.techniques),
        attempted=len(assets.techniques),
        op_digest=digest(predictions),
        problems=problems,
    )
    log(
        f"  iteration: {seconds:.2f}s, "
        + ", ".join(f"{name} {value:.1f}%" for name, value in accuracies.items())
    )
    return seconds


def _iterate(assets: Assets, outcome: Outcome, seconds: float) -> List[float]:
    """Iterations until at least *seconds* are measured."""
    times: List[float] = []
    while sum(times) < seconds:
        times.append(_iteration(assets, outcome))
    return times


def measure(assets: Assets, seconds: float, outcome: Outcome) -> None:
    """Iterations until the run has measured at least *seconds* in all."""
    while outcome.seconds < seconds:
        _iteration(assets, outcome)


def traced(
    assets: Assets, seconds: float, outcome: Outcome, tracer: Tracer
) -> Dict[str, float]:
    """Untraced iterations for half the budget, traced ones for the rest."""
    untraced = _iterate(assets, outcome, seconds / 2)
    install_layers(tracer)
    try:
        traced_times = _iterate(assets, outcome, seconds / 2)
    finally:
        tracer.restore()
    return {
        "trace.wall_s": sum(traced_times),
        "trace.overhead_share": median(traced_times) / median(untraced) - 1.0,
    }
