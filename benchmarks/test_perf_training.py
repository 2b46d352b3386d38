"""BENCH — STDP training throughput: sequential loop vs vectorized engine.

Times end-to-end ``TrainingRunner.train`` (pairwise STDP + spiking label
assignment — the paper's rule and the configuration the sequential trainer
pays the most for) at the N400 proxy scale PR 1's inference bench uses,
through both code paths:

``sequential``
    The per-timestep reference trainer
    (:func:`repro.snn.oracle.train_sequential`): two dense
    outer products, a dense add/subtract and a full-matrix clip per
    timestep, plus batch-of-one label-assignment presentations.
``vectorized``
    The :class:`~repro.snn.train_engine.VectorizedTrainingEngine`: sparse
    trace-outer-product updates per timestep and true batched label
    assignment, bit-identical to the sequential path.

A smaller N100 measurement rides along so EXPERIMENTS.md can show how the
gap scales with the population size.  Results go to
``benchmarks/results/perf_training.json``.

Set ``PERF_TRAINING_SMOKE=1`` (the CI artifact step does) to shrink the
workload and relax the speedup floor — loaded CI runners still verify
parity and produce a tracking artifact without flaking on wall-clock.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.synthetic_mnist import SyntheticMNIST
from repro.snn.network import NetworkConfig
from repro.snn.oracle import train_sequential
from repro.snn.training import TrainingConfig, TrainingRunner

TIMESTEPS = 150
EPOCHS = 1

SMOKE = bool(int(os.environ.get("PERF_TRAINING_SMOKE", "0") or "0"))
#: (population size, training samples) measured; the last row is the
#: headline N400 proxy (Fig. 13 sweeps N400…N3600).
SIZES = [(50, 6), (100, 6)] if SMOKE else [(100, 12), (400, 12)]
#: Wall-clock floor asserted on the headline row.  An idle machine
#: measures ~9x; the floor sits well below that so a loaded CI worker
#: does not turn the bench flaky (same policy as the inference bench).
MIN_SPEEDUP = 1.5 if SMOKE else 3.0

RESULTS_PATH = Path(__file__).parent / "results" / "perf_training.json"


def _train(n_neurons: int, n_samples: int, vectorized: bool):
    dataset = SyntheticMNIST().generate(n_samples=n_samples, rng=11)
    runner = TrainingRunner(
        NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=TIMESTEPS),
        TrainingConfig(
            epochs=EPOCHS,
            learning_mode="pairwise_stdp",
            label_assignment_mode="spiking",
        ),
    )
    start = time.perf_counter()
    if vectorized:
        model = runner.train(dataset, rng=7)
    else:
        model = train_sequential(runner, dataset, rng=7)
    return time.perf_counter() - start, model


def test_vectorized_training_speedup():
    rows = []
    headline = None
    for n_neurons, n_samples in SIZES:
        sequential_seconds, sequential = _train(n_neurons, n_samples, False)
        vectorized_seconds, vectorized = _train(n_neurons, n_samples, True)

        # Speed must not cost exactness: the engine's defining property is
        # bit-identical weights, labels and history.
        assert np.array_equal(sequential.weights, vectorized.weights)
        assert np.array_equal(
            sequential.neuron_labels, vectorized.neuron_labels
        )
        assert sequential.training_history == vectorized.training_history

        speedup = sequential_seconds / vectorized_seconds
        row = {
            "n_neurons": n_neurons,
            "n_samples": n_samples,
            "timesteps": TIMESTEPS,
            "epochs": EPOCHS,
            "sequential_s": round(sequential_seconds, 3),
            "vectorized_s": round(vectorized_seconds, 3),
            "sequential_ms_per_sample": round(
                1000.0 * sequential_seconds / n_samples, 1
            ),
            "vectorized_ms_per_sample": round(
                1000.0 * vectorized_seconds / n_samples, 1
            ),
            "speedup": round(speedup, 2),
        }
        rows.append(row)
        headline = row

    summary = {
        "learning_mode": "pairwise_stdp",
        "label_assignment_mode": "spiking",
        "smoke": SMOKE,
        "bit_identical": True,
        "sizes": rows,
        "headline_n_neurons": headline["n_neurons"],
        "headline_speedup": headline["speedup"],
    }
    if headline["n_neurons"] == 400:
        # The acceptance number tracked across PRs: the paper-scale proxy.
        summary["n400_speedup"] = headline["speedup"]
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")

    print()
    for row in rows:
        print(
            f"BENCH perf_training: N{row['n_neurons']}, {row['n_samples']} "
            f"samples x {row['epochs']} epoch(s), {row['timesteps']} steps: "
            f"sequential {row['sequential_ms_per_sample']} ms/sample, "
            f"vectorized {row['vectorized_ms_per_sample']} ms/sample "
            f"({row['speedup']}x)"
        )

    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"vectorized training only {headline['speedup']:.1f}x faster than the "
        f"sequential loop at N{headline['n_neurons']} "
        f"(sequential {headline['sequential_s']:.2f}s, "
        f"vectorized {headline['vectorized_s']:.2f}s)"
    )
