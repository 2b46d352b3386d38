"""BENCH — STDP training throughput: sequential loop vs vectorized engine.

Times end-to-end ``TrainingRunner.train`` (pairwise STDP + spiking label
assignment — the paper's rule and the configuration the sequential trainer
pays the most for) at the N400 proxy scale the inference bench uses,
through both code paths:

``sequential``
    The per-timestep reference trainer
    (:func:`repro.snn.oracle.train_sequential`): two dense
    outer products, a dense add/subtract and a full-matrix clip per
    timestep, plus batch-of-one label-assignment presentations.
``vectorized``
    :class:`~repro.snn.training.TrainingRunner`: sparse
    trace-outer-product updates per timestep and true batched label
    assignment, bit-identical to the sequential path.

A smaller N100 measurement rides along so EXPERIMENTS.md can show how the
gap scales with the population size.  The headline N400 speedup must clear
3x on the median of the bench harness's rotated pairs; the
``perf_training`` record carries every size's series.
"""

from __future__ import annotations

import numpy as np

from _harness import assert_at_least, time_sides, write_record
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.snn.network import NetworkConfig
from repro.snn.oracle import train_sequential
from repro.snn.training import TrainingConfig, TrainingRunner

TIMESTEPS = 150
EPOCHS = 1
#: (population size, training samples) measured; the last row is the
#: headline N400 proxy (Fig. 13 sweeps N400…N3600).
SIZES = [(100, 12), (400, 12)]
#: Wall-clock floor asserted on the headline row.  An idle machine
#: measures ~7-9x; the floor sits well below that so a loaded CI worker
#: does not turn the bench flaky (same policy as the inference bench).
MIN_SPEEDUP = 3.0


def test_vectorized_training_speedup():
    sides = {}
    for n_neurons, n_samples in SIZES:
        dataset = SyntheticMNIST().generate(n_samples=n_samples, rng=11)
        runner = TrainingRunner(
            NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=TIMESTEPS),
            TrainingConfig(
                epochs=EPOCHS,
                learning_mode="pairwise_stdp",
                label_assignment_mode="spiking",
            ),
        )
        sides[f"N{n_neurons}_sequential"] = (
            lambda runner=runner, data=dataset: train_sequential(runner, data, rng=7)
        )
        sides[f"N{n_neurons}_vectorized"] = (
            lambda runner=runner, data=dataset: runner.train(data, rng=7)
        )
    timing = time_sides(sides, warmup=sides[f"N{SIZES[0][0]}_vectorized"])

    samples = {}
    for n_neurons, n_samples in SIZES:
        sequential = timing.results[f"N{n_neurons}_sequential"]
        vectorized = timing.results[f"N{n_neurons}_vectorized"]
        # Speed must not cost exactness: the engine's defining property is
        # bit-identical weights, labels and history.
        assert np.array_equal(sequential.weights, vectorized.weights)
        assert np.array_equal(sequential.neuron_labels, vectorized.neuron_labels)
        assert sequential.training_history == vectorized.training_history

        for path in ("sequential", "vectorized"):
            samples[f"N{n_neurons}_{path}_ms_per_sample"] = [
                1000.0 * s / n_samples for s in timing.seconds[f"N{n_neurons}_{path}"]
            ]
        samples[f"N{n_neurons}_speedup"] = timing.ratios(
            f"N{n_neurons}_sequential", f"N{n_neurons}_vectorized"
        )
    record = write_record(
        "perf_training",
        {
            "learning_mode": "pairwise_stdp",
            "label_assignment_mode": "spiking",
            "timesteps": TIMESTEPS,
            "epochs": EPOCHS,
            "sizes": [{"n_neurons": n, "n_samples": s} for n, s in SIZES],
        },
        samples,
    )
    medians = record["median"]

    print()
    for n_neurons, n_samples in SIZES:
        print(
            f"BENCH perf_training: N{n_neurons}, {n_samples} samples x {EPOCHS} "
            f"epoch(s), {TIMESTEPS} steps: sequential "
            f"{medians[f'N{n_neurons}_sequential_ms_per_sample']:.1f} ms/sample, "
            f"vectorized {medians[f'N{n_neurons}_vectorized_ms_per_sample']:.1f} "
            f"ms/sample ({medians[f'N{n_neurons}_speedup']:.2f}x)"
        )

    assert_at_least(record, f"N{SIZES[-1][0]}_speedup", MIN_SPEEDUP)
