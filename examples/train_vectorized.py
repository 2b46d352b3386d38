#!/usr/bin/env python
"""Train → snapshot → serve with the vectorized STDP trainer.

The walkthrough behind the README's "Training quickstart":

1. generate a synthetic-MNIST workload,
2. train the paper's pairwise-STDP network through ``TrainingRunner.train``
   (sparse, vectorized updates) and time it against the per-timestep
   reference trainer (``repro.snn.oracle.train_sequential``),
3. verify the two are bit-identical — the trainer's defining contract,
4. snapshot the model atomically and register it with the serving layer,
5. retrain it in place through ``ModelRegistry.retrain`` (the hot path a
   live service uses) and show the snapshot checksums rolling over.

Run with ``python examples/train_vectorized.py``.  See
``docs/architecture.md`` for where the trainer sits in the stack and
``EXPERIMENTS.md`` for the measured training-scale table.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import NetworkConfig, TrainingConfig, TrainingRunner, load_workload
from repro.serve.registry import ModelRegistry
from repro.snn.oracle import train_sequential
from repro.utils.logging import configure_logging


def main() -> None:
    configure_logging()

    # 1. Workload -----------------------------------------------------------
    train_set = load_workload("mnist", n_samples=48, rng=0)
    print(f"workload: {train_set.name}, {len(train_set)} training images")

    # 2. Train: vectorized trainer vs sequential reference -------------------
    runner = TrainingRunner(
        NetworkConfig(n_inputs=784, n_neurons=100, timesteps=100),
        TrainingConfig(
            epochs=1,
            learning_mode="pairwise_stdp",
            label_assignment_mode="spiking",
        ),
    )
    start = time.perf_counter()
    model = runner.train(train_set, rng=7)  # the vectorized trainer
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    reference = train_sequential(runner, train_set, rng=7)
    sequential_s = time.perf_counter() - start
    print(
        f"pairwise STDP, N100: vectorized {vectorized_s:.2f}s, "
        f"sequential {sequential_s:.2f}s ({sequential_s / vectorized_s:.1f}x)"
    )

    # 3. Bit-identical, not just close ---------------------------------------
    assert np.array_equal(model.weights, reference.weights)
    assert np.array_equal(model.neuron_labels, reference.neuron_labels)
    assert model.training_history == reference.training_history
    print("parity: weights, labels and history are bit-identical")

    # 4. Snapshot + registry --------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        models_dir = Path(tmp) / "models"
        registry = ModelRegistry(models_dir)
        entry = registry.register(model, "mnist-n100", workload="mnist")
        print(
            f"registered {entry.name!r}: {entry.n_neurons} neurons, "
            f"npz sha256 {entry.checksums['npz'][:12]}…"
        )

        # 5. Hot retrain in place (what a live service does) ------------------
        retrained = registry.retrain(
            "mnist-n100",
            train_set,
            rng=8,
            training_config=TrainingConfig(
                epochs=1,
                learning_mode="pairwise_stdp",
                label_assignment_mode="spiking",
            ),
        )
        assert retrained.checksums != entry.checksums
        print(
            f"retrained in place: npz sha256 now {retrained.checksums['npz'][:12]}… "
            "(atomic rewrite; a running service adopts it on its next scan)"
        )


if __name__ == "__main__":
    main()
