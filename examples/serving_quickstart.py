#!/usr/bin/env python
"""Train → snapshot → serve → classify: the online serving layer end-to-end.

Demonstrates the ``repro.serve`` subsystem:

1. train a small model and register it (snapshot + checksums) with the
   service's :class:`~repro.serve.registry.ModelRegistry`;
2. start the HTTP classifier service on an ephemeral port;
3. classify the same samples through :class:`~repro.serve.service.ServiceClient`
   in all three fault-aware serving modes — ``clean``, ``faulty`` (a
   reproducible fault map injected into the serving network) and
   ``protected`` (the same faults served through BnP bounding + neuron
   protection) — showing the paper's degraded-vs-mitigated contrast live;
4. read the service metrics: request counts, micro-batch occupancy, and
   latency percentiles from the adaptive micro-batching scheduler.

Run with ``python examples/serving_quickstart.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.data.datasets import load_workload, train_test_split
from repro.serve.service import (
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SoftSNNService,
)
from repro.snn.network import NetworkConfig
from repro.snn.training import TrainingConfig, TrainingRunner
from repro.utils.logging import configure_logging


def main() -> None:
    configure_logging()

    # 1. Train a small model and snapshot it into a registry directory.
    print("training a 32-neuron model on the synthetic MNIST workload…")
    dataset = load_workload("mnist", n_samples=120, rng=7)
    train_set, test_set = train_test_split(dataset, test_fraction=0.2, rng=8)
    trainer = TrainingRunner(
        NetworkConfig(n_inputs=784, n_neurons=32, timesteps=80),
        TrainingConfig(
            epochs=2, learning_mode="fast_wta", label_assignment_mode="fast"
        ),
    )
    model = trainer.train(train_set, rng=9)

    models_dir = Path(tempfile.mkdtemp(prefix="softsnn-serving-"))
    service = SoftSNNService(
        ServiceConfig(
            models_dir=models_dir,
            max_batch_size=8,
            max_delay_ms=4.0,
            default_fault_rate=0.15,
        )
    )
    entry = service.register_model(model, "quickstart-mnist", workload="mnist")
    print(f"registered {entry['name']!r} (sha256 {entry['checksums']['npz'][:12]}…)")

    # 2. Serve it over HTTP; port 0 asks for an ephemeral port.
    # The client keeps one HTTP/1.1 connection open per calling thread;
    # leaving the block closes it.
    with ServiceServer(service, port=0) as server, ServiceClient(server.url) as client:
        print(f"service listening on {server.url}")
        print(f"healthz: {client.healthz()}")

        # 3. Classify the same samples in the three serving modes.  Fixed
        # per-request seeds make every prediction reproducible.
        images = [test_set.images[index].reshape(-1) for index in range(12)]
        labels = [int(test_set.labels[index]) for index in range(12)]
        seeds = [1000 + index for index in range(12)]
        print(f"\nground truth:        {labels}")
        for mode in ("clean", "faulty", "protected"):
            response = client.classify(
                [image.tolist() for image in images],
                model="quickstart-mnist",
                mode=mode,
                seeds=seeds,
            )
            predictions = response["predictions"]
            accuracy = 100.0 * float(
                np.mean(np.asarray(predictions) == np.asarray(labels))
            )
            print(f"mode={mode:9s} -> {predictions}  ({accuracy:.0f}% correct)")

        # 4. What did the scheduler do?
        metrics = client.metrics()
        print(
            f"\nmetrics: {metrics['requests_total']} requests, "
            f"mean batch occupancy {metrics['mean_batch_size']}, "
            f"p50 {metrics['latency']['p50_ms']}ms / "
            f"p99 {metrics['latency']['p99_ms']}ms, "
            f"queue depth {metrics['queue_depth']}"
        )
    print("server stopped; snapshots remain in", models_dir)


if __name__ == "__main__":
    main()
