"""Shared fixtures for the test suite.

All fixtures use deliberately tiny networks and datasets so the whole suite
runs in well under a minute; correctness of the algorithms does not depend
on scale, and the benchmark harness covers the larger configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_mnist import SyntheticMNIST
from repro.data.datasets import Dataset, train_test_split
from repro.snn.network import NetworkConfig
from repro.snn.neuron import LIFParameters
from repro.snn.training import TrainingConfig, TrainingRunner


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """Sixty tiny synthetic-MNIST images over classes 0-4."""
    return SyntheticMNIST().generate(n_samples=60, rng=123, classes=[0, 1, 2, 3, 4])


@pytest.fixture(scope="session")
def small_split(small_dataset):
    """Train/test split of the small dataset."""
    return train_test_split(small_dataset, test_fraction=0.25, rng=7)


@pytest.fixture(scope="session")
def tiny_network_config() -> NetworkConfig:
    """A 784-input, 20-neuron, 60-timestep network configuration."""
    return NetworkConfig(
        n_inputs=784,
        n_neurons=20,
        timesteps=60,
        neuron_params=LIFParameters(),
    )


@pytest.fixture(scope="session")
def trained_model(tiny_network_config, small_split):
    """A small trained model shared by fault-injection and mitigation tests."""
    train_set, _ = small_split
    trainer = TrainingRunner(
        tiny_network_config,
        TrainingConfig(
            epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"
        ),
    )
    return trainer.train(train_set, rng=99)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(2024)
