#!/usr/bin/env python
"""Quickstart: train a small SNN, break it with soft errors, fix it with SoftSNN.

This script walks through the whole pipeline in a couple of minutes on a
laptop:

1. generate a synthetic-MNIST workload,
2. train the unsupervised STDP network (the "clean SNN"),
3. deploy it onto the modelled 8-bit accelerator and measure clean accuracy,
4. inject compute-engine soft errors (register bit flips + faulty neuron
   operations) and watch the accuracy collapse,
5. enable the SoftSNN Bound-and-Protect technique and watch it recover,
6. print the hardware cost of the protection.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro import (
    BnPTechnique,
    BnPVariant,
    ComputeEngineFaultConfig,
    NoMitigation,
    SoftSNNMethodology,
    TrainingConfig,
    TrainingRunner,
    load_workload,
    train_test_split,
)
from repro.snn.network import NetworkConfig
from repro.utils.logging import configure_logging


def main() -> None:
    configure_logging()

    # 1. Workload -----------------------------------------------------------
    dataset = load_workload("mnist", n_samples=240, rng=0)
    train_set, test_set = train_test_split(dataset, test_fraction=0.2, rng=1)
    print(f"workload: {dataset.name}, {len(train_set)} train / {len(test_set)} test")

    # 2. Train the clean SNN -------------------------------------------------
    network_config = NetworkConfig(n_neurons=80, timesteps=120)
    trainer = TrainingRunner(
        network_config,
        TrainingConfig(epochs=2, learning_mode="fast_wta", label_assignment_mode="fast"),
    )
    model = trainer.train(train_set, rng=2)
    print(
        f"trained clean SNN: {model.n_neurons} neurons, "
        f"wgh_max={model.clean_max_weight:.4f}, wgh_hp={model.clean_most_probable_weight:.4f}"
    )

    # 3. Clean accuracy on the deployed 8-bit engine --------------------------
    clean = NoMitigation().evaluate(model, test_set, rng=3)
    print(f"clean accuracy:                    {clean.accuracy_percent:5.1f}%")

    # 4. Accuracy under soft errors, no mitigation ----------------------------
    fault_config = ComputeEngineFaultConfig.full_compute_engine(fault_rate=0.1)
    faulty = NoMitigation().evaluate(model, test_set, fault_config, rng=3)
    print(f"faulty engine, no mitigation:      {faulty.accuracy_percent:5.1f}%")

    # 5. Accuracy with SoftSNN Bound-and-Protect ------------------------------
    protected = BnPTechnique(BnPVariant.BNP3).evaluate(
        model, test_set, fault_config, rng=3
    )
    print(f"faulty engine, SoftSNN (BnP3):     {protected.accuracy_percent:5.1f}%")
    print(
        f"  BnP3 bounded {protected.bounded_synapses} synapses and gated "
        f"{len(protected.protected_neurons)} neurons"
    )

    # 6. Hardware cost of the protection --------------------------------------
    methodology = SoftSNNMethodology(model, variant=BnPVariant.BNP3)
    overheads = methodology.deploy().hardware_overheads
    print(
        "hardware overheads of BnP3 vs unprotected engine: "
        f"latency x{overheads['latency']:.2f}, energy x{overheads['energy']:.2f}, "
        f"area x{overheads['area']:.2f}"
    )


if __name__ == "__main__":
    main()
