#!/usr/bin/env python
"""SNN fault-tolerance analysis (Section 3.1 of the paper).

Reproduces, at example scale, the two analyses SoftSNN builds on:

* the weight-distribution analysis of Fig. 9 — bit flips push weights above
  the clean network's maximum, so ``wgh_max`` is a usable detection
  threshold;
* the neuron-fault sensitivity study of Fig. 10(a) — only the faulty
  ``Vmem reset`` operation is catastrophic.

Run with ``python examples/fault_tolerance_analysis.py``.
"""

from __future__ import annotations

from repro import FaultToleranceAnalyzer, TrainingConfig, TrainingRunner, load_workload, train_test_split
from repro.eval.reporting import format_series, format_table
from repro.snn.network import NetworkConfig
from repro.utils.logging import configure_logging


def main() -> None:
    configure_logging()

    dataset = load_workload("mnist", n_samples=200, rng=0)
    train_set, test_set = train_test_split(dataset, test_fraction=0.2, rng=1)

    trainer = TrainingRunner(
        NetworkConfig(n_neurons=64, timesteps=100),
        TrainingConfig(epochs=2, learning_mode="fast_wta", label_assignment_mode="fast"),
    )
    model = trainer.train(train_set, rng=2)
    analyzer = FaultToleranceAnalyzer(model)

    # ----------------------------------------------------------------- Fig. 9
    analysis = analyzer.weight_distribution(fault_rate=0.1, bins=12, rng=3)
    centers = 0.5 * (analysis.bin_edges[:-1] + analysis.bin_edges[1:])
    print()
    print(
        format_table(
            ["weight bin centre", "clean", "faulty (rate 0.1)"],
            [
                [f"{center:.4f}", int(clean), int(faulty)]
                for center, clean, faulty in zip(
                    centers, analysis.clean_counts, analysis.faulty_counts
                )
            ],
            title="Weight distribution before/after register bit flips (Fig. 9)",
        )
    )
    print(
        f"safe range: [0, {analysis.clean_max_weight:.4f}]  "
        f"faulty weights above it: {analysis.n_weights_above_clean_max}"
    )

    # ---------------------------------------------------------------- Fig. 10a
    sensitivity = analyzer.neuron_fault_sensitivity(
        test_set, fault_rates=[0.01, 0.1, 0.5], rng=4
    )
    print()
    print(f"clean accuracy: {sensitivity.baseline_accuracy:.1f}%")
    for fault_type, accuracies in sensitivity.accuracy_by_type.items():
        print(
            format_series(
                f"faulty '{fault_type.value}'",
                sensitivity.fault_rates,
                accuracies,
                x_label="fault rate",
            )
        )
    critical = [fault_type.value for fault_type in sensitivity.critical_types()]
    print(f"critical fault types (must be protected): {critical}")

    # --------------------------------------------------------- derived safe range
    safe_range = analyzer.derive_safe_range()
    print()
    print(
        "Bound-and-Protect parameters derived from the analysis: "
        f"wgh_th={safe_range.weight_threshold:.4f}, "
        f"BnP1 wgh_def=0, BnP2 wgh_def={safe_range.bnp2_substitute:.4f}, "
        f"BnP3 wgh_def={safe_range.bnp3_substitute:.4f}"
    )


if __name__ == "__main__":
    main()
