"""SNN fault-tolerance analysis (Section 3.1 of the paper).

The analysis characterises how a given trained SNN behaves under soft
errors, and distils the information the Bound-and-Protect techniques need:

* **Weight-distribution analysis** (Fig. 9): how register bit flips move
  weights outside the clean network's range, and therefore why the clean
  maximum weight is a usable detection threshold (``wgh_th = wgh_max``).
* **Neuron-fault sensitivity** (Fig. 10a): which of the four faulty neuron
  operations actually endanger accuracy.  The paper's conclusion — only the
  faulty ``Vmem reset`` is catastrophic — is what motivates protecting the
  reset path and tolerating the other three fault types.
* **Safe-range derivation**: the concrete ``wgh_th`` / ``wgh_def`` values
  handed to the BnP techniques.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.mitigation import (
    NoMitigation,
    discard_initial_weight_draw,
    fault_map_generator,
    prepare_map_assets,
)
from repro.data.datasets import Dataset
from repro.faults.bitflip import WeightBitFlipModel
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.snn.training import TrainedModel
from repro.utils.rng import RNGLike, resolve_rng

__all__ = [
    "WeightDistributionAnalysis",
    "NeuronFaultSensitivity",
    "FaultToleranceAnalyzer",
]


@dataclass
class WeightDistributionAnalysis:
    """Clean-vs-faulty weight distribution comparison (Fig. 9).

    Attributes
    ----------
    fault_rate:
        Fault rate used for the faulty distribution.
    bin_edges:
        Histogram bin edges shared by both distributions.
    clean_counts / faulty_counts:
        Histogram counts of the clean and faulty weights.
    clean_max_weight:
        Maximum clean weight (``wgh_max``, the top of the safe range).
    most_probable_weight:
        Mode of the non-zero clean weights (``wgh_hp``).
    n_weights_above_clean_max:
        Number of faulty weights exceeding ``wgh_max`` — the weights the
        bounding rule exists to catch.
    n_increased / n_decreased:
        How many weights the bit flips increased / decreased.
    """

    fault_rate: float
    bin_edges: np.ndarray
    clean_counts: np.ndarray
    faulty_counts: np.ndarray
    clean_max_weight: float
    most_probable_weight: float
    n_weights_above_clean_max: int
    n_increased: int
    n_decreased: int

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary (without the raw histograms)."""
        return {
            "fault_rate": self.fault_rate,
            "clean_max_weight": self.clean_max_weight,
            "most_probable_weight": self.most_probable_weight,
            "n_weights_above_clean_max": self.n_weights_above_clean_max,
            "n_increased": self.n_increased,
            "n_decreased": self.n_decreased,
        }


@dataclass
class NeuronFaultSensitivity:
    """Accuracy impact of each faulty neuron-operation type (Fig. 10a).

    Attributes
    ----------
    fault_rates:
        Fault rates the sweep covered.
    accuracy_by_type:
        Mapping from fault type to the list of accuracies (percent), one per
        fault rate, in the order of ``fault_rates``.
    baseline_accuracy:
        Clean (fault-free) accuracy in percent.
    """

    fault_rates: List[float]
    accuracy_by_type: Dict[NeuronFaultType, List[float]]
    baseline_accuracy: float

    def critical_types(self, tolerance_percent: float = 10.0) -> List[NeuronFaultType]:
        """Fault types whose worst-case drop exceeds *tolerance_percent*.

        The paper's analysis flags ``VMEM_RESET`` as the only critical type;
        this method re-derives that conclusion from the measured sweep.
        """
        critical = []
        for fault_type, accuracies in self.accuracy_by_type.items():
            worst = min(accuracies) if accuracies else self.baseline_accuracy
            if self.baseline_accuracy - worst > tolerance_percent:
                critical.append(fault_type)
        return critical

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary."""
        return {
            "fault_rates": list(self.fault_rates),
            "baseline_accuracy": self.baseline_accuracy,
            "accuracy_by_type": {
                fault_type.value: list(accuracies)
                for fault_type, accuracies in self.accuracy_by_type.items()
            },
        }


@dataclass
class SafeRange:
    """The safe weight range and substitute values derived from a clean model."""

    weight_threshold: float
    bnp1_substitute: float = 0.0
    bnp2_substitute: float = 0.0
    bnp3_substitute: float = 0.0
    notes: Dict[str, object] = field(default_factory=dict)


class FaultToleranceAnalyzer:
    """Performs the Section 3.1 analysis for a trained model.

    Parameters
    ----------
    model:
        The trained clean model to analyse.
    """

    def __init__(self, model: TrainedModel) -> None:
        self.model = model

    # ------------------------------------------------------------------ #
    # weight distribution (Fig. 9)
    # ------------------------------------------------------------------ #
    def weight_distribution(
        self,
        fault_rate: float = 0.1,
        bins: int = 40,
        rng: RNGLike = None,
    ) -> WeightDistributionAnalysis:
        """Compare the clean and bit-flip-corrupted weight distributions.

        Reads the deployed registers the engine runs: one synapse-only
        fault map drawn from *rng* (after the discarded initial-weight
        draw, as in :meth:`~repro.core.mitigation.MitigationTechnique.evaluate`)
        and the clean and corrupted registers
        :func:`~repro.core.mitigation.prepare_map_assets` plans from it.
        """
        generator = resolve_rng(rng)
        discard_initial_weight_draw(self.model, generator)
        map_generator = fault_map_generator(self.model)
        fault_map = map_generator.generate(
            ComputeEngineFaultConfig.synapses_only(fault_rate), rng=generator
        )
        assets = prepare_map_assets(self.model, [fault_map], 1)[0]
        quantizer = map_generator.quantizer
        clean_weights = quantizer.dequantize(assets.clean_registers)
        faulty_weights = quantizer.dequantize(assets.faulty_registers)

        bin_edges = np.linspace(0.0, quantizer.full_scale, bins + 1)
        clean_counts, _ = np.histogram(clean_weights, bins=bin_edges)
        faulty_counts, _ = np.histogram(faulty_weights, bins=bin_edges)
        summary = WeightBitFlipModel(quantizer).weight_change_summary(
            assets.clean_registers, assets.faulty_registers
        )

        return WeightDistributionAnalysis(
            fault_rate=fault_rate,
            bin_edges=bin_edges,
            clean_counts=clean_counts,
            faulty_counts=faulty_counts,
            clean_max_weight=float(clean_weights.max()),
            most_probable_weight=self.model.clean_most_probable_weight,
            n_weights_above_clean_max=int(summary["n_above_clean_max"]),
            n_increased=int(summary["n_increased"]),
            n_decreased=int(summary["n_decreased"]),
        )

    # ------------------------------------------------------------------ #
    # neuron-fault sensitivity (Fig. 10a)
    # ------------------------------------------------------------------ #
    def neuron_fault_sensitivity(
        self,
        dataset: Dataset,
        fault_rates: Optional[List[float]] = None,
        rng: RNGLike = None,
    ) -> NeuronFaultSensitivity:
        """Measure accuracy under each neuron fault type across fault rates."""
        if fault_rates is None:
            fault_rates = [0.01, 0.1, 0.5, 1.0]
        generator = resolve_rng(rng)
        baseline = self.accuracy_under_faults(dataset, fault_config=None, rng=generator)

        accuracy_by_type: Dict[NeuronFaultType, List[float]] = {}
        for fault_type in NeuronFaultType.all_types():
            accuracies = []
            for fault_rate in fault_rates:
                config = ComputeEngineFaultConfig.neurons_only(
                    fault_rate, fault_type=fault_type
                )
                accuracies.append(
                    self.accuracy_under_faults(dataset, config, rng=generator)
                )
            accuracy_by_type[fault_type] = accuracies

        return NeuronFaultSensitivity(
            fault_rates=list(fault_rates),
            accuracy_by_type=accuracy_by_type,
            baseline_accuracy=baseline,
        )

    # ------------------------------------------------------------------ #
    # accuracy probes
    # ------------------------------------------------------------------ #
    def accuracy_under_faults(
        self,
        dataset: Dataset,
        fault_config: Optional[ComputeEngineFaultConfig],
        rng: RNGLike = None,
    ) -> float:
        """Accuracy (percent) of the unmitigated network under one scenario."""
        return NoMitigation().evaluate(
            self.model, dataset, fault_config, rng=rng
        ).accuracy_percent

    # ------------------------------------------------------------------ #
    # safe range derivation
    # ------------------------------------------------------------------ #
    def derive_safe_range(self) -> SafeRange:
        """Derive ``wgh_th`` and the three ``wgh_def`` values from the clean model."""
        return SafeRange(
            weight_threshold=self.model.clean_max_weight,
            bnp1_substitute=0.0,
            bnp2_substitute=self.model.clean_max_weight,
            bnp3_substitute=self.model.clean_most_probable_weight,
            notes={
                "threshold_source": "maximum weight of the pre-trained clean SNN",
                "bnp3_source": "mode of the non-zero clean weight distribution",
            },
        )
