"""The Bound-and-Protect (BnP) mechanisms of Section 3.2.

Two run-time mechanisms make up BnP:

**Weight bounding** (Eq. 1): any weight greater than or equal to the weight
threshold ``wgh_th`` is replaced with a predefined value ``wgh_def``.  The
threshold comes from the fault-tolerance analysis — it is the maximum weight
of the pre-trained clean network (``wgh_max``), because weights above that
value can only exist because of soft errors and they make neurons
hyper-active.  The three variants differ only in the substitute value:

============  =======================================
variant        ``wgh_def``
============  =======================================
BnP1           0
BnP2           ``wgh_max`` (the clean maximum itself)
BnP3           ``wgh_hp`` (most probable clean weight)
============  =======================================

**Neuron protection**: the hardware monitors the ``Vmem >= Vth`` comparator
of every neuron; if it stays asserted for two or more consecutive cycles the
``Vmem reset`` operation must be faulty (a healthy neuron resets immediately
after crossing the threshold), and the neuron's spike generation is gated
off so it cannot flood the network with burst spikes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.hardware.enhancements import MitigationKind
from repro.snn.synapse import BoundedWeightRule
from repro.utils.validation import check_non_negative

__all__ = ["BnPVariant", "WeightBounding", "NeuronProtection"]


class BnPVariant(enum.Enum):
    """The three Bound-and-Protect variants of Section 3.2."""

    BNP1 = "bnp1"
    BNP2 = "bnp2"
    BNP3 = "bnp3"

    @property
    def mitigation_kind(self) -> MitigationKind:
        """The hardware-model technique kind corresponding to this variant."""
        return {
            BnPVariant.BNP1: MitigationKind.BNP1,
            BnPVariant.BNP2: MitigationKind.BNP2,
            BnPVariant.BNP3: MitigationKind.BNP3,
        }[self]


@dataclass(frozen=True)
class WeightBounding:
    """Weight bounding as defined by Eq. 1 of the paper.

    Attributes
    ----------
    threshold:
        The weight threshold ``wgh_th``; any weight ``>= threshold`` is
        replaced.  The SoftSNN methodology sets it to the clean network's
        maximum weight.
    substitute:
        The predefined replacement value ``wgh_def``.
    """

    threshold: float
    substitute: float

    def __post_init__(self) -> None:
        check_non_negative(self.threshold, "threshold")
        check_non_negative(self.substitute, "substitute")
        if self.threshold == 0:
            raise ValueError(
                "threshold must be positive; a zero threshold would replace every weight"
            )
        if self.substitute > self.threshold:
            raise ValueError(
                "substitute must not exceed the threshold "
                f"({self.substitute} > {self.threshold}); otherwise bounding would "
                "reintroduce out-of-range weights"
            )

    # ------------------------------------------------------------------ #
    # constructors for the three variants
    # ------------------------------------------------------------------ #
    @classmethod
    def bnp1(cls, clean_max_weight: float) -> "WeightBounding":
        """BnP1: replace out-of-range weights with zero."""
        return cls(threshold=clean_max_weight, substitute=0.0)

    @classmethod
    def bnp2(cls, clean_max_weight: float) -> "WeightBounding":
        """BnP2: replace out-of-range weights with the clean maximum weight."""
        return cls(threshold=clean_max_weight, substitute=clean_max_weight)

    @classmethod
    def bnp3(
        cls, clean_max_weight: float, most_probable_weight: float
    ) -> "WeightBounding":
        """BnP3: replace out-of-range weights with the most probable clean weight."""
        return cls(threshold=clean_max_weight, substitute=most_probable_weight)

    @classmethod
    def for_variant(
        cls,
        variant: BnPVariant,
        clean_max_weight: float,
        most_probable_weight: Optional[float] = None,
    ) -> "WeightBounding":
        """Build the bounding rule for *variant* from clean-network statistics."""
        if variant == BnPVariant.BNP1:
            return cls.bnp1(clean_max_weight)
        if variant == BnPVariant.BNP2:
            return cls.bnp2(clean_max_weight)
        if most_probable_weight is None:
            raise ValueError("BnP3 requires the most probable clean weight (wgh_hp)")
        return cls.bnp3(clean_max_weight, most_probable_weight)

    # ------------------------------------------------------------------ #
    def apply(self, weights: np.ndarray) -> np.ndarray:
        """Return the bounded copy of *weights* (Eq. 1).

        This is the software model of the per-synapse comparator + mux of
        Fig. 11: the stored (possibly corrupted) registers are untouched;
        only the value forwarded to the adder chain is bounded.
        """
        return self.as_weight_rule().apply(weights)

    def as_weight_rule(self) -> BoundedWeightRule:
        """Symbolic form of Eq. 1 consumed by the simulation hot paths.

        Passing the rule (rather than a dense bounded matrix) lets
        :meth:`repro.snn.synapse.SynapseMatrix.current_operator` evaluate
        the bounded currents through exact integer-code arithmetic, keeping
        batched and sequential runs bitwise identical.
        """
        return BoundedWeightRule(
            threshold=self.threshold, substitute=self.substitute
        )

    def out_of_range_mask(self, weights: np.ndarray) -> np.ndarray:
        """Boolean mask of the weights the bounding rule would replace."""
        return np.asarray(weights, dtype=np.float64) >= self.threshold

    def count_bounded(self, weights: np.ndarray) -> int:
        """Number of weights the bounding rule replaces in *weights*."""
        return int(self.out_of_range_mask(weights).sum())


class NeuronProtection:
    """Faulty ``Vmem reset`` detector and spike gate (Section 3.2 / Fig. 11c).

    Once a neuron's ``Vmem >= Vth`` comparator has stayed asserted for
    ``trigger_cycles`` consecutive cycles (two in the paper), its spike
    generation is latched off for the rest of the presentation.

    On every engine path the trigger travels as
    :attr:`~repro.snn.engine.MapRow.protection_trigger_cycles` (planned by
    :meth:`~repro.core.mitigation.BnPTechnique.plan_rows`): the engine
    applies the ``counter >= trigger_cycles`` gate inline in its timestep
    loop, and :func:`~repro.snn.inference.evaluate_rows` counts the gates
    into each row's :class:`~repro.snn.inference.InferenceResult`
    (``protected_neurons``, ``protection_activations``).  This object is
    the sequential oracle's step monitor (:mod:`repro.snn.oracle`):
    :meth:`__call__` runs on the :class:`~repro.snn.neuron.LIFNeuronGroup`
    after every timestep and counts what it gates — the reference the
    inline gate is verified against.

    Parameters
    ----------
    trigger_cycles:
        Number of consecutive above-threshold cycles that identify a faulty
        reset operation.
    """

    def __init__(self, trigger_cycles: int = 2) -> None:
        if trigger_cycles < 1:
            raise ValueError(
                f"trigger_cycles must be at least 1, got {trigger_cycles}"
            )
        self.trigger_cycles = int(trigger_cycles)
        self._protected_neurons: set = set()
        self._activations = 0

    # ------------------------------------------------------------------ #
    def __call__(self, neurons) -> None:
        """Gate the oracle's faulty neurons after one sequential timestep.

        *neurons* is a :class:`~repro.snn.neuron.LIFNeuronGroup`.
        """
        stuck = neurons.consecutive_above_threshold >= self.trigger_cycles
        if not stuck.any():
            return
        newly_protected = stuck & ~neurons.spike_disabled
        if newly_protected.any():
            self._protected_neurons.update(
                int(index) for index in np.flatnonzero(newly_protected)
            )
            self._activations += int(newly_protected.sum())
        neurons.disable_spiking(stuck)

    # ------------------------------------------------------------------ #
    @property
    def protected_neurons(self) -> frozenset:
        """Indices of neurons whose spike generation has been gated off."""
        return frozenset(self._protected_neurons)

    @property
    def n_protected(self) -> int:
        """Number of distinct neurons protected so far."""
        return len(self._protected_neurons)

    @property
    def activation_count(self) -> int:
        """Total number of gate-off events (across all presentations)."""
        return self._activations

    def reset_statistics(self) -> None:
        """Clear the bookkeeping (the per-network latches live in the network)."""
        self._protected_neurons.clear()
        self._activations = 0

    def statistics(self) -> Dict[str, int]:
        """JSON-friendly summary of the protection activity."""
        return {
            "trigger_cycles": self.trigger_cycles,
            "n_protected_neurons": self.n_protected,
            "activation_count": self.activation_count,
        }
