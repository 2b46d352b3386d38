"""Faulty neuron-operation model (Section 2.2, neuron part).

Soft errors in the neuron hardware corrupt one of the four LIF operations of
a neuron.  The corrupted behaviour persists until the neuron's parameters
are replaced.  This module draws which neurons are struck and which of their
operations fail, and converts the result into the
:class:`~repro.snn.neuron.NeuronOperationStatus` object the simulator
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.models import NeuronFaultType
from repro.snn.neuron import NeuronOperationStatus
from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.validation import check_probability

__all__ = ["NeuronFaultInjector", "NeuronFaultOutcome"]

_STATUS_FIELD_BY_TYPE = {
    NeuronFaultType.VMEM_INCREASE: "vmem_increase_ok",
    NeuronFaultType.VMEM_LEAK: "vmem_leak_ok",
    NeuronFaultType.VMEM_RESET: "vmem_reset_ok",
    NeuronFaultType.SPIKE_GENERATION: "spike_generation_ok",
}


@dataclass
class NeuronFaultOutcome:
    """Result of one neuron-fault injection pass.

    Attributes
    ----------
    status:
        Per-neuron operation health ready to install on a neuron group.
    faults:
        List of ``(neuron_index, fault_type)`` pairs that were injected.
    """

    status: NeuronOperationStatus
    faults: List[Tuple[int, NeuronFaultType]] = field(default_factory=list)

    @property
    def n_faults(self) -> int:
        """Number of injected faulty operations."""
        return len(self.faults)

    def count_by_type(self) -> Dict[NeuronFaultType, int]:
        """Number of injected faults per fault type."""
        counts = {fault_type: 0 for fault_type in NeuronFaultType.all_types()}
        for _, fault_type in self.faults:
            counts[fault_type] += 1
        return counts

    def faulty_neuron_indices(self) -> np.ndarray:
        """Sorted indices of neurons with at least one faulty operation."""
        return np.unique(np.array([index for index, _ in self.faults], dtype=np.int64))


class NeuronFaultInjector:
    """Random injector of faulty neuron operations.

    Every neuron *operation* is a potential fault location (Fig. 7): each
    of the four operations of each neuron is struck independently with
    probability equal to the fault rate.  When the fault type is
    restricted (the Fig. 10a per-type sweeps), each *neuron* is struck with
    that probability instead and gets the restricted faulty operation.
    """

    def __init__(self, n_neurons: int) -> None:
        if n_neurons <= 0:
            raise ValueError(f"n_neurons must be positive, got {n_neurons}")
        self.n_neurons = int(n_neurons)

    # ------------------------------------------------------------------ #
    def inject(
        self,
        fault_rate: float,
        rng: RNGLike = None,
        restrict_type: Optional[NeuronFaultType] = None,
    ) -> NeuronFaultOutcome:
        """Draw faulty neuron operations for the given fault rate.

        Parameters
        ----------
        fault_rate:
            Probability of a potential fault location being struck.
        rng:
            Seed or generator controlling the draw.
        restrict_type:
            When set, every struck neuron gets this specific fault type
            (Fig. 10a studies each type in isolation).
        """
        check_probability(fault_rate, "fault_rate")
        generator = resolve_rng(rng)
        status = NeuronOperationStatus.healthy(self.n_neurons)
        faults: List[Tuple[int, NeuronFaultType]] = []

        if fault_rate == 0.0:
            return NeuronFaultOutcome(status=status, faults=faults)

        if restrict_type is not None and not isinstance(
            restrict_type, NeuronFaultType
        ):
            raise TypeError(
                f"restrict_type must be a NeuronFaultType or None, got "
                f"{type(restrict_type).__name__}"
            )

        if restrict_type is None:
            # Every (neuron, operation) pair is an independent location.
            fault_types = NeuronFaultType.all_types()
            strikes = generator.random((self.n_neurons, len(fault_types))) < fault_rate
            for neuron_index, operation_index in zip(*np.nonzero(strikes)):
                fault_type = fault_types[int(operation_index)]
                self._apply(status, int(neuron_index), fault_type)
                faults.append((int(neuron_index), fault_type))
        else:
            # Per-neuron strikes of the one restricted type (the Fig. 10a
            # per-type sweeps).
            struck = np.flatnonzero(generator.random(self.n_neurons) < fault_rate)
            for neuron_index in struck:
                self._apply(status, int(neuron_index), restrict_type)
                faults.append((int(neuron_index), restrict_type))

        return NeuronFaultOutcome(status=status, faults=faults)

    def outcome_from_faults(
        self, faults: List[Tuple[int, NeuronFaultType]]
    ) -> NeuronFaultOutcome:
        """Rebuild an outcome from an explicit fault list (fault-map replay)."""
        status = NeuronOperationStatus.healthy(self.n_neurons)
        normalized: List[Tuple[int, NeuronFaultType]] = []
        for neuron_index, fault_type in faults:
            if not 0 <= int(neuron_index) < self.n_neurons:
                raise ValueError(
                    f"neuron index {neuron_index} out of range "
                    f"[0, {self.n_neurons})"
                )
            if not isinstance(fault_type, NeuronFaultType):
                raise TypeError(
                    "fault list entries must pair an index with a NeuronFaultType"
                )
            self._apply(status, int(neuron_index), fault_type)
            normalized.append((int(neuron_index), fault_type))
        return NeuronFaultOutcome(status=status, faults=normalized)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _apply(
        status: NeuronOperationStatus, neuron_index: int, fault_type: NeuronFaultType
    ) -> None:
        getattr(status, _STATUS_FIELD_BY_TYPE[fault_type])[neuron_index] = False
