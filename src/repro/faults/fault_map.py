"""Fault maps: concrete random placements of soft errors on a compute engine.

Fig. 7 of the paper: the potential fault locations of the compute engine are
every weight-register cell and every neuron operation; soft errors are
generated for a given fault rate and distributed randomly across those
locations, producing a *fault map*.  Different fault maps at the same fault
rate lead to different accuracy (Fig. 3a), so fault maps are first-class,
reproducible objects here: they can be drawn once and replayed across all
mitigation techniques, giving paired comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.bitflip import WeightBitFlipModel
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.faults.neuron_faults import NeuronFaultInjector
from repro.snn.quantization import WeightQuantizer
from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.validation import check_probability

__all__ = ["FaultMap", "FaultMapGenerator"]


@dataclass
class FaultMap:
    """A concrete draw of soft-error locations for one compute engine.

    Attributes
    ----------
    crossbar_shape:
        ``(n_inputs, n_neurons)`` of the target synapse crossbar.
    synapse_flat_indices:
        Flat register indices struck by bit flips.
    synapse_bit_positions:
        Struck bit position for each register index.
    neuron_faults:
        ``(neuron_index, NeuronFaultType)`` pairs of faulty operations.
    fault_rate:
        The fault rate the map was drawn at (for bookkeeping).
    bit_width:
        Register bit width the map was drawn for.  When set, every struck
        bit position must lie in ``[0, bit_width)`` — replaying a position
        at or beyond the quantizer's width would silently corrupt register
        codes beyond what the hardware can hold.  Negative positions are
        rejected unconditionally.
    """

    crossbar_shape: Tuple[int, int]
    synapse_flat_indices: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    synapse_bit_positions: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    neuron_faults: List[Tuple[int, NeuronFaultType]] = field(default_factory=list)
    fault_rate: float = 0.0
    bit_width: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.crossbar_shape) != 2 or any(s <= 0 for s in self.crossbar_shape):
            raise ValueError(
                f"crossbar_shape must be a pair of positive ints, got {self.crossbar_shape}"
            )
        self.crossbar_shape = (int(self.crossbar_shape[0]), int(self.crossbar_shape[1]))
        self.synapse_flat_indices = np.asarray(
            self.synapse_flat_indices, dtype=np.int64
        )
        self.synapse_bit_positions = np.asarray(
            self.synapse_bit_positions, dtype=np.int64
        )
        if self.synapse_flat_indices.shape != self.synapse_bit_positions.shape:
            raise ValueError(
                "synapse_flat_indices and synapse_bit_positions must have equal length"
            )
        check_probability(self.fault_rate, "fault_rate")
        n_registers = self.crossbar_shape[0] * self.crossbar_shape[1]
        if self.synapse_flat_indices.size and (
            self.synapse_flat_indices.min() < 0
            or self.synapse_flat_indices.max() >= n_registers
        ):
            raise ValueError("synapse_flat_indices out of range for the crossbar")
        if self.bit_width is not None:
            self.bit_width = int(self.bit_width)
            if self.bit_width <= 0:
                raise ValueError(
                    f"bit_width must be positive, got {self.bit_width}"
                )
        if self.synapse_bit_positions.size:
            if self.synapse_bit_positions.min() < 0:
                raise ValueError(
                    "synapse_bit_positions must be non-negative, got "
                    f"{int(self.synapse_bit_positions.min())}"
                )
            if (
                self.bit_width is not None
                and self.synapse_bit_positions.max() >= self.bit_width
            ):
                raise ValueError(
                    f"synapse_bit_positions out of range for {self.bit_width}-bit "
                    f"registers (max struck position "
                    f"{int(self.synapse_bit_positions.max())})"
                )
        n_neurons = self.crossbar_shape[1]
        for neuron_index, fault_type in self.neuron_faults:
            if not 0 <= int(neuron_index) < n_neurons:
                raise ValueError(
                    f"neuron index {neuron_index} out of range [0, {n_neurons})"
                )
            if not isinstance(fault_type, NeuronFaultType):
                raise TypeError(
                    "neuron_faults entries must pair an index with a NeuronFaultType"
                )

    # ------------------------------------------------------------------ #
    @property
    def n_synapse_faults(self) -> int:
        """Number of weight-register bit flips in the map."""
        return int(self.synapse_flat_indices.size)

    @property
    def n_neuron_faults(self) -> int:
        """Number of faulty neuron operations in the map."""
        return len(self.neuron_faults)

    @property
    def n_faults(self) -> int:
        """Total number of soft errors in the map."""
        return self.n_synapse_faults + self.n_neuron_faults

    @property
    def is_empty(self) -> bool:
        """True when the map contains no faults at all."""
        return self.n_faults == 0

    def neuron_fault_counts(self) -> Dict[NeuronFaultType, int]:
        """Number of faulty neuron operations per fault type."""
        counts = {fault_type: 0 for fault_type in NeuronFaultType.all_types()}
        for _, fault_type in self.neuron_faults:
            counts[fault_type] += 1
        return counts

    def faulty_neuron_indices(self) -> np.ndarray:
        """Sorted indices of neurons with at least one faulty operation."""
        if not self.neuron_faults:
            return np.array([], dtype=np.int64)
        return np.unique(
            np.array([index for index, _ in self.neuron_faults], dtype=np.int64)
        )

    def summary(self) -> Dict[str, object]:
        """Compact, JSON-friendly description of the fault map."""
        return {
            "crossbar_shape": list(self.crossbar_shape),
            "fault_rate": self.fault_rate,
            "n_synapse_faults": self.n_synapse_faults,
            "n_neuron_faults": self.n_neuron_faults,
            "neuron_fault_counts": {
                fault_type.value: count
                for fault_type, count in self.neuron_fault_counts().items()
            },
        }


class FaultMapGenerator:
    """Draws :class:`FaultMap` objects for a compute engine (Fig. 7 procedure).

    Parameters
    ----------
    crossbar_shape:
        ``(n_inputs, n_neurons)`` of the modelled synapse crossbar.
    quantizer:
        Register format of the crossbar (bit width of each register).

    Every bit of every weight register and every operation of every neuron
    is one potential fault location, struck independently with the fault
    rate (see :class:`~repro.faults.bitflip.WeightBitFlipModel` and
    :class:`~repro.faults.neuron_faults.NeuronFaultInjector`).
    """

    def __init__(
        self,
        crossbar_shape: Tuple[int, int],
        quantizer: Optional[WeightQuantizer] = None,
    ) -> None:
        if len(crossbar_shape) != 2 or any(s <= 0 for s in crossbar_shape):
            raise ValueError(
                f"crossbar_shape must be a pair of positive ints, got {crossbar_shape}"
            )
        self.crossbar_shape = (int(crossbar_shape[0]), int(crossbar_shape[1]))
        self.quantizer = quantizer if quantizer is not None else WeightQuantizer()
        self._bitflip_model = WeightBitFlipModel(self.quantizer)
        self._neuron_injector = NeuronFaultInjector(n_neurons=self.crossbar_shape[1])

    # ------------------------------------------------------------------ #
    @property
    def n_registers(self) -> int:
        """Number of weight registers in the crossbar."""
        return self.crossbar_shape[0] * self.crossbar_shape[1]

    def generate(
        self, config: ComputeEngineFaultConfig, rng: RNGLike = None
    ) -> FaultMap:
        """Draw one fault map for the given injection configuration."""
        generator = resolve_rng(rng)

        flat_indices = np.array([], dtype=np.int64)
        bit_positions = np.array([], dtype=np.int64)
        if config.inject_synapses:
            flat_indices, bit_positions = self._bitflip_model.draw_fault_locations(
                self.n_registers, config.fault_rate, rng=generator
            )

        neuron_faults: List[Tuple[int, NeuronFaultType]] = []
        if config.inject_neurons:
            outcome = self._neuron_injector.inject(
                config.fault_rate,
                rng=generator,
                restrict_type=config.restrict_neuron_fault_type,
            )
            neuron_faults = outcome.faults

        return FaultMap(
            crossbar_shape=self.crossbar_shape,
            synapse_flat_indices=flat_indices,
            synapse_bit_positions=bit_positions,
            neuron_faults=neuron_faults,
            fault_rate=config.fault_rate,
            bit_width=self.quantizer.bits,
        )
