"""Application of fault maps to concrete networks (the oracle route).

The :class:`FaultInjector` is the bridge between the abstract fault model
and the sequential oracle's network: given a trained network (built by
:func:`repro.snn.oracle.build_network`) and a :class:`FaultMap`, it
corrupts the network's weight registers and installs the faulty neuron
operation status, returning a report of what was done.  The corrupted
network is then evaluated exactly like a healthy one — which is the point:
soft errors change the hardware state, not the evaluation procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.faults.fault_map import FaultMap, FaultMapGenerator
from repro.faults.models import ComputeEngineFaultConfig
from repro.faults.neuron_faults import NeuronFaultInjector
from repro.snn.network import DiehlCookNetwork
from repro.utils.rng import RNGLike

__all__ = ["FaultInjectionReport", "FaultInjector"]


@dataclass
class FaultInjectionReport:
    """What a fault-injection pass did to a network.

    Attributes
    ----------
    fault_map:
        The fault map that was applied.
    weight_change_summary:
        Statistics of how the register bit flips changed the weight values
        (see :meth:`repro.faults.bitflip.WeightBitFlipModel.weight_change_summary`).
    n_faulty_neurons:
        Number of neurons with at least one corrupted operation.
    """

    fault_map: FaultMap
    weight_change_summary: Dict[str, object]
    n_faulty_neurons: int

    @property
    def n_synapse_faults(self) -> int:
        """Number of weight-register bit flips applied."""
        return self.fault_map.n_synapse_faults

    @property
    def n_neuron_faults(self) -> int:
        """Number of faulty neuron operations applied."""
        return self.fault_map.n_neuron_faults


class FaultInjector:
    """Applies soft errors to a :class:`~repro.snn.network.DiehlCookNetwork`.

    Parameters
    ----------
    network:
        The target network.  Its synapse-crossbar shape and register format
        define the potential fault locations.
    """

    def __init__(self, network: DiehlCookNetwork) -> None:
        self.network = network
        self.map_generator = FaultMapGenerator(
            crossbar_shape=network.synapses.shape,
            quantizer=network.synapses.quantizer,
        )

    # ------------------------------------------------------------------ #
    def draw_fault_map(
        self, config: ComputeEngineFaultConfig, rng: RNGLike = None
    ) -> FaultMap:
        """Draw a fault map for this network without applying it."""
        return self.map_generator.generate(config, rng=rng)

    def apply_fault_map(self, fault_map: FaultMap) -> FaultInjectionReport:
        """Corrupt the network according to *fault_map* (in place)."""
        if fault_map.crossbar_shape != self.network.synapses.shape:
            raise ValueError(
                f"fault map was drawn for crossbar {fault_map.crossbar_shape} but the "
                f"network has {self.network.synapses.shape}"
            )
        clean_registers = self.network.synapses.registers

        if fault_map.n_synapse_faults:
            self.network.synapses.apply_bit_flips(
                fault_map.synapse_flat_indices, fault_map.synapse_bit_positions
            )
        faulty_registers = self.network.synapses.registers
        summary = self.map_generator._bitflip_model.weight_change_summary(
            clean_registers, faulty_registers
        )

        neuron_injector = NeuronFaultInjector(n_neurons=self.network.n_neurons)
        outcome = neuron_injector.outcome_from_faults(fault_map.neuron_faults)
        self.network.set_neuron_fault_status(outcome.status)

        return FaultInjectionReport(
            fault_map=fault_map,
            weight_change_summary=summary,
            n_faulty_neurons=int(outcome.faulty_neuron_indices().size),
        )

    def inject(
        self,
        config: ComputeEngineFaultConfig,
        rng: RNGLike = None,
        fault_map: Optional[FaultMap] = None,
    ) -> FaultInjectionReport:
        """Draw (or replay) a fault map and apply it to the network."""
        if fault_map is None:
            fault_map = self.draw_fault_map(config, rng=rng)
        return self.apply_fault_map(fault_map)

    # ------------------------------------------------------------------ #
    def clear_neuron_faults(self) -> None:
        """Restore healthy neuron operations (register flips are not undone)."""
        self.network.clear_neuron_faults()

    def restore_registers(self, clean_registers: np.ndarray) -> None:
        """Overwrite the crossbar registers with a clean snapshot."""
        self.network.synapses.set_registers(np.asarray(clean_registers))
