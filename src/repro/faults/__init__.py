"""Soft-error (transient fault) modelling for the SNN compute engine.

This subpackage implements Section 2.2 of the paper — the transient fault
model for the two parts of the compute engine — and the fault generation and
distribution procedure of Fig. 7:

* **Synapse part** (:mod:`repro.faults.bitflip`): a soft error in a synapse
  flips exactly one bit of its 8-bit weight register; the flipped bit
  persists until the register is overwritten.
* **Neuron part** (:mod:`repro.faults.neuron_faults`): a soft error in a
  neuron corrupts one of its four operations — membrane-potential increase,
  leak, reset, or spike generation — and the faulty behaviour persists until
  the neuron's parameters are reloaded.
* **Fault maps** (:mod:`repro.faults.fault_map`): every weight-register cell
  and every neuron operation is a potential fault location; a fault map is a
  random draw of struck locations for a given fault rate.
* **Injection**: production code applies a fault map to the deployed
  registers and neuron-operation status it plans engine rows from
  (:func:`repro.core.mitigation.prepare_map_assets`).
  :class:`~repro.faults.injector.FaultInjector` applies one to a concrete
  network of the sequential oracle (:func:`repro.snn.oracle.build_network`),
  the reference that route is checked against.
"""

from repro.faults.bitflip import WeightBitFlipModel
from repro.faults.fault_map import FaultMap, FaultMapGenerator
from repro.faults.injector import FaultInjectionReport, FaultInjector
from repro.faults.models import (
    ComputeEngineFaultConfig,
    FaultLocationKind,
    NeuronFaultType,
)
from repro.faults.neuron_faults import NeuronFaultInjector

__all__ = [
    "ComputeEngineFaultConfig",
    "FaultInjectionReport",
    "FaultInjector",
    "FaultLocationKind",
    "FaultMap",
    "FaultMapGenerator",
    "NeuronFaultInjector",
    "NeuronFaultType",
    "WeightBitFlipModel",
]
