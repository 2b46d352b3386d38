"""SoftSNN reproduction: low-cost fault tolerance for SNN accelerators under soft errors.

This package is a from-scratch reproduction of *"SoftSNN: Low-Cost Fault
Tolerance for Spiking Neural Network Accelerators under Soft Errors"*
(Putra, Hanif, Shafique — DAC 2022).  It contains:

* ``repro.snn`` — a pure-NumPy spiking-neural-network simulator (LIF
  neurons, STDP, lateral inhibition, Poisson coding) standing in for the
  paper's BindsNET/GPU setup;
* ``repro.data`` — synthetic MNIST / Fashion-MNIST substitutes (offline
  environment);
* ``repro.faults`` — the paper's transient-fault model for the compute
  engine (weight-register bit flips and faulty neuron operations);
* ``repro.hardware`` — an analytical area / latency / energy model of the
  256x256 compute engine and its Bound-and-Protect enhancements;
* ``repro.core`` — the SoftSNN methodology itself: fault-tolerance
  analysis, the BnP1/BnP2/BnP3 weight bounding, neuron protection, and the
  re-execution (TMR) baseline;
* ``repro.eval`` — the experiment harness that regenerates every figure of
  the paper's evaluation;
* ``repro.serve`` — the online serving layer: model registry, adaptive
  micro-batching scheduler, fault-aware serving modes and the stdlib HTTP
  service (CLI: ``softsnn-serve`` in ``repro.server``).
"""

from repro.core.bound_and_protect import BnPVariant, NeuronProtection, WeightBounding
from repro.core.fault_analysis import FaultToleranceAnalyzer
from repro.core.methodology import SoftSNNMethodology
from repro.core.mitigation import (
    BnPTechnique,
    MitigationTechnique,
    NoMitigation,
    ReExecutionTMR,
    build_technique,
)
from repro.data.datasets import Dataset, load_workload, train_test_split
from repro.data.synthetic_fashion import SyntheticFashionMNIST
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.faults.fault_map import FaultMap, FaultMapGenerator
from repro.faults.injector import FaultInjector
from repro.faults.models import ComputeEngineFaultConfig, NeuronFaultType
from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.compute_engine import ComputeEngineConfig
from repro.hardware.enhancements import MitigationKind
from repro.snn.inference import InferenceEngine, InferenceResult
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner

__version__ = "1.0.0"

__all__ = [
    "AcceleratorModel",
    "BnPTechnique",
    "BnPVariant",
    "ComputeEngineConfig",
    "ComputeEngineFaultConfig",
    "Dataset",
    "DiehlCookNetwork",
    "FaultInjector",
    "FaultMap",
    "FaultMapGenerator",
    "FaultToleranceAnalyzer",
    "InferenceEngine",
    "InferenceResult",
    "MitigationKind",
    "MitigationTechnique",
    "NetworkConfig",
    "NeuronFaultType",
    "NeuronProtection",
    "NoMitigation",
    "ReExecutionTMR",
    "SoftSNNMethodology",
    "SyntheticFashionMNIST",
    "SyntheticMNIST",
    "TrainedModel",
    "TrainingConfig",
    "TrainingRunner",
    "WeightBounding",
    "build_technique",
    "load_workload",
    "train_test_split",
    "__version__",
]
