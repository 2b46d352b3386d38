"""Spiking-neural-network simulation substrate.

This subpackage implements, from scratch and in pure NumPy, the SNN that the
paper evaluates: a fully-connected, single-excitatory-layer network with
direct lateral inhibition, leaky integrate-and-fire (LIF) neurons, adaptive
firing thresholds and pair-based spike-timing-dependent plasticity (STDP) —
the Diehl & Cook style architecture shown in Fig. 1(a) of the paper and
simulated by the authors with BindsNET.

Design notes
------------
* The four LIF hardware operations the paper's fault model targets —
  membrane-potential *increase*, *leak*, *reset* and *spike generation* —
  are modelled explicitly and can each be disabled per neuron via
  :class:`~repro.snn.neuron.NeuronOperationStatus`.  That is the hook used by
  the fault-injection subpackage (:mod:`repro.faults`).
* Weights live in :class:`~repro.snn.synapse.SynapseMatrix`, which pairs the
  float view used by the simulator with the 8-bit register view used by the
  accelerator hardware model; bit flips are injected into the register view.
* Training (STDP + label assignment) and inference are deliberately separate
  (:mod:`repro.snn.training`, :mod:`repro.snn.inference`): all experiments in
  the paper inject faults only during inference on a pre-trained network.
* Inference runs through one engine: :mod:`repro.snn.engine` advances
  whole chunks of samples — for one network or many fault maps at once —
  per timestep with ``(rows, batch, n_neurons)`` state arrays and one
  weight-reusing matrix multiplication, spike-for-spike equivalent to the
  sequential per-timestep loop kept in :mod:`repro.snn.oracle` as the
  verification reference.
* Training runs through one trainer,
  :class:`~repro.snn.training.TrainingRunner`, whose spiking presentations
  and label assignment are passes of the same inference engine; its
  per-timestep reference, :func:`repro.snn.oracle.train_sequential`, is
  likewise a test oracle only.
* Both primitives of every hot path — the exact integer register-code GEMM
  and the in-place timestep loop every neuron model runs — live once, in
  :mod:`repro.snn.kernels`.
"""

from repro.snn.encoding import PoissonEncoder
from repro.snn.engine import (
    DEFAULT_BATCH_SIZE,
    BatchedInferenceEngine,
    BatchResult,
    MapParallelEngine,
    MapRow,
)
from repro.snn.inference import InferenceEngine, InferenceResult
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.neuron import LIFNeuronGroup, LIFParameters, NeuronOperationStatus
from repro.snn.quantization import WeightQuantizer
from repro.snn.stdp import STDPConfig
from repro.snn.synapse import SynapseMatrix
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchResult",
    "BatchedInferenceEngine",
    "DiehlCookNetwork",
    "InferenceEngine",
    "InferenceResult",
    "LIFNeuronGroup",
    "LIFParameters",
    "MapParallelEngine",
    "MapRow",
    "NetworkConfig",
    "NeuronOperationStatus",
    "PoissonEncoder",
    "STDPConfig",
    "SynapseMatrix",
    "TrainedModel",
    "TrainingConfig",
    "TrainingRunner",
    "WeightQuantizer",
]
