"""The fully-connected SNN architecture evaluated in the paper.

:class:`DiehlCookNetwork` wires together the pieces of the substrate —
Poisson input encoding, the synapse crossbar, and the LIF excitatory layer
with direct lateral inhibition — into the network of Fig. 1(a).
:meth:`DiehlCookNetwork.present` simulates the network as it is and knows
nothing of mitigation: Bound-and-Protect's weight bounding (a
:class:`~repro.snn.synapse.BoundedWeightRule` between the weight register
and the adder) and neuron protection are row properties of the inference
engine (:class:`~repro.snn.engine.MapRow`), planned by the mitigation
technique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.snn.encoding import DEFAULT_ENCODING, PoissonEncoder, get_encoder
from repro.snn.engine import BatchedInferenceEngine
from repro.snn.models import DEFAULT_NEURON_MODEL, get_model
from repro.snn.neuron import LIFNeuronGroup, LIFParameters, NeuronOperationStatus
from repro.snn.quantization import WeightQuantizer
from repro.snn.stdp import STDPConfig
from repro.snn.synapse import SynapseMatrix
from repro.utils.rng import RNGLike, resolve_rng

__all__ = ["NetworkConfig", "DiehlCookNetwork", "SampleResult"]


@dataclass(frozen=True)
class NetworkConfig:
    """Static configuration of a :class:`DiehlCookNetwork`.

    Attributes
    ----------
    n_inputs:
        Number of input channels (pixels); 784 for 28x28 images.
    n_neurons:
        Number of excitatory neurons (the paper sweeps 400…3600; tests use
        much smaller populations).
    timesteps:
        Presentation duration of each sample, in timesteps.
    max_rate:
        Peak per-step input spike probability (see
        :class:`~repro.snn.encoding.PoissonEncoder`).
    target_total_intensity:
        Per-sample input-rate normalisation target forwarded to the encoder
        (``None`` disables it); keeps digit-like and garment-like workloads
        in the same activity regime.
    neuron_params:
        LIF parameters shared by all excitatory neurons.
    stdp:
        STDP hyper-parameters used during training.
    weight_bits:
        Weight-register precision of the deployed compute engine (8 in the
        paper).
    weight_full_scale:
        Full-scale value of the deployed register format.  ``None`` (the
        default) means "choose at deployment time": the trained model picks a
        full scale of twice its maximum clean weight, which gives the
        register format realistic headroom and reproduces Fig. 9, where bit
        flips push weights to roughly twice the clean maximum.
    neuron_model:
        Registered neuron-model name the engines simulate
        (:mod:`repro.snn.models`); ``"lif"`` is the paper's model and the
        default every pre-existing configuration (and snapshot sidecar
        written before the model zoo existed) resolves to.
    encoding:
        Registered input-encoding name (:mod:`repro.snn.encoding`);
        ``"poisson"`` is the paper's rate encoding and the default.
    """

    n_inputs: int = 784
    n_neurons: int = 100
    timesteps: int = 150
    max_rate: float = 0.25
    target_total_intensity: Optional[float] = 50.0
    neuron_params: LIFParameters = field(default_factory=LIFParameters)
    stdp: STDPConfig = field(default_factory=STDPConfig)
    weight_bits: int = 8
    weight_full_scale: Optional[float] = None
    neuron_model: str = DEFAULT_NEURON_MODEL
    encoding: str = DEFAULT_ENCODING

    #: Full-scale-to-clean-maximum ratio used when ``weight_full_scale`` is
    #: left on automatic.  A factor of two reproduces the weight range shown
    #: in Fig. 9 of the paper (clean weights up to ``wgh_max``; faulty
    #: weights up to roughly ``2 * wgh_max``).
    AUTO_FULL_SCALE_HEADROOM = 2.0

    def __post_init__(self) -> None:
        if self.n_inputs <= 0:
            raise ValueError(f"n_inputs must be positive, got {self.n_inputs}")
        if self.n_neurons <= 0:
            raise ValueError(f"n_neurons must be positive, got {self.n_neurons}")
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if self.target_total_intensity is not None and self.target_total_intensity <= 0:
            raise ValueError(
                "target_total_intensity must be positive or None, got "
                f"{self.target_total_intensity}"
            )
        if self.weight_full_scale is not None and self.weight_full_scale <= 0:
            raise ValueError(
                f"weight_full_scale must be positive or None, got {self.weight_full_scale}"
            )
        # Fail at configuration time, not deep inside an engine: both names
        # must resolve against their registries (raises with the known
        # names otherwise).
        get_model(self.neuron_model)
        get_encoder(self.encoding)

    def make_quantizer(self, clean_max_weight: Optional[float] = None) -> WeightQuantizer:
        """Construct the deployed (8-bit) register quantiser.

        Parameters
        ----------
        clean_max_weight:
            Maximum weight of the trained clean network.  Required when
            ``weight_full_scale`` is automatic (``None``); ignored otherwise.
        """
        if self.weight_full_scale is not None:
            full_scale = self.weight_full_scale
        else:
            if clean_max_weight is None or clean_max_weight <= 0:
                # Fall back to the STDP clip range with headroom so a network
                # can be built before training (e.g. for training itself).
                full_scale = self.AUTO_FULL_SCALE_HEADROOM * self.stdp.w_max
            else:
                full_scale = self.AUTO_FULL_SCALE_HEADROOM * float(clean_max_weight)
        return WeightQuantizer(bits=self.weight_bits, full_scale=full_scale)

    def make_training_quantizer(self) -> WeightQuantizer:
        """Construct the high-precision format used by the learning unit.

        The paper's fault model targets the inference-time weight registers
        of the compute engine; the STDP learning unit (Fig. 2) keeps its own
        higher-precision copy of the weights.  Training therefore runs with a
        16-bit format so quantisation does not interfere with learning, and
        the trained weights are mapped onto the 8-bit registers at
        deployment time.
        """
        return WeightQuantizer(bits=16, full_scale=self.stdp.w_max)

    def make_encoder(self) -> PoissonEncoder:
        """Construct the registered encoder named by ``encoding``.

        The factory receives the configuration subset encoders derive
        from; with the default ``encoding="poisson"`` this builds exactly
        the :class:`~repro.snn.encoding.PoissonEncoder` it always did.
        """
        factory = get_encoder(self.encoding)
        return factory(
            timesteps=self.timesteps,
            max_rate=self.max_rate,
            target_total_intensity=self.target_total_intensity,
        )


@dataclass
class SampleResult:
    """Outcome of presenting one sample to the network.

    Attributes
    ----------
    spike_counts:
        Per-neuron count of output spikes over the presentation.
    output_spikes:
        Full boolean raster of output spikes, shape ``(timesteps, n_neurons)``.
    input_spike_count:
        Total number of input spikes delivered (useful for activity/energy
        accounting in the hardware model).
    """

    spike_counts: np.ndarray
    output_spikes: np.ndarray
    input_spike_count: int

    @property
    def total_output_spikes(self) -> int:
        """Total number of output spikes across all neurons."""
        return int(self.spike_counts.sum())


class DiehlCookNetwork:
    """Fully-connected SNN with direct lateral inhibition and STDP learning.

    Parameters
    ----------
    config:
        Static network configuration.
    rng:
        Seed or generator used for weight initialisation.
    quantizer:
        Optional explicit weight-register quantiser.  When omitted the
        config's deployed-register format is used; the trainer passes its
        high-precision training format instead.
    """

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        rng: RNGLike = None,
        quantizer: Optional[WeightQuantizer] = None,
    ) -> None:
        self.config = config if config is not None else NetworkConfig()
        generator = resolve_rng(rng)
        if quantizer is None:
            quantizer = self.config.make_quantizer()
        self.synapses = SynapseMatrix.random(
            n_inputs=self.config.n_inputs,
            n_neurons=self.config.n_neurons,
            rng=generator,
            low=0.0,
            high=min(0.3 * self.config.stdp.w_max, quantizer.full_scale),
            quantizer=quantizer,
        )
        self.neurons = LIFNeuronGroup(
            n_neurons=self.config.n_neurons, params=self.config.neuron_params
        )
        self.encoder = self.config.make_encoder()

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def n_inputs(self) -> int:
        """Number of input channels."""
        return self.config.n_inputs

    @property
    def n_neurons(self) -> int:
        """Number of excitatory neurons."""
        return self.config.n_neurons

    def set_neuron_fault_status(self, status: NeuronOperationStatus) -> None:
        """Install per-neuron operation faults (used by the fault injector)."""
        self.neurons.set_operation_status(status)

    def clear_neuron_faults(self) -> None:
        """Restore all neuron operations to their healthy state."""
        self.neurons.set_operation_status(
            NeuronOperationStatus.healthy(self.n_neurons)
        )

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def present(self, image: np.ndarray, rng: RNGLike = None) -> SampleResult:
        """Present one image for inference for ``config.timesteps`` steps.

        The image runs as a batch of one through the inference engine
        (:mod:`repro.snn.engine`) and the neuron group's state is
        synchronised afterwards, so the observable behaviour (spikes,
        latches, RNG consumption) matches the sequential reference loop
        (:func:`repro.snn.oracle.present_sequential`).

        Parameters
        ----------
        image:
            Grayscale image whose flattened size equals ``n_inputs``.
        rng:
            Seed or generator for the Poisson input encoding.
        """
        image = np.asarray(image, dtype=np.float64)
        if image.size != self.n_inputs:
            raise ValueError(
                f"image has {image.size} pixels but the network expects {self.n_inputs}"
            )
        result = BatchedInferenceEngine(self).run(image.reshape(1, -1), rng=rng)
        self.sync_neuron_state(result.final_state, result.final_reset_latch)
        return SampleResult(
            spike_counts=result.spike_counts[0],
            output_spikes=result.output_spikes[0],
            input_spike_count=int(result.input_spike_counts[0]),
        )

    def sync_neuron_state(self, state, reset_latch: np.ndarray) -> None:
        """Mirror the last sample of an engine run back into the neuron group.

        *state* holds ``(batch, n_neurons)`` arrays (one engine row); the
        neuron group ends up in the final state (membranes, latches,
        protection gates) the per-timestep loop would have left behind.
        """
        neurons = self.neurons
        neurons.v = state.v[-1].copy()
        neurons.refractory_remaining = state.refractory_remaining[-1].copy()
        neurons.comparator_output = state.comparator_output[-1].copy()
        neurons.consecutive_above_threshold = (
            state.consecutive_above_threshold[-1].copy()
        )
        neurons.spike_disabled = state.spike_disabled[-1].copy()
        neurons.reset_fault_latched = np.asarray(reset_latch, dtype=bool).copy()
        neurons.last_spikes = state.last_spikes[-1].copy()

    def normalize_weights(self, target_sum: float) -> None:
        """Scale each neuron's incoming weights to a fixed total.

        Diehl & Cook style weight normalisation: after each training sample,
        every excitatory neuron's column of weights is rescaled so its sum
        equals *target_sum*, preventing any single neuron from monopolising
        the input.
        """
        if target_sum <= 0:
            raise ValueError(f"target_sum must be positive, got {target_sum}")
        weights = self.synapses.weights
        column_sums = weights.sum(axis=0)
        column_sums[column_sums == 0] = 1.0
        normalized = weights * (target_sum / column_sums)
        normalized = np.clip(normalized, 0.0, self.synapses.quantizer.full_scale)
        self.synapses.set_weights(normalized)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiehlCookNetwork(n_inputs={self.n_inputs}, n_neurons={self.n_neurons}, "
            f"timesteps={self.config.timesteps})"
        )
