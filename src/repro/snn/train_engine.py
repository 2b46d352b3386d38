"""Vectorized STDP training engine.

PR 1 removed the per-sample Python loop from *inference*
(:mod:`repro.snn.engine`); this module removes it from *training*, the last
big hot path.  Training cannot batch the sample dimension the way inference
does — STDP updates the weights between timesteps, and winner-take-all
learning updates them between samples — so the engine attacks the cost that
actually dominates the sequential trainer instead: the full
``(n_inputs, n_neurons)`` matrix traffic that
:meth:`repro.snn.stdp.STDPRule.step` generates on **every** timestep.

Vectorization strategy
----------------------
``pairwise_stdp``
    The sequential rule materialises two dense outer products, a dense
    add/subtract and a full-matrix clip per timestep — five traversals of
    the weight matrix (plus their temporaries) even when almost nothing
    spiked.  The engine advances the same ``(timestep, input, neuron)``
    trace recursion but applies the updates *sparsely*: potentiation is an
    outer-product column update restricted to the neurons that spiked this
    step, depression a row update restricted to the inputs that spiked, and
    the clip touches only those rows and columns (plus one dense clip after
    the first timestep of each presentation, see the parity contract).  The
    LIF state advance is the same specialised elementwise step the
    inference engine uses.
    One dense operation per timestep remains — the current-accumulation
    GEMV, which is identical in both paths.

``spiking_wta`` / ``fast_wta``
    The per-sample winner-take-all update is already cheap; what the
    sequential oracle pays for is presenting every sample to a network
    as a fresh batch-of-one engine run (state allocation, layout
    transposes, result assembly).  The engine inlines a lean single-sample
    presentation over the same exact integer-code GEMM and elementwise LIF
    expressions.

Label assignment (``"spiking"`` mode)
    Weights are frozen here, so this *is* an inference workload: the engine
    presents the labelled training set in true batches through one healthy
    :class:`~repro.snn.engine.MapRow` of a
    :class:`~repro.snn.engine.MapParallelEngine` instead of one sample at a
    time.

The engine builds no network object: the spec is the
:class:`~repro.snn.network.NetworkConfig`, and the weights live as plain
arrays on the training register lattice.

Parity contract
---------------
The engine is the only production trainer.  It is **bit-identical** to the
per-timestep reference trainer :func:`repro.snn.oracle.train_sequential`
(kept for the parity suites and benches only) — same weights,
same spike counts, same neuron labels, same training history — because every
floating-point operation is either literally the same expression or an
exactness-preserving restriction of one:

* RNG draws (weight init, epoch shuffles, Poisson encodings) happen in the
  same order with the same shapes, so both paths consume identical streams;
  :meth:`VectorizedTrainingEngine._initial_weights` draws, round-trips and
  normalises exactly what the oracle's freshly built training network
  holds after its first ``normalize_weights``.
* Sparse STDP updates are exact: a non-spiking column receives
  ``w + lr * (trace * 0.0) = w + 0.0 = w`` in the sequential path (bitwise
  identity for the non-negative weights this architecture produces), so
  skipping it changes nothing; a spiking column receives the same
  multiply-then-add sequence in both paths.
* The full-matrix clip is the identity on entries already inside
  ``[w_min, w_max]``.  Weights enter each presentation from a clipped
  normalisation into ``[0, w_max]``, so with ``w_min > 0`` some entries
  start below the bound: the engine clips the whole matrix once, after the
  sparse updates of the first timestep, exactly like the reference's first
  step.  From then on every entry a step leaves untouched is already in
  range, so clipping only the touched rows and columns is exact.  At
  ``w_min == 0`` the dense clip is the identity.
* Current accumulation during WTA presentations and label assignment uses
  the register-code GEMM of :mod:`repro.snn.synapse`: the sums are exact
  integers, hence bitwise independent of batch shape and dtype.
* Elementwise LIF updates are IEEE operations applied per element; their
  results do not depend on the array shape they are broadcast over (the
  same argument :mod:`repro.snn.engine` relies on).

``tests/test_train_engine_parity.py`` locks the contract down across
learning modes, seeds, dataset sizes, lower weight bounds and odd
label-assignment batch tails.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.obs import metrics as _obs
from repro.obs.trace import span
from repro.snn.engine import MapParallelEngine, MapRow
from repro.snn.kernels import (
    KernelWorkspace,
    LIFStepConfig,
    OperationMasks,
    exact_gemm_dtype,
    exact_scale,
    lif_learning_step,
    register_gemm,
)
from repro.snn.models import resolve_model
from repro.snn.network import NetworkConfig
from repro.snn.neuron import NeuronOperationStatus
from repro.snn.quantization import WeightQuantizer
from repro.snn.synapse import check_weight_range
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.data.datasets import Dataset
    from repro.snn.training import TrainingConfig

__all__ = [
    "LABEL_ASSIGNMENT_BATCH",
    "VectorizedTrainingEngine",
    "neuron_labels_from_responses",
    "wta_sample_update",
]

_LOGGER = get_logger("snn.train_engine")

# Training telemetry (docs/observability.md): epoch throughput per learning
# mode.
_TRAINING_EPOCHS = _obs.get_registry().counter(
    "softsnn_training_epochs_total",
    "Completed training epochs, by learning mode.",
    labels=("mode",),
)
_TRAINING_EPOCH_SECONDS = _obs.get_registry().histogram(
    "softsnn_training_epoch_seconds",
    "Wall time per training epoch, by learning mode.",
    labels=("mode",),
)


def _record_training_epoch(mode: str, seconds: float) -> None:
    """Account one completed training epoch to the epoch counters."""
    if _obs.enabled():
        _TRAINING_EPOCHS.labels(mode=mode).inc()
        _TRAINING_EPOCH_SECONDS.labels(mode=mode).observe(seconds)

#: Samples per :class:`~repro.snn.engine.MapParallelEngine` chunk during
#: spiking label assignment.  Any value yields bit-identical labels (the
#: engine is spike-exact for every batch shape); this is purely a
#: memory/throughput trade-off.
LABEL_ASSIGNMENT_BATCH = 64


def wta_sample_update(
    weights: np.ndarray,
    conscience: np.ndarray,
    wins: np.ndarray,
    flat: np.ndarray,
    responses: np.ndarray,
    config: "TrainingConfig",
) -> np.ndarray:
    """One winner-take-all weight update, shared with the sequential oracle.

    Winner selection, the receptive-field blend toward the presented
    pattern, the conscience (homeostatic bias) bookkeeping, and the
    Diehl & Cook column normalisation — everything in a WTA training step
    except the presentation itself.  :meth:`VectorizedTrainingEngine.train_wta`
    and the sequential oracle (:func:`repro.snn.oracle.train_sequential`)
    call this single implementation, so the two cannot drift apart.

    Parameters
    ----------
    weights:
        Current weight matrix ``(n_inputs, n_neurons)``.
    conscience:
        Per-neuron homeostatic bias; mutated in place.
    wins:
        Per-neuron win counter; mutated in place.
    flat:
        The presented pattern, flattened to ``(n_inputs,)``.
    responses:
        Per-neuron responses the winner is selected from.
    config:
        The :class:`~repro.snn.training.TrainingConfig` supplying the
        learning rate, conscience and normalisation hyper-parameters.

    Returns
    -------
    numpy.ndarray
        The updated (column-normalised) weight matrix — a new array.
    """
    winner = int(np.argmax(responses))
    wins[winner] += 1

    pattern_sum = flat.sum()
    if pattern_sum > 0:
        target = flat / pattern_sum * config.weight_norm_total
        weights[:, winner] = (
            (1.0 - config.wta_learning_rate) * weights[:, winner]
            + config.wta_learning_rate * target
        )
    conscience[winner] += config.conscience_increment
    conscience *= config.conscience_decay
    column_sums = weights.sum(axis=0)
    column_sums[column_sums == 0] = 1.0
    return weights * (config.weight_norm_total / column_sums)


def _normalize_columns(
    weights: np.ndarray, total: float, quantizer: WeightQuantizer
) -> np.ndarray:
    """Diehl & Cook column normalisation onto *quantizer*'s register lattice.

    Every neuron's incoming weights are rescaled to sum to *total* (silent
    columns are left as they are), clipped into the register range and
    round-tripped through the registers — the expression
    ``DiehlCookNetwork.normalize_weights`` evaluates, as a new array.
    """
    column_sums = weights.sum(axis=0)
    column_sums[column_sums == 0] = 1.0
    weights = weights * (total / column_sums)
    return quantizer.roundtrip(np.clip(weights, 0.0, quantizer.full_scale))


def neuron_labels_from_responses(
    responses: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    label_smoothing: float,
) -> np.ndarray:
    """Label every neuron with the class it responds to most on average.

    Shared by both label-assignment modes and the sequential oracle.  The
    per-class sums accumulate in sample order, so the same responses give
    the same labels bit for bit whichever path produced them.

    Parameters
    ----------
    responses:
        Per-sample neuron responses ``(n_samples, n_neurons)`` (spike
        counts or linear responses).
    labels:
        Class label of every sample, shape ``(n_samples,)``.
    n_classes:
        Number of classes of the labelled dataset.
    label_smoothing:
        Constant added to the class means before the argmax, so silent
        neurons do not tie.

    Returns
    -------
    numpy.ndarray
        Class label per neuron, shape ``(n_neurons,)``, dtype int64.
    """
    response_sums = np.zeros((n_classes, responses.shape[1]), dtype=np.float64)
    class_counts = np.zeros(n_classes, dtype=np.float64)
    for response, label in zip(responses, labels):
        response_sums[label] += response
        class_counts[label] += 1
    class_counts[class_counts == 0] = 1.0
    mean_responses = response_sums / class_counts[:, np.newaxis]
    mean_responses += label_smoothing
    return np.argmax(mean_responses, axis=0).astype(np.int64)


class VectorizedTrainingEngine:
    """Bit-exact vectorized implementation of the unsupervised trainer.

    The engine runs :class:`repro.snn.training.TrainingRunner`'s three
    learning modes and its spiking label assignment, with the dense
    per-timestep weight traffic replaced by sparse trace-outer-product
    updates (see the module docstring for the parity argument).  Instances
    are cheap; :class:`~repro.snn.training.TrainingRunner.train` constructs
    one per call.

    Parameters
    ----------
    network_config:
        Architecture of the network to train.
    training_config:
        Training-loop hyper-parameters (the
        :class:`~repro.snn.training.TrainingConfig` of the runner).
    """

    def __init__(
        self,
        network_config: NetworkConfig,
        training_config: "TrainingConfig",
    ) -> None:
        self.network_config = network_config
        self.training_config = training_config
        # Neuron model driving the WTA presentation kernel (the pairwise
        # path is LIF-only and guarded by the runner).
        self._model = resolve_model(getattr(network_config, "neuron_model", None))
        # Scratch buffers of the WTA presentation kernel, reused across
        # samples and epochs.
        self._workspace = KernelWorkspace()

    # ------------------------------------------------------------------ #
    # helpers shared with the sequential oracle
    # ------------------------------------------------------------------ #
    def _epoch_order(
        self, n_samples: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Sample presentation order for one epoch."""
        if self.training_config.shuffle:
            return generator.permutation(n_samples)
        return np.arange(n_samples)

    def _initial_weights(
        self, generator: np.random.Generator, quantizer: WeightQuantizer
    ) -> np.ndarray:
        """Initial training weights, column-normalised on *quantizer*'s lattice.

        One ``uniform(0, min(0.3 * w_max, full_scale))`` draw per synapse,
        a quantise round trip, then ``_normalize_columns`` — the weights
        a freshly built training network holds after its first
        ``normalize_weights``, drawing the same doubles from *generator*.
        """
        config = self.network_config
        high = min(0.3 * config.stdp.w_max, quantizer.full_scale)
        weights = generator.uniform(
            0.0, high, size=(config.n_inputs, config.n_neurons)
        )
        return _normalize_columns(
            quantizer.roundtrip(weights),
            self.training_config.weight_norm_total,
            quantizer,
        )

    # ------------------------------------------------------------------ #
    # pairwise STDP
    # ------------------------------------------------------------------ #
    def train_pairwise(
        self, dataset: "Dataset", generator: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, list]]:
        """Vectorized per-timestep pair STDP over the training set.

        Parameters
        ----------
        dataset:
            Labelled training images.
        generator:
            The training RNG; consumed exactly like the sequential path.

        Returns
        -------
        tuple
            ``(weights, history)`` with ``weights`` of shape
            ``(n_inputs, n_neurons)`` and the per-epoch diagnostic history,
            both bit-identical to the sequential trainer's.
        """
        config = self.training_config
        quantizer = self.network_config.make_training_quantizer()
        weights = self._initial_weights(generator, quantizer)  # within [0, w_max]
        encoder = self.network_config.make_encoder()
        stdp = self.network_config.stdp
        params = self.network_config.neuron_params

        n_inputs = self.network_config.n_inputs
        n_neurons = self.network_config.n_neurons

        # Scalar parameters of the specialised (healthy-network) LIF step.
        step_config = LIFStepConfig.from_params(params)
        v_rest = params.v_rest
        v_threshold = params.v_threshold
        theta_plus = params.theta_plus
        theta_decay = params.theta_decay
        pre_decay = stdp.pre_decay
        post_decay = stdp.post_decay
        lr_pre = stdp.learning_rate_pre
        lr_post = stdp.learning_rate_post
        w_min, w_max = stdp.w_min, stdp.w_max

        # Homeostatic threshold persists across samples, as in the
        # sequential LIFNeuronGroup whose reset_state keeps theta.
        theta = np.zeros(n_neurons, dtype=np.float64)
        pre_trace = np.zeros(n_inputs, dtype=np.float64)
        post_trace = np.zeros(n_neurons, dtype=np.float64)

        history: Dict[str, list] = {"epoch_mean_spikes": []}
        for epoch in range(config.epochs):
            epoch_began = time.perf_counter()
            with span("train.epoch", mode="pairwise_stdp", epoch=epoch + 1):
                order = self._epoch_order(len(dataset), generator)
                epoch_spikes: List[int] = []
                for index in order:
                    image, _ = dataset[int(index)]
                    raster = encoder.encode(image.reshape(-1), rng=generator)
                    float_raster = raster.astype(np.float64)
                    timesteps = raster.shape[0]

                    # Per-presentation state reset (LIFNeuronGroup.reset_state
                    # plus STDPRule.reset_traces).
                    v = np.full(n_neurons, v_rest, dtype=np.float64)
                    refractory = np.zeros(n_neurons, dtype=np.int64)
                    pre_trace.fill(0.0)
                    post_trace.fill(0.0)
                    sample_spikes = 0

                    for t in range(timesteps):
                        # The learning-mode GEMV multiplies spikes with the
                        # dense float *training* weights (which change between
                        # timesteps), not register codes — it has no exact
                        # integer decomposition, and both paths evaluate the
                        # identical float64 expression.
                        current = float_raster[t] @ weights

                        # Healthy learning-mode LIF step (kernel layer): the
                        # exact operation sequence of LIFNeuronGroup.step with
                        # every per-operation fault switch collapsed (training
                        # networks are always healthy) and theta adapting
                        # in place.
                        v, refractory, spikes = lif_learning_step(
                            v,
                            refractory,
                            theta,
                            current,
                            step_config,
                            v_threshold,
                            theta_plus,
                            theta_decay,
                        )
                        any_post = spikes.any()

                        # Trace recursion — the same decay-then-set the
                        # sequential STDPRule.step applies.
                        pre_spikes = raster[t]
                        pre_trace *= pre_decay
                        post_trace *= post_decay
                        pre_trace[pre_spikes] = 1.0
                        post_trace[spikes] = 1.0

                        # Sparse outer-product weight updates: potentiation on
                        # the spiking columns, then depression on the spiking
                        # rows, then the clip restricted to the touched slices
                        # (identity everywhere else — see the module
                        # docstring's exactness argument).
                        any_pre = pre_spikes.any()
                        if any_post:
                            cols = np.flatnonzero(spikes)
                            weights[:, cols] += (lr_post * pre_trace)[:, np.newaxis]
                        if any_pre:
                            rows = np.flatnonzero(pre_spikes)
                            weights[rows] -= lr_pre * post_trace
                        if any_post:
                            weights[:, cols] = np.clip(
                                weights[:, cols], w_min, w_max
                            )
                        if any_pre:
                            weights[rows] = np.clip(weights[rows], w_min, w_max)
                        if t == 0:
                            # The first step clips the whole matrix, as the
                            # reference does: presentations start from
                            # weights in [0, w_max], which may lie below
                            # w_min.  Identity when w_min == 0.
                            np.clip(weights, w_min, w_max, out=weights)

                        if any_post:
                            sample_spikes += int(spikes.sum())

                    epoch_spikes.append(sample_spikes)

                    # End-of-presentation write-back (set_weights quantise
                    # round trip) followed by the trainer's per-sample
                    # Diehl & Cook weight normalisation — both full-matrix,
                    # both once per sample rather than once per timestep.
                    weights = _normalize_columns(
                        quantizer.roundtrip(weights),
                        config.weight_norm_total,
                        quantizer,
                    )

            mean_spikes = float(np.mean(epoch_spikes))
            history["epoch_mean_spikes"].append(mean_spikes)
            _record_training_epoch(
                "pairwise_stdp", time.perf_counter() - epoch_began
            )
            _LOGGER.info(
                "pairwise_stdp epoch %d/%d: mean output spikes per sample %.2f",
                epoch + 1,
                config.epochs,
                mean_spikes,
            )
        return weights, history

    # ------------------------------------------------------------------ #
    # winner-take-all
    # ------------------------------------------------------------------ #
    def train_wta(
        self,
        dataset: "Dataset",
        generator: np.random.Generator,
        spiking: bool,
    ) -> Tuple[np.ndarray, Dict[str, list]]:
        """Sample-level winner-take-all learning (spiking or linear winner).

        Parameters
        ----------
        dataset:
            Labelled training images.
        generator:
            The training RNG; consumed exactly like the sequential path.
        spiking:
            ``True`` selects the winner from a full spiking presentation
            (``"spiking_wta"``), ``False`` from the linear expected-rate
            response (``"fast_wta"``).

        Returns
        -------
        tuple
            ``(weights, history)``, bit-identical to the sequential
            trainer's.
        """
        config = self.training_config
        n_inputs = self.network_config.n_inputs
        n_neurons = self.network_config.n_neurons

        quantizer = self.network_config.make_training_quantizer()
        weights = self._initial_weights(generator, quantizer)
        encoder = self.network_config.make_encoder()
        conscience = np.zeros(n_neurons, dtype=np.float64)
        wins = np.zeros(n_neurons, dtype=np.int64)

        mode = "spiking_wta" if spiking else "fast_wta"
        history: Dict[str, list] = {"epoch_neurons_used": [], "epoch_mean_spikes": []}
        for epoch in range(config.epochs):
            epoch_began = time.perf_counter()
            with span("train.epoch", mode=mode, epoch=epoch + 1):
                order = self._epoch_order(len(dataset), generator)
                epoch_spikes: List[int] = []
                for index in order:
                    image, _ = dataset[int(index)]
                    flat = image.reshape(-1)
                    if spiking:
                        spike_counts = self._present_wta(
                            flat, weights, conscience, quantizer, encoder, generator
                        )
                        epoch_spikes.append(int(spike_counts.sum()))
                        responses = spike_counts.astype(np.float64)
                        if responses.max() <= 0:
                            # Silent presentation: fall back to the linear
                            # response so every sample still contributes.
                            responses = flat @ weights - conscience
                    else:
                        responses = flat @ weights - conscience
                        epoch_spikes.append(0)
                    weights = wta_sample_update(
                        weights, conscience, wins, flat, responses, config
                    )

            neurons_used = int((wins > 0).sum())
            history["epoch_neurons_used"].append(neurons_used)
            history["epoch_mean_spikes"].append(
                float(np.mean(epoch_spikes)) if epoch_spikes else 0.0
            )
            _record_training_epoch(mode, time.perf_counter() - epoch_began)
            _LOGGER.info(
                "%s epoch %d/%d: %d of %d neurons selected as winners",
                mode,
                epoch + 1,
                config.epochs,
                neurons_used,
                n_neurons,
            )
        weights = np.clip(weights, 0.0, self.network_config.stdp.w_max)
        return weights.reshape(n_inputs, n_neurons), history

    def _present_wta(
        self,
        flat: np.ndarray,
        weights: np.ndarray,
        conscience: np.ndarray,
        quantizer,
        encoder,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """One lean spiking presentation; returns per-neuron spike counts.

        Replicates exactly what the sequential winner-take-all step
        observes from ``set_weights`` + ``network.present``: the weights are
        quantised into register codes (with the range validation
        ``set_weights`` performs, :func:`~repro.snn.synapse.check_weight_range`),
        the currents come from the identical exact integer-code GEMM, and the
        LIF state advances through the same elementwise expressions —
        without a batch-of-one engine run per sample.
        """
        check_weight_range(weights, quantizer)
        params = self.network_config.neuron_params
        n_neurons = self.network_config.n_neurons

        # Same stream shape as the engine's encode_batch on a batch of one.
        raster = encoder.encode_batch(
            flat[np.newaxis, np.newaxis, :], rng=generator
        )[0]
        timesteps = raster.shape[0]

        # Exact integer-code currents for the whole presentation in one
        # GEMM, exactly as the inference engine computes them (the code sums
        # are exact integers, so the evaluation is bitwise identical to
        # the engine's for any operand shape and GEMM dtype).
        gemm_dtype = exact_gemm_dtype(
            self.network_config.n_inputs, quantizer.max_code
        )
        codes = quantizer.quantize(weights).astype(gemm_dtype)
        currents = exact_scale(register_gemm(raster, codes), quantizer.scale)

        # One healthy (1, 1, n_neurons) block through the shared timestep
        # kernel — the same model-dispatched advance the inference engines
        # run, with the fault switches collapsed and the conscience as the
        # threshold bias.
        shape = (1, 1, n_neurons)
        config = self._model.step_config(params)
        threshold = params.v_threshold + conscience
        output = np.zeros((timesteps,) + shape, dtype=bool)
        self._model.advance(
            np.ascontiguousarray(currents.reshape((timesteps,) + shape)),
            output,
            np.full(shape, params.v_rest, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            OperationMasks.healthy(n_neurons),
            threshold,
            config,
            self._workspace,
        )
        return output.sum(axis=(0, 1, 2), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # label assignment
    # ------------------------------------------------------------------ #
    def assign_labels_spiking(
        self,
        weights: np.ndarray,
        dataset: "Dataset",
        generator: np.random.Generator,
        batch_size: int = LABEL_ASSIGNMENT_BATCH,
    ) -> np.ndarray:
        """Spiking-mode neuron label assignment in true inference batches.

        The trained weights are frozen here, so the labelled training set
        is a plain inference workload: one healthy
        :class:`~repro.snn.engine.MapRow` holds the weights' training-format
        registers (``theta = 0``, as a fresh training network starts), and
        chunks of ``batch_size`` samples run through its one
        :class:`~repro.snn.engine.MapParallelEngine`.  A discarded
        initial-weight draw first keeps the generator where the sequential
        reference, which builds a fresh network, leaves it.  Any chunking
        (including odd tails) yields the labels of the sequential
        per-sample loop bit for bit — the engine is spike-exact
        for every batch shape, and the per-class response accumulation
        happens in dataset order either way.

        Parameters
        ----------
        weights:
            Trained weight matrix ``(n_inputs, n_neurons)``.
        dataset:
            Labelled training images, presented in order (no shuffling).
        generator:
            RNG for the Poisson encodings; consumed exactly like the
            sequential path.
        batch_size:
            Samples per engine chunk (throughput knob, not semantics).

        Returns
        -------
        numpy.ndarray
            Class label per neuron, shape ``(n_neurons,)``, dtype int64.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        config = self.network_config
        generator.random(config.n_inputs * config.n_neurons)
        quantizer = config.make_training_quantizer()
        check_weight_range(weights, quantizer)
        row = MapRow(
            raster_index=0,
            registers=quantizer.quantize(weights),
            operation_status=NeuronOperationStatus.healthy(config.n_neurons),
        )
        engine = MapParallelEngine(
            [row],
            quantizer=quantizer,
            params=config.neuron_params,
            theta=np.zeros(config.n_neurons),
            model=self._model,
        )
        encoder = config.make_encoder()
        flat_images = dataset.flattened_images()[:, np.newaxis, :]
        spike_counts = np.concatenate(
            [
                engine.run_encoded(
                    [
                        encoder.encode_batch(
                            flat_images[start : start + batch_size], rng=generator
                        )
                    ]
                ).spike_counts[0]
                for start in range(0, len(dataset), batch_size)
            ]
        )
        return neuron_labels_from_responses(
            spike_counts,
            dataset.labels,
            dataset.n_classes,
            self.training_config.label_smoothing,
        )
