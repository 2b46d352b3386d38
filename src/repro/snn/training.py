"""Unsupervised training and neuron label assignment.

The paper trains its network with unsupervised STDP (Fig. 1a) and then
assigns a class label to every excitatory neuron from its responses to the
labelled training data; at inference time the predicted class is the label
group with the highest spike count.  :class:`TrainingRunner` implements
that pipeline and produces a :class:`TrainedModel` — the "clean SNN" whose
weight statistics (``wgh_max``, ``wgh_hp``) the Bound-and-Protect
techniques use as their safe range.

Three learning modes are provided (``TrainingConfig.learning_mode``):

``"pairwise_stdp"``
    The classical trace-based pair STDP rule applied at every timestep
    (see :mod:`repro.snn.stdp`).  Most faithful to the biological rule, but
    on the small synthetic workloads used here it needs long training to
    develop class-selective receptive fields.
``"spiking_wta"``
    Sample-level winner-take-all Hebbian learning: each training image is
    presented to the spiking network (with homeostatic thresholds acting as
    a conscience), the neuron with the most output spikes is declared the
    winner, and its receptive field is moved toward the observed input
    pattern.  This is the rate-level fixed point that lateral inhibition
    plus STDP converges to, reached in far fewer presentations — the right
    trade-off for the scaled-down experiments in this reproduction.
``"fast_wta"``
    Identical update rule, but the winner is selected from the linear
    (expected-rate) response instead of a full spiking simulation.  Orders
    of magnitude faster; used by the benchmark harness where dozens of
    models must be trained.

All fault-injection experiments in the paper happen at *inference* time on a
pre-trained network, so the choice of training mode does not interact with
the fault models — it only determines the quality of the clean weights.

How the runner executes
-----------------------
The runner builds no network object: the spec is the
:class:`~repro.snn.network.NetworkConfig`, and the weights live as plain
arrays on the training register lattice.  Training cannot batch the sample
dimension the way inference does — STDP updates the weights between
timesteps, and winner-take-all learning updates them between samples — so
the runner attacks the cost that dominates the per-timestep reference
instead:

``pairwise_stdp``
    The reference rule (:meth:`repro.snn.stdp.STDPRule.step`) materialises
    two dense outer products, a dense add/subtract and a full-matrix clip
    per timestep — five traversals of the ``(n_inputs, n_neurons)`` weight
    matrix even when almost nothing spiked.  The runner advances the same
    ``(timestep, input, neuron)`` trace recursion but applies the updates
    *sparsely*: potentiation is an outer-product column update restricted
    to the neurons that spiked this step, depression a row update
    restricted to the inputs that spiked, and the clip touches only those
    rows and columns (plus one dense clip after the first timestep of each
    presentation, see the parity contract).  The membrane step is
    :func:`repro.snn.kernels.lif_learning_step`.  One dense operation per
    timestep remains — the current-accumulation GEMV, which is identical
    in both paths.
``spiking_wta`` presentations and ``"spiking"`` label assignment
    Both present samples to frozen weights, so both are inference
    workloads: one healthy :class:`~repro.snn.engine.MapRow` over the
    weights' training registers in a one-row
    :class:`~repro.snn.engine.MapParallelEngine`, advanced by
    :meth:`~repro.snn.engine.MapParallelEngine.run_encoded`.  A WTA
    presentation is a one-sample pass with the conscience as the threshold
    bias; label assignment runs the labelled training set in chunks of
    :data:`~repro.snn.kernels.DEFAULT_BATCH_SIZE` samples with
    ``theta = 0``.

Parity contract
---------------
The runner is the only production trainer.  It is **bit-identical** to the
per-timestep reference trainer :func:`repro.snn.oracle.train_sequential`
(kept for the parity suites and benches only) — same weights, same spike
counts, same neuron labels, same training history — because every
floating-point operation is either literally the same expression or an
exactness-preserving restriction of one:

* RNG draws (weight init, epoch shuffles, Poisson encodings) happen in the
  same order with the same shapes, so both paths consume identical streams;
  :meth:`TrainingRunner._initial_weights` draws, round-trips and normalises
  exactly what the oracle's freshly built training network holds after its
  first ``normalize_weights``.
* Sparse STDP updates are exact: a non-spiking column receives
  ``w + lr * (trace * 0.0) = w + 0.0 = w`` in the sequential path (bitwise
  identity for the non-negative weights this architecture produces), so
  skipping it changes nothing; a spiking column receives the same
  multiply-then-add sequence in both paths.
* The full-matrix clip is the identity on entries already inside
  ``[w_min, w_max]``.  Weights enter each presentation from a clipped
  normalisation into ``[0, w_max]``, so with ``w_min > 0`` some entries
  start below the bound: the runner clips the whole matrix once, after the
  sparse updates of the first timestep, exactly like the reference's first
  step.  From then on every entry a step leaves untouched is already in
  range, so clipping only the touched rows and columns is exact.  At
  ``w_min == 0`` the dense clip is the identity.
* WTA presentations and label assignment run through the inference
  engine, which is spike-exact against the sequential network for every
  batch shape (its register-code currents are exact integer sums, and its
  elementwise neuron updates do not depend on the array shape).

``tests/test_train_engine_parity.py`` locks the contract down across
learning modes, seeds, dataset sizes, lower weight bounds and odd
label-assignment batch tails.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data.datasets import Dataset
from repro.obs import metrics as _obs
from repro.obs.trace import span
from repro.snn.engine import MapParallelEngine, MapRow
from repro.snn.kernels import DEFAULT_BATCH_SIZE, LIFStepConfig, lif_learning_step
from repro.snn.models import DEFAULT_NEURON_MODEL
from repro.snn.network import NetworkConfig
from repro.snn.neuron import LIFParameters, NeuronOperationStatus
from repro.snn.quantization import WeightQuantizer
from repro.snn.stdp import STDPConfig
from repro.snn.synapse import check_weight_range
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.serialization import load_json, load_npz, save_json, save_npz
from repro.utils.validation import check_in_choices

__all__ = [
    "TrainingConfig",
    "TrainedModel",
    "TrainingRunner",
    "neuron_labels_from_responses",
    "wta_sample_update",
]

_LOGGER = get_logger("snn.training")

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


LEARNING_MODES = ("pairwise_stdp", "spiking_wta", "fast_wta")
LABEL_ASSIGNMENT_MODES = ("spiking", "fast")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the unsupervised training loop.

    Attributes
    ----------
    epochs:
        Number of passes over the training set (the paper uses 3).
    weight_norm_total:
        Target per-neuron incoming-weight sum applied after every update
        (Diehl & Cook style weight normalisation).
    learning_mode:
        One of ``"pairwise_stdp"``, ``"spiking_wta"``, ``"fast_wta"``
        (see the module docstring).
    label_assignment_mode:
        ``"spiking"`` assigns neuron labels from spiking responses (as the
        paper's framework does); ``"fast"`` uses the linear expected-rate
        response, which is much faster and produces near-identical labels.
    wta_learning_rate:
        Blend factor of the winner-take-all update (how far the winner's
        receptive field moves toward the presented pattern).
    conscience_increment:
        Homeostatic penalty added to a neuron's selection bias each time it
        wins, spreading wins across the population.
    conscience_decay:
        Multiplicative decay of the conscience bias applied once per sample.
    shuffle:
        Whether to reshuffle the training set every epoch.
    label_smoothing:
        Small constant added to per-class response averages before the
        argmax that assigns neuron labels, avoiding ties on silent neurons.
    """

    epochs: int = 2
    weight_norm_total: float = 3.0
    learning_mode: str = "spiking_wta"
    label_assignment_mode: str = "spiking"
    wta_learning_rate: float = 0.6
    conscience_increment: float = 0.3
    conscience_decay: float = 0.999
    shuffle: bool = True
    label_smoothing: float = 1e-9

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.weight_norm_total <= 0:
            raise ValueError(
                f"weight_norm_total must be positive, got {self.weight_norm_total}"
            )
        check_in_choices(self.learning_mode, "learning_mode", LEARNING_MODES)
        check_in_choices(
            self.label_assignment_mode,
            "label_assignment_mode",
            LABEL_ASSIGNMENT_MODES,
        )
        if not 0.0 < self.wta_learning_rate <= 1.0:
            raise ValueError(
                f"wta_learning_rate must lie in (0, 1], got {self.wta_learning_rate}"
            )
        if self.conscience_increment < 0:
            raise ValueError(
                f"conscience_increment must be non-negative, got {self.conscience_increment}"
            )
        if not 0.0 < self.conscience_decay <= 1.0:
            raise ValueError(
                f"conscience_decay must lie in (0, 1], got {self.conscience_decay}"
            )
        if self.label_smoothing < 0:
            raise ValueError(
                f"label_smoothing must be non-negative, got {self.label_smoothing}"
            )


@dataclass
class TrainedModel:
    """A trained "clean SNN": weights, homeostasis state and neuron labels.

    This object is the handover point between training and every
    fault-injection experiment: experiments quantise its weights into the
    deployed registers (:func:`repro.core.mitigation.prepare_map_assets`),
    apply a fault map to them, and run the engine over the result.  It also
    carries the clean-weight statistics the Bound-and-Protect techniques
    need.  The sequential oracle builds a network from it with
    :func:`repro.snn.oracle.build_network`.

    Attributes
    ----------
    network_config:
        Configuration the network was trained with.
    weights:
        Clean trained weight matrix ``(n_inputs, n_neurons)``.
    theta:
        Adaptive-threshold values carried into inference.
    neuron_labels:
        Class label assigned to each excitatory neuron.
    clean_max_weight:
        Maximum clean weight (the paper's ``wgh_max`` / ``wgh_th``).
    clean_most_probable_weight:
        Mode of the clean weight distribution (the paper's ``wgh_hp``).
    training_history:
        Per-epoch diagnostic statistics recorded during training.
    """

    network_config: NetworkConfig
    weights: np.ndarray
    theta: np.ndarray
    neuron_labels: np.ndarray
    clean_max_weight: float
    clean_most_probable_weight: float
    training_history: Dict[str, list] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.neuron_labels = np.asarray(self.neuron_labels, dtype=np.int64)
        expected = (self.network_config.n_inputs, self.network_config.n_neurons)
        if self.weights.shape != expected:
            raise ValueError(
                f"weights must have shape {expected}, got {self.weights.shape}"
            )
        if self.theta.shape != (self.network_config.n_neurons,):
            raise ValueError(
                f"theta must have shape ({self.network_config.n_neurons},), "
                f"got {self.theta.shape}"
            )
        if self.neuron_labels.shape != (self.network_config.n_neurons,):
            raise ValueError(
                f"neuron_labels must have shape ({self.network_config.n_neurons},), "
                f"got {self.neuron_labels.shape}"
            )
        if self.clean_max_weight < 0:
            raise ValueError("clean_max_weight must be non-negative")
        if self.clean_most_probable_weight < 0:
            raise ValueError("clean_most_probable_weight must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def n_neurons(self) -> int:
        """Number of excitatory neurons in the trained network."""
        return self.network_config.n_neurons

    @property
    def n_classes(self) -> int:
        """Number of distinct classes the neurons are labelled with."""
        if self.neuron_labels.size == 0:
            return 0
        return int(self.neuron_labels.max()) + 1

    @property
    def deployment_full_scale(self) -> float:
        """Full-scale weight value of the deployed 8-bit register format."""
        return self.network_config.make_quantizer(self.clean_max_weight).full_scale

    def to_dict(self) -> Dict[str, object]:
        """Serialisable summary (weights included) of the trained model."""
        return {
            "n_inputs": self.network_config.n_inputs,
            "n_neurons": self.network_config.n_neurons,
            "timesteps": self.network_config.timesteps,
            "clean_max_weight": self.clean_max_weight,
            "clean_most_probable_weight": self.clean_most_probable_weight,
            "neuron_labels": self.neuron_labels.tolist(),
            "theta": self.theta.tolist(),
            "weights": self.weights.tolist(),
        }

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    #: Snapshot format version written into the metadata sidecar.
    SNAPSHOT_FORMAT = 1

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the model as an ``.npz`` archive plus a ``.json`` sidecar.

        The arrays (weights, theta, neuron labels) go into ``<base>.npz``;
        everything JSON-friendly (network configuration, clean weight
        statistics, training history) into ``<base>.json``.  Campaign
        workers load this snapshot instead of retraining the clean model in
        every process.  Returns the path of the ``.npz`` archive.
        """
        base = Path(path)
        if base.suffix == ".npz":
            base = base.with_suffix("")
        npz_path = save_npz(
            {
                "weights": self.weights,
                "theta": self.theta,
                "neuron_labels": self.neuron_labels,
            },
            base.with_suffix(".npz"),
        )
        save_json(
            {
                "format": self.SNAPSHOT_FORMAT,
                "network_config": asdict(self.network_config),
                "clean_max_weight": self.clean_max_weight,
                "clean_most_probable_weight": self.clean_most_probable_weight,
                "training_history": self.training_history,
            },
            base.with_suffix(".json"),
        )
        return npz_path

    @classmethod
    def load_network_config(cls, path: Union[str, Path]) -> NetworkConfig:
        """Read just the network configuration from a snapshot's sidecar.

        Cheap metadata access for callers that need the architecture but
        not the arrays — e.g. the serving registry's in-place retrain,
        which rebuilds a model of the same shape without decoding (or
        warm-caching) the one it is about to replace.

        Parameters
        ----------
        path:
            The ``.npz`` archive, the ``.json`` sidecar or the common base
            path of a snapshot written by :meth:`save`.

        Returns
        -------
        NetworkConfig
            The configuration the snapshot's model was trained with.

        Raises
        ------
        ValueError
            If the sidecar's snapshot format is unsupported.
        """
        base = Path(path)
        if base.suffix in (".npz", ".json"):
            base = base.with_suffix("")
        metadata = load_json(base.with_suffix(".json"))
        return cls._network_config_from_metadata(metadata)

    @classmethod
    def _network_config_from_metadata(cls, metadata: Dict) -> NetworkConfig:
        """Validate a snapshot sidecar dict and rebuild its network config."""
        fmt = metadata.get("format")
        if fmt != cls.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported trained-model snapshot format {fmt!r} "
                f"(expected {cls.SNAPSHOT_FORMAT})"
            )
        config_data = dict(metadata["network_config"])
        config_data["neuron_params"] = LIFParameters(**config_data["neuron_params"])
        config_data["stdp"] = STDPConfig(**config_data["stdp"])
        return NetworkConfig(**config_data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrainedModel":
        """Load a model previously written by :meth:`save`.

        *path* may point at the ``.npz`` archive, the ``.json`` sidecar or
        the common base path.
        """
        base = Path(path)
        if base.suffix in (".npz", ".json"):
            base = base.with_suffix("")
        metadata = load_json(base.with_suffix(".json"))
        network_config = cls._network_config_from_metadata(metadata)
        arrays = load_npz(base.with_suffix(".npz"))
        return cls(
            network_config=network_config,
            weights=arrays["weights"],
            theta=arrays["theta"],
            neuron_labels=arrays["neuron_labels"],
            clean_max_weight=float(metadata["clean_max_weight"]),
            clean_most_probable_weight=float(
                metadata["clean_most_probable_weight"]
            ),
            training_history=dict(metadata.get("training_history", {})),
        )




# --------------------------------------------------------------------- #
# steps shared with the sequential oracle
# --------------------------------------------------------------------- #
def wta_sample_update(
    weights: np.ndarray,
    conscience: np.ndarray,
    wins: np.ndarray,
    flat: np.ndarray,
    responses: np.ndarray,
    config: TrainingConfig,
) -> np.ndarray:
    """One winner-take-all weight update, shared with the sequential oracle.

    Winner selection, the receptive-field blend toward the presented
    pattern, the conscience (homeostatic bias) bookkeeping, and the
    Diehl & Cook column normalisation — everything in a WTA training step
    except the presentation itself.  :meth:`TrainingRunner.train_wta` and
    the sequential oracle (:func:`repro.snn.oracle.train_sequential`) call
    this single implementation, so the two cannot drift apart.

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
        The :class:`TrainingConfig` supplying the learning rate,
        conscience and normalisation hyper-parameters.

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


class TrainingRunner:
    """Unsupervised trainer producing a :class:`TrainedModel`.

    The runner owns the full training pipeline: unsupervised weight
    learning in one of the three modes of :class:`TrainingConfig`, neuron
    label assignment, and clean-weight statistics extraction.  It is
    bit-identical to :func:`repro.snn.oracle.train_sequential` (see the
    module docstring for the parity argument).

    Parameters
    ----------
    network_config:
        Configuration of the network to train.
    training_config:
        Training-loop hyper-parameters, including the learning mode.
    """

    def __init__(
        self,
        network_config: Optional[NetworkConfig] = None,
        training_config: Optional[TrainingConfig] = None,
    ) -> None:
        self.network_config = (
            network_config if network_config is not None else NetworkConfig()
        )
        self.training_config = (
            training_config if training_config is not None else TrainingConfig()
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def train(self, dataset: Dataset, rng: RNGLike = None) -> TrainedModel:
        """Run unsupervised training followed by neuron label assignment.

        Parameters
        ----------
        dataset:
            Labelled training images whose pixel count matches the
            network's input dimension.
        rng:
            Seed or generator driving every random choice of the run
            (weight initialisation, epoch shuffles, Poisson encodings).

        Returns
        -------
        TrainedModel
            The trained clean model, including neuron labels, clean-weight
            statistics, and the per-epoch training history.

        Raises
        ------
        ValueError
            If the dataset is empty, its pixel count does not match the
            network's input dimension, or pairwise STDP is requested for a
            neuron model other than LIF.
        """
        generator = self._check_inputs(dataset, rng)
        mode = self.training_config.learning_mode
        if mode == "pairwise_stdp":
            weights, history = self.train_pairwise(dataset, generator)
        else:
            weights, history = self.train_wta(
                dataset, generator, spiking=(mode == "spiking_wta")
            )
        if self.training_config.label_assignment_mode == "spiking":
            neuron_labels = self.assign_labels_spiking(weights, dataset, generator)
        else:
            neuron_labels = self._assign_labels_fast(weights, dataset)
        return self._trained_model(weights, neuron_labels, history)

    # ------------------------------------------------------------------ #
    # pairwise STDP
    # ------------------------------------------------------------------ #
    def train_pairwise(
        self, dataset: Dataset, generator: np.random.Generator
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
        dataset: Dataset,
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
                        # One spiking presentation: a one-sample engine pass
                        # with the conscience as the threshold bias.
                        engine = self._spiking_engine(weights, conscience, quantizer)
                        raster = encoder.encode_batch(
                            flat[np.newaxis, np.newaxis, :], rng=generator
                        )
                        spike_counts = engine.run_encoded([raster]).spike_counts[0, 0]
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

    # ------------------------------------------------------------------ #
    # label assignment
    # ------------------------------------------------------------------ #
    def assign_labels_spiking(
        self,
        weights: np.ndarray,
        dataset: Dataset,
        generator: np.random.Generator,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> np.ndarray:
        """Spiking-mode neuron label assignment in true inference batches.

        The trained weights are frozen here, so the labelled training set
        is a plain inference workload: chunks of ``batch_size`` samples run
        through one engine over the weights' training registers with
        ``theta = 0``, as a fresh training network starts.  A discarded
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
        engine = self._spiking_engine(
            weights, np.zeros(config.n_neurons), config.make_training_quantizer()
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

    def _spiking_engine(
        self, weights: np.ndarray, theta: np.ndarray, quantizer: WeightQuantizer
    ) -> MapParallelEngine:
        """One-row engine presenting samples to the frozen *weights*.

        The row is one healthy :class:`~repro.snn.engine.MapRow` over
        *quantizer*'s registers of *weights* (range-checked as
        ``set_weights`` does), and *theta* is the threshold bias.
        """
        check_weight_range(weights, quantizer)
        config = self.network_config
        row = MapRow(
            raster_index=0,
            registers=quantizer.quantize(weights),
            operation_status=NeuronOperationStatus.healthy(config.n_neurons),
        )
        return MapParallelEngine(
            [row],
            quantizer=quantizer,
            params=config.neuron_params,
            theta=theta,
            model=config.neuron_model,
        )

    # ------------------------------------------------------------------ #
    # pipeline steps shared with the sequential oracle
    # ------------------------------------------------------------------ #
    def _check_inputs(
        self, dataset: Dataset, rng: RNGLike
    ) -> np.random.Generator:
        """Validate the training inputs; returns the resolved generator."""
        if len(dataset) == 0:
            raise ValueError("training dataset must not be empty")
        if dataset.n_pixels != self.network_config.n_inputs:
            raise ValueError(
                f"dataset has {dataset.n_pixels} pixels per image but the network "
                f"expects {self.network_config.n_inputs} inputs"
            )
        neuron_model = getattr(
            self.network_config, "neuron_model", DEFAULT_NEURON_MODEL
        )
        if (
            self.training_config.learning_mode == "pairwise_stdp"
            and neuron_model != DEFAULT_NEURON_MODEL
        ):
            # Pairwise STDP (lif_learning_step here, LIFNeuronGroup in the
            # oracle) advances LIF only.
            raise ValueError(
                "pairwise_stdp training supports only the "
                f"{DEFAULT_NEURON_MODEL!r} neuron model, got {neuron_model!r}; "
                "use spiking_wta or fast_wta for other models"
            )
        return resolve_rng(rng)

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

    def _assign_labels_fast(
        self, weights: np.ndarray, dataset: Dataset
    ) -> np.ndarray:
        """Label neurons from the linear expected-rate response (no RNG)."""
        flat_images = dataset.flattened_images()
        # Normalise each image to unit total intensity so the linear
        # responses are comparable across samples with different amounts
        # of "ink", mirroring the encoder's per-sample rate normalisation.
        totals = flat_images.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return neuron_labels_from_responses(
            (flat_images / totals) @ weights,
            dataset.labels,
            dataset.n_classes,
            self.training_config.label_smoothing,
        )

    def _trained_model(
        self,
        weights: np.ndarray,
        neuron_labels: np.ndarray,
        history: Dict[str, list],
    ) -> TrainedModel:
        """Assemble the clean model and its weight statistics."""
        return TrainedModel(
            network_config=self.network_config,
            weights=weights,
            # Homeostatic bias is a training-time device; inference starts
            # from the base threshold, as in the deployed accelerator whose
            # neuron parameters are loaded fresh for the inference phase.
            theta=np.zeros(self.network_config.n_neurons),
            neuron_labels=neuron_labels,
            clean_max_weight=float(weights.max()),
            clean_most_probable_weight=self._most_probable_weight(weights),
            training_history=history,
        )

    def _most_probable_weight(self, weights: np.ndarray, bins: int = 64) -> float:
        """Mode of the non-zero clean weight distribution (``wgh_hp``).

        The histogram spans the occupied range ``[0, max_weight]``, so the
        mode is resolved at the granularity of the weights that exist, and
        the result never exceeds ``max_weight``.  Its first bin is skipped:
        training drives many weights to (near) zero, and BnP3 substitutes
        the most probable *informative* weight for out-of-range values.
        """
        max_weight = float(weights.max())
        if max_weight <= 0:
            return 0.0
        counts, edges = np.histogram(weights, bins=bins, range=(0.0, max_weight))
        if counts.size > 1:
            counts = counts[1:]
            edges = edges[1:]
        if counts.sum() == 0:
            return 0.0
        index = int(np.argmax(counts))
        return float(min(0.5 * (edges[index] + edges[index + 1]), max_weight))

