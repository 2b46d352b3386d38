"""Unsupervised training and neuron label assignment.

The paper trains its network with unsupervised STDP (Fig. 1a) and then
assigns a class label to every excitatory neuron from its responses to the
labelled training data; at inference time the predicted class is the label
group with the highest spike count.  :class:`TrainingRunner` (historically
exported as :class:`STDPTrainer`, which remains an alias) implements that
pipeline and produces a :class:`TrainedModel` — the "clean SNN" whose weight
statistics (``wgh_max``, ``wgh_hp``) the Bound-and-Protect techniques use as
their safe range.

Training runs through the vectorized engine of
:mod:`repro.snn.train_engine`, which is bit-identical to the per-timestep
reference trainer :func:`repro.snn.oracle.train_sequential`; like the
inference oracle next to it, the reference exists only for the parity
suites and benches.

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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.data.datasets import Dataset
from repro.snn.models import DEFAULT_NEURON_MODEL
from repro.snn.network import NetworkConfig
from repro.snn.neuron import LIFParameters
from repro.snn.stdp import STDPConfig
from repro.snn.train_engine import (
    VectorizedTrainingEngine,
    neuron_labels_from_responses,
)
from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.serialization import load_json, load_npz, save_json, save_npz
from repro.utils.validation import check_in_choices

__all__ = ["TrainingConfig", "TrainedModel", "TrainingRunner", "STDPTrainer"]

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


class TrainingRunner:
    """Unsupervised trainer producing a :class:`TrainedModel`.

    The runner owns the full training pipeline: unsupervised weight
    learning in one of the three modes of :class:`TrainingConfig`, neuron
    label assignment, and clean-weight statistics extraction.  The weight
    learning and the spiking label assignment execute through the
    bit-exact :class:`~repro.snn.train_engine.VectorizedTrainingEngine`.

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
        engine = VectorizedTrainingEngine(self.network_config, self.training_config)
        mode = self.training_config.learning_mode
        if mode == "pairwise_stdp":
            weights, history = engine.train_pairwise(dataset, generator)
        else:
            weights, history = engine.train_wta(
                dataset, generator, spiking=(mode == "spiking_wta")
            )
        if self.training_config.label_assignment_mode == "spiking":
            neuron_labels = engine.assign_labels_spiking(weights, dataset, generator)
        else:
            neuron_labels = self._assign_labels_fast(weights, dataset)
        return self._trained_model(weights, neuron_labels, history)

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
            # Pairwise STDP (the engine's lif_learning_step fast path and
            # the oracle's LIFNeuronGroup reference) advances LIF only.
            raise ValueError(
                "pairwise_stdp training supports only the "
                f"{DEFAULT_NEURON_MODEL!r} neuron model, got {neuron_model!r}; "
                "use spiking_wta or fast_wta for other models"
            )
        return resolve_rng(rng)

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
        """Mode of the non-zero clean weight distribution (``wgh_hp``)."""
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


#: Backward-compatible alias: the trainer predates the vectorized engine
#: and was exported as ``STDPTrainer``; existing imports keep working.
STDPTrainer = TrainingRunner
