"""Experiment configuration and clean-model preparation.

Every accuracy figure in the paper starts from the same ingredients: a
workload (MNIST or Fashion-MNIST, here their synthetic substitutes), a
network size, and a trained clean model.  :class:`ExperimentRunner` prepares
those ingredients once and caches them, so a sweep over five fault rates and
five techniques does not retrain the network twenty-five times.

The default experiment sizes are deliberately scaled down from the paper's
(N400…N3600 neurons, 60 k training images) so the full benchmark suite runs
on a laptop in minutes; the scaling is recorded in EXPERIMENTS.md and every
size is configurable for users who want to run closer to the paper's scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.data.datasets import Dataset, load_workload, train_test_split
from repro.snn.encoding import DEFAULT_ENCODING, get_encoder
from repro.snn.models import DEFAULT_NEURON_MODEL, get_model
from repro.snn.network import NetworkConfig
from repro.snn.neuron import LIFParameters
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "PreparedExperiment",
    "prepare_datasets",
]

_LOGGER = get_logger("eval.experiment")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one accuracy experiment.

    Attributes
    ----------
    workload:
        ``"mnist"`` or ``"fashion-mnist"`` (synthetic substitutes).
    n_neurons:
        Excitatory population size of the evaluated network.
    n_train / n_test:
        Number of training / test images to generate.
    timesteps:
        Presentation duration per sample.
    epochs:
        Training epochs.
    learning_mode / label_assignment_mode:
        Forwarded to :class:`~repro.snn.training.TrainingConfig`; the
        benchmark harness uses the fast modes.
    seed:
        Root seed; all randomness of the experiment derives from it.
    paper_network_size:
        The paper network size this configuration stands in for (e.g. the
        scaled-down N400 proxy); purely documentation carried into reports.
    eval_batch_size:
        Number of test samples the inference engine classifies
        together; forward it to :class:`~repro.eval.sweep.FaultRateSweep`
        or :meth:`MitigationTechnique.evaluate` calls built from this
        configuration.
    model:
        Registered neuron-model name (:mod:`repro.snn.models`) the network
        simulates; the default LIF keeps every pre-existing label, seed
        stream and serialised form byte-identical.
    encoding:
        Registered input-encoding name (:mod:`repro.snn.encoding`); same
        byte-stability contract as ``model``.
    """

    workload: str = "mnist"
    n_neurons: int = 100
    n_train: int = 240
    n_test: int = 60
    timesteps: int = 150
    epochs: int = 2
    learning_mode: str = "fast_wta"
    label_assignment_mode: str = "fast"
    seed: int = 0
    paper_network_size: Optional[int] = None
    neuron_params: LIFParameters = field(default_factory=LIFParameters)
    eval_batch_size: int = 64
    model: str = DEFAULT_NEURON_MODEL
    encoding: str = DEFAULT_ENCODING

    def __post_init__(self) -> None:
        if self.n_neurons <= 0:
            raise ValueError(f"n_neurons must be positive, got {self.n_neurons}")
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.eval_batch_size <= 0:
            raise ValueError(
                f"eval_batch_size must be positive, got {self.eval_batch_size}"
            )
        # Fail at configuration time on unknown registry names, exactly as
        # NetworkConfig does.
        get_model(self.model)
        get_encoder(self.encoding)

    # ------------------------------------------------------------------ #
    def network_config(self) -> NetworkConfig:
        """Network configuration described by this experiment."""
        return NetworkConfig(
            n_inputs=784,
            n_neurons=self.n_neurons,
            timesteps=self.timesteps,
            neuron_params=self.neuron_params,
            neuron_model=self.model,
            encoding=self.encoding,
        )

    def training_config(self) -> TrainingConfig:
        """Training configuration described by this experiment."""
        return TrainingConfig(
            epochs=self.epochs,
            learning_mode=self.learning_mode,
            label_assignment_mode=self.label_assignment_mode,
        )

    def with_network_size(
        self, n_neurons: int, paper_network_size: Optional[int] = None
    ) -> "ExperimentConfig":
        """Copy of this configuration with a different population size."""
        return replace(
            self, n_neurons=n_neurons, paper_network_size=paper_network_size
        )

    def label(self) -> str:
        """Compact identifier used in reports (e.g. ``mnist/N100``).

        Non-default neuron models and encodings are appended (e.g.
        ``mnist/N100/cuba_lif+ttfs``); the default LIF/Poisson combination
        keeps the historical two-part label, so pre-existing seed streams,
        campaign fingerprints and store records are byte-identical.
        """
        size = (
            f"N{self.paper_network_size}(scaled to {self.n_neurons})"
            if self.paper_network_size
            else f"N{self.n_neurons}"
        )
        base = f"{self.workload}/{size}"
        variant = [
            part
            for part, default in (
                (self.model, DEFAULT_NEURON_MODEL),
                (self.encoding, DEFAULT_ENCODING),
            )
            if part != default
        ]
        if variant:
            return f"{base}/{'+'.join(variant)}"
        return base

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (nested parameter dataclasses included).

        The ``model`` and ``encoding`` keys are omitted at their defaults,
        so serialised configurations predating the neuron-model zoo —
        and their fingerprints — are reproduced byte for byte.
        """
        data = asdict(self)
        if self.model == DEFAULT_NEURON_MODEL:
            del data["model"]
        if self.encoding == DEFAULT_ENCODING:
            del data["encoding"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        This is the hand-over format between a campaign orchestrator and
        its worker processes, which regenerate the (cheap, synthetic)
        datasets locally instead of receiving them over the pipe.
        """
        payload = dict(data)
        payload["neuron_params"] = LIFParameters(**payload["neuron_params"])
        return cls(**payload)


def prepare_datasets(
    config: ExperimentConfig, seeds: SeedSequenceFactory
) -> Tuple[Dataset, Dataset]:
    """Generate and split the datasets of *config*, deterministically.

    The generation and split streams are keyed by the experiment label and
    seed through *seeds*, so any process holding the same root seed — the
    runner that trains the model, or a campaign worker that only evaluates
    it — reconstructs bit-identical train and test sets.
    """
    data_rng = seeds.rng_for(f"data/{config.label()}/{config.seed}")
    dataset = load_workload(
        config.workload, n_samples=config.n_train + config.n_test, rng=data_rng
    )
    split_rng = seeds.rng_for(f"split/{config.label()}/{config.seed}")
    return train_test_split(
        dataset,
        test_fraction=config.n_test / (config.n_train + config.n_test),
        rng=split_rng,
    )


@dataclass
class PreparedExperiment:
    """A trained model plus the datasets it was trained and evaluated on."""

    config: ExperimentConfig
    model: TrainedModel
    train_set: Dataset
    test_set: Dataset


class ExperimentRunner:
    """Prepares (and caches) the clean models behind the accuracy figures.

    Parameters
    ----------
    root_seed:
        Root seed of the deterministic per-experiment seed factory.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.seeds = SeedSequenceFactory(root_seed=root_seed)
        self._cache: Dict[ExperimentConfig, PreparedExperiment] = {}

    # ------------------------------------------------------------------ #
    def prepare(self, config: ExperimentConfig) -> PreparedExperiment:
        """Generate data and train the clean model for *config* (cached).

        The frozen configuration itself is the cache key: every field —
        including ``paper_network_size``, which participates in the
        seed-stream label, and the neuron parameters — distinguishes the
        prepared assets, so two configurations that differ anywhere never
        alias each other's model or datasets.
        """
        key = config
        if key in self._cache:
            return self._cache[key]

        train_set, test_set = prepare_datasets(config, self.seeds)

        _LOGGER.info(
            "training clean model for %s (%d train / %d test samples)",
            config.label(),
            len(train_set),
            len(test_set),
        )
        trainer = TrainingRunner(config.network_config(), config.training_config())
        train_rng = self.seeds.rng_for(f"train/{config.label()}/{config.seed}")
        model = trainer.train(train_set, rng=train_rng)

        prepared = PreparedExperiment(
            config=config, model=model, train_set=train_set, test_set=test_set
        )
        self._cache[key] = prepared
        return prepared

    def clear_cache(self) -> None:
        """Drop all cached prepared experiments."""
        self._cache.clear()
