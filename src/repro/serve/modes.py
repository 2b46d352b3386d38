"""Fault-aware serving modes: clean, faulty, protected.

The paper's story is a *live* contrast: the same accelerator delivers full
accuracy when healthy, degrades badly under soft errors, and recovers almost
completely once Bound-and-Protect is switched on.  The serving layer makes
that contrast observable from a single running service — every registered
model can be queried in three modes:

``clean``
    The trained model's registers exactly as deployed; no faults, no
    mitigation.
``faulty``
    A fault map drawn at a configurable rate (reusing the
    :mod:`repro.faults` model, weight-register bit flips and/or faulty
    neuron operations) strikes the deployed registers and neuron
    operations.  The map is drawn from a fixed seed so the served "damaged
    accelerator" is a reproducible object, exactly like a campaign trial.
``protected``
    The same fault map, served through SoftSNN's mitigation: the BnP
    weight bounding of Eq. 1 on the registers read, plus neuron protection
    gating faulty-reset bursts inside the engine's timestep loop — the row
    :class:`~repro.core.mitigation.BnPTechnique` plans for a campaign cell.

A :class:`ServingSession` is the executable form of one ``(model, mode)``
pair: the one :class:`~repro.snn.engine.MapRow` its technique plans for the
mode's fault map, in a one-row engine.  Serving is **stateless per
request**: every request is classified as if presented to the freshly
loaded accelerator (requests coalesced into one micro-batch are simulated
independently via ``carry_reset_latch=False``, all from the healthy entry
latch), and every request carries its own encoding seed.  Both properties
together make the served prediction a pure function of ``(model, mode,
image, seed)`` — the contract the scheduler-parity tests pin down.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.bound_and_protect import BnPVariant
from repro.core.mitigation import (
    BnPTechnique,
    NoMitigation,
    fault_map_generator,
    prepare_map_assets,
)
from repro.faults.models import ComputeEngineFaultConfig
from repro.snn.engine import MapParallelEngine, MapParallelResult
from repro.snn.inference import class_indicator
from repro.snn.training import TrainedModel
from repro.utils.validation import check_probability

__all__ = [
    "DEFAULT_FAULT_SEED",
    "DEFAULT_MODE",
    "MODE_KINDS",
    "ServingMode",
    "ServingSession",
    "build_session",
]

#: The three serving modes, in degraded-vs-mitigated story order.
MODE_KINDS = ("clean", "faulty", "protected")

#: Mode of a request that names none.
DEFAULT_MODE = "clean"

#: Fault-map seed of a ``faulty`` or ``protected`` request that names none.
DEFAULT_FAULT_SEED = 2022


def _real_field(key: str, value: Any) -> float:
    """A request's numeric field: a JSON number, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer_field(key: str, value: Any) -> int:
    """A request's integer field: an integral JSON number (``3`` or ``3.0``)."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral):
        return int(value)
    if not _real_field(key, value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ServingMode:
    """Declarative description of how a model is served.

    Attributes
    ----------
    kind:
        ``"clean"``, ``"faulty"`` or ``"protected"``.
    fault_rate:
        Probability that any potential fault location of the compute engine
        is struck (ignored for ``clean``, which forces it to 0).
    fault_seed:
        Seed of the fault-map draw — the served fault pattern is a
        reproducible object, so restarting the service (or building a
        reference session in a test) recreates the identical damage.
    inject_synapses / inject_neurons:
        Which parts of the compute engine the fault map may strike.
    variant:
        BnP variant used by ``protected`` mode.
    protection_trigger_cycles:
        Consecutive above-threshold cycles that flag a faulty reset (2 in
        the paper).
    """

    kind: str
    fault_rate: float = 0.0
    fault_seed: int = DEFAULT_FAULT_SEED
    inject_synapses: bool = True
    inject_neurons: bool = True
    variant: BnPVariant = BnPVariant.BNP3
    protection_trigger_cycles: int = 2

    def __post_init__(self) -> None:
        if self.kind not in MODE_KINDS:
            raise ValueError(
                f"mode kind must be one of {MODE_KINDS}, got {self.kind!r}"
            )
        check_probability(self.fault_rate, "fault_rate")
        if self.kind == "clean" and self.fault_rate != 0.0:
            raise ValueError("clean mode must not carry a fault rate")
        if self.kind != "clean" and self.fault_rate == 0.0:
            raise ValueError(
                f"{self.kind} mode needs a positive fault_rate "
                "(otherwise it serves the clean network)"
            )
        if not isinstance(self.variant, BnPVariant):
            raise TypeError(
                f"variant must be a BnPVariant, got {type(self.variant).__name__}"
            )
        if self.protection_trigger_cycles < 1:
            raise ValueError("protection_trigger_cycles must be at least 1")

    # ------------------------------------------------------------------ #
    @classmethod
    def clean(cls) -> "ServingMode":
        """The unfaulted, unmitigated serving mode."""
        return cls(kind="clean")

    @classmethod
    def faulty(
        cls, fault_rate: float, fault_seed: int = DEFAULT_FAULT_SEED
    ) -> "ServingMode":
        """Fault injection at *fault_rate* with no mitigation."""
        return cls(kind="faulty", fault_rate=fault_rate, fault_seed=fault_seed)

    @classmethod
    def protected(
        cls,
        fault_rate: float,
        fault_seed: int = DEFAULT_FAULT_SEED,
        variant: BnPVariant = BnPVariant.BNP3,
    ) -> "ServingMode":
        """Fault injection at *fault_rate* served through BnP mitigation."""
        return cls(
            kind="protected",
            fault_rate=fault_rate,
            fault_seed=fault_seed,
            variant=variant,
        )

    @classmethod
    def from_request(
        cls,
        spec: Any,
        default_fault_rate: float = 0.05,
    ) -> "ServingMode":
        """Build a mode from a request payload (a kind string or a dict).

        Accepted forms::

            "faulty"
            {"kind": "protected", "fault_rate": 0.1, "variant": "bnp1"}

        A missing fault rate falls back to *default_fault_rate* and a
        missing fault seed to :data:`DEFAULT_FAULT_SEED`, so a client can
        simply ask for ``"faulty"`` and get the service's configured damage
        level.
        """
        if spec is None:
            spec = DEFAULT_MODE
        if isinstance(spec, ServingMode):
            return spec
        if isinstance(spec, str):
            spec = {"kind": spec}
        if not isinstance(spec, dict):
            raise ValueError(
                f"mode must be a string, dict or ServingMode, got {type(spec).__name__}"
            )
        payload = dict(spec)
        kind = str(payload.pop("kind", "clean")).strip().lower()
        kwargs: Dict[str, Any] = {"kind": kind}
        if kind != "clean":
            kwargs["fault_rate"] = _real_field(
                "fault_rate", payload.pop("fault_rate", default_fault_rate)
            )
            kwargs["fault_seed"] = _integer_field(
                "fault_seed", payload.pop("fault_seed", DEFAULT_FAULT_SEED)
            )
        else:
            payload.pop("fault_rate", None)
            payload.pop("fault_seed", None)
        if "variant" in payload:
            variant = payload.pop("variant")
            kwargs["variant"] = (
                variant
                if isinstance(variant, BnPVariant)
                else BnPVariant(str(variant).strip().lower())
            )
        for key in ("inject_synapses", "inject_neurons"):
            if key in payload:
                flag = payload.pop(key)
                if not isinstance(flag, bool):
                    raise ValueError(
                        f"{key} must be a boolean, got {type(flag).__name__}"
                    )
                kwargs[key] = flag
        if "protection_trigger_cycles" in payload:
            kwargs["protection_trigger_cycles"] = _integer_field(
                "protection_trigger_cycles", payload.pop("protection_trigger_cycles")
            )
        if payload:
            raise ValueError(f"unknown mode fields: {sorted(payload)}")
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    @property
    def cache_key(self) -> Tuple:
        """Hashable identity of the mode among a service's warm pipelines.

        The fields of :meth:`to_dict`: those the mode's kind serves by
        (a clean mode ignores the fault and protection fields).
        """
        return tuple(self.to_dict().items())

    @property
    def label(self) -> str:
        """Readable name of the mode, distinct for distinct :attr:`cache_key`.

        The values of :meth:`to_dict` joined by ``:`` — ``clean``,
        ``faulty:0.1:7:True:True`` or ``protected:0.1:7:True:True:bnp3:2``.
        """
        return ":".join(str(value) for value in self.to_dict().values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly description echoed back in service responses."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.kind != "clean":
            payload["fault_rate"] = self.fault_rate
            payload["fault_seed"] = self.fault_seed
            payload["inject_synapses"] = self.inject_synapses
            payload["inject_neurons"] = self.inject_neurons
        if self.kind == "protected":
            payload["variant"] = self.variant.value
            payload["protection_trigger_cycles"] = self.protection_trigger_cycles
        return payload

    def fault_config(self) -> Optional[ComputeEngineFaultConfig]:
        """The fault-injection configuration of this mode (``None`` for clean)."""
        if self.kind == "clean":
            return None
        return ComputeEngineFaultConfig(
            fault_rate=self.fault_rate,
            inject_synapses=self.inject_synapses,
            inject_neurons=self.inject_neurons,
        )


@dataclass
class ServingSession:
    """One ``(model, mode)`` pair, ready to classify micro-batches.

    Sessions are built by :func:`build_session`, kept warm in the service's
    ``(model, mode)`` pipelines, and driven by exactly one scheduler worker
    thread — the session itself performs no locking.  The session is the
    mode's one :class:`~repro.snn.engine.MapRow` in its
    :class:`~repro.snn.engine.MapParallelEngine`, the model's encoder and
    its class-indicator votes; the engine keeps all per-run state in
    :class:`~repro.snn.engine.MapParallelState`, so nothing is mutated
    after construction, and rebuilding a session from the same model and
    mode reproduces it exactly.
    """

    model: TrainedModel
    mode: ServingMode
    engine: MapParallelEngine
    encoder: Any
    votes: np.ndarray

    # ------------------------------------------------------------------ #
    @property
    def n_inputs(self) -> int:
        """Flattened input dimension of the served model."""
        return self.engine.n_inputs

    def classify_batch(
        self, images: Sequence[np.ndarray], seeds: Sequence[int]
    ) -> Tuple[np.ndarray, MapParallelResult]:
        """Classify one micro-batch of independent requests.

        Each ``(image, seed)`` pair is encoded from its own generator — what
        makes a prediction independent of how requests are batched: the
        raster of request *i* is the same whether it is flushed alone or
        coalesced with thirty-one strangers.  The rasters are stacked and
        advanced together through the engine in stateless mode
        (``carry_reset_latch=False``, every request entering with the
        healthy latch of a freshly loaded accelerator), and the spike counts
        are turned into class votes.  Returns ``(predictions, result)``.
        """
        if len(images) != len(seeds):
            raise ValueError("images and seeds must have the same length")
        if not images:
            raise ValueError("micro-batch must not be empty")
        rasters = np.stack(
            [
                self.encoder.encode(
                    np.asarray(image, dtype=np.float64).reshape(-1), rng=int(seed)
                )
                for image, seed in zip(images, seeds)
            ]
        )
        result = self.engine.run_encoded([rasters], carry_reset_latch=False)
        votes = result.spike_counts[0].astype(np.float64) @ self.votes
        return np.argmax(votes, axis=1).astype(np.int64), result


def build_session(model: TrainedModel, mode: ServingMode) -> ServingSession:
    """Plan the one engine row of ``(model, mode)``, as a campaign cell does.

    The fault map is drawn from ``mode.fault_seed`` over the model's
    deployed registers, turned into the map's corrupted registers and
    operation status, and planned into one row by
    :class:`~repro.core.mitigation.NoMitigation` (clean, faulty) or
    :class:`~repro.core.mitigation.BnPTechnique` (protected: the Eq. 1
    bounding rule plus the protection trigger).  Construction is
    deterministic, so two sessions built from the same arguments serve
    bit-identical predictions — the property the parity tests and the CI
    smoke check rely on.
    """
    config = mode.fault_config()
    fault_maps = None
    if config is not None:
        fault_maps = [
            fault_map_generator(model).generate(config, rng=mode.fault_seed)
        ]
    technique = (
        BnPTechnique(mode.variant, mode.protection_trigger_cycles)
        if mode.kind == "protected"
        else NoMitigation()
    )
    assets = prepare_map_assets(model, fault_maps, 1)
    network_config = model.network_config
    engine = MapParallelEngine(
        technique.plan_rows(model, assets).rows,
        quantizer=network_config.make_quantizer(model.clean_max_weight),
        params=network_config.neuron_params,
        theta=model.theta,
        model=network_config.neuron_model,
    )
    return ServingSession(
        model=model,
        mode=mode,
        engine=engine,
        encoder=network_config.make_encoder(),
        votes=class_indicator(model.neuron_labels),
    )
