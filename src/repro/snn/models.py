"""Pluggable neuron-model layer: the spec the engines dispatch through.

The paper's question — does fault tolerance survive rising soft-error
rates — was originally answered for exactly one neuron model, because the
Diehl&Cook-style LIF update was baked into the kernels, all three engines
and the trainer.  This module lifts the dynamics behind a small
name-registered spec so the same fault-injection, mitigation and campaign
machinery runs over a *zoo* of models:

``lif`` (default)
    The existing leaky integrate-and-fire dynamics, dispatching verbatim
    to :func:`repro.snn.kernels.lif_advance` — bit-identical to the
    pre-refactor behaviour by construction.
``cuba_lif``
    A current-based (CUBA) leaky LIF with a ``du/dv``-style synaptic
    current state, after lava's floating-point LIF process model
    (:func:`repro.snn.kernels.cuba_advance`).
``fixed_point_lif``
    A bit-accurate fixed-point LIF with mantissa/exponent weight scaling
    and truncating-shift leak, after lava's Loihi fixed-point model
    (:func:`repro.snn.kernels.fixed_point_advance`).

The spec contract
-----------------
A :class:`NeuronModel` owns scalar hyper-parameters and one method,
:meth:`~NeuronModel.advance`, with exactly the signature of
:func:`~repro.snn.kernels.lif_advance`: it advances ``(rows, batch, n)``
state over all timesteps **strictly in place** (never swapping the state
arrays, so live step hooks keep observing them) and performs no
per-timestep allocation beyond the caller's :class:`~repro.snn.kernels.
KernelWorkspace`.  The per-timestep update must decompose into the
paper's four faultable hardware operations — Vmem increase, Vmem leak,
Vmem reset, spike generation — gated by the caller's
:class:`~repro.snn.kernels.OperationMasks`, and must honour the
faulty-reset latch, the lateral-inhibition term, the latched-membrane
pinning and the neuron-protection ``triggers``.  Models observing that
contract compose with every mitigation technique unchanged.

Models are registered by name (:func:`register_model`); the snapshot
sidecar records the name through ``NetworkConfig.neuron_model``, so the
model registry and serving layer load and serve any registered model
transparently — and sidecars written before this layer existed simply
default to ``lif``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from repro.snn.kernels import (
    KernelWorkspace,
    LIFStepConfig,
    OperationMasks,
    cuba_advance,
    fixed_point_advance,
    lif_advance,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.snn.neuron import LIFParameters

__all__ = [
    "DEFAULT_NEURON_MODEL",
    "NeuronModel",
    "LIFModel",
    "CurrentLIFModel",
    "FixedPointLIFModel",
    "available_models",
    "get_model",
    "register_model",
    "resolve_model",
]

#: Name of the model every pre-existing configuration resolves to.
DEFAULT_NEURON_MODEL = "lif"


class NeuronModel:
    """Base spec of a registered neuron model.

    Subclasses set :attr:`name` and implement :meth:`advance`; the default
    :meth:`step_config` extracts the scalar LIF parameter subset every
    shipped model consumes (models with extra hyper-parameters carry them
    on the instance, not in the config).
    """

    #: Registry name; also what ``NetworkConfig.neuron_model`` records.
    name: str = ""

    def step_config(self, params: "LIFParameters") -> LIFStepConfig:
        """Scalar per-timestep configuration derived from *params*."""
        return LIFStepConfig.from_params(params)

    def advance(
        self,
        currents: np.ndarray,
        output: np.ndarray,
        v: np.ndarray,
        refractory: np.ndarray,
        counter: np.ndarray,
        disabled: np.ndarray,
        latched: np.ndarray,
        comparator: np.ndarray,
        spikes: np.ndarray,
        masks: OperationMasks,
        threshold: np.ndarray,
        config: LIFStepConfig,
        workspace: KernelWorkspace,
        triggers: Optional[np.ndarray] = None,
        step_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        """Advance ``(rows, batch, n)`` state over all timesteps in place.

        The signature — and the in-place / four-faultable-operations
        contract — is exactly that of
        :func:`repro.snn.kernels.lif_advance`; see the module docstring.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class LIFModel(NeuronModel):
    """The default Diehl&Cook-style LIF: a verbatim ``lif_advance`` dispatch.

    Delegating unchanged to the existing kernel is what makes the refactor
    bit-identical for every pre-existing configuration.
    """

    name = "lif"

    def advance(self, *args, **kwargs) -> None:
        """Dispatch to :func:`repro.snn.kernels.lif_advance` unchanged."""
        lif_advance(*args, **kwargs)


class CurrentLIFModel(NeuronModel):
    """Current-based (CUBA) leaky LIF with ``du/dv`` synaptic-current state.

    Parameters
    ----------
    current_decay:
        Per-timestep retention factor of the synaptic current ``u``
        (lava's ``1 - du``); each step ``u = u * current_decay + input``
        and the membrane integrates ``u``.
    """

    name = "cuba_lif"

    def __init__(self, current_decay: float = 0.5) -> None:
        if not 0.0 <= current_decay < 1.0:
            raise ValueError(
                f"current_decay must lie in [0, 1), got {current_decay}"
            )
        self.current_decay = float(current_decay)

    def advance(self, *args, **kwargs) -> None:
        """Dispatch to :func:`repro.snn.kernels.cuba_advance`."""
        cuba_advance(*args, current_decay=self.current_decay, **kwargs)


class FixedPointLIFModel(NeuronModel):
    """Bit-accurate fixed-point LIF with mantissa/exponent weight scaling.

    Parameters
    ----------
    weight_exp:
        Shared exponent of the fixed-point grid: membranes and currents
        are integer mantissas scaled by ``2**weight_exp``.
    decay_bits:
        Precision of the leak factor, applied as a truncating
        ``>> decay_bits`` shift (12 on Loihi).
    """

    name = "fixed_point_lif"

    def __init__(self, weight_exp: int = 6, decay_bits: int = 12) -> None:
        if weight_exp < 0 or weight_exp > 16:
            raise ValueError(f"weight_exp must lie in [0, 16], got {weight_exp}")
        if decay_bits < 1 or decay_bits > 24:
            raise ValueError(f"decay_bits must lie in [1, 24], got {decay_bits}")
        self.weight_exp = int(weight_exp)
        self.decay_bits = int(decay_bits)

    def advance(self, *args, **kwargs) -> None:
        """Dispatch to :func:`repro.snn.kernels.fixed_point_advance`."""
        fixed_point_advance(
            *args,
            weight_exp=self.weight_exp,
            decay_bits=self.decay_bits,
            **kwargs,
        )


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, NeuronModel] = {}


def register_model(model: NeuronModel, replace: bool = False) -> NeuronModel:
    """Register *model* under its :attr:`~NeuronModel.name`.

    Registration makes the name valid everywhere a model is selected:
    ``NetworkConfig.neuron_model``, the campaign ``models`` axis and the
    CLI ``--models`` flag.  Re-registering an existing name requires
    ``replace=True`` — silent shadowing of a shipped model would corrupt
    parity guarantees.
    """
    if not model.name:
        raise ValueError("model must define a non-empty name")
    if model.name in _REGISTRY and not replace:
        raise ValueError(
            f"neuron model {model.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[model.name] = model
    return model


def get_model(name: str) -> NeuronModel:
    """Return the registered model *name*; raise with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown neuron model {name!r}; available: "
            f"{', '.join(available_models())}"
        ) from None


def available_models() -> List[str]:
    """Sorted names of every registered neuron model."""
    return sorted(_REGISTRY)


def resolve_model(model: Union[None, str, NeuronModel]) -> NeuronModel:
    """Normalise a model selector: ``None`` → default, name → lookup."""
    if model is None:
        return get_model(DEFAULT_NEURON_MODEL)
    if isinstance(model, NeuronModel):
        return model
    return get_model(str(model))


register_model(LIFModel())
register_model(CurrentLIFModel())
register_model(FixedPointLIFModel())
