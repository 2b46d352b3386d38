"""Pluggable neuron-model layer: the spec the engines dispatch through.

The paper's question — does fault tolerance survive rising soft-error
rates — was originally answered for exactly one neuron model, because the
Diehl&Cook-style LIF update was baked into the kernels, all three engines
and the trainer.  This module lifts the dynamics behind a small
name-registered spec so the same fault-injection, mitigation and campaign
machinery runs over a *zoo* of models:

``lif`` (default)
    The existing leaky integrate-and-fire dynamics
    (:class:`repro.snn.kernels.LIFDynamics`), pinned bit for bit to the
    pre-zoo behaviour.
``cuba_lif``
    A current-based (CUBA) leaky LIF with a ``du/dv``-style synaptic
    current state, after lava's floating-point LIF process model
    (:class:`repro.snn.kernels.CUBADynamics`).
``fixed_point_lif``
    A bit-accurate fixed-point LIF with mantissa/exponent weight scaling
    and truncating-shift leak, after lava's Loihi fixed-point model
    (:class:`repro.snn.kernels.FixedPointDynamics`).

The spec contract
-----------------
A :class:`NeuronModel` owns scalar hyper-parameters and one factory,
:meth:`~NeuronModel.dynamics`, returning the model's
:class:`~repro.snn.kernels.NeuronDynamics` for one advance call: its
domain constants (``v_reset``, ``v_min``, inhibition strength,
threshold), its ``leak``, its per-timestep ``drive`` and its ``finish``.
Those hooks are the whole contract.  :meth:`NeuronModel.advance`, defined
once here, runs them inside the one timestep skeleton
(:func:`repro.snn.kernels.advance_timesteps`), which owns everything else:
the paper's four faultable hardware operations — Vmem increase, Vmem
leak, Vmem reset, spike generation — gated by the caller's
:class:`~repro.snn.kernels.OperationMasks`, the faulty-reset latch, the
lateral-inhibition term, the latched-membrane pinning, the
neuron-protection ``triggers``, strictly in-place state and no
per-timestep allocation.  A model therefore cannot get those wrong, and
composes with every mitigation technique unchanged.

Models are registered by name (:func:`register_model`); the snapshot
sidecar records the name through ``NetworkConfig.neuron_model``, so the
model registry and serving layer load and serve any registered model
transparently — and sidecars written before this layer existed simply
default to ``lif``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.snn.kernels import (
    CUBADynamics,
    FixedPointDynamics,
    KernelWorkspace,
    LIFDynamics,
    LIFStepConfig,
    NeuronDynamics,
    OperationMasks,
    advance_timesteps,
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

    Subclasses set :attr:`name` and implement :meth:`dynamics`; the default
    :meth:`step_config` extracts the scalar LIF parameter subset every
    shipped model consumes (models with extra hyper-parameters carry them
    on the instance, not in the config).
    """

    #: Registry name; also what ``NetworkConfig.neuron_model`` records.
    name: str = ""

    def step_config(self, params: "LIFParameters") -> LIFStepConfig:
        """Scalar per-timestep configuration derived from *params*."""
        return LIFStepConfig.from_params(params)

    def dynamics(
        self, config: LIFStepConfig, threshold: np.ndarray, v: np.ndarray
    ) -> NeuronDynamics:
        """Build this model's dynamics for one advance call over *v*.

        *config* and *threshold* are in float units.  A model whose
        membrane lives in another domain moves *v* into it here, in place,
        and back in the dynamics' ``finish``.
        """
        raise NotImplementedError

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
        dynamics: Optional[NeuronDynamics] = None,
    ) -> None:
        """Advance ``(rows, batch, n)`` state over *currents*' timesteps in place.

        Runs the model's dynamics through
        :func:`repro.snn.kernels.advance_timesteps`, whose docstring
        describes every argument; *threshold* and *config* are in float
        units and reach the loop through the dynamics.

        Without *dynamics* the call is a whole pass: it builds
        :meth:`dynamics` over *v*, advances every timestep of *currents*
        and finishes them.  A caller feeding one pass in timestep blocks
        builds the dynamics once itself, passes them to every block's
        call and calls their ``finish`` after the last block — so CUBA's
        synaptic current carries across blocks and the fixed-point
        membrane enters and leaves its integer domain once.
        """
        pass_owner = dynamics is None
        if pass_owner:
            dynamics = self.dynamics(config, threshold, v)
        advance_timesteps(
            dynamics,
            currents,
            output,
            v,
            refractory,
            counter,
            disabled,
            latched,
            comparator,
            spikes,
            masks,
            config.refractory_period,
            workspace,
            triggers=triggers,
        )
        if pass_owner:
            dynamics.finish(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class LIFModel(NeuronModel):
    """The default Diehl&Cook-style LIF."""

    name = "lif"

    def dynamics(
        self, config: LIFStepConfig, threshold: np.ndarray, v: np.ndarray
    ) -> NeuronDynamics:
        """Float LIF dynamics (:class:`repro.snn.kernels.LIFDynamics`)."""
        return LIFDynamics(config, threshold)


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

    def dynamics(
        self, config: LIFStepConfig, threshold: np.ndarray, v: np.ndarray
    ) -> NeuronDynamics:
        """CUBA dynamics (:class:`repro.snn.kernels.CUBADynamics`)."""
        return CUBADynamics(config, threshold, v.shape, self.current_decay)


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

    def dynamics(
        self, config: LIFStepConfig, threshold: np.ndarray, v: np.ndarray
    ) -> NeuronDynamics:
        """Integer-grid dynamics (:class:`repro.snn.kernels.FixedPointDynamics`).

        Building them floors *v* onto the grid in place.
        """
        return FixedPointDynamics(
            config, threshold, v, self.weight_exp, self.decay_bits
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
