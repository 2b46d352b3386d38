"""Fused compute kernels of the inference engine and the trainer.

The inference engine (:class:`repro.snn.engine.MapParallelEngine`) — which
also runs every spiking presentation and the spiking label assignment of
:class:`repro.snn.training.TrainingRunner` — is built on two primitives:
the exact integer register-code GEMM that accumulates input
currents, and the elementwise timestep advance of the neuron model.  This
module owns those primitives (plus the Bound-and-Protect
bounding-correction decomposition) so every perf tier is bought once.

The three primitives
--------------------
``register_gemm`` / ``exact_gemm_dtype`` / ``exact_scale``
    Stored weights are ``code * scale`` with integer codes, so crossbar
    current accumulation factorises as ``(spikes @ codes) * scale``.  The
    inner matmul only ever adds integers bounded by
    ``n_inputs * max_code``; every summation order computes such sums
    exactly, so the result is bitwise identical for any operand shape and
    BLAS kernel.  When the bound fits the 24-bit float32
    mantissa the (much faster) SGEMM is exact too —
    :func:`exact_gemm_dtype` is that capability probe, decided **once** per
    register geometry and cached, instead of re-evaluated per call in each
    engine.

``advance_timesteps`` + :class:`NeuronDynamics`
    The one in-place timestep loop over ``(rows, batch, neurons)`` state,
    run over one block of timesteps per call (the engine streams a pass
    block by block with one dynamics object) and shared by every neuron model: leak, integrate,
    clamp, threshold comparator, spike gating, reset + refractory entry,
    faulty-reset latching, lateral inhibition, latched-membrane pinning
    and (optionally) the neuron-protection trigger.  The loop owns every
    statement the models share, so the paper's four faultable operations,
    the latch and Bound-and-Protect's protection are gated in exactly one
    place; a model plugs in only its sub-threshold dynamics
    (:class:`LIFDynamics`, :class:`CUBADynamics`,
    :class:`FixedPointDynamics`): domain constants, ``leak``, ``drive``
    and ``finish`` — after lava's LIF process models, where one
    ``run_spk`` serves the float and the bit-accurate variants.  All
    scratch lives in a caller-owned :class:`KernelWorkspace` allocated
    once per run and reused across timesteps, blocks and chunks — the hot
    loop performs no per-timestep array allocation, and writes spikes
    straight into the output raster.  The fault gates touch only what is
    faulty: the leak runs over every membrane and the few leak-faulty
    ones are written back, the latch pin is one dense ``maximum`` against
    a floor that is ``-inf`` off the latched neurons, and the refractory
    counter is a last-reset timestep read by one compare.  Every
    statement is a bitwise-identical reformulation of the sequential
    :meth:`repro.snn.neuron.LIFNeuronGroup.step` expressions (IEEE
    elementwise operations are independent of broadcast shape;
    ``copyto`` with ``where=`` is ``np.where`` with an explicit
    destination; a non-negative drive times the 0/1 integrate mask is
    ``where(mask, drive, 0.0)``; the integer counter, refractory and
    spike-count updates are exact; :func:`advance_timesteps` lists each
    equivalence).
    State arrays are mutated strictly in place — never swapped — so the
    caller's arrays always hold the advanced state.

``plan_bounding_correction`` / ``bounding_correction_terms`` /
``apply_bounding_correction``
    The Bound-and-Protect bounded current splits exactly as
    ``(base - masked) * scale + substitute * hits``: ``masked`` and
    ``hits`` only involve the (usually few) out-of-range synapses, so rows
    sharing a base GEMM share everything but two small correction GEMMs.
    All three terms are exact integer sums, so the decomposition is
    bitwise identical to the per-map
    :class:`repro.snn.synapse._BoundedCurrentOperator`.

What deliberately stays outside
-------------------------------
The pairwise-STDP learning loop interleaves plasticity (trace updates,
sparse weight writes, adaptive-threshold decay) with the membrane advance
and multiplies spikes with *dense float training weights* — not register
codes — so it contains neither primitive; its healthy single-sample
membrane step is exposed here as :func:`lif_learning_step` so the timestep
arithmetic still has exactly one home.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.snn.neuron import LIFParameters, NeuronOperationStatus
    from repro.snn.quantization import WeightQuantizer

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "FLOAT32_EXACT_SUM_LIMIT",
    "NO_PROTECTION_TRIGGER",
    "BoundingCorrection",
    "CUBADynamics",
    "FixedPointDynamics",
    "KernelWorkspace",
    "LIFDynamics",
    "LIFStepConfig",
    "NeuronDynamics",
    "OperationMasks",
    "advance_timesteps",
    "apply_bounding_correction",
    "bounding_correction_terms",
    "exact_gemm_dtype",
    "exact_scale",
    "lif_learning_step",
    "plan_bounding_correction",
    "register_gemm",
]

# Kernel telemetry (docs/observability.md): per-primitive call counts and
# cumulative nanoseconds; the advance is labelled by its dynamics'
# ``kernel`` name, one per model.  The ``backend`` label keeps the
# catalog's series names; numpy is the only implementation.
# Children are cached in a plain dict so the hot path pays one dict lookup
# and two counter adds — the perf bench bounds this at ≤ 2 % of kernel time.
_KERNEL_CALLS = _obs.get_registry().counter(
    "softsnn_kernel_calls_total",
    "Kernel invocations by primitive and executed backend.",
    labels=("kernel", "backend"),
)
_KERNEL_NS = _obs.get_registry().counter(
    "softsnn_kernel_ns_total",
    "Cumulative wall time inside kernel invocations, nanoseconds.",
    labels=("kernel", "backend"),
)
_BACKEND = "numpy"
_KERNEL_CHILDREN: Dict[str, Tuple[object, object]] = {}


def _record_kernel(kernel: str, elapsed_ns: int) -> None:
    """Account one kernel invocation to the call/time counters."""
    pair = _KERNEL_CHILDREN.get(kernel)
    if pair is None:
        pair = (
            _KERNEL_CALLS.labels(kernel=kernel, backend=_BACKEND),
            _KERNEL_NS.labels(kernel=kernel, backend=_BACKEND),
        )
        _KERNEL_CHILDREN[kernel] = pair
    pair[0].inc()
    pair[1].inc(elapsed_ns)


#: Largest integer magnitude the float32 mantissa holds exactly.  Register
#: codes are non-negative, so no partial sum of a column accumulation ever
#: exceeds the final ``n_inputs * max_code`` bound; the float32 GEMM is
#: exact iff that bound is ``<= 2**24``.
FLOAT32_EXACT_SUM_LIMIT = 1 << 24

#: Trigger sentinel for rows without neuron protection: the comparator
#: counter can never reach it, so the gate stays open.
NO_PROTECTION_TRIGGER = np.iinfo(np.int64).max

#: Engine chunk size wherever the caller gives none.
DEFAULT_BATCH_SIZE = 64


# ---------------------------------------------------------------------- #
# exact register-code GEMM
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _exact_gemm_dtype_cached(n_inputs: int, max_code: int) -> np.dtype:
    """Cached body of :func:`exact_gemm_dtype` (the one-time probe)."""
    if n_inputs * max_code <= FLOAT32_EXACT_SUM_LIMIT:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def exact_gemm_dtype(n_inputs: int, max_code: int) -> np.dtype:
    """Smallest float dtype whose matmul is exact for register-code sums.

    A crossbar column sum is at most ``n_inputs * max_code``, and codes are
    non-negative, so no partial sum exceeds that bound.  When the bound
    fits the 24-bit float32 mantissa (``<= 2**24``), every product and
    every partial sum of the GEMM is exactly representable in float32 and
    the (much faster) SGEMM returns the same integers as a float64 GEMM —
    the same integers for every operand shape, summation order and BLAS
    kernel.  The decision is a pure function of the register geometry, so
    it is probed once per ``(n_inputs, max_code)`` and cached process-wide.
    """
    return _exact_gemm_dtype_cached(int(n_inputs), int(max_code))


def register_gemm(
    spikes: np.ndarray, codes: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact integer register-code GEMM: ``(m, n_inputs) @ (n_inputs, n)``.

    ``codes`` must already be in the dtype :func:`exact_gemm_dtype` chose
    for its geometry; ``spikes`` (boolean or 0/1 rows) is cast to match.
    The accumulated entries are exact integers in either float precision,
    so every BLAS kernel returns bitwise identical results.  *out*, when
    given, is a C-contiguous ``(m, n)`` array of the codes' dtype the
    product is written into (the engine's per-block accumulator rows).
    """
    start_ns = time.perf_counter_ns()
    result = np.matmul(
        np.asarray(spikes).astype(codes.dtype, copy=False), codes, out=out
    )
    if _obs.enabled():
        _record_kernel("register_gemm", time.perf_counter_ns() - start_ns)
    return result


def exact_scale(
    accumulated: np.ndarray, factor: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Multiply exact integer-valued accumulators by a float64 factor.

    The accumulator entries are integers held exactly in either float
    precision, so widening to float64 during the multiply yields bitwise
    identical currents regardless of the GEMM dtype.
    """
    return np.multiply(accumulated, factor, dtype=np.float64, out=out)


# ---------------------------------------------------------------------- #
# Bound-and-Protect bounding correction
# ---------------------------------------------------------------------- #
@dataclass
class BoundingCorrection:
    """Precomputed operands of the BnP bounding-correction decomposition.

    The bounded current of a register array splits exactly as
    ``(base - masked) * scale + substitute * hits``: ``masked_codes`` holds
    the codes of the out-of-range synapses (zero elsewhere) and
    ``mask_codes`` their 0/1 indicator, so rows sharing a base GEMM and a
    bounding threshold share one correction pair.  When only a few input
    lines feed bounded synapses, ``columns`` restricts the correction
    GEMMs to those rows of the spike matrix (exact — the dropped terms are
    all zero).  ``is_empty`` marks thresholds no stored weight reaches.
    ``masked_codes`` is ``None`` when the base GEMM already runs on the kept
    codes (no row reads the unbounded sum), leaving only the ``hits`` term.
    ``n_bounded`` counts the bounded synapses.
    """

    columns: Optional[np.ndarray]
    masked_codes: Optional[np.ndarray]
    mask_codes: np.ndarray
    is_empty: bool = False
    n_bounded: int = 0


def plan_bounding_correction(
    registers: np.ndarray,
    threshold: float,
    quantizer: "WeightQuantizer",
) -> BoundingCorrection:
    """Precompute the bounding-correction operands for one threshold.

    Mirrors the comparator of the Bound-and-Protect hardware: a synapse is
    *bounded* when its stored (dequantised) weight is ``>= threshold``.
    """
    registers = np.asarray(registers)
    n_inputs = int(registers.shape[0])
    gemm_dtype = exact_gemm_dtype(n_inputs, quantizer.max_code)
    weights = quantizer.dequantize(registers)
    mask = weights >= threshold
    n_bounded = int(np.count_nonzero(mask))
    columns = np.flatnonzero(mask.any(axis=1))
    if columns.size == 0:
        return BoundingCorrection(
            columns=None,
            masked_codes=np.zeros((0, 0)),
            mask_codes=np.zeros((0, 0)),
            is_empty=True,
        )
    masked_codes = np.where(mask, registers, 0).astype(gemm_dtype)
    mask_codes = mask.astype(gemm_dtype)
    if columns.size <= n_inputs // 2:
        # Only a few input lines feed bounded synapses: restrict the
        # correction GEMMs to those columns (exact — the dropped terms
        # are all zero).
        return BoundingCorrection(
            columns=columns,
            masked_codes=np.ascontiguousarray(masked_codes[columns]),
            mask_codes=np.ascontiguousarray(mask_codes[columns]),
            n_bounded=n_bounded,
        )
    return BoundingCorrection(
        columns=None,
        masked_codes=masked_codes,
        mask_codes=mask_codes,
        n_bounded=n_bounded,
    )


def bounding_correction_terms(
    flat_spikes: np.ndarray,
    correction: BoundingCorrection,
    out: Optional[Tuple[Optional[np.ndarray], np.ndarray]] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """The correction GEMMs ``(masked, hits)`` for pre-cast spike rows.

    ``masked`` is ``None`` when the correction carries no masked codes.
    *out*, when given, is the ``(masked, hits)`` pair of destination rows
    (see :func:`register_gemm`), with ``None`` for an absent ``masked``.
    """
    masked_out, hits_out = (None, None) if out is None else out
    if correction.columns is None:
        spikes = flat_spikes
    else:
        spikes = flat_spikes[:, correction.columns]
    masked = None
    if correction.masked_codes is not None:
        masked = register_gemm(spikes, correction.masked_codes, out=masked_out)
    return masked, register_gemm(spikes, correction.mask_codes, out=hits_out)


def apply_bounding_correction(
    base: np.ndarray,
    masked: Optional[np.ndarray],
    hits: np.ndarray,
    scale: float,
    substitute: float,
    out: np.ndarray,
) -> np.ndarray:
    """Combine ``(base - masked) * scale + substitute * hits`` into *out*.

    All three operands are exact integer accumulators, so the combination
    is bitwise identical to the per-map bounded operator for any GEMM
    dtype (:func:`exact_scale`).  ``masked=None`` means *base* already
    sums only the in-range (kept) synapses.
    """
    exact_scale(base if masked is None else base - masked, scale, out=out)
    out += exact_scale(hits, substitute)
    return out


# ---------------------------------------------------------------------- #
# the timestep skeleton and its per-model dynamics
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LIFStepConfig:
    """Scalar LIF parameters the per-model dynamics are built from."""

    v_rest: float
    v_reset: float
    v_min: float
    membrane_decay: float
    refractory_period: int
    inhibition_strength: float

    @classmethod
    def from_params(cls, params: "LIFParameters") -> "LIFStepConfig":
        """Extract the scalar subset of :class:`LIFParameters` kernels need."""
        return cls(
            v_rest=float(params.v_rest),
            v_reset=float(params.v_reset),
            v_min=float(params.v_min),
            membrane_decay=float(params.membrane_decay),
            refractory_period=int(params.refractory_period),
            inhibition_strength=float(params.inhibition_strength),
        )


class OperationMasks:
    """Per-row health masks of the four LIF hardware operations.

    Arrays have shape ``(n_rows, n_neurons)``; the ``all_*`` flags let the
    kernels specialise away a fault switch when every neuron is healthy
    for that operation (a pure boolean identity, so the arithmetic is
    unchanged).  :meth:`leak_faults` lists the leak-faulty entries of a
    state block as flat indices, built once per batch size and kept, so
    the loop gates the leak on the faulty neurons only.
    """

    __slots__ = (
        "leak_ok",
        "increase_ok",
        "reset_ok",
        "spike_ok",
        "all_leak",
        "all_increase",
        "all_reset",
        "all_spike",
        "_leak_faults",
    )

    def __init__(
        self,
        leak_ok: np.ndarray,
        increase_ok: np.ndarray,
        reset_ok: np.ndarray,
        spike_ok: np.ndarray,
    ) -> None:
        self.leak_ok = leak_ok
        self.increase_ok = increase_ok
        self.reset_ok = reset_ok
        self.spike_ok = spike_ok
        self.all_leak = bool(leak_ok.all())
        self.all_increase = bool(increase_ok.all())
        self.all_reset = bool(reset_ok.all())
        self.all_spike = bool(spike_ok.all())
        self._leak_faults: Dict[int, np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        """Number of mask rows (concurrently simulated configurations)."""
        return int(self.leak_ok.shape[0])

    @classmethod
    def stack(
        cls, statuses: Sequence["NeuronOperationStatus"]
    ) -> "OperationMasks":
        """Stack per-row statuses into ``(n_rows, n_neurons)`` masks."""
        return cls(
            np.stack([s.vmem_leak_ok for s in statuses]),
            np.stack([s.vmem_increase_ok for s in statuses]),
            np.stack([s.vmem_reset_ok for s in statuses]),
            np.stack([s.spike_generation_ok for s in statuses]),
        )

    @classmethod
    def healthy(cls, n_neurons: int) -> "OperationMasks":
        """All-healthy single-row masks."""
        ones = np.ones((1, n_neurons), dtype=bool)
        return cls(ones, ones, ones, ones)

    def leak_faults(self, batch: int) -> np.ndarray:
        """Flat indices of the leak-faulty entries of a ``(rows, batch, n)`` block.

        Every sample of a row shares the row's faulty neurons; the indices
        are in ascending order and computed once per *batch*.
        """
        index = self._leak_faults.get(batch)
        if index is None:
            n_rows, n_neurons = self.leak_ok.shape
            index = np.flatnonzero(
                np.broadcast_to(
                    ~self.leak_ok[:, np.newaxis, :], (n_rows, batch, n_neurons)
                )
            )
            self._leak_faults[batch] = index
        return index

    def rows(self, rows: np.ndarray) -> "OperationMasks":
        """Masks of the rows indexed by *rows* (flags recomputed)."""
        return OperationMasks(
            self.leak_ok[rows],
            self.increase_ok[rows],
            self.reset_ok[rows],
            self.spike_ok[rows],
        )


class KernelWorkspace:
    """Caller-owned scratch buffers of :func:`advance_timesteps`.

    One workspace is allocated per engine (or run) and reused across every
    timestep and every chunk: :meth:`ensure` reallocates only when the
    ``(rows, batch, neurons)`` block shape actually changes, so steady-state
    simulation performs no per-timestep — and between equal-shaped chunks
    no per-chunk — array allocation.  The buffer set matches what one
    timestep needs: two float64 scratch blocks, two boolean scratch blocks,
    the last-reset timestep of every neuron, the latch pin's floor, an
    int16 copy of the protection counter, the lateral inhibition's
    ``(rows, batch, 1)`` spike count and its per-neuron integer
    difference, and the membranes of the leak-faulty neurons
    (:meth:`kept`, sized by the masks).
    """

    __slots__ = (
        "shape",
        "vbuf",
        "fbuf",
        "active",
        "boolbuf",
        "last_reset",
        "pin_floor",
        "counter16",
        "countbuf",
        "diffbuf",
        "_kept",
    )

    def __init__(self) -> None:
        self.shape: Optional[Tuple[int, int, int]] = None
        self.vbuf: Optional[np.ndarray] = None
        self.fbuf: Optional[np.ndarray] = None
        self.active: Optional[np.ndarray] = None
        self.boolbuf: Optional[np.ndarray] = None
        self.last_reset: Optional[np.ndarray] = None
        self.pin_floor: Optional[np.ndarray] = None
        self.counter16: Optional[np.ndarray] = None
        self.countbuf: Optional[np.ndarray] = None
        self.diffbuf: Optional[np.ndarray] = None
        self._kept = np.empty(0, dtype=np.float64)

    def ensure(self, shape: Tuple[int, int, int]) -> "KernelWorkspace":
        """Size the buffers for one ``(rows, batch, neurons)`` block shape.

        The spike count is int16 whenever a row of neurons fits it, which
        is what makes the inhibition's integer passes cheap.
        """
        shape = tuple(int(extent) for extent in shape)
        if self.shape != shape:
            count_dtype = np.int16 if shape[2] <= np.iinfo(np.int16).max else np.int64
            self.shape = shape
            self.vbuf = np.empty(shape, dtype=np.float64)
            self.fbuf = np.empty(shape, dtype=np.float64)
            self.active = np.empty(shape, dtype=bool)
            self.boolbuf = np.empty(shape, dtype=bool)
            self.last_reset = np.empty(shape, dtype=np.int64)
            self.pin_floor = np.empty(shape, dtype=np.float64)
            self.counter16 = np.empty(shape, dtype=np.int16)
            self.countbuf = np.empty(shape[:2] + (1,), dtype=count_dtype)
            self.diffbuf = np.empty(shape, dtype=count_dtype)
        return self

    def kept(self, size: int) -> np.ndarray:
        """The float64 buffer of *size* the faulty leak gate gathers into."""
        if self._kept.size != size:
            self._kept = np.empty(size, dtype=np.float64)
        return self._kept


class NeuronDynamics:
    """What one neuron model adds to the shared timestep skeleton.

    :func:`advance_timesteps` owns every statement the models share —
    integrate gating, the ``v_min`` clamp, the comparator and protection
    counter, spike gating, reset / refractory entry, the faulty-reset
    latch, lateral inhibition, latch pinning, the output write and the
    protection triggers.  A dynamics object supplies
    only what differs between models:

    * the domain constants ``v_reset``, ``v_min``, ``inhibition`` and
      ``threshold``, in the units the membrane holds during the call;
    * :meth:`leak`, the membrane leak;
    * :meth:`drive`, the per-timestep quantity the membrane integrates;
      it must be non-negative (see :func:`advance_timesteps`);
    * :meth:`finish`, run once after the last timestep.

    One instance is built per simulation *pass* over a ``v`` block and
    advanced across every block of timesteps the pass feeds the loop, so
    per-presentation state (the CUBA synaptic current) lives on it and
    carries from block to block.  A model whose membrane lives in another
    domain (the fixed-point grid) moves ``v`` into it when the instance is
    built and back in :meth:`finish`, once per pass.  ``kernel`` is the
    label of the ``softsnn_kernel_{calls,ns}_total`` series each advance
    call is timed under.
    """

    kernel: str = "advance"
    v_reset: float
    v_min: float
    inhibition: float
    threshold: np.ndarray

    def leak(self, v: np.ndarray, out: np.ndarray) -> None:
        """Write the leaked membrane of *v* into *out* (may be *v* itself)."""
        raise NotImplementedError

    def drive(self, current: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Return this timestep's membrane drive for input *current*.

        *scratch* is a ``(rows, batch, n)`` float64 buffer the dynamics
        may overwrite; the returned array is read before the next call.
        """
        raise NotImplementedError

    def finish(self, v: np.ndarray) -> None:
        """Leave the model's membrane domain after the last timestep."""


class LIFDynamics(NeuronDynamics):
    """Float LIF: exponential leak towards ``v_rest``, raw input drive."""

    kernel = "lif_advance"

    def __init__(self, config: LIFStepConfig, threshold: np.ndarray) -> None:
        self.v_reset = config.v_reset
        self.v_min = config.v_min
        self.inhibition = config.inhibition_strength
        self.threshold = threshold
        self._v_rest = config.v_rest
        self._decay = config.membrane_decay

    def leak(self, v: np.ndarray, out: np.ndarray) -> None:
        """``v_rest + (v - v_rest) * membrane_decay``."""
        np.subtract(v, self._v_rest, out=out)
        np.multiply(out, self._decay, out=out)
        np.add(out, self._v_rest, out=out)

    def drive(self, current: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The membrane integrates the input current itself."""
        return current


class CUBADynamics(LIFDynamics):
    """Current-based LIF: the membrane integrates a decaying current ``u``.

    ``u`` starts at zero for every presentation (it is per-sample
    dynamics, like the membrane), so it is allocated here, once per pass,
    and carries across the pass's timestep blocks.
    Its accumulation is crossbar arithmetic, not a Vmem operation, so it
    runs for every neuron; ``increase_ok`` gates only ``v += u``.
    """

    kernel = "cuba_advance"

    def __init__(
        self,
        config: LIFStepConfig,
        threshold: np.ndarray,
        shape: Tuple[int, ...],
        current_decay: float,
    ) -> None:
        super().__init__(config, threshold)
        self._current_decay = float(current_decay)
        self._u = np.zeros(shape, dtype=np.float64)

    def drive(self, current: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``u = u * current_decay + current``; the membrane integrates ``u``."""
        np.multiply(self._u, self._current_decay, out=self._u)
        np.add(self._u, current, out=self._u)
        return self._u


class FixedPointDynamics(NeuronDynamics):
    """Loihi-style integer LIF on a ``2**weight_exp`` grid.

    Membranes and drives are integer mantissas of the grid, held exactly
    in float64 (magnitudes stay far below ``2**53``), so every operation
    is exact and independent of batch shape and chunking.  Construction
    floors ``v`` onto the grid in place and :meth:`finish` divides it back
    (exactly, by a power of two), so ``v`` enters and leaves the call in
    float units.
    """

    kernel = "fixed_point_advance"

    def __init__(
        self,
        config: LIFStepConfig,
        threshold: np.ndarray,
        v: np.ndarray,
        weight_exp: int,
        decay_bits: int,
    ) -> None:
        scale = float(1 << int(weight_exp))
        self._scale = scale
        decay_unit = float(1 << int(decay_bits))
        self._decay_step = 1.0 / decay_unit
        self._decay = float(int(round(config.membrane_decay * decay_unit)))
        self._v_rest = float(np.floor(config.v_rest * scale))
        self.v_reset = float(np.floor(config.v_reset * scale))
        self.v_min = float(np.floor(config.v_min * scale))
        self.inhibition = float(np.floor(config.inhibition_strength * scale))
        self.threshold = np.floor(np.asarray(threshold, dtype=np.float64) * scale)
        np.multiply(v, scale, out=v)
        np.floor(v, out=v)

    def leak(self, v: np.ndarray, out: np.ndarray) -> None:
        """``v_rest + ((v - v_rest) * d) >> decay_bits``, ``d`` quantised."""
        np.subtract(v, self._v_rest, out=out)
        np.multiply(out, self._decay, out=out)
        # Exactly floor_divide by 2**decay_bits: the product is an integer
        # mantissa, so scaling it by a power of two is exact (signed zeros
        # included) and the floor is the arithmetic shift.
        np.multiply(out, self._decay_step, out=out)
        np.floor(out, out=out)
        np.add(out, self._v_rest, out=out)

    def drive(self, current: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The input current floored onto the grid."""
        np.multiply(current, self._scale, out=scratch)
        np.floor(scratch, out=scratch)
        return scratch

    def finish(self, v: np.ndarray) -> None:
        """Divide ``v`` back to float units."""
        np.divide(v, self._scale, out=v)


def advance_timesteps(
    dynamics: NeuronDynamics,
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
    refractory_period: int,
    workspace: KernelWorkspace,
    triggers: Optional[np.ndarray] = None,
) -> None:
    """Advance ``(rows, batch, neurons)`` neuron state over a block of timesteps.

    This is the one timestep loop every engine and every neuron model
    runs.  Per timestep it applies, in order: (2) the model's membrane
    leak, (1) integration of the model's drive with the ``v_min`` clamp,
    (4) threshold comparator + consecutive-above-threshold counter + spike
    gating, (3) reset / refractory entry with faulty-reset latching,
    lateral inhibition, latched-membrane pinning and optional
    neuron-protection trigger gating — exactly the operation sequence of
    the sequential :meth:`repro.snn.neuron.LIFNeuronGroup.step` plus the
    post-step gate of the oracle's
    :class:`~repro.core.bound_and_protect.NeuronProtection` monitor.

    A pass may feed its timesteps in consecutive blocks, one call each,
    with the same *dynamics* and state arrays: the loop keeps no state of
    its own between timesteps, so any blocking advances bit-identically
    to one call over the whole presentation.  The loop never calls
    ``dynamics.finish`` — the owner of the pass does, after its last
    block (:meth:`repro.snn.models.NeuronModel.advance`).

    Parameters
    ----------
    dynamics:
        The model's :class:`NeuronDynamics`, built once for the pass.
    currents:
        Input currents of this block, timestep-major
        ``(timesteps, rows, batch, n)`` float64.  Every drive the dynamics
        derive from them must be non-negative — register-code currents
        are (codes, scale and the BnP substitute are), and so is every
        shipped drive — because the integrate step multiplies the drive by
        the 0/1 integrate mask: ``drive * 0.0`` is ``+0.0`` for a
        non-negative drive, so the product equals the sequential
        ``where(integrate, drive, 0.0)`` bit for bit.
    output:
        Boolean output raster ``(timesteps, rows, batch, n)`` of this
        block; each timestep's spikes are computed directly into it.
    v / refractory / counter / disabled / latched:
        The live state arrays ``(rows, batch, n)``, advanced strictly in
        place (never reassigned or swapped), so the caller's arrays hold
        the state after the block's last timestep.  ``v`` must be
        C-contiguous when a neuron's leak is faulty (the leak gate writes
        through a flat view of it).
    comparator / spikes:
        Caller-owned result buffers ``(rows, batch, n)``: ``comparator`` is
        written every timestep; after the call both hold the block's final
        timestep's values.
    masks:
        Per-row operation health (:class:`OperationMasks`).
    refractory_period:
        Timesteps a reset neuron stays refractory.
    workspace:
        Scratch buffers (:class:`KernelWorkspace`), reused across calls.
    triggers:
        Optional per-row protection triggers ``(rows,)`` int64
        (:data:`NO_PROTECTION_TRIGGER` keeps a row ungated); ``None``
        skips protection entirely.

    Every statement is a bitwise-identical reformulation of the sequential
    expressions:

    * in-place ufunc chains evaluate the same IEEE operations element by
      element, whatever the broadcast shape;
    * the leak runs over every membrane in place, and the leak-faulty
      entries (:meth:`OperationMasks.leak_faults`) are gathered before it
      and written back after it — ``where(leak_ok, leaked, v)`` entry by
      entry;
    * ``copyto(..., where=...)`` is ``np.where`` with an explicit
      destination;
    * the latch pin ``where(latched, maximum(v, threshold), v)`` is
      ``maximum(v, floor)`` with a floor of ``threshold`` on latched
      neurons and ``-inf`` elsewhere, where ``maximum(v, -inf)`` is ``v``
      bit for bit; the floor changes only when a neuron newly latches;
    * ``comparator > disabled`` is ``comparator & ~disabled`` on booleans,
      and is skipped when no neuron can be disabled during the call (no
      triggers, none disabled on entry);
    * the refractory counter is kept as each neuron's last-reset timestep
      ``L``: a neuron entering with ``refractory = r`` starts at
      ``L = r - refractory_period - 1``, integrates at step ``t`` iff
      ``L < t - refractory_period`` (``refractory <= 0`` in the
      counter's terms), and leaves with
      ``refractory = max(L + refractory_period + 1 - timesteps, 0)`` —
      exact integer arithmetic;
    * the inhibition's spike count and ``count - spike`` are the same
      small integers in int16 as in float64, and int16 to float64 is
      exact, so ``strength * (count - spike)`` is unchanged;
    * the protection counter update is exact integer arithmetic, run in
      int16 when every count the call can reach fits it and in int64
      otherwise.

    The loop touches only the caller's arrays, the workspace buffers and
    the dynamics' own per-pass state — nothing is allocated per timestep.
    """
    start_ns = time.perf_counter_ns()
    ws = workspace.ensure(v.shape)
    vbuf = ws.vbuf
    fbuf = ws.fbuf
    active = ws.active
    boolbuf = ws.boolbuf
    last_reset = ws.last_reset
    pin_floor = ws.pin_floor
    countbuf = ws.countbuf
    diffbuf = ws.diffbuf

    leak = dynamics.leak
    drive = dynamics.drive
    v_reset = dynamics.v_reset
    v_min = dynamics.v_min
    strength = dynamics.inhibition
    threshold = dynamics.threshold

    increase_ok = masks.increase_ok[:, np.newaxis, :]
    reset_ok = masks.reset_ok[:, np.newaxis, :]
    spike_ok = masks.spike_ok[:, np.newaxis, :]
    all_increase = masks.all_increase
    all_reset = masks.all_reset
    all_spike = masks.all_spike
    reset_bad = None if all_reset else ~reset_ok
    if masks.all_leak:
        leak_faults = kept = v_flat = None
    else:
        if not v.flags.c_contiguous:
            raise ValueError("a leak-faulty advance needs a C-contiguous v")
        leak_faults = masks.leak_faults(v.shape[1])
        kept = ws.kept(leak_faults.size)
        v_flat = v.reshape(-1)
    trig = (
        None
        if triggers is None
        else np.asarray(triggers, dtype=np.int64).reshape(-1, 1, 1)
    )
    # Without triggers nothing disables a neuron during the call, so a
    # gate that is all-open on entry stays open.
    gate_disabled = trig is not None or bool(disabled.any())

    timesteps = currents.shape[0]
    # The protection counter grows by at most one per timestep.  When every
    # value it can reach in this call fits int16, it runs in the
    # workspace's int16 copy (and triggers beyond that range are clipped
    # to its edges, which no count reaches); otherwise in place.
    count = counter
    if counter.size:
        low, high = np.iinfo(np.int16).min, np.iinfo(np.int16).max
        if int(counter.min()) >= low and int(counter.max()) + timesteps < high:
            count = ws.counter16
            np.copyto(count, counter, casting="unsafe")
            if trig is not None:
                trig = np.clip(trig, low, high).astype(np.int16)
    if timesteps:
        np.subtract(refractory, refractory_period + 1, out=last_reset)
    # The latch pin is max(v, pin_floor): the threshold on latched
    # neurons, -inf (an exact no-op) elsewhere.
    any_latched = False
    if timesteps and not all_reset:
        np.copyto(pin_floor, -np.inf)
        any_latched = bool(latched.any())
        if any_latched:
            np.copyto(pin_floor, threshold, where=latched)
    for t in range(timesteps):
        spikes_t = output[t]

        # (2) Vmem leak, undone on the leak-faulty neurons.
        if leak_faults is None:
            leak(v, v)
        else:
            v_flat.take(leak_faults, out=kept, mode="clip")
            leak(v, v)
            v_flat[leak_faults] = kept

        # (1) Vmem increase: v += drive * integrate (non-negative drive,
        # so exactly v += where(integrate, drive, 0.0)), then clamp.
        np.less(last_reset, t - refractory_period, out=active)
        if all_increase:
            integrate = active
        else:
            np.logical_and(active, increase_ok, out=boolbuf)
            integrate = boolbuf
        np.multiply(drive(currents[t], vbuf), integrate, out=fbuf)
        np.add(v, fbuf, out=v)
        np.maximum(v, v_min, out=v)

        # (4) Spike generation: comparator and protection counter.
        np.greater_equal(v, threshold, out=comparator)
        np.logical_and(comparator, active, out=comparator)
        np.add(count, 1, out=count)
        np.multiply(count, comparator, out=count)
        if gate_disabled:
            np.greater(comparator, disabled, out=spikes_t)
            if not all_spike:
                np.logical_and(spikes_t, spike_ok, out=spikes_t)
        elif all_spike:
            np.copyto(spikes_t, comparator)
        else:
            np.logical_and(comparator, spike_ok, out=spikes_t)

        # (3) Vmem reset and refractory entry; faulty resets latch.
        if all_reset:
            reset_now = comparator
        else:
            np.logical_and(comparator, reset_ok, out=boolbuf)
            reset_now = boolbuf
        np.copyto(v, v_reset, where=reset_now)
        np.copyto(last_reset, t, where=reset_now)
        if not all_reset:
            np.logical_and(comparator, reset_bad, out=boolbuf)
            np.greater(boolbuf, latched, out=boolbuf)
            if boolbuf.any():
                np.logical_or(latched, boolbuf, out=latched)
                np.copyto(pin_floor, threshold, where=boolbuf)
                any_latched = True

        # Direct lateral inhibition, per (row, sample).  Blocks without
        # spikes receive an exactly-zero inhibition, which is a no-op
        # because v_min <= v_reset guarantees v >= v_min here.
        if strength > 0 and spikes_t.any():
            spike_bytes = spikes_t.view(np.uint8)
            np.add.reduce(
                spike_bytes, axis=-1, dtype=countbuf.dtype, keepdims=True, out=countbuf
            )
            np.subtract(countbuf, spike_bytes, out=diffbuf)
            np.multiply(diffbuf, strength, out=fbuf)
            np.subtract(v, fbuf, out=v)
            np.maximum(v, v_min, out=v)

        # Keep latched faulty-reset membranes pinned at the threshold.
        if any_latched:
            np.maximum(v, pin_floor, out=v)

        # Neuron protection: gate off spike generation once the comparator
        # has stayed asserted for the row's trigger count (applied
        # post-step, like the oracle's protection monitor).
        if trig is not None:
            np.greater_equal(count, trig, out=boolbuf)
            np.logical_or(disabled, boolbuf, out=disabled)

    if timesteps:
        np.add(last_reset, refractory_period + 1 - timesteps, out=refractory)
        np.maximum(refractory, 0, out=refractory)
        np.copyto(spikes, output[timesteps - 1])
    if count is not counter:
        np.copyto(counter, count)

    if _obs.enabled():
        _record_kernel(dynamics.kernel, time.perf_counter_ns() - start_ns)


def lif_learning_step(
    v: np.ndarray,
    refractory: np.ndarray,
    theta: np.ndarray,
    current: np.ndarray,
    config: LIFStepConfig,
    v_threshold: float,
    theta_plus: float,
    theta_decay: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One healthy learning-mode LIF timestep over ``(n,)`` state.

    The training-side variant of the timestep advance: the adaptive
    threshold ``theta`` decays and potentiates *during* the step (inference
    keeps it frozen), every fault switch is collapsed (training networks
    are always healthy), and the arrays are per-neuron vectors because STDP
    cannot batch samples.  ``theta`` is mutated in place; ``v``,
    ``refractory`` and the spike vector are returned — the exact operation
    sequence of the sequential :meth:`repro.snn.neuron.LIFNeuronGroup.step`
    in learning mode, which keeps the vectorized trainer bit-identical.
    """
    v = config.v_rest + (v - config.v_rest) * config.membrane_decay
    active = refractory <= 0
    v = v + np.where(active, current, 0.0)
    v = np.maximum(v, config.v_min)
    spikes = active & (v >= v_threshold + theta)
    any_post = spikes.any()
    v = np.where(spikes, config.v_reset, v)
    refractory = np.where(
        spikes, config.refractory_period, np.maximum(refractory - 1, 0)
    )
    theta *= theta_decay
    theta += theta_plus * spikes.astype(np.float64)
    if config.inhibition_strength > 0 and any_post:
        n_spiking = int(spikes.sum())
        inhibition = config.inhibition_strength * (
            n_spiking - spikes.astype(np.float64)
        )
        v = np.maximum(v - inhibition, config.v_min)
    return v, refractory, spikes
