"""Synapse crossbar: float weights paired with their 8-bit register view.

In the modelled accelerator every synapse stores its weight in a local
register inside the compute engine (Fig. 5 of the paper).  The simulator
works with floating-point weights for speed, but all fault injection and all
Bound-and-Protect weight bounding happen on (or relative to) the register
representation.  :class:`SynapseMatrix` keeps the two views consistent:

* ``weights`` — the float matrix the simulator multiplies spikes with,
* ``registers`` — the unsigned integer codes the accelerator would hold,
  obtained through a :class:`~repro.snn.quantization.WeightQuantizer`.

Loading the matrix into registers is a lossy (quantising) operation; reading
back the registers is exact.  Bit-flip faults are applied to the register
view and then propagated back to the float view, exactly as a particle
strike on the physical register would be observed by the adder tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.snn.kernels import exact_gemm_dtype, exact_scale, register_gemm
from repro.snn.quantization import WeightQuantizer
from repro.utils.bits import flip_bits_in_array

__all__ = ["BoundedWeightRule", "SynapseMatrix", "check_weight_range"]


def check_weight_range(weights: np.ndarray, quantizer: WeightQuantizer) -> None:
    """Raise ``ValueError`` unless *weights* lie in ``[0, full_scale]``.

    The range a float weight matrix must fit before it is quantised into
    *quantizer*'s registers (STDP in this architecture produces excitatory,
    positive weights).
    """
    if weights.min() < 0:
        raise ValueError("weights must be non-negative")
    if weights.max() > quantizer.full_scale:
        raise ValueError(
            "weights exceed the quantizer full-scale range "
            f"({weights.max():.4f} > {quantizer.full_scale:.4f})"
        )


@dataclass(frozen=True)
class BoundedWeightRule:
    """Declarative form of a weight-bounding override.

    Instead of handing the simulator a dense substitute weight matrix, a
    bounding rule describes the per-synapse comparator + mux of the
    Bound-and-Protect hardware: any stored weight ``>= threshold`` enters
    the adder as ``substitute``, everything else enters unchanged.  Keeping
    the rule symbolic lets :meth:`SynapseMatrix.current_operator` evaluate
    the bounded currents through exact integer arithmetic (see below), so
    batched and sequential simulations agree bitwise.
    """

    threshold: float
    substitute: float

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """Dense view of the rule (for inspection; simulation uses codes)."""
        weights = np.asarray(weights, dtype=np.float64)
        return np.where(weights >= self.threshold, self.substitute, weights)


#: Accepted forms of a current-accumulation weight override.
EffectiveWeights = Union[None, np.ndarray, BoundedWeightRule]


class _LatticeCurrentOperator:
    """Exact current accumulation for register-backed (lattice) weights.

    Every stored weight is ``code * scale`` with an integer ``code``, so
    the crossbar sum factorises as ``(spikes @ codes) * scale``.  The inner
    matmul only ever adds integers (bounded by ``n_inputs * max_code``),
    which every summation order computes exactly — the result is bitwise
    identical for any batch shape, dtype (see
    :func:`repro.snn.kernels.exact_gemm_dtype`) and BLAS kernel, which is
    what makes the inference engine spike-exact against the sequential
    loop.
    """

    def __init__(self, codes: np.ndarray, scale: float) -> None:
        self._codes = codes
        self._scale = scale

    def compute(self, spikes: np.ndarray) -> np.ndarray:
        """Per-neuron currents for ``(m, n_inputs)`` spike rows."""
        return exact_scale(register_gemm(spikes, self._codes), self._scale)

    @property
    def is_exact(self) -> bool:
        return True


class _BoundedCurrentOperator:
    """Exact current accumulation under a :class:`BoundedWeightRule`.

    The bounded sum splits into the lattice sum of the kept weights plus
    ``substitute`` times the number of spiking bounded synapses — two
    integer matmuls, both exact, combined by one fixed elementwise
    expression.
    """

    def __init__(
        self,
        kept_codes: np.ndarray,
        bounded_mask: np.ndarray,
        scale: float,
        substitute: float,
    ) -> None:
        self._kept_codes = kept_codes
        self._bounded_mask = bounded_mask
        self._scale = scale
        self._substitute = substitute

    def compute(self, spikes: np.ndarray) -> np.ndarray:
        """Per-neuron currents for ``(m, n_inputs)`` spike rows."""
        spikes = np.asarray(spikes, dtype=self._kept_codes.dtype)
        kept = exact_scale(register_gemm(spikes, self._kept_codes), self._scale)
        bounded = exact_scale(
            register_gemm(spikes, self._bounded_mask), self._substitute
        )
        return kept + bounded

    @property
    def is_exact(self) -> bool:
        return True


class _DenseCurrentOperator:
    """Current accumulation for an arbitrary dense weight override.

    A free-form float matrix has no integer decomposition, so the matmul
    rounding depends on the operand shapes; spike parity between batched
    and sequential runs is then only statistical (a spike decision flips
    only when a membrane lands within an ULP of the threshold).  Prefer
    :class:`BoundedWeightRule` for bounding-style overrides.
    """

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = weights

    def compute(self, spikes: np.ndarray) -> np.ndarray:
        """Per-neuron currents for ``(m, n_inputs)`` spike rows."""
        spikes = np.asarray(spikes, dtype=np.float64)
        return spikes @ self._weights

    @property
    def is_exact(self) -> bool:
        return False


class SynapseMatrix:
    """Weight matrix of a fully-connected input-to-excitatory projection.

    Parameters
    ----------
    weights:
        Float weight matrix of shape ``(n_inputs, n_neurons)``; values must
        be non-negative (STDP in this architecture produces excitatory,
        positive weights).
    quantizer:
        Register quantiser; defaults to the paper's 8-bit format.

    Notes
    -----
    The float view always mirrors the register view after construction:
    the constructor performs one quantise/dequantise round trip, so the
    simulation uses exactly the weights the hardware registers can encode.
    """

    def __init__(
        self,
        weights: np.ndarray,
        quantizer: Optional[WeightQuantizer] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(
                f"weights must be 2-D (n_inputs, n_neurons), got shape {weights.shape}"
            )
        if weights.size == 0:
            raise ValueError("weights must not be empty")
        self.quantizer = quantizer if quantizer is not None else WeightQuantizer()
        check_weight_range(weights, self.quantizer)
        self._registers = self.quantizer.quantize(weights)
        self._weights = self.quantizer.dequantize(self._registers)
        self._float_codes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        n_inputs: int,
        n_neurons: int,
        rng: np.random.Generator,
        low: float = 0.0,
        high: float = 0.3,
        quantizer: Optional[WeightQuantizer] = None,
    ) -> "SynapseMatrix":
        """Create a matrix with uniformly random initial weights."""
        if n_inputs <= 0 or n_neurons <= 0:
            raise ValueError("n_inputs and n_neurons must be positive")
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got low={low}, high={high}")
        weights = rng.uniform(low, high, size=(n_inputs, n_neurons))
        return cls(weights, quantizer=quantizer)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_inputs, n_neurons)``."""
        return self._weights.shape

    @property
    def n_inputs(self) -> int:
        """Number of input (pre-synaptic) channels."""
        return int(self._weights.shape[0])

    @property
    def n_neurons(self) -> int:
        """Number of excitatory (post-synaptic) neurons."""
        return int(self._weights.shape[1])

    @property
    def n_synapses(self) -> int:
        """Total number of synapses (weight registers) in the crossbar."""
        return int(self._weights.size)

    @property
    def weights(self) -> np.ndarray:
        """Float view of the weights (copy; mutate via the provided methods)."""
        return self._weights.copy()

    @property
    def registers(self) -> np.ndarray:
        """Register-code view of the weights (copy)."""
        return self._registers.copy()

    def current_operator(self, effective_weights: EffectiveWeights = None):
        """Build the current-accumulation operator for this crossbar.

        The operator's ``compute(spikes)`` maps ``(m, n_inputs)`` spike
        rows to ``(m, n_neurons)`` input currents.  Stored weights and
        :class:`BoundedWeightRule` overrides evaluate through exact
        integer-code arithmetic, making the result bitwise independent of
        the batch shape; a dense override array falls back to a plain
        float matmul.
        """
        gemm_dtype = exact_gemm_dtype(self.n_inputs, self.quantizer.max_code)
        if effective_weights is None:
            if self._float_codes is None:
                self._float_codes = self._registers.astype(gemm_dtype)
            return _LatticeCurrentOperator(self._float_codes, self.quantizer.scale)
        if isinstance(effective_weights, BoundedWeightRule):
            if self._float_codes is None:
                self._float_codes = self._registers.astype(gemm_dtype)
            bounded_mask = self._weights >= effective_weights.threshold
            kept_codes = np.where(
                bounded_mask, gemm_dtype.type(0.0), self._float_codes
            )
            return _BoundedCurrentOperator(
                kept_codes,
                bounded_mask.astype(gemm_dtype),
                self.quantizer.scale,
                effective_weights.substitute,
            )
        effective_weights = np.asarray(effective_weights, dtype=np.float64)
        if effective_weights.shape != self.shape:
            raise ValueError(
                f"effective_weights must have shape {self.shape}, "
                f"got {effective_weights.shape}"
            )
        return _DenseCurrentOperator(effective_weights)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def set_weights(self, weights: np.ndarray) -> None:
        """Load new float weights (quantised on the way into the registers)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.shape:
            raise ValueError(
                f"weights must have shape {self.shape}, got {weights.shape}"
            )
        check_weight_range(weights, self.quantizer)
        self._registers = self.quantizer.quantize(weights)
        self._weights = self.quantizer.dequantize(self._registers)
        self._float_codes = None

    def set_registers(self, registers: np.ndarray) -> None:
        """Overwrite the register codes directly (e.g. after fault injection)."""
        registers = np.asarray(registers)
        if registers.shape != self.shape:
            raise ValueError(
                f"registers must have shape {self.shape}, got {registers.shape}"
            )
        if not np.issubdtype(registers.dtype, np.integer):
            raise TypeError("registers must be an integer array")
        if registers.min() < 0 or registers.max() > self.quantizer.max_code:
            raise ValueError(
                f"register codes must lie in [0, {self.quantizer.max_code}]"
            )
        self._registers = registers.astype(self.quantizer.dtype).copy()
        self._weights = self.quantizer.dequantize(self._registers)
        self._float_codes = None

    def apply_bit_flips(
        self, flat_indices: np.ndarray, bit_positions: np.ndarray
    ) -> None:
        """Flip the given register bits in place (soft-error injection).

        Parameters
        ----------
        flat_indices:
            Flat indices into the ``(n_inputs, n_neurons)`` register array.
        bit_positions:
            Struck bit position for each index (0 = least-significant bit).
        """
        flipped = flip_bits_in_array(
            self._registers.astype(np.int64),
            np.asarray(flat_indices, dtype=np.int64),
            np.asarray(bit_positions, dtype=np.int64),
            bit_width=self.quantizer.bits,
        )
        self.set_registers(flipped)

    def copy(self) -> "SynapseMatrix":
        """Return an independent copy of this synapse matrix."""
        clone = SynapseMatrix.__new__(SynapseMatrix)
        clone.quantizer = self.quantizer
        clone._registers = self._registers.copy()
        clone._weights = self._weights.copy()
        clone._float_codes = None
        return clone

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def input_current(
        self, input_spikes: np.ndarray, effective_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Accumulate the per-neuron current for one timestep of input spikes.

        This models the per-column adder chain of the crossbar: each neuron
        receives the sum of the weights of its synapses whose input spiked.

        Parameters
        ----------
        input_spikes:
            Boolean (or 0/1) vector of length ``n_inputs``.
        effective_weights:
            Optional weight override: a dense substitute matrix or a
            :class:`BoundedWeightRule`; defaults to the stored weights.
        """
        input_spikes = np.asarray(input_spikes)
        if input_spikes.shape != (self.n_inputs,):
            raise ValueError(
                f"input_spikes must have shape ({self.n_inputs},), "
                f"got {input_spikes.shape}"
            )
        operator = self.current_operator(effective_weights)
        return operator.compute(input_spikes[np.newaxis, :])[0]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def max_weight(self) -> float:
        """Maximum weight currently stored (the clean network's ``wgh_max``)."""
        return float(self._weights.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SynapseMatrix(shape={self.shape}, bits={self.quantizer.bits}, "
            f"max_weight={self.max_weight():.4f})"
        )
