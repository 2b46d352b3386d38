"""The inference engine: many compute-engine configurations, one pass.

Every accuracy number of the reproduction — a single served request, a
test-set evaluation, a whole fault-rate sweep — is produced by
:class:`MapParallelEngine`.  It advances *rows* (:class:`MapRow`: one set of
weight registers, per-neuron operation health, weight rule and protection
trigger each) over chunks of samples with ``(rows, batch, n_neurons)``
state arrays: exact register-code GEMMs per distinct (encoding, registers)
pair produce the input currents of every (sample, timestep), and one
model-dispatched advance kernel (:mod:`repro.snn.kernels`) steps all rows
and samples at once.  A single network is simply the one-row case
(:meth:`MapParallelEngine.for_network`); :class:`BatchedInferenceEngine` is
the thin per-network front end over it.

Streaming a chunk
-----------------
A chunk is processed in blocks of ``ceil(BLOCK_GEMM_ROWS / batch)``
timesteps.  First, block by block, the raster's time slice is cast to the
GEMM dtype in timestep-major order and GEMMed into one ``(T, batch, n)``
accumulator per base GEMM and per bounding-correction term, in the GEMM
dtype; these accumulators are kept for the whole chunk, so the latch
fix-up below re-reads them instead of re-running GEMMs.  Then each pass
advances the state block by block: the block's float64 currents are
scaled (and bound-corrected) from the accumulators into one reused buffer
and fed to the model's advance, with the model's dynamics built once per
pass and carried across blocks.  No whole-chunk float copy of the raster
and no float64 ``(T, rows, batch, n)`` current tensor is ever built; the
block length changes no bit (``tests/test_engine_blocking.py``).

Parity contract
---------------
The engine reproduces the sequential per-timestep loop
(:mod:`repro.snn.oracle`) *spike for spike* under a fixed RNG:

* Poisson encoding draws the same underlying random stream: the batch's
  consecutive chunked draws consume exactly the same values, in the same
  order, as the per-sample ``generator.random((timesteps, n_inputs))``
  calls of the sequential loop.
* Input currents are exact integer register-code sums
  (:func:`repro.snn.kernels.register_gemm`), bitwise identical for any
  operand shape, grouping, timestep blocking or BLAS kernel — including
  the shared-base plus bounding-correction decomposition used for
  Bound-and-Protect rows — and are scaled to float64 by the same
  elementwise expressions in any block.
* Every state update is the same elementwise expression the sequential
  :meth:`~repro.snn.neuron.LIFNeuronGroup.step` evaluates, broadcast over
  the row and batch axes; elementwise IEEE operations are bitwise
  independent of the array shape.

Sequential fault semantics
--------------------------
The paper's *faulty reset* latch couples samples: a neuron whose
``Vmem reset`` operation is broken keeps bursting across sample boundaries
once it has crossed the threshold, so sample ``i`` starts with the latches
accumulated over samples ``0..i-1``.  The engine therefore runs an
optimistic parallel pass assuming the latch state at chunk entry; for every
row that latched a new neuron it accepts the samples up to and including
the first one that did (their assumed latch state was correct) and
re-simulates only the remainder with the updated latches.  The rows still
pending re-simulate together, in one pass per iteration.  Each iteration
permanently accepts at least one sample per pending row and the latch set
is bounded by the number of faulty-reset neurons, so the fix-up converges
in at most ``min(batch, faulty_reset_neurons + 1)`` passes; fault-free rows
take exactly one pass with no bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.snn.kernels import (
    DEFAULT_BATCH_SIZE,
    NO_PROTECTION_TRIGGER,
    BoundingCorrection,
    KernelWorkspace,
    OperationMasks,
    apply_bounding_correction,
    bounding_correction_terms,
    exact_gemm_dtype,
    exact_scale,
    plan_bounding_correction,
    register_gemm,
)
from repro.snn.models import NeuronModel, resolve_model
from repro.obs import metrics as _obs
from repro.snn.neuron import LIFParameters, NeuronOperationStatus
from repro.snn.quantization import WeightQuantizer
from repro.snn.synapse import BoundedWeightRule
from repro.utils.rng import RNGLike, resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.snn.network import DiehlCookNetwork

__all__ = [
    "BLOCK_GEMM_ROWS",
    "DEFAULT_BATCH_SIZE",
    "BatchResult",
    "BatchedInferenceEngine",
    "MapRow",
    "MapParallelState",
    "MapParallelResult",
    "MapParallelEngine",
    "block_timesteps",
    "flatten_images",
    "protection_counts",
]

#: GEMM rows one timestep block aims for: a chunk of ``batch`` samples is
#: processed in blocks of ``ceil(BLOCK_GEMM_ROWS / batch)`` timesteps, so
#: every block GEMM stays BLAS-efficient while the block's float64
#: currents stay small; serving's 1-2 sample micro-batches run as one block.
BLOCK_GEMM_ROWS = 1024

# Engine telemetry (docs/observability.md): realized batch sizes and
# latch-driven extra simulation passes — the cost of the faulty-reset
# fix-up loop.  The ``engine`` label keeps the catalog's series names.
_ENGINE = "map_parallel"
_ENGINE_BATCHES = _obs.get_registry().counter(
    "softsnn_engine_batches_total",
    "Encoded batches executed, by engine.",
    labels=("engine",),
)
_ENGINE_BATCH_SIZE = _obs.get_registry().histogram(
    "softsnn_engine_batch_size",
    "Realized sample-batch sizes per run_encoded call, by engine.",
    labels=("engine",),
    buckets=_obs.log_buckets(1.0, 10000.0, per_decade=4),
)
_ENGINE_RESIM = _obs.get_registry().counter(
    "softsnn_engine_latch_resimulations_total",
    "Extra simulation passes forced by the faulty-reset latch fix-up.",
    labels=("engine",),
)


def flatten_images(images: np.ndarray, n_inputs: int) -> np.ndarray:
    """``(batch, n_inputs)`` float64 view of a batch of images.

    Accepts ``(batch, height, width)``, ``(batch, n_inputs)`` or a single
    2-D image (treated as a batch of one).
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2 and images.shape[1] != n_inputs:
        images = images[np.newaxis, ...]
    if images.ndim == 3:
        images = images.reshape(images.shape[0], -1)
    elif images.ndim != 2:
        raise ValueError(
            "images must be (batch, height, width), (batch, n_inputs) or "
            f"a single 2-D image, got shape {images.shape}"
        )
    if images.shape[1] != n_inputs:
        raise ValueError(
            f"images have {images.shape[1]} pixels but the network expects "
            f"{n_inputs} inputs"
        )
    return images


@dataclass(frozen=True, eq=False)
class MapRow:
    """One simulated compute-engine configuration.

    A *row* pairs a set of weight registers (typically the clean registers
    with one fault map's bit flips applied) with the matching per-neuron
    operation health and the mitigation it runs under: a weight rule and a
    protection trigger, the only way a mitigation reaches the engine.
    Several rows that share the same ``registers`` *array object* and
    ``raster_index`` also share their base current GEMM inside
    :class:`MapParallelEngine`, so planners should reuse array instances
    for identical register contents.

    Attributes
    ----------
    raster_index:
        Which encoding group of the unit drives this row (rows of the same
        sweep cell present the same pre-encoded spike rasters).
    registers:
        Integer register codes of the crossbar, shape
        ``(n_inputs, n_neurons)``.
    operation_status:
        Per-neuron health of the four LIF hardware operations.
    weight_rule:
        Optional Bound-and-Protect weight bounding applied between the
        registers and the adder chain (Eq. 1 of the paper).
    protection_trigger_cycles:
        When set, neuron protection gates off spike generation once a
        neuron's comparator stays asserted this many consecutive cycles
        (the paper's hardware rule, checked inside the timestep loop) —
        the spikes the sequential oracle yields with a
        :class:`~repro.core.bound_and_protect.NeuronProtection` monitor.
    """

    raster_index: int
    registers: np.ndarray
    operation_status: NeuronOperationStatus
    weight_rule: Optional[BoundedWeightRule] = None
    protection_trigger_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate shapes and value ranges of the row's assets."""
        registers = np.asarray(self.registers)
        if registers.ndim != 2:
            raise ValueError(
                f"registers must be 2-D (n_inputs, n_neurons), got {registers.shape}"
            )
        if not np.issubdtype(registers.dtype, np.integer):
            raise TypeError("registers must be an integer array")
        if self.operation_status.n_neurons != registers.shape[1]:
            raise ValueError(
                f"operation_status covers {self.operation_status.n_neurons} neurons "
                f"but the registers have {registers.shape[1]} columns"
            )
        if self.raster_index < 0:
            raise ValueError(f"raster_index must be >= 0, got {self.raster_index}")
        if (
            self.protection_trigger_cycles is not None
            and self.protection_trigger_cycles < 1
        ):
            raise ValueError(
                "protection_trigger_cycles must be at least 1, got "
                f"{self.protection_trigger_cycles}"
            )


@dataclass
class MapParallelState:
    """All mutable LIF state of one pass: ``(n_rows, batch, n_neurons)``.

    Every array that is ``(n,)`` in the sequential
    :class:`~repro.snn.neuron.LIFNeuronGroup` gains a leading row axis and a
    sample axis here.  :meth:`row` returns one row's ``(batch, n)`` views.
    """

    v: np.ndarray
    refractory_remaining: np.ndarray
    comparator_output: np.ndarray
    consecutive_above_threshold: np.ndarray
    spike_disabled: np.ndarray
    reset_fault_latched: np.ndarray
    last_spikes: np.ndarray

    @classmethod
    def initial(
        cls,
        params: LIFParameters,
        theta: np.ndarray,
        n_rows: int,
        batch: int,
        n_neurons: int,
        initial_reset_latch: Optional[np.ndarray] = None,
    ) -> "MapParallelState":
        """Fresh state for *n_rows* concurrent rows of *batch* samples each.

        ``initial_reset_latch`` carries each row's faulty-reset latches
        accumulated by previously processed samples (shape
        ``(n_rows, n_neurons)``); latched membranes start pinned at (or
        above) the firing threshold, as in the sequential
        :meth:`~repro.snn.neuron.LIFNeuronGroup.reset_state`.
        """
        shape = (n_rows, batch, n_neurons)
        v = np.full(shape, params.v_rest, dtype=np.float64)
        if initial_reset_latch is None:
            latched = np.zeros(shape, dtype=bool)
        else:
            latch = np.asarray(initial_reset_latch, dtype=bool)
            latched = np.broadcast_to(latch[:, np.newaxis, :], shape).copy()
            if latched.any():
                threshold = params.v_threshold + np.asarray(theta, dtype=np.float64)
                v = np.where(latched, np.maximum(v, threshold), v)
        return cls(
            v=v,
            refractory_remaining=np.zeros(shape, dtype=np.int64),
            comparator_output=np.zeros(shape, dtype=bool),
            consecutive_above_threshold=np.zeros(shape, dtype=np.int64),
            spike_disabled=np.zeros(shape, dtype=bool),
            reset_fault_latched=latched,
            last_spikes=np.zeros(shape, dtype=bool),
        )

    @property
    def batch_size(self) -> int:
        """Number of samples advanced concurrently per row."""
        return int(self.v.shape[-2])

    @property
    def n_neurons(self) -> int:
        """Population size."""
        return int(self.v.shape[-1])

    def row(self, m: int) -> "MapParallelState":
        """Views of row *m*: every array becomes ``(batch, n_neurons)``."""
        return MapParallelState(
            *(getattr(self, field.name)[m] for field in fields(self))
        )


def protection_counts(spike_disabled: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gate-off activations and gated-neuron mask of ``(..., batch, n)`` gates.

    Every gated (sample, neuron) pair of a settled chunk is one activation,
    matching the sequential count of newly-protected events.
    """
    return spike_disabled.sum(axis=(-2, -1)), spike_disabled.any(axis=-2)


@dataclass
class MapParallelResult:
    """Outcome of one chunk.

    Attributes
    ----------
    spike_counts:
        Per-row, per-sample output spike counts ``(n_rows, batch, n_neurons)``.
    input_spike_counts:
        Input spikes delivered per *encoding group* and sample, shape
        ``(n_groups, batch)`` — rows sharing a raster group share these.
    final_reset_latch:
        Per-row faulty-reset latch state ``(n_rows, n_neurons)`` after the
        last sample, accounting for the sequential sample order; feed it as
        ``initial_reset_latch`` of the next chunk.
    final_state:
        Final per-sample neuron state of every *distinct* row (duplicate
        rows share one simulation; ``engine.row_to_unique`` maps rows onto
        it).  Each sample's state comes from the pass that accepted it.
    simulation_passes:
        Total simulation passes including the latch fix-up's passes (1
        when no row latched a new faulty-reset neuron).
    output_spikes:
        Boolean output raster per row, shape
        ``(n_rows, batch, timesteps, n_neurons)`` — only materialised when
        the chunk was run with ``collect_output_spikes=True`` (accuracy
        consumers need just the counts), ``None`` otherwise.
    """

    spike_counts: np.ndarray
    input_spike_counts: np.ndarray
    final_reset_latch: np.ndarray
    final_state: MapParallelState
    simulation_passes: int = 1
    output_spikes: Optional[np.ndarray] = None


def block_timesteps(batch: int, timesteps: int) -> int:
    """Timesteps per block of a chunk: at least :data:`BLOCK_GEMM_ROWS` GEMM rows."""
    return min(timesteps, -(-BLOCK_GEMM_ROWS // batch))


def _gemm_rows(
    accumulator: Optional[np.ndarray], start: int, stop: int
) -> Optional[np.ndarray]:
    """Timesteps ``[start, stop)`` of a ``(T, batch, n)`` accumulator as GEMM rows."""
    if accumulator is None:
        return None
    return accumulator[start:stop].reshape(-1, accumulator.shape[-1])


@dataclass
class _BaseGemm:
    """One shared current GEMM: a (raster group, register array) pair."""

    raster_index: int
    codes: np.ndarray


@dataclass
class _Accumulators:
    """One chunk's exact register-code sums, ``(T, batch, n)`` each.

    ``bases[b]`` belongs to ``engine._bases[b]``; ``terms`` maps a bounding
    correction key onto its ``(masked, hits)`` pair (``masked`` is ``None``
    when the base already sums the kept codes).  ``block`` is the chunk's
    timestep block length.
    """

    bases: List[np.ndarray]
    terms: Dict[Tuple[int, float], Tuple[Optional[np.ndarray], np.ndarray]]
    block: int


class MapParallelEngine:
    """Advance many compute-engine rows through the neuron model at once.

    Every :class:`MapRow` stands for one complete evaluation — registers,
    neuron operation status, optional weight bounding and neuron protection
    — and the engine advances all rows' state through shared per-block
    GEMMs plus one elementwise pass per timestep.  Stacking rows never
    changes a row's result: currents are exact integer sums for any
    grouping or timestep blocking, and every state update is elementwise.
    The parity suites (``tests/test_engine_parity.py``,
    ``tests/test_map_parallel_parity.py``, ``tests/test_engine_blocking.py``)
    pin one-row runs to the sequential oracle, stacked rows to one-row
    runs and every block length to one block, bit for bit, across clean,
    faulty and protected modes.

    Parameters
    ----------
    rows:
        The row configurations to simulate concurrently.
    quantizer:
        Register format shared by all rows (defines the exact-GEMM dtype
        and the code-to-weight scale).
    params:
        LIF parameters shared by all rows.
    theta:
        Adaptive-threshold component ``(n_neurons,)`` shared by all rows
        (inference keeps it frozen).
    model:
        Neuron model every row simulates — a registered name, a
        :class:`~repro.snn.models.NeuronModel` instance, or ``None``
        (default) for the default LIF.
    """

    def __init__(
        self,
        rows: Sequence[MapRow],
        quantizer: WeightQuantizer,
        params: LIFParameters,
        theta: np.ndarray,
        model: Optional[object] = None,
    ) -> None:
        rows = list(rows)
        if not rows:
            raise ValueError("at least one row is required")
        shape = rows[0].registers.shape
        for row in rows:
            if row.registers.shape != shape:
                raise ValueError(
                    f"all rows must share the register shape {shape}, "
                    f"got {row.registers.shape}"
                )
        self.rows = rows
        self.quantizer = quantizer
        self.params = params
        self.theta = np.asarray(theta, dtype=np.float64)
        self.n_inputs, self.n_neurons = (int(shape[0]), int(shape[1]))
        if self.theta.shape != (self.n_neurons,):
            raise ValueError(
                f"theta must have shape ({self.n_neurons},), got {self.theta.shape}"
            )
        self._gemm_dtype = exact_gemm_dtype(self.n_inputs, quantizer.max_code)

        # Fully identical rows simulate once and share their results: e.g.
        # the unmitigated row and re-execution's first execution of the
        # same map are the same (registers, status, rule, trigger) tuple.
        # Keyed by array identity, so planners sharing array instances for
        # identical contents get the dedup for free.
        unique_index: Dict[Tuple, int] = {}
        unique_rows: List[MapRow] = []
        self.row_to_unique = np.zeros(len(rows), dtype=np.int64)
        for m, row in enumerate(rows):
            key = (
                row.raster_index,
                id(row.registers),
                id(row.operation_status),
                row.weight_rule,
                row.protection_trigger_cycles,
            )
            if key not in unique_index:
                unique_index[key] = len(unique_rows)
                unique_rows.append(row)
            self.row_to_unique[m] = unique_index[key]
        self._unique_rows = unique_rows
        n_unique = len(unique_rows)

        # Deduplicate the base current GEMMs: rows referencing the same
        # register array object over the same rasters share one matmul
        # (e.g. no-mitigation and the BnP variants all read the same
        # faulty registers of their map).
        base_index: Dict[Tuple[int, int], int] = {}
        self._bases: List[_BaseGemm] = []
        self._row_base = np.zeros(n_unique, dtype=np.int64)
        for m, row in enumerate(unique_rows):
            key = (row.raster_index, id(row.registers))
            if key not in base_index:
                base_index[key] = len(self._bases)
                self._bases.append(
                    _BaseGemm(
                        raster_index=row.raster_index,
                        codes=np.ascontiguousarray(
                            row.registers, dtype=self._gemm_dtype
                        ),
                    )
                )
            self._row_base[m] = base_index[key]

        # Bounding corrections, shared by rows with equal (base, threshold):
        # BnP1/2/3 of the same map differ only in the substitute value.
        self._corrections: Dict[Tuple[int, float], BoundingCorrection] = {}
        self._row_correction: List[Optional[Tuple[int, float]]] = [None] * n_unique
        self._row_substitute = np.zeros(n_unique, dtype=np.float64)
        row_bounded = np.zeros(n_unique, dtype=np.int64)
        for m, row in enumerate(unique_rows):
            rule = row.weight_rule
            if rule is None:
                continue
            key = (int(self._row_base[m]), float(rule.threshold))
            if key not in self._corrections:
                self._corrections[key] = plan_bounding_correction(
                    row.registers, rule.threshold, self.quantizer
                )
            self._row_correction[m] = key
            self._row_substitute[m] = float(rule.substitute)
            row_bounded[m] = self._corrections[key].n_bounded
        # Synapses each row's weight rule bounds (0 for rows without one).
        self.bounded_synapses = row_bounded[self.row_to_unique]

        # A base read through exactly one bounding threshold (e.g. a lone
        # BnP network) never needs its unbounded sum: GEMM the kept codes
        # directly and drop the masked correction term — one full-size GEMM
        # fewer, and exact, since base - masked == kept as integer sums.
        for b, base in enumerate(self._bases):
            users = np.flatnonzero(self._row_base == b)
            keys = {self._row_correction[m] for m in users}
            key = keys.pop() if len(keys) == 1 else None
            if key is None or self._corrections[key].is_empty:
                continue
            bounded = quantizer.dequantize(unique_rows[users[0]].registers) >= key[1]
            base.codes = np.where(bounded, base.codes.dtype.type(0), base.codes)
            self._corrections[key] = replace(self._corrections[key], masked_codes=None)

        self._masks = OperationMasks.stack(
            [row.operation_status for row in unique_rows]
        )
        self._row_has_reset_fault = ~self._masks.reset_ok.all(axis=1)
        self._model: NeuronModel = resolve_model(model)
        self._step_config = self._model.step_config(params)
        self._threshold = params.v_threshold + self.theta
        # Separate scratch workspaces for the full-chunk pass and the
        # latch fix-ups, so their different block shapes do not evict each
        # other's buffers between chunks.
        self._workspace = KernelWorkspace()
        self._fixup_workspace = KernelWorkspace()
        # Block-sized cast-raster and current buffers, reused across
        # blocks, passes and chunks.
        self._buffers: Dict[str, np.ndarray] = {}
        self._groups = sorted({base.raster_index for base in self._bases})

        self._triggers = np.array(
            [
                NO_PROTECTION_TRIGGER
                if row.protection_trigger_cycles is None
                else int(row.protection_trigger_cycles)
                for row in unique_rows
            ],
            dtype=np.int64,
        )
        self._has_protection = any(
            row.protection_trigger_cycles is not None for row in unique_rows
        )

    @classmethod
    def for_network(
        cls,
        network: "DiehlCookNetwork",
        model: Optional[object] = None,
    ) -> "MapParallelEngine":
        """The one-row engine simulating *network* as it is right now.

        Snapshots the network's registers, operation status, LIF parameters
        and adaptive thresholds into an unmitigated row; a mitigation
        reaches the engine only as a planned :class:`MapRow` (weight rule
        and protection trigger).  ``model`` defaults to the network
        configuration's ``neuron_model``.
        """
        neurons = network.neurons
        row = MapRow(
            raster_index=0,
            registers=network.synapses.registers,
            operation_status=neurons.operation_status,
        )
        if model is None:
            model = getattr(network.config, "neuron_model", None)
        return cls(
            [row],
            quantizer=network.synapses.quantizer,
            params=neurons.params,
            theta=neurons.theta,
            model=model,
        )

    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of rows (duplicates included; they share one simulation)."""
        return len(self.rows)

    @property
    def n_unique_rows(self) -> int:
        """Number of distinct row configurations actually simulated."""
        return len(self._unique_rows)

    @property
    def n_groups(self) -> int:
        """Number of encoding groups the rows reference."""
        return max(row.raster_index for row in self.rows) + 1

    # ------------------------------------------------------------------ #
    def run_encoded(
        self,
        rasters: Sequence[np.ndarray],
        initial_reset_latch: Optional[np.ndarray] = None,
        collect_output_spikes: bool = False,
        carry_reset_latch: bool = True,
    ) -> MapParallelResult:
        """Run one chunk of pre-encoded rasters through every row.

        Parameters
        ----------
        rasters:
            One boolean spike raster of shape ``(batch, timesteps,
            n_inputs)`` per encoding group; ``rows[m]`` presents
            ``rasters[rows[m].raster_index]``.  Rasters are only read, so
            read-only views are fine.
        initial_reset_latch:
            Per-row faulty-reset latches ``(n_rows, n_neurons)`` carried
            over from the previous chunk; defaults to all healthy.
        collect_output_spikes:
            Also materialise the per-row boolean output rasters in the
            result (two extra full-raster copies per chunk; accuracy
            consumers need only the spike counts).
        carry_reset_latch:
            ``True`` (default) reproduces the paper's sequential
            presentation order: a neuron whose faulty ``Vmem reset``
            latches during sample ``i`` keeps bursting for samples
            ``i+1..``, resolved by the re-simulation fix-up.  ``False``
            treats every sample as an *independent presentation* starting
            from ``initial_reset_latch`` — the online-serving semantics,
            where unrelated requests coalesced into one micro-batch must
            not influence each other; the result then equals running each
            sample alone, and ``final_reset_latch`` is the entry latch.
        """
        rasters = [np.asarray(raster) for raster in rasters]
        if len(rasters) < self.n_groups:
            raise ValueError(
                f"rows reference {self.n_groups} encoding groups but only "
                f"{len(rasters)} rasters were provided"
            )
        if rasters[0].ndim != 3:
            raise ValueError(
                "rasters must have shape (batch, timesteps, n_inputs), got "
                f"{rasters[0].shape}"
            )
        batch, timesteps, n_inputs = rasters[0].shape
        for raster in rasters:
            if raster.shape != (batch, timesteps, n_inputs):
                raise ValueError("all rasters must share one (batch, T, I) shape")
        if n_inputs != self.n_inputs:
            raise ValueError(
                f"rasters have {n_inputs} inputs but the rows expect {self.n_inputs}"
            )
        if batch == 0:
            raise ValueError("batch must not be empty")
        n_rows = self.n_rows

        mapping = self.row_to_unique
        n_unique = self.n_unique_rows
        if initial_reset_latch is None:
            latch = np.zeros((n_unique, self.n_neurons), dtype=bool)
        else:
            full_latch = np.asarray(initial_reset_latch, dtype=bool)
            if full_latch.shape != (n_rows, self.n_neurons):
                raise ValueError(
                    "initial_reset_latch must have shape "
                    f"({n_rows}, {self.n_neurons}), got {full_latch.shape}"
                )
            latch = np.zeros((n_unique, self.n_neurons), dtype=bool)
            latch[mapping] = full_latch
            # Duplicate rows share one simulation, so their carried latches
            # must agree (they do when the caller feeds back what the
            # previous chunk returned).
            if not np.array_equal(latch[mapping], full_latch):
                raise ValueError("duplicate rows carry diverging reset latches")

        accumulators = self._accumulate(rasters, batch, timesteps)

        # Every element is written: the loop computes each timestep's
        # spikes straight into it.
        output = np.empty((timesteps, n_unique, batch, self.n_neurons), dtype=bool)
        state = MapParallelState.initial(
            self.params, self.theta, n_unique, batch, self.n_neurons, latch
        )
        self._simulate(
            state, accumulators, output, np.arange(n_unique), 0, self._workspace
        )
        passes = 1

        if carry_reset_latch and self._row_has_reset_fault.any():
            passes += self._fixup_rows(
                np.flatnonzero(self._row_has_reset_fault),
                latch,
                state,
                accumulators,
                output,
            )

        if _obs.enabled():
            _ENGINE_BATCHES.labels(engine=_ENGINE).inc()
            _ENGINE_BATCH_SIZE.labels(engine=_ENGINE).observe(batch)
            if passes > 1:
                _ENGINE_RESIM.labels(engine=_ENGINE).inc(passes - 1)
        return MapParallelResult(
            spike_counts=output.sum(axis=0, dtype=np.int64)[mapping],
            input_spike_counts=np.array(
                [[np.count_nonzero(sample) for sample in raster] for raster in rasters],
                dtype=np.int64,
            ),
            final_reset_latch=latch[mapping],
            final_state=state,
            simulation_passes=passes,
            output_spikes=(
                np.ascontiguousarray(output.transpose(1, 2, 0, 3))[mapping]
                if collect_output_spikes
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _scratch(
        self, name: str, shape: Tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """A reusable scratch array of *shape*, grown on demand and kept."""
        size = int(np.prod(shape))
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(size, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size].reshape(shape)

    def _accumulate(
        self, rasters: Sequence[np.ndarray], batch: int, timesteps: int
    ) -> _Accumulators:
        """The chunk's exact register-code accumulators, timestep-major.

        One ``(T, batch, n)`` accumulator in the GEMM dtype per base GEMM
        (distinct raster group and register array) and per bounding
        correction term, filled block by block of timesteps: each block's
        raster slice is cast to the GEMM dtype in timestep-major order in
        one reused buffer and GEMMed straight into the accumulators' rows.
        The entries are exact integer sums, so they do not depend on the
        blocking.  The accumulators live for the whole chunk, so the latch
        fix-up re-reads them instead of re-running GEMMs.
        """
        shape = (timesteps, batch, self.n_neurons)
        dtype = self._gemm_dtype
        bases = [np.empty(shape, dtype=dtype) for _ in self._bases]
        terms = {
            key: (
                None
                if correction.masked_codes is None
                else np.empty(shape, dtype=dtype),
                np.empty(shape, dtype=dtype),
            )
            for key, correction in self._corrections.items()
            if not correction.is_empty
        }
        block = block_timesteps(batch, timesteps)
        spikes = self._scratch("spikes", (block, batch, self.n_inputs), dtype)
        for start in range(0, timesteps, block):
            stop = min(start + block, timesteps)
            for group in self._groups:
                flat = spikes[: stop - start]
                np.copyto(flat, rasters[group][:, start:stop].transpose(1, 0, 2))
                flat = flat.reshape(-1, self.n_inputs)
                for b, base in enumerate(self._bases):
                    if base.raster_index == group:
                        register_gemm(
                            flat, base.codes, out=_gemm_rows(bases[b], start, stop)
                        )
                for key, (masked, hits) in terms.items():
                    if self._bases[key[0]].raster_index == group:
                        bounding_correction_terms(
                            flat,
                            self._corrections[key],
                            out=(
                                _gemm_rows(masked, start, stop),
                                _gemm_rows(hits, start, stop),
                            ),
                        )
        return _Accumulators(bases=bases, terms=terms, block=block)

    def _block_currents(
        self,
        accumulators: _Accumulators,
        start: int,
        stop: int,
        rows: np.ndarray,
        offset: int,
    ) -> np.ndarray:
        """Float64 input currents of timesteps ``[start, stop)``.

        Shape ``(stop - start, len(rows), batch - offset, n)`` for the
        unique rows indexed by *rows* and the samples from *offset* on: each
        row's base accumulator scaled to weights, plus its bounding
        correction — fixed elementwise expressions of exact integer sums, so
        the currents are the same bits in any block.
        """
        batch = accumulators.bases[0].shape[1] - offset
        currents = self._scratch(
            "currents",
            (stop - start, len(rows), batch, self.n_neurons),
            np.dtype(np.float64),
        )
        scale = self.quantizer.scale
        window = (slice(start, stop), slice(offset, None))
        for i, m in enumerate(rows):
            accumulated = accumulators.bases[int(self._row_base[m])][window]
            out = currents[:, i]
            key = self._row_correction[m]
            if key is None:
                exact_scale(accumulated, scale, out=out)
            elif self._corrections[key].is_empty:
                # Nothing is out of range: the bounded sum equals the
                # lattice sum plus an exactly-zero substitute term.
                exact_scale(accumulated, scale, out=out)
                out += 0.0
            else:
                masked, hits = accumulators.terms[key]
                apply_bounding_correction(
                    accumulated,
                    None if masked is None else masked[window],
                    hits[window],
                    scale,
                    self._row_substitute[m],
                    out=out,
                )
        return currents

    def _fixup_rows(
        self,
        rows: np.ndarray,
        latch: np.ndarray,
        state: MapParallelState,
        accumulators: _Accumulators,
        output: np.ndarray,
    ) -> int:
        """Resolve the cross-sample faulty-reset coupling of *rows*.

        A row whose pass latched a new neuron keeps its samples up to and
        including the first event and re-simulates the remainder with the
        updated latch state, repeating until a pass latches nothing new.
        The rows still pending re-simulate together, in one pass from the
        earliest of their restart samples: samples are independent given a
        row's latch, so each row keeps only the samples from its own restart
        on, bit-identical to re-simulating it alone.  ``latch`` is updated
        in place to each row's final latch state and the re-simulated
        samples' outputs and final state overwrite the optimistic pass;
        returns the number of extra passes performed.
        """
        batch = output.shape[2]
        offsets = {int(m): 0 for m in rows}
        simulated = {int(m): state.reset_fault_latched[m] for m in rows}
        extra_passes = 0
        while True:
            pending = []
            for m, simulated_latched in simulated.items():
                new_events = simulated_latched & ~latch[m]
                event_rows = new_events.any(axis=-1)
                if not event_rows.any():
                    continue
                first_event = int(np.argmax(event_rows))
                latch[m] |= new_events[first_event]
                offsets[m] += first_event + 1
                if offsets[m] < batch:
                    pending.append(m)
            if not pending:
                return extra_passes
            start = min(offsets[m] for m in pending)
            sub_state = MapParallelState.initial(
                self.params,
                self.theta,
                len(pending),
                batch - start,
                self.n_neurons,
                latch[pending],
            )
            sub_output = np.empty(
                (output.shape[0], len(pending), batch - start, self.n_neurons), bool
            )
            self._simulate(
                sub_state,
                accumulators,
                sub_output,
                np.array(pending),
                start,
                self._fixup_workspace,
            )
            extra_passes += 1
            simulated = {}
            for i, m in enumerate(pending):
                kept = slice(offsets[m] - start, None)
                output[:, m, offsets[m] :] = sub_output[:, i, kept]
                for field in fields(state):
                    getattr(state, field.name)[m, offsets[m] :] = getattr(
                        sub_state, field.name
                    )[i, kept]
                simulated[m] = sub_state.reset_fault_latched[i, kept]

    def _simulate(
        self,
        state: MapParallelState,
        accumulators: _Accumulators,
        output: np.ndarray,
        rows: np.ndarray,
        offset: int,
        workspace: KernelWorkspace,
    ) -> None:
        """One parallel pass over all timesteps for the unique *rows*.

        Simulates the samples from *offset* on (the latch fix-up's
        suffixes) block by block of timesteps: each block's float64
        currents are computed from the accumulators into one reused
        buffer and advanced through the model's loop
        (:func:`repro.snn.kernels.advance_timesteps`) with the engine's
        per-row operation masks and protection triggers.  The model's
        dynamics are built once for the pass and carried across blocks.
        """
        model = self._model
        dynamics = model.dynamics(self._step_config, self._threshold, state.v)
        # The full pass keeps the engine's own masks, so their per-batch
        # fault indices are built once per engine, not once per chunk.
        masks = (
            self._masks if len(rows) == self.n_unique_rows else self._masks.rows(rows)
        )
        triggers = self._triggers[rows] if self._has_protection else None
        timesteps = output.shape[0]
        for start in range(0, timesteps, accumulators.block):
            stop = min(start + accumulators.block, timesteps)
            model.advance(
                self._block_currents(accumulators, start, stop, rows, offset),
                output[start:stop],
                state.v,
                state.refractory_remaining,
                state.consecutive_above_threshold,
                state.spike_disabled,
                state.reset_fault_latched,
                state.comparator_output,
                state.last_spikes,
                masks,
                self._threshold,
                self._step_config,
                workspace,
                triggers=triggers,
                dynamics=dynamics,
            )
        dynamics.finish(state.v)


# ---------------------------------------------------------------------- #
# per-network front end
# ---------------------------------------------------------------------- #
@dataclass
class BatchResult:
    """Outcome of running one batch of a single network.

    Attributes
    ----------
    output_spikes:
        Boolean output-spike raster, shape ``(batch, timesteps, n_neurons)``.
    spike_counts:
        Per-sample, per-neuron output spike counts ``(batch, n_neurons)``.
    input_spike_counts:
        Number of input spikes delivered per sample (activity statistic for
        the energy model).
    final_reset_latch:
        Faulty-reset latch state ``(n_neurons,)`` after the *last* sample of
        the batch, accounting for the sequential sample order; syncing it
        back into the network (:meth:`DiehlCookNetwork.sync_neuron_state`)
        makes the next batch start from it.
    final_state:
        Per-sample final neuron state, ``(batch, n_neurons)`` arrays.
    simulation_passes:
        Number of passes the latch fix-up needed (1 when no new faulty-reset
        latch fired).
    """

    output_spikes: np.ndarray
    spike_counts: np.ndarray
    input_spike_counts: np.ndarray
    final_reset_latch: np.ndarray
    final_state: MapParallelState
    simulation_passes: int = 1

    @property
    def batch_size(self) -> int:
        """Number of samples in the batch."""
        return int(self.output_spikes.shape[0])


class BatchedInferenceEngine:
    """Classify batches of one network: a one-row :class:`MapParallelEngine`.

    The front end reads the network's registers, operation status,
    thresholds and faulty-reset latches at call time (through
    :meth:`MapParallelEngine.for_network`), so one instance serves a
    network across fault injections or weight updates.

    Parameters
    ----------
    network:
        The (possibly fault-injected) network to run.  Only inference is
        supported — training presentations update the weights between
        timesteps.
    model:
        Neuron model to simulate — a registered name, a
        :class:`~repro.snn.models.NeuronModel` instance, or ``None``
        (default) to use the network configuration's ``neuron_model``.
    """

    def __init__(
        self,
        network: "DiehlCookNetwork",
        model: Optional[object] = None,
    ) -> None:
        self.network = network
        if model is None:
            model = getattr(network.config, "neuron_model", None)
        self.model: NeuronModel = resolve_model(model)

    def run(self, images: np.ndarray, rng: RNGLike = None) -> BatchResult:
        """Encode and classify a batch of images.

        ``images`` is ``(batch, height, width)``, ``(batch, n_inputs)`` or
        a single 2-D image; ``rng`` seeds the encoding, which consumes the
        generator's stream exactly as the sequential per-sample loop would.
        """
        flat = flatten_images(images, self.network.n_inputs)
        rasters = self.network.encoder.encode_batch(
            flat[:, np.newaxis, :], rng=resolve_rng(rng)
        )
        return self.run_encoded(rasters)

    def run_encoded(self, rasters: np.ndarray) -> BatchResult:
        """Run pre-encoded rasters of shape ``(batch, timesteps, n_inputs)``.

        The batch starts from the network's current faulty-reset latches
        and presents its samples in order, so a latch fired by one sample
        carries into the next (see :meth:`MapParallelEngine.run_encoded`).
        """
        engine = MapParallelEngine.for_network(self.network, self.model)
        result = engine.run_encoded(
            [rasters],
            initial_reset_latch=self.network.neurons.reset_fault_latched[np.newaxis],
            collect_output_spikes=True,
        )
        return BatchResult(
            output_spikes=result.output_spikes[0],
            spike_counts=result.spike_counts[0],
            input_spike_counts=result.input_spike_counts[0],
            final_reset_latch=result.final_reset_latch[0],
            final_state=result.final_state.row(0),
            simulation_passes=result.simulation_passes,
        )
