"""Run-time mitigation techniques sharing one evaluation interface.

Every technique answers the same question — *given a trained model, a test
set and a soft-error scenario, what accuracy does the system deliver?* —
through :meth:`MitigationTechnique.evaluate`.  The available techniques are
the paper's comparison partners:

* :class:`NoMitigation` — the unprotected baseline: the faulty compute
  engine is used as-is.
* :class:`ReExecutionTMR` — the conventional fault-tolerance baseline:
  every inference is executed three times on the same presented input
  (the paper's redundant execution), the re-executions on reloaded
  parameters, and the predictions are combined by majority vote.
* :class:`BnPTechnique` — SoftSNN's Bound-and-Protect in its three variants
  (BnP1 / BnP2 / BnP3): weight bounding on the values read from the
  (possibly corrupted) registers plus neuron protection against faulty
  ``Vmem reset`` operations.

The fault map can be drawn inside ``evaluate`` or passed in explicitly; the
experiment harness passes the same map to every technique so comparisons at
a given fault rate are paired.

A technique reaches the engine only through *map-parallel* evaluation:
given many fault maps, it plans its per-map compute-engine rows — stacked
faulty or bounded registers, per-map operation status, protection
triggers — via the abstract :meth:`MitigationTechnique.plan_rows`, and
:func:`evaluate_techniques_mapped` advances all rows of all techniques
through the :class:`~repro.snn.engine.MapParallelEngine` in one fused pass.
A :class:`~repro.snn.engine.MapRow` (weight rule plus protection trigger)
is the only way a mitigation reaches the engine, and
:meth:`MitigationTechnique.evaluate` is the one-cell, one-technique case
of that pass: every execution of a cell — re-executions included — sees
the cell's one encoded presentation.  Per (technique, map) pair the result
is bit-identical to a stand-alone evaluation of that pair over the same
rasters.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bound_and_protect import BnPVariant, WeightBounding
from repro.data.datasets import Dataset
from repro.faults.fault_map import FaultMap, FaultMapGenerator
from repro.faults.models import ComputeEngineFaultConfig
from repro.faults.neuron_faults import NeuronFaultInjector
from repro.hardware.enhancements import MitigationKind
from repro.snn.engine import MapRow, flatten_images
from repro.snn.inference import InferenceResult, StreamedRaster, evaluate_rows
from repro.snn.neuron import NeuronOperationStatus
from repro.snn.synapse import SynapseMatrix
from repro.snn.training import TrainedModel
from repro.utils.bits import flip_bits_in_array
from repro.utils.rng import RNGLike, resolve_rng

__all__ = [
    "MitigationTechnique",
    "NoMitigation",
    "ReExecutionTMR",
    "BnPTechnique",
    "MapAssets",
    "TechniqueRowPlan",
    "prepare_map_assets",
    "evaluate_techniques_mapped",
    "fault_map_generator",
    "discard_initial_weight_draw",
    "build_technique",
]


# ---------------------------------------------------------------------- #
# map-parallel planning
# ---------------------------------------------------------------------- #
@dataclass
class MapAssets:
    """Per-fault-map compute-engine state shared by every technique.

    One instance describes the deployed engine after one fault map struck
    it: the corrupted weight registers and the per-neuron operation health.
    ``clean_registers`` is the *same array object* for every map of a unit,
    and ``faulty_registers`` aliases it when the map contains no synapse
    faults — the map-parallel engine deduplicates base current GEMMs by
    array identity, so aliasing is meaningful, not just an optimisation.
    """

    raster_index: int
    clean_registers: np.ndarray
    faulty_registers: np.ndarray
    status: NeuronOperationStatus
    healthy_status: NeuronOperationStatus

    def faulty_row(self) -> MapRow:
        """The row of the corrupted engine, unmitigated."""
        return MapRow(
            raster_index=self.raster_index,
            registers=self.faulty_registers,
            operation_status=self.status,
        )


@dataclass
class TechniqueRowPlan:
    """The rows one technique contributes to a map-parallel unit.

    ``rows`` is cell-major: ``rows_per_cell`` consecutive rows per fault
    map, in map order.  The owning technique interprets the per-row results
    back into one :class:`~repro.snn.inference.InferenceResult` per map via
    :meth:`MitigationTechnique.combine_row_results`.
    """

    kind: MitigationKind
    rows: List[MapRow]
    rows_per_cell: int

    @property
    def n_cells(self) -> int:
        """Number of fault maps (sweep cells) the plan covers."""
        return len(self.rows) // self.rows_per_cell


def fault_map_generator(model: TrainedModel) -> FaultMapGenerator:
    """Fault-map generator over *model*'s deployed crossbar registers."""
    return FaultMapGenerator(
        crossbar_shape=(model.network_config.n_inputs, model.n_neurons),
        quantizer=model.network_config.make_quantizer(model.clean_max_weight),
    )


def discard_initial_weight_draw(
    model: TrainedModel, generator: np.random.Generator
) -> None:
    """Consume the random initial weights a network of *model* would draw.

    :func:`repro.snn.oracle.build_network` builds a network whose random
    initial weights the trained ones overwrite.  Drawing the same doubles
    and throwing them away keeps *generator*'s stream — and so every fault
    map and encoding drawn after it — equal to the network route's.
    """
    generator.random(model.network_config.n_inputs * model.n_neurons)


def _corrupt_registers(
    clean_registers: np.ndarray, fault_map: FaultMap, quantizer
) -> np.ndarray:
    """Registers after *fault_map*'s bit flips (aliases clean when none).

    Mirrors :meth:`~repro.snn.synapse.SynapseMatrix.apply_bit_flips`; the
    returned array aliases ``clean_registers`` for maps without synapse
    faults so the map-parallel engine's identity-based GEMM dedup engages.
    """
    if not fault_map.n_synapse_faults:
        return clean_registers
    return flip_bits_in_array(
        clean_registers.astype(np.int64),
        fault_map.synapse_flat_indices,
        fault_map.synapse_bit_positions,
        bit_width=quantizer.bits,
    ).astype(clean_registers.dtype)


def prepare_map_assets(
    model: TrainedModel,
    fault_maps: Optional[Sequence[FaultMap]],
    n_cells: int,
) -> List[MapAssets]:
    """Build the per-map engine state every technique's rows derive from.

    The clean deployed registers are computed once (exactly the registers
    :func:`repro.snn.oracle.build_network` loads) and each fault map's bit
    flips are applied on top, mirroring what the oracle's
    :meth:`~repro.faults.injector.FaultInjector.apply_fault_map` does to a
    network.  With ``fault_maps=None`` every cell gets the clean engine
    (the fault-free reference measurement).
    """
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    if fault_maps is not None and len(fault_maps) != n_cells:
        raise ValueError(
            f"expected {n_cells} fault maps, got {len(fault_maps)}"
        )
    quantizer = model.network_config.make_quantizer(model.clean_max_weight)
    synapses = SynapseMatrix(
        np.clip(model.weights, 0.0, quantizer.full_scale), quantizer=quantizer
    )
    clean_registers = synapses.registers
    crossbar_shape = synapses.shape
    healthy = NeuronOperationStatus.healthy(model.n_neurons)
    injector = NeuronFaultInjector(n_neurons=model.n_neurons)

    assets: List[MapAssets] = []
    for index in range(n_cells):
        fault_map = None if fault_maps is None else fault_maps[index]
        if fault_map is None or fault_map.is_empty:
            faulty_registers = clean_registers
            status = healthy
        else:
            if fault_map.crossbar_shape != crossbar_shape:
                raise ValueError(
                    f"fault map was drawn for crossbar {fault_map.crossbar_shape} "
                    f"but the model has {crossbar_shape}"
                )
            faulty_registers = _corrupt_registers(
                clean_registers, fault_map, quantizer
            )
            status = injector.outcome_from_faults(fault_map.neuron_faults).status
        assets.append(
            MapAssets(
                raster_index=index,
                clean_registers=clean_registers,
                faulty_registers=faulty_registers,
                status=status,
                healthy_status=healthy,
            )
        )
    return assets


def evaluate_techniques_mapped(
    model: TrainedModel,
    dataset: Dataset,
    techniques: Sequence["MitigationTechnique"],
    fault_maps: Optional[Sequence[FaultMap]],
    rasters: Sequence,
    batch_size: Optional[int] = None,
) -> Dict[MitigationKind, List[InferenceResult]]:
    """Evaluate every technique against every fault map in one fused pass.

    This is the campaign hot path: each technique plans its per-map rows
    (stacked faulty/bounded registers plus protection triggers), all rows
    advance together through the map-parallel engine over the shared
    encoded rasters, and each technique folds its rows back into one
    result per map.  Per (technique, map) pair the outcome is bit-identical
    to evaluating that pair alone (parity suite), so grouping cells is a
    pure execution-strategy choice.

    Parameters
    ----------
    model:
        Trained clean model under test.
    dataset:
        Test set (supplies the ground-truth labels).
    techniques:
        Techniques to compare, of distinct kinds (results are keyed by
        :attr:`MitigationTechnique.kind`).
    fault_maps:
        One pre-drawn fault map per cell, or ``None`` for clean cells.
    rasters:
        One raster group per cell (see
        :func:`~repro.snn.inference.evaluate_rows`): a pre-encoded spike
        raster ``(n_samples, T, n_inputs)``, or a chunk-wise
        :class:`~repro.snn.inference.StreamedRaster` (what
        :meth:`MitigationTechnique.evaluate` and campaign units pass) —
        every technique presents
        the *same* encoded test set of its cell, the paired-presentation
        protocol of the campaign layer.
    batch_size:
        Sample chunk size of the fused engine pass.
    """
    if not techniques:
        raise ValueError("at least one technique is required")
    kinds = [technique.kind for technique in techniques]
    if len(set(kinds)) != len(kinds):
        raise ValueError(
            "techniques must have distinct kinds, got "
            f"{[kind.value for kind in kinds]}"
        )
    if not rasters:
        raise ValueError("at least one raster group (cell) is required")
    assets = prepare_map_assets(model, fault_maps, len(rasters))
    plans = [technique.plan_rows(model, assets) for technique in techniques]
    rows = [row for plan in plans for row in plan.rows]
    quantizer = model.network_config.make_quantizer(model.clean_max_weight)
    row_results = evaluate_rows(
        rows,
        rasters,
        model.neuron_labels,
        dataset.labels,
        quantizer=quantizer,
        params=model.network_config.neuron_params,
        theta=model.theta,
        batch_size=batch_size,
        model=getattr(model.network_config, "neuron_model", None),
    )
    outcomes: Dict[MitigationKind, List[InferenceResult]] = {}
    offset = 0
    for technique, plan in zip(techniques, plans):
        chunk = row_results[offset : offset + len(plan.rows)]
        offset += len(plan.rows)
        outcomes[technique.kind] = technique.combine_row_results(chunk, plan)
    return outcomes


class MitigationTechnique(abc.ABC):
    """Common interface of all mitigation techniques."""

    #: Hardware-model identity of the technique (drives cost estimation).
    kind: MitigationKind = MitigationKind.NO_MITIGATION

    @property
    def name(self) -> str:
        """Human-readable technique name used in reports and benches."""
        return self.kind.value

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        model: TrainedModel,
        dataset: Dataset,
        fault_config: Optional[ComputeEngineFaultConfig] = None,
        rng: RNGLike = None,
        fault_map: Optional[FaultMap] = None,
        batch_size: Optional[int] = None,
    ) -> InferenceResult:
        """Classify *dataset* under the given soft-error scenario.

        The one-cell, one-technique case of
        :func:`evaluate_techniques_mapped`: one generator serves the whole
        cell — a discarded initial-weight draw, the fault map (unless one
        is passed), then the Poisson encoding, streamed one engine chunk at
        a time.

        Parameters
        ----------
        model:
            The trained clean model; techniques never mutate it.
        dataset:
            Test samples to classify.
        fault_config:
            Soft-error injection configuration; ``None`` (or a zero fault
            rate) evaluates the clean network.
        rng:
            Seed or generator for fault drawing and Poisson encoding.
        fault_map:
            Optional pre-drawn fault map, replayed instead of drawing a new
            one — used by the harness for paired comparisons.
        batch_size:
            Number of samples the inference engine advances
            together; ``None`` uses the engine default.
        """
        generator = resolve_rng(rng)
        discard_initial_weight_draw(model, generator)
        if (
            fault_map is None
            and fault_config is not None
            and fault_config.fault_rate > 0
        ):
            fault_map = fault_map_generator(model).generate(fault_config, rng=generator)
        raster = StreamedRaster(
            model.network_config.make_encoder(),
            flatten_images(dataset.images, model.network_config.n_inputs),
            generator,
        )
        return evaluate_techniques_mapped(
            model,
            dataset,
            [self],
            None if fault_map is None else [fault_map],
            [raster],
            batch_size,
        )[self.kind][0]

    # ------------------------------------------------------------------ #
    # map-parallel protocol
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def plan_rows(
        self,
        model: TrainedModel,
        assets: Sequence[MapAssets],
    ) -> TechniqueRowPlan:
        """Contribute this technique's per-map rows to a fused unit.

        A technique participates in fused map-parallel execution by
        translating each fault map's :class:`MapAssets` into one or more
        :class:`~repro.snn.engine.MapRow` configurations (stacked
        registers, bounding rule, protection trigger).  Planning draws no
        randomness: the rows follow from the model and the maps alone.
        """

    def combine_row_results(
        self, row_results: List[InferenceResult], plan: TechniqueRowPlan
    ) -> List[InferenceResult]:
        """Fold per-row engine results back into one result per fault map.

        The default handles the one-row-per-map case (no mitigation, BnP);
        techniques with several rows per map (re-execution) override it.
        """
        if plan.rows_per_cell != 1:
            raise NotImplementedError(
                f"{type(self).__name__} must override combine_row_results for "
                f"{plan.rows_per_cell} rows per cell"
            )
        return list(row_results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(kind={self.kind.value})"


class NoMitigation(MitigationTechnique):
    """Unprotected baseline: the faulty compute engine is used unchanged."""

    kind = MitigationKind.NO_MITIGATION

    def plan_rows(
        self,
        model: TrainedModel,
        assets: Sequence[MapAssets],
    ) -> TechniqueRowPlan:
        """One row per map: the corrupted engine, used as-is."""
        rows = [asset.faulty_row() for asset in assets]
        return TechniqueRowPlan(kind=self.kind, rows=rows, rows_per_cell=1)


class ReExecutionTMR(MitigationTechnique):
    """Re-execution baseline: triple modular redundancy in time.

    Every input is classified ``n_executions`` times and the predictions are
    combined by majority vote.  All executions of a cell see the same
    presented input — the cell's one encoded raster — as in the paper's
    redundant execution of one inference; they differ only in the
    compute-engine state.

    The fault model follows the paper's Section 2.2 persistence rules: bit
    flips persist *until the register is overwritten* and faulty neuron
    operations persist *until the parameters are replaced*.  Each
    re-execution reloads the network parameters onto the compute engine,
    which clears the soft errors accumulated up to that point; because a
    single execution lasts microseconds while soft errors accumulate over
    much longer mission times, the probability that a fresh particle strike
    lands during a re-execution is negligible.  The first execution
    therefore carries the accumulated fault map and the re-executions run
    clean — which is exactly why the paper observes that re-execution
    restores near-clean accuracy at three times the latency and energy.

    Parameters
    ----------
    n_executions:
        Number of redundant executions (3 in the paper's TMR mode).
    """

    kind = MitigationKind.RE_EXECUTION

    def __init__(self, n_executions: int = 3) -> None:
        if n_executions < 1 or n_executions % 2 == 0:
            raise ValueError(
                f"n_executions must be a positive odd number, got {n_executions}"
            )
        self.n_executions = int(n_executions)

    def plan_rows(
        self,
        model: TrainedModel,
        assets: Sequence[MapAssets],
    ) -> TechniqueRowPlan:
        """First execution carries the map; re-executions run reloaded.

        The parameter reload makes every re-execution deterministic on the
        presented rasters, so all ``n_executions - 1`` re-executions share
        one clean row.
        """
        rows: List[MapRow] = []
        for asset in assets:
            rows.append(asset.faulty_row())
            if self.n_executions > 1:
                rows.append(
                    MapRow(
                        raster_index=asset.raster_index,
                        registers=asset.clean_registers,
                        operation_status=asset.healthy_status,
                    )
                )
        return TechniqueRowPlan(
            kind=self.kind, rows=rows, rows_per_cell=min(self.n_executions, 2)
        )

    def combine_row_results(
        self, row_results: List[InferenceResult], plan: TechniqueRowPlan
    ) -> List[InferenceResult]:
        """Elect each map's per-sample majority prediction.

        The shared clean row casts ``n_executions - 1`` identical votes
        against the faulty row's one, so the majority is the clean row's
        prediction whenever there are re-executions and the faulty row's
        otherwise: each map's last row.  Spike counts are the first (faulty)
        execution's; input spikes are summed over all ``n_executions``.
        """
        per_cell = plan.rows_per_cell
        results: List[InferenceResult] = []
        for start in range(0, len(row_results), per_cell):
            faulty = row_results[start]
            elected = row_results[start + per_cell - 1]
            results.append(
                InferenceResult(
                    predictions=elected.predictions.copy(),
                    labels=faulty.labels.copy(),
                    spike_counts=faulty.spike_counts.copy(),
                    total_input_spikes=faulty.total_input_spikes
                    + (self.n_executions - 1) * elected.total_input_spikes,
                )
            )
        return results


class BnPTechnique(MitigationTechnique):
    """SoftSNN's Bound-and-Protect mitigation (BnP1 / BnP2 / BnP3).

    The technique derives its weight threshold and substitute value from the
    clean model's weight statistics (Section 3.1), bounds the weights read
    out of the possibly corrupted registers (Eq. 1), and monitors every
    neuron's comparator to gate off spike generation when a faulty
    ``Vmem reset`` is detected.

    Parameters
    ----------
    variant:
        Which BnP variant to apply.
    protection_trigger_cycles:
        Consecutive above-threshold cycles that flag a faulty reset (2 in
        the paper).
    """

    def __init__(
        self,
        variant: BnPVariant,
        protection_trigger_cycles: int = 2,
    ) -> None:
        if not isinstance(variant, BnPVariant):
            raise TypeError(
                f"variant must be a BnPVariant, got {type(variant).__name__}"
            )
        self.variant = variant
        self.kind = variant.mitigation_kind
        self.protection_trigger_cycles = int(protection_trigger_cycles)
        if self.protection_trigger_cycles < 1:
            raise ValueError("protection_trigger_cycles must be at least 1")

    # ------------------------------------------------------------------ #
    def bounding_for(self, model: TrainedModel) -> WeightBounding:
        """Derive the Eq. 1 bounding rule from the clean model's statistics."""
        return WeightBounding.for_variant(
            self.variant,
            clean_max_weight=model.clean_max_weight,
            most_probable_weight=model.clean_most_probable_weight,
        )

    def plan_rows(
        self,
        model: TrainedModel,
        assets: Sequence[MapAssets],
    ) -> TechniqueRowPlan:
        """One bounded-and-protected row per map.

        Every row reads its map's corrupted registers through the Eq. 1
        bounding rule and gates faulty-reset neurons at the configured
        trigger count.  Each row's result reports what the mechanisms did
        (:attr:`~repro.snn.inference.InferenceResult.bounded_synapses`,
        ``protected_neurons``, ``protection_activations``).
        """
        rule = self.bounding_for(model).as_weight_rule()
        rows = [
            MapRow(
                raster_index=asset.raster_index,
                registers=asset.faulty_registers,
                operation_status=asset.status,
                weight_rule=rule,
                protection_trigger_cycles=self.protection_trigger_cycles,
            )
            for asset in assets
        ]
        return TechniqueRowPlan(kind=self.kind, rows=rows, rows_per_cell=1)


def build_technique(kind: MitigationKind, **kwargs) -> MitigationTechnique:
    """Factory mapping a :class:`MitigationKind` onto its technique object.

    Keyword arguments are forwarded to the technique constructor (e.g.
    ``n_executions`` for re-execution, ``protection_trigger_cycles`` for the
    BnP variants).
    """
    if kind == MitigationKind.NO_MITIGATION:
        return NoMitigation(**kwargs)
    if kind == MitigationKind.RE_EXECUTION:
        return ReExecutionTMR(**kwargs)
    if kind == MitigationKind.BNP1:
        return BnPTechnique(BnPVariant.BNP1, **kwargs)
    if kind == MitigationKind.BNP2:
        return BnPTechnique(BnPVariant.BNP2, **kwargs)
    if kind == MitigationKind.BNP3:
        return BnPTechnique(BnPVariant.BNP3, **kwargs)
    raise ValueError(f"unknown mitigation kind: {kind!r}")
