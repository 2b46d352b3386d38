"""Parallel campaign orchestration: spec → cells → executors → store.

Every accuracy figure of the paper (Fig. 3a, 10, 13) is a grid of
independent simulations — workload × network size × fault rate × trial ×
technique.  This module turns that grid into explicit, schedulable work:

* :class:`CampaignSpec` declares the grid (experiments, fault rates,
  trials, techniques, injection targets) and expands it into
  :class:`SweepCell` units — one cell per ``(experiment, fault rate,
  trial)`` coordinate, plus one fault-free reference cell per experiment.
* Each cell is deterministically seeded from its grid coordinates
  (:func:`repro.utils.rng.derive_cell_seed`), so executing cells serially,
  across a process pool, or in any order produces bit-identical
  accuracies.  Within a cell the paper's pairing is preserved and extended
  to the inputs: one fault map is drawn per trial, the test set is Poisson
  encoded once, and every technique replays the same map against the same
  encoded presentations.  Cells at the same (experiment, fault rate)
  coordinate execute as one fused :class:`~repro.snn.engine.MapParallelEngine`
  unit (see :func:`execute_cell_group`); the records are bit-identical to
  executing each cell as a unit of its own.
* :func:`run_campaign` executes the pending cells — serially or across a
  pool of warm persistent worker processes
  (:mod:`repro.eval.pool`) — streaming every finished cell into an
  append-only :class:`~repro.eval.store.ResultStore` so an interrupted
  campaign resumes where it stopped, and finally aggregates the records
  back into per-experiment :class:`~repro.eval.sweep.SweepResult` objects.
  :class:`~repro.eval.sweep.FaultRateSweep` runs on the same serial
  executor.

Workers never retrain and never regenerate data: the orchestrator trains
each clean model once, snapshots it with
:meth:`~repro.snn.training.TrainedModel.save` and hands every worker the
snapshot path and the test set once, as process arguments.  Long-lived
workers load the snapshot once, then draw each unit's fault maps and
encode its presentations themselves — so a unit's marginal cost in a
worker is its own simulation, which is what lets the pool approach linear
scaling on multi-core machines.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mitigation import (
    MitigationTechnique,
    build_technique,
    evaluate_techniques_mapped,
    fault_map_generator,
)
from repro.data.datasets import Dataset
from repro.eval.experiment import (
    ExperimentConfig,
    ExperimentRunner,
)
from repro.eval.store import ResultStore
from repro.eval.sweep import SweepResult, TechniqueAccuracy
from repro.faults.fault_map import FaultMap
from repro.faults.models import ComputeEngineFaultConfig
from repro.hardware.enhancements import MitigationKind
from repro.obs import metrics as _obs
from repro.obs.trace import span
from repro.snn.engine import flatten_images
from repro.snn.inference import StreamedRaster
from repro.snn.training import TrainedModel
from repro.utils.logging import get_logger
from repro.utils.rng import derive_cell_seed, derive_clean_seed
from repro.utils.serialization import numpy_to_native

__all__ = [
    "TechniqueSpec",
    "SweepCell",
    "CellResult",
    "CampaignSpec",
    "CampaignResult",
    "UnitInputs",
    "build_experiment_cells",
    "execute_cell_group",
    "prepare_unit_inputs",
    "group_cells",
    "collect_sweep_result",
    "resolve_worker_count",
    "run_campaign",
]

_LOGGER = get_logger("eval.campaign")

#: Key under which a fault-free reference cell stores its accuracy.
CLEAN_KEY = "clean"

# Campaign telemetry (docs/observability.md).  The cells counter ticks in
# the orchestrator's result callback, so serially recovered cells count
# exactly once; unit wall times and worker gauges live in the pool module.
_CAMPAIGN_CELLS = _obs.get_registry().counter(
    "softsnn_campaign_cells_total",
    "Campaign cells completed (streamed into the result callback).",
)


# ---------------------------------------------------------------------- #
# grid elements
# ---------------------------------------------------------------------- #
@dataclass
class TechniqueSpec:
    """Declarative identity of one mitigation technique in a campaign.

    Campaign workers rebuild the concrete
    :class:`~repro.core.mitigation.MitigationTechnique` object from this
    spec (kind + constructor options) in their own process, so technique
    instances never travel across the pool pipe.
    """

    kind: MitigationKind
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MitigationKind):
            self.kind = MitigationKind(self.kind)
        self.options = dict(self.options)

    def build(self) -> MitigationTechnique:
        """Instantiate the technique this spec describes."""
        return build_technique(self.kind, **self.options)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (technique kind value plus options)."""
        return {"kind": self.kind.value, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TechniqueSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(kind=MitigationKind(data["kind"]), options=dict(data.get("options", {})))


@dataclass(frozen=True)
class SweepCell:
    """One independent, deterministically seeded unit of campaign work.

    A cell covers a single ``(experiment, fault rate, trial)`` coordinate
    and evaluates *every* technique of the campaign against the same fault
    map, preserving the paper's paired-comparison protocol.  The fault-free
    reference measurement of an experiment is the special *clean* cell
    (``rate_index == trial_index == -1``).
    """

    experiment_key: str
    fault_rate: Optional[float]
    rate_index: int
    trial_index: int
    seed: int
    inject_synapses: bool = True
    inject_neurons: bool = True
    batch_size: Optional[int] = None

    @property
    def is_clean(self) -> bool:
        """True for the fault-free reference cell of an experiment."""
        return self.fault_rate is None

    @property
    def cell_id(self) -> str:
        """Stable identifier used for store-based resume bookkeeping."""
        if self.is_clean:
            return f"{self.experiment_key}::clean"
        return (
            f"{self.experiment_key}::rate[{self.rate_index}]={self.fault_rate:g}"
            f"::trial[{self.trial_index}]"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form, as sent to pool workers."""
        return {
            "experiment_key": self.experiment_key,
            "fault_rate": self.fault_rate,
            "rate_index": self.rate_index,
            "trial_index": self.trial_index,
            "seed": self.seed,
            "inject_synapses": self.inject_synapses,
            "inject_neurons": self.inject_neurons,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            experiment_key=str(data["experiment_key"]),
            fault_rate=(
                None if data["fault_rate"] is None else float(data["fault_rate"])
            ),
            rate_index=int(data["rate_index"]),
            trial_index=int(data["trial_index"]),
            seed=int(data["seed"]),
            inject_synapses=bool(data["inject_synapses"]),
            inject_neurons=bool(data["inject_neurons"]),
            batch_size=(
                None if data["batch_size"] is None else int(data["batch_size"])
            ),
        )


@dataclass
class CellResult:
    """Outcome of executing one :class:`SweepCell`.

    ``accuracies`` maps technique identity (``MitigationKind.value``) to
    accuracy percent; a clean cell stores a single entry under
    :data:`CLEAN_KEY`.  ``duration_seconds`` is the unit's engine pass
    (:func:`execute_cell_group` after its inputs are prepared) split evenly
    across the unit's cells, on the serial and the pooled path alike; the
    fault-map draws of :func:`prepare_unit_inputs` are not in it.
    """

    cell_id: str
    experiment_key: str
    fault_rate: Optional[float]
    rate_index: int
    trial_index: int
    accuracies: Dict[str, float]
    n_faults: int = 0
    duration_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form, as appended to the result store."""
        return {
            "cell_id": self.cell_id,
            "experiment_key": self.experiment_key,
            "fault_rate": self.fault_rate,
            "rate_index": self.rate_index,
            "trial_index": self.trial_index,
            "accuracies": {k: float(v) for k, v in self.accuracies.items()},
            "n_faults": int(self.n_faults),
            "duration_seconds": float(self.duration_seconds),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellResult":
        """Rebuild a result from :meth:`to_dict` output (store records)."""
        return cls(
            cell_id=str(data["cell_id"]),
            experiment_key=str(data["experiment_key"]),
            fault_rate=(
                None if data["fault_rate"] is None else float(data["fault_rate"])
            ),
            rate_index=int(data["rate_index"]),
            trial_index=int(data["trial_index"]),
            accuracies={str(k): float(v) for k, v in data["accuracies"].items()},
            n_faults=int(data.get("n_faults", 0)),
            duration_seconds=float(data.get("duration_seconds", 0.0)),
        )


# ---------------------------------------------------------------------- #
# cell construction and execution
# ---------------------------------------------------------------------- #
def build_experiment_cells(
    experiment_key: str,
    fault_rates: Sequence[float],
    n_trials: int,
    root_seed: int,
    inject_synapses: bool = True,
    inject_neurons: bool = True,
    batch_size: Optional[int] = None,
    include_clean: bool = True,
) -> List[SweepCell]:
    """Expand one experiment's sweep into its independent cells.

    The cell seeds depend only on ``(root_seed, experiment_key, rate index,
    trial index)``, never on construction or execution order, which is what
    makes serial and parallel campaign runs bit-identical.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if not fault_rates:
        raise ValueError("at least one fault rate is required")
    cells: List[SweepCell] = []
    if include_clean:
        cells.append(
            SweepCell(
                experiment_key=experiment_key,
                fault_rate=None,
                rate_index=-1,
                trial_index=-1,
                seed=derive_clean_seed(root_seed, experiment_key),
                inject_synapses=inject_synapses,
                inject_neurons=inject_neurons,
                batch_size=batch_size,
            )
        )
    for rate_index, fault_rate in enumerate(fault_rates):
        for trial_index in range(n_trials):
            cells.append(
                SweepCell(
                    experiment_key=experiment_key,
                    fault_rate=float(fault_rate),
                    rate_index=rate_index,
                    trial_index=trial_index,
                    seed=derive_cell_seed(
                        root_seed, experiment_key, rate_index, trial_index
                    ),
                    inject_synapses=inject_synapses,
                    inject_neurons=inject_neurons,
                    batch_size=batch_size,
                )
            )
    return cells


def _clean_reference_key(techniques: Sequence[MitigationTechnique]) -> str:
    """Which technique's clean accuracy doubles as the legacy baseline.

    The unmitigated engine is the natural fault-free reference; campaigns
    that do not include it fall back to the first technique.
    """
    for technique in techniques:
        if technique.kind == MitigationKind.NO_MITIGATION:
            return technique.kind.value
    return techniques[0].kind.value


@dataclass
class UnitInputs:
    """Per-cell randomness of one execution unit, ready for the engine pass.

    The drawn fault maps (``None`` for the clean unit) and one raster
    group per cell (see :func:`~repro.snn.inference.evaluate_rows`).
    :func:`prepare_unit_inputs` makes each group a
    :class:`~repro.snn.inference.StreamedRaster` that encodes one engine
    chunk at a time inside the pass, from the cell's generator right after
    its map draw; pre-encoded ``(n_samples, T, n_inputs)`` rasters drawn
    from the same generators give the same records.  Streamed groups are
    read once, so a :class:`UnitInputs` serves one execution: running it
    again raises ``ValueError``.
    """

    fault_maps: Optional[List["FaultMap"]]
    rasters: List[Union[StreamedRaster, np.ndarray]]


def _validate_unit(
    cells: Sequence[SweepCell], techniques: Optional[Sequence[MitigationTechnique]]
) -> None:
    """Shared sanity checks of one execution unit's cells."""
    if not cells:
        raise ValueError("at least one cell is required")
    if techniques is not None and not techniques:
        raise ValueError("at least one technique is required")
    keys = {cell.experiment_key for cell in cells}
    if len(keys) != 1:
        raise ValueError(f"cells of one unit must share an experiment, got {keys}")
    coordinates = {
        (cell.rate_index, cell.fault_rate, cell.inject_synapses,
         cell.inject_neurons, cell.batch_size)
        for cell in cells
    }
    if len(coordinates) != 1:
        raise ValueError(
            "cells of one unit must share their (fault rate, injection, "
            "batch size) coordinate"
        )
    if any(cell.is_clean for cell in cells) and len(cells) != 1:
        raise ValueError("the clean reference cell must form its own unit")


def _unit_fault_config(cell: SweepCell) -> Optional[ComputeEngineFaultConfig]:
    """The injection configuration shared by a unit's fault maps."""
    if cell.is_clean:
        return None
    return ComputeEngineFaultConfig(
        fault_rate=cell.fault_rate,
        inject_synapses=cell.inject_synapses,
        inject_neurons=cell.inject_neurons,
    )


def prepare_unit_inputs(
    cells: Sequence[SweepCell],
    model: TrainedModel,
    dataset: Dataset,
) -> UnitInputs:
    """Draw one unit's fault maps and set up its streamed presentations.

    Per-cell randomness protocol (all from ``cell.seed``): the fault map is
    drawn first, then the test set is Poisson-encoded once, and every
    technique later evaluates against that same fault map *and* the same
    encoded presentations — the paired-comparison protocol of the paper
    applied to presentations as well as maps.  Only the maps are drawn
    here; each cell's encoding is a
    :class:`~repro.snn.inference.StreamedRaster` that the engine pass of
    :func:`execute_cell_group` reads one chunk at a time, so no cell's
    whole-test-set raster is ever held.
    """
    cells = list(cells)
    _validate_unit(cells, techniques=None)
    generators = [np.random.default_rng(cell.seed) for cell in cells]

    config = _unit_fault_config(cells[0])
    if config is None:
        fault_maps = None
    else:
        map_generator = fault_map_generator(model)
        fault_maps = [
            map_generator.generate(config, rng=generator)
            for generator in generators
        ]

    encoder = model.network_config.make_encoder()
    flat = flatten_images(dataset.images, model.network_config.n_inputs)
    rasters = [StreamedRaster(encoder, flat, generator) for generator in generators]
    return UnitInputs(fault_maps=fault_maps, rasters=rasters)


def execute_cell_group(
    cells: Sequence[SweepCell],
    model: TrainedModel,
    dataset: Dataset,
    techniques: Sequence[MitigationTechnique],
    inputs: Optional[UnitInputs] = None,
) -> List[CellResult]:
    """Execute cells at one (experiment, fault rate) coordinate as a unit.

    This is the campaign hot path: every cell's fault map is drawn from its
    own seed exactly as in per-cell execution
    (:func:`prepare_unit_inputs`), all maps and all techniques are stacked
    into one map-parallel engine pass
    (:func:`repro.core.mitigation.evaluate_techniques_mapped`), and one
    :class:`CellResult` per cell comes back out.  Because the per-row
    engine arithmetic is bit-identical to stand-alone evaluation, grouping
    is purely an execution-strategy choice: the records equal the ones a
    one-cell unit produces for each cell alone (only the measured
    ``duration_seconds`` differs — the unit's engine pass, timed after its
    inputs are prepared, is split evenly across its cells).

    A clean cell (one per experiment) must form its own unit; it evaluates
    every technique against the fault-free engine, so weight-modifying
    techniques (BnP bounds weights even at fault rate 0) report their true
    clean baseline instead of inheriting the unmitigated one.

    Parameters
    ----------
    cells / model / dataset / techniques:
        The unit and the assets it evaluates against.
    inputs:
        Optional prepared :class:`UnitInputs` — the warm-pool path, where
        the worker draws the maps as a separately timed stage (encoding
        streams inside the engine pass either way).  ``None`` (the serial
        path) prepares them here from the cell seeds; the streams consumed
        are identical, so the records match bit for bit.
    """
    cells = list(cells)
    _validate_unit(cells, techniques)

    if inputs is None:
        inputs = prepare_unit_inputs(cells, model, dataset)
    fault_maps = inputs.fault_maps

    started = time.perf_counter()

    with span(
        "campaign.unit",
        experiment=cells[0].experiment_key,
        fault_rate=cells[0].fault_rate,
        n_cells=len(cells),
    ):
        outcomes = evaluate_techniques_mapped(
            model,
            dataset,
            techniques,
            fault_maps=fault_maps,
            rasters=inputs.rasters,
            batch_size=cells[0].batch_size,
        )

    duration = (time.perf_counter() - started) / len(cells)
    results: List[CellResult] = []
    for index, cell in enumerate(cells):
        accuracies: Dict[str, float] = {
            technique.kind.value: outcomes[technique.kind][index].accuracy_percent
            for technique in techniques
        }
        if cell.is_clean:
            # Legacy single-baseline entry, kept for old stores/consumers;
            # the per-technique entries above are the authoritative fix.
            accuracies[CLEAN_KEY] = accuracies[_clean_reference_key(techniques)]
        results.append(
            CellResult(
                cell_id=cell.cell_id,
                experiment_key=cell.experiment_key,
                fault_rate=cell.fault_rate,
                rate_index=cell.rate_index,
                trial_index=cell.trial_index,
                accuracies=accuracies,
                n_faults=0 if fault_maps is None else fault_maps[index].n_faults,
                duration_seconds=duration,
            )
        )
    return results


def group_cells(cells: Sequence[SweepCell]) -> List[List[SweepCell]]:
    """Partition cells into map-parallel execution units.

    All faulty cells at the same ``(experiment, fault rate)`` coordinate —
    i.e. the trials that differ only in their fault map — form one unit, in
    first-seen order; every clean reference cell forms its own unit.  The
    partition only changes how cells are *scheduled*: their records are
    bit-identical either way (see :func:`execute_cell_group`).
    """
    units: Dict[Tuple[str, int], List[SweepCell]] = {}
    order: List[List[SweepCell]] = []
    for cell in cells:
        if cell.is_clean:
            order.append([cell])
            continue
        key = (cell.experiment_key, cell.rate_index)
        if key not in units:
            units[key] = []
            order.append(units[key])
        units[key].append(cell)
    return order


def collect_sweep_result(
    label: str,
    fault_rates: Sequence[float],
    technique_kinds: Sequence[MitigationKind],
    n_trials: int,
    records: Dict[str, CellResult],
    experiment_key: Optional[str] = None,
) -> SweepResult:
    """Aggregate an experiment's cell records back into a :class:`SweepResult`.

    Raises ``KeyError`` naming the first missing cell when the record set is
    incomplete (i.e. the campaign has not finished).
    """
    key = experiment_key if experiment_key is not None else label
    cells = build_experiment_cells(
        key, fault_rates, n_trials, root_seed=0  # seeds unused, ids only
    )
    missing = [cell.cell_id for cell in cells if cell.cell_id not in records]
    if missing:
        raise KeyError(
            f"campaign records for {key!r} are incomplete: missing "
            f"{len(missing)} cell(s), first {missing[0]!r}"
        )

    # Clean cell first, then the trials rate by rate.
    clean_record, *trial_records = [records[cell.cell_id] for cell in cells]
    # Per-technique clean baselines; legacy records (written before the
    # clean cell evaluated every technique) only carry the shared entry.
    clean_accuracies = {
        kind: float(
            clean_record.accuracies.get(
                kind.value, clean_record.accuracies[CLEAN_KEY]
            )
        )
        for kind in technique_kinds
    }
    result = SweepResult(
        label=label,
        clean_accuracy=clean_record.accuracies[CLEAN_KEY],
        fault_rates=[float(rate) for rate in fault_rates],
        techniques={
            kind: TechniqueAccuracy(kind=kind) for kind in technique_kinds
        },
        clean_accuracies=clean_accuracies,
    )
    for rate_index, fault_rate in enumerate(fault_rates):
        rate_records = trial_records[rate_index * n_trials : (rate_index + 1) * n_trials]
        for kind in technique_kinds:
            trials = [record.accuracies[kind.value] for record in rate_records]
            series = result.techniques[kind]
            series.fault_rates.append(float(fault_rate))
            series.per_trial.append(trials)
            series.accuracies.append(sum(trials) / len(trials))
    return result


# ---------------------------------------------------------------------- #
# campaign specification
# ---------------------------------------------------------------------- #
@dataclass
class CampaignSpec:
    """Declarative description of one evaluation campaign.

    Attributes
    ----------
    name:
        Campaign identifier (store metadata, report titles).
    experiments:
        The experiment grid, one :class:`ExperimentConfig` per (workload,
        network size) point; labels must be unique, they key everything.
    fault_rates:
        Fault rates swept for every experiment, in report order.
    techniques:
        Techniques compared at every grid point (paired per trial).
    n_trials:
        Independent fault maps per fault rate.
    inject_synapses / inject_neurons:
        Which compute-engine parts receive faults (Fig. 3a: synapses only,
        Fig. 10: neurons only / both, Fig. 13: both).
    seed:
        Root seed of the per-cell seed derivation.
    runner_seed:
        Root seed of the :class:`ExperimentRunner` that generates each
        experiment's data and trains its model.
    """

    name: str
    experiments: List[ExperimentConfig]
    fault_rates: List[float]
    techniques: List[TechniqueSpec]
    n_trials: int = 1
    inject_synapses: bool = True
    inject_neurons: bool = True
    seed: int = 0
    runner_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.experiments:
            raise ValueError("at least one experiment is required")
        if not self.fault_rates:
            raise ValueError("at least one fault rate is required")
        if not self.techniques:
            raise ValueError("at least one technique is required")
        if self.n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {self.n_trials}")
        if not self.inject_synapses and not self.inject_neurons:
            raise ValueError(
                "at least one of inject_synapses / inject_neurons must be True"
            )
        keys = [config.label() for config in self.experiments]
        duplicates = {key for key in keys if keys.count(key) > 1}
        if duplicates:
            raise ValueError(
                f"experiment labels must be unique, duplicated: {sorted(duplicates)}"
            )
        kinds = [spec.kind for spec in self.techniques]
        if len(set(kinds)) != len(kinds):
            raise ValueError("technique kinds must be unique within a campaign")

    # ------------------------------------------------------------------ #
    @classmethod
    def grid(
        cls,
        name: str,
        workloads: Sequence[str],
        network_sizes: Sequence[int],
        fault_rates: Sequence[float],
        technique_kinds: Sequence[MitigationKind],
        base: Optional[ExperimentConfig] = None,
        paper_sizes: Optional[Dict[int, int]] = None,
        models: Optional[Sequence[str]] = None,
        encodings: Optional[Sequence[str]] = None,
        **campaign_kwargs: object,
    ) -> "CampaignSpec":
        """Build a spec from a workload × size × model × encoding grid.

        *base* supplies the shared experiment settings (sample counts,
        timesteps, epochs…); *paper_sizes* optionally maps a scaled size to
        the paper network size it stands in for.  *models* / *encodings*
        (registered neuron-model and input-encoding names) extend the grid
        across the model zoo; omitted, the grid keeps the template's single
        model and encoding and every pre-existing spec — and its
        fingerprint — is unchanged.
        """
        template = base if base is not None else ExperimentConfig()
        model_axis = list(models) if models else [template.model]
        encoding_axis = list(encodings) if encodings else [template.encoding]
        experiments = []
        for workload in workloads:
            for n_neurons in network_sizes:
                for model in model_axis:
                    for encoding in encoding_axis:
                        experiments.append(
                            replace(
                                template,
                                workload=workload,
                                n_neurons=int(n_neurons),
                                paper_network_size=(
                                    paper_sizes.get(int(n_neurons))
                                    if paper_sizes
                                    else None
                                ),
                                model=model,
                                encoding=encoding,
                            )
                        )
        return cls(
            name=name,
            experiments=experiments,
            fault_rates=[float(rate) for rate in fault_rates],
            techniques=[TechniqueSpec(kind) for kind in technique_kinds],
            **campaign_kwargs,
        )

    # ------------------------------------------------------------------ #
    @property
    def experiment_keys(self) -> List[str]:
        """Unique per-experiment keys, in grid order."""
        return [config.label() for config in self.experiments]

    @property
    def technique_kinds(self) -> List[MitigationKind]:
        """Technique kinds compared at every grid point, in spec order."""
        return [spec.kind for spec in self.techniques]

    def experiment_by_key(self, key: str) -> ExperimentConfig:
        """The experiment whose label is *key* (``KeyError`` if none)."""
        for config in self.experiments:
            if config.label() == key:
                return config
        raise KeyError(f"no experiment with key {key!r} in campaign {self.name!r}")

    def expand(self) -> List[SweepCell]:
        """Expand the full grid into independent cells (clean cells first)."""
        cells: List[SweepCell] = []
        for config in self.experiments:
            cells.extend(
                build_experiment_cells(
                    config.label(),
                    self.fault_rates,
                    self.n_trials,
                    root_seed=self.seed,
                    inject_synapses=self.inject_synapses,
                    inject_neurons=self.inject_neurons,
                    batch_size=config.eval_batch_size,
                )
            )
        return cells

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (store metadata and fingerprint input)."""
        return {
            "name": self.name,
            "experiments": [config.to_dict() for config in self.experiments],
            "fault_rates": [float(rate) for rate in self.fault_rates],
            "techniques": [spec.to_dict() for spec in self.techniques],
            "n_trials": self.n_trials,
            "inject_synapses": self.inject_synapses,
            "inject_neurons": self.inject_neurons,
            "seed": self.seed,
            "runner_seed": self.runner_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            experiments=[
                ExperimentConfig.from_dict(item) for item in data["experiments"]
            ],
            fault_rates=[float(rate) for rate in data["fault_rates"]],
            techniques=[TechniqueSpec.from_dict(item) for item in data["techniques"]],
            n_trials=int(data["n_trials"]),
            inject_synapses=bool(data["inject_synapses"]),
            inject_neurons=bool(data["inject_neurons"]),
            seed=int(data["seed"]),
            runner_seed=int(data["runner_seed"]),
        )

    def fingerprint(self) -> str:
        """Content hash used to guard store resume against spec drift."""
        canonical = json.dumps(
            numpy_to_native(self.to_dict()), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# campaign execution
# ---------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """Aggregated outcome of one (possibly resumed) campaign run."""

    spec: CampaignSpec
    sweeps: Dict[str, SweepResult]
    n_cells: int
    n_executed: int
    n_skipped: int
    duration_seconds: float
    store_path: Optional[Path] = None
    #: Every cell record of the run (stored + freshly executed), by id.
    records: Dict[str, "CellResult"] = field(default_factory=dict)
    #: Pool statistics from :func:`repro.eval.pool.execute_units_pooled`
    #: (``None`` for serial runs).
    pool_stats: Optional[Dict[str, object]] = None

    def run_report(self) -> Dict[str, object]:
        """Self-contained end-of-run observability artifact.

        The JSON the CLI's ``--run-report`` flag writes (schema in
        ``docs/observability.md``): campaign identity and counts, one
        timing entry per cell, per-experiment accuracy-vs-fault-rate
        curves labelled with their neuron model and input encoding, the
        pool's per-worker utilization, and a full metrics-registry
        snapshot — enough to diagnose a slow or skewed run without
        re-executing anything.
        """
        curves = []
        for key, sweep in self.sweeps.items():
            config = self.spec.experiment_by_key(key)
            curves.append(
                {
                    "experiment": key,
                    "model": config.model,
                    "encoding": config.encoding,
                    "clean_accuracy": sweep.clean_accuracy,
                    "fault_rates": [float(rate) for rate in sweep.fault_rates],
                    "techniques": {
                        kind.value: [float(a) for a in series.accuracies]
                        for kind, series in sweep.techniques.items()
                    },
                }
            )
        return {
            "campaign": self.spec.name,
            "n_cells": self.n_cells,
            "n_executed": self.n_executed,
            "n_skipped": self.n_skipped,
            "duration_seconds": self.duration_seconds,
            "store_path": (
                str(self.store_path) if self.store_path is not None else None
            ),
            "cells": [
                {
                    "cell_id": record.cell_id,
                    "experiment": record.experiment_key,
                    "fault_rate": record.fault_rate,
                    "trial": record.trial_index,
                    "duration_seconds": record.duration_seconds,
                    "n_faults": record.n_faults,
                }
                for record in sorted(
                    self.records.values(), key=lambda r: r.cell_id
                )
            ],
            "accuracy_curves": curves,
            "pool": self.pool_stats,
            "metrics": _obs.get_registry().snapshot(),
        }

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary (full per-trial data retained)."""
        return {
            "campaign": self.spec.name,
            "n_cells": self.n_cells,
            "n_executed": self.n_executed,
            "n_skipped": self.n_skipped,
            "duration_seconds": self.duration_seconds,
            "experiments": {
                key: sweep.summary() for key, sweep in self.sweeps.items()
            },
        }

    def render_tables(self) -> str:
        """Plain-text accuracy tables, one per experiment."""
        from repro.eval.reporting import format_table

        blocks = []
        for key, sweep in self.sweeps.items():
            headers = ["technique"] + [f"{rate:g}" for rate in sweep.fault_rates]
            blocks.append(
                format_table(
                    headers,
                    sweep.accuracy_table(),
                    title=(
                        f"{self.spec.name} — {key} — accuracy [%], "
                        f"clean {sweep.clean_accuracy:.1f}%"
                    ),
                )
            )
        return "\n\n".join(blocks)


class _CampaignProgress:
    """Live campaign progress: completed/total cells, ETA, workers busy.

    On a TTY the line is rewritten in place on stderr (stdout stays clean
    for the CLI's tables); without one it degrades to an INFO log line at
    every ~10 % of the grid, so CI logs show progress without a scrollback
    flood.  ETA extrapolates from the cells completed *this* run — resumed
    cells are excluded from the rate.  Workers-busy is read back from the
    pool's live gauge, so the line needs no extra plumbing.
    """

    _MIN_REDRAW_SECONDS = 0.1

    def __init__(self, name: str, total: int, already_done: int) -> None:
        self._name = name
        self._total = total
        self._initial = already_done
        self._done = already_done
        self._started = time.perf_counter()
        self._tty = sys.stderr.isatty()
        self._last_redraw = 0.0
        self._next_log_fraction = 0.1
        self._line_open = False

    def advance(self) -> None:
        """Account one completed cell and redraw/log when due."""
        self._done += 1
        now = time.perf_counter()
        remaining = self._total - self._done
        if self._tty:
            if remaining and now - self._last_redraw < self._MIN_REDRAW_SECONDS:
                return
            self._last_redraw = now
            busy = int(
                _obs.get_registry().value("softsnn_campaign_workers_busy")
            )
            line = (
                f"{self._name}: {self._done}/{self._total} cells"
                f" | ETA {self._eta_text(now)}"
                f" | {busy} worker(s) busy"
            )
            sys.stderr.write("\r" + line.ljust(79))
            sys.stderr.flush()
            self._line_open = True
        elif self._total and (
            self._done / self._total >= self._next_log_fraction
            or not remaining
        ):
            self._next_log_fraction = self._done / self._total + 0.1
            _LOGGER.info(
                "campaign %s: %d/%d cells done, ETA %s",
                self._name,
                self._done,
                self._total,
                self._eta_text(now),
            )

    def close(self) -> None:
        """Terminate the rewritten line so later output starts clean."""
        if self._line_open:
            sys.stderr.write("\n")
            sys.stderr.flush()
            self._line_open = False

    def _eta_text(self, now: float) -> str:
        executed = self._done - self._initial
        elapsed = now - self._started
        if executed <= 0 or elapsed <= 0:
            return "?"
        remaining = (self._total - self._done) * (elapsed / executed)
        if remaining >= 3600:
            return f"{remaining / 3600:.1f}h"
        if remaining >= 60:
            return f"{remaining / 60:.1f}m"
        return f"{remaining:.0f}s"


def resolve_worker_count(n_workers: Optional[int]) -> int:
    """Resolve a worker-count request to a concrete positive count.

    ``None`` (the CLI's ``--workers auto``) means "use the machine":
    :func:`os.cpu_count` workers, with a floor of one when the count is
    unknown.  Explicit counts must be positive.
    """
    if n_workers is None:
        return max(1, os.cpu_count() or 1)
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    return int(n_workers)


def _execute_serial(
    cells: Sequence[SweepCell],
    assets: Dict[str, Tuple[TrainedModel, Dataset, List[MitigationTechnique]]],
    on_result: Callable[[CellResult], None],
) -> None:
    """Execute cells in-process, one map-parallel unit at a time.

    The serial executor of :func:`run_campaign` and of
    :meth:`repro.eval.sweep.FaultRateSweep.run`; *assets* maps each
    experiment key to its ``(model, test_set, techniques)``.
    """
    for unit in group_cells(cells):
        model, dataset, techniques = assets[unit[0].experiment_key]
        for result in execute_cell_group(unit, model, dataset, techniques):
            on_result(result)


def run_campaign(
    spec: CampaignSpec,
    store_path: Optional[Union[str, Path]] = None,
    n_workers: Optional[int] = 1,
    resume: bool = True,
    workdir: Optional[Union[str, Path]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> CampaignResult:
    """Run (or resume) a campaign and return the aggregated results.

    Parameters
    ----------
    spec:
        The campaign grid to execute.
    store_path:
        JSON-lines result store.  When given, finished cells are appended
        as they complete and cells already present are skipped, making the
        run resumable; when ``None`` results live only in memory.
    n_workers:
        ``1`` executes cells serially in-process; ``>1`` distributes
        execution units over the warm persistent worker pool
        (:mod:`repro.eval.pool`), falling back to the serial executor if
        the platform cannot spawn processes.  ``None`` means "use the
        machine": one worker per CPU (:func:`resolve_worker_count`).
    resume:
        When false an existing store is truncated instead of resumed.
    workdir:
        Directory for trained-model snapshots handed to pool workers.
        Defaults to a temporary directory removed after the run.
    runner:
        Experiment runner to prepare (train) the clean models with.  Pass
        one to share its model cache across several campaign runs; its
        root seed must equal ``spec.runner_seed``, otherwise its models and
        test sets would not be the ones the spec (and its store
        fingerprint) describes.

    The trials of each (experiment, fault rate) coordinate execute as one
    map-parallel unit (:func:`group_cells`); the records are bit-identical
    to executing every cell alone (see :func:`execute_cell_group`).
    """
    n_workers = resolve_worker_count(n_workers)
    started = time.perf_counter()

    store: Optional[ResultStore] = None
    if store_path is not None:
        store = ResultStore(store_path)
        store.initialize(spec, reset=not resume)

    cells = spec.expand()
    completed: Dict[str, CellResult] = dict(store.cell_records()) if store else {}
    pending = [cell for cell in cells if cell.cell_id not in completed]
    n_skipped = len(cells) - len(pending)
    if n_skipped:
        _LOGGER.info(
            "campaign %s: resuming, %d/%d cells already in store",
            spec.name,
            n_skipped,
            len(cells),
        )

    # Train (or fetch cached) clean models once, in the orchestrator.
    if runner is None:
        runner = ExperimentRunner(root_seed=spec.runner_seed)
    elif runner.seeds.root_seed != spec.runner_seed:
        raise ValueError(
            f"runner root seed {runner.seeds.root_seed} does not match "
            f"spec.runner_seed {spec.runner_seed}; its models and test sets "
            "would not be the ones the spec describes"
        )
    needed_keys = {cell.experiment_key for cell in pending}
    assets: Dict[str, Tuple[TrainedModel, Dataset, List[MitigationTechnique]]] = {}
    for config in spec.experiments:
        key = config.label()
        if key not in needed_keys:
            continue
        prepared = runner.prepare(config)
        assets[key] = (
            prepared.model,
            prepared.test_set,
            [tspec.build() for tspec in spec.techniques],
        )

    progress = _CampaignProgress(
        spec.name, total=len(cells), already_done=n_skipped
    )

    def record(result: CellResult) -> None:
        completed[result.cell_id] = result
        if store is not None:
            store.append_cell(result)
        _CAMPAIGN_CELLS.inc()
        _LOGGER.info(
            "campaign %s: cell %s done in %.2fs (%s)",
            spec.name,
            result.cell_id,
            result.duration_seconds,
            ", ".join(f"{k}={v:.1f}%" for k, v in result.accuracies.items()),
        )
        progress.advance()

    pool_stats: Optional[Dict[str, object]] = None
    if pending:
        if n_workers == 1:
            _execute_serial(pending, assets, record)
        else:
            # Snapshots are consumed only while the pool is alive, so they
            # live in a temporary directory (cleaned up below) unless the
            # caller pins an explicit workdir.
            temp_dir: Optional[tempfile.TemporaryDirectory] = None
            try:
                if workdir is not None:
                    models_dir = Path(workdir)
                else:
                    temp_dir = tempfile.TemporaryDirectory(prefix="softsnn-campaign-")
                    models_dir = Path(temp_dir.name)
                models_dir.mkdir(parents=True, exist_ok=True)

                model_paths: Dict[str, str] = {}
                for config in spec.experiments:
                    key = config.label()
                    if key not in assets:
                        continue
                    safe = key.replace("/", "_").replace(" ", "_")
                    model_paths[key] = str(assets[key][0].save(models_dir / safe))
                try:
                    from repro.eval.pool import execute_units_pooled

                    pool_stats = execute_units_pooled(
                        units=group_cells(pending),
                        assets=assets,
                        model_paths=model_paths,
                        technique_specs=spec.techniques,
                        n_workers=n_workers,
                        on_result=record,
                    )
                except (OSError, ImportError) as error:
                    # Sandboxed or exotic platforms may not allow process
                    # pools at all; the grid still completes serially.
                    _LOGGER.warning(
                        "campaign %s: process pool unavailable (%s), "
                        "falling back to serial execution",
                        spec.name,
                        error,
                    )
                    remaining = [
                        cell for cell in pending if cell.cell_id not in completed
                    ]
                    _execute_serial(remaining, assets, record)
            finally:
                if temp_dir is not None:
                    temp_dir.cleanup()
    progress.close()

    # `completed` already holds every store record plus everything executed
    # this run, so aggregation needs no second pass over the store file.
    records = completed
    sweeps: Dict[str, SweepResult] = {}
    for config in spec.experiments:
        key = config.label()
        sweeps[key] = collect_sweep_result(
            label=key,
            fault_rates=spec.fault_rates,
            technique_kinds=spec.technique_kinds,
            n_trials=spec.n_trials,
            records=records,
            experiment_key=key,
        )

    return CampaignResult(
        spec=spec,
        sweeps=sweeps,
        n_cells=len(cells),
        n_executed=len(pending),
        n_skipped=n_skipped,
        duration_seconds=time.perf_counter() - started,
        store_path=store.path if store else None,
        records=records,
        pool_stats=pool_stats,
    )
