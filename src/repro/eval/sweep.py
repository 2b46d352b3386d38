"""Fault-rate sweeps across mitigation techniques.

The accuracy figures of the paper (Fig. 3a, Fig. 10, Fig. 13) are all
sweeps of the same form: fix a trained model and a test set, vary the fault
rate, and measure the accuracy of one or more mitigation techniques, with
every technique seeing the *same* fault map at each rate so the comparison
is paired.  :class:`FaultRateSweep` exposes that loop as a single-experiment
front end over the campaign machinery of :mod:`repro.eval.campaign`: the
sweep grid is expanded into independent, deterministically seeded cells and
executed in-process by the campaign's own serial executor, so the results
are bit-identical to the same grid distributed over a campaign's process
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.mitigation import MitigationTechnique
from repro.data.datasets import Dataset
from repro.hardware.enhancements import MitigationKind
from repro.snn.training import TrainedModel
from repro.utils.rng import RNGLike, derive_root_seed

__all__ = ["TechniqueAccuracy", "SweepResult", "FaultRateSweep"]

#: Fault rates swept by the paper's compute-engine experiments (Fig. 13).
PAPER_FAULT_RATES = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass
class TechniqueAccuracy:
    """Accuracy series of one technique across the swept fault rates.

    Attributes
    ----------
    kind:
        The technique's hardware-model identity.
    fault_rates:
        Swept fault rates, in sweep order.
    accuracies:
        Mean accuracy (percent) at each fault rate, averaged over trials.
    per_trial:
        Raw per-trial accuracies at each fault rate.
    """

    kind: MitigationKind
    fault_rates: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    per_trial: List[List[float]] = field(default_factory=list)

    def accuracy_at(self, fault_rate: float) -> float:
        """Mean accuracy at the given fault rate (must have been swept).

        Rates are matched with :func:`math.isclose` rather than exact float
        equality so a rate recomputed elsewhere (e.g. ``10 ** -1`` versus
        the literal ``1e-1``) still resolves to its swept entry.
        """
        for rate, accuracy in zip(self.fault_rates, self.accuracies):
            if math.isclose(rate, fault_rate, rel_tol=1e-9, abs_tol=1e-12):
                return accuracy
        raise KeyError(f"fault rate {fault_rate} was not part of this sweep")

    @property
    def worst_accuracy(self) -> float:
        """Lowest mean accuracy across the swept rates."""
        return min(self.accuracies) if self.accuracies else 0.0


@dataclass
class SweepResult:
    """Complete result of one fault-rate sweep.

    Attributes
    ----------
    label:
        Human-readable description (workload / network size).
    clean_accuracy:
        Accuracy of the unmitigated, fault-free network (percent).
    fault_rates:
        The swept fault rates.
    techniques:
        Per-technique accuracy series, keyed by technique kind.
    clean_accuracies:
        Fault-free baseline of *each* technique (percent).  Techniques that
        modify behaviour even without faults — BnP bounds the clean maximum
        weights at fault rate 0 — have their own baseline here;
        ``clean_accuracy`` keeps the unmitigated reference.  Empty for
        results rehydrated from records predating the per-technique clean
        evaluation.
    """

    label: str
    clean_accuracy: float
    fault_rates: List[float]
    techniques: Dict[MitigationKind, TechniqueAccuracy] = field(default_factory=dict)
    clean_accuracies: Dict[MitigationKind, float] = field(default_factory=dict)

    def clean_accuracy_of(self, kind: MitigationKind) -> float:
        """Fault-free baseline of *kind* (falls back to the shared one)."""
        return self.clean_accuracies.get(kind, self.clean_accuracy)

    def accuracy_table(self) -> List[List[object]]:
        """Rows of ``[technique, acc@rate1, acc@rate2, ...]`` for reporting."""
        rows = []
        for kind, series in self.techniques.items():
            rows.append([kind.value] + [round(a, 2) for a in series.accuracies])
        return rows

    def improvement_over_no_mitigation(self, kind: MitigationKind) -> float:
        """Largest accuracy gain of *kind* over the unmitigated baseline."""
        if MitigationKind.NO_MITIGATION not in self.techniques:
            raise KeyError("sweep did not include the no-mitigation baseline")
        baseline = self.techniques[MitigationKind.NO_MITIGATION]
        target = self.techniques[kind]
        gains = [
            target_acc - base_acc
            for target_acc, base_acc in zip(target.accuracies, baseline.accuracies)
        ]
        return max(gains) if gains else 0.0

    @property
    def n_trials(self) -> int:
        """Number of trials per fault rate (0 when no series is populated)."""
        for series in self.techniques.values():
            if series.per_trial:
                return len(series.per_trial[0])
        return 0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary of the sweep, raw per-trial data included.

        The ``techniques`` entries keep the legacy mean-accuracy list under
        ``accuracies`` and add ``per_trial`` (one list per fault rate) plus
        ``n_trials`` so persisted campaign results can be rehydrated
        losslessly via :meth:`from_summary`.
        """
        return {
            "label": self.label,
            "clean_accuracy": self.clean_accuracy,
            "clean_accuracies": {
                kind.value: accuracy
                for kind, accuracy in self.clean_accuracies.items()
            },
            "fault_rates": list(self.fault_rates),
            "n_trials": self.n_trials,
            "techniques": {
                kind.value: {
                    "accuracies": list(series.accuracies),
                    "per_trial": [list(trials) for trials in series.per_trial],
                }
                for kind, series in self.techniques.items()
            },
        }

    @classmethod
    def from_summary(cls, data: Dict[str, object]) -> "SweepResult":
        """Rebuild a sweep result from :meth:`summary` output.

        This is the round trip the campaign store and the CLI's summary
        files rely on; ``summary(from_summary(x)) == x`` for any summary
        produced by this class.
        """
        fault_rates = [float(rate) for rate in data["fault_rates"]]
        techniques: Dict[MitigationKind, TechniqueAccuracy] = {}
        for kind_value, series_data in dict(data["techniques"]).items():
            kind = MitigationKind(kind_value)
            techniques[kind] = TechniqueAccuracy(
                kind=kind,
                fault_rates=list(fault_rates),
                accuracies=[float(a) for a in series_data["accuracies"]],
                per_trial=[
                    [float(a) for a in trials]
                    for trials in series_data.get("per_trial", [])
                ],
            )
        return cls(
            label=str(data["label"]),
            clean_accuracy=float(data["clean_accuracy"]),
            fault_rates=fault_rates,
            techniques=techniques,
            clean_accuracies={
                MitigationKind(kind_value): float(accuracy)
                for kind_value, accuracy in dict(
                    data.get("clean_accuracies", {})
                ).items()
            },
        )


class FaultRateSweep:
    """Runs paired fault-rate sweeps over a set of mitigation techniques.

    This is the single-experiment front end of the campaign subsystem: the
    sweep is expanded into independent cells (one per fault rate × trial,
    plus the fault-free reference) and executed on the campaign's
    in-process serial executor.  Because every cell is seeded from its grid coordinates, the
    results are bit-identical to running the same grid as a parallel
    campaign with the same seed and experiment key.

    Parameters
    ----------
    model:
        Trained clean model under test.
    dataset:
        Test set used for every accuracy measurement.
    techniques:
        The mitigation techniques to compare.
    inject_synapses / inject_neurons:
        Which parts of the compute engine receive faults (Fig. 3a uses
        synapses only, Fig. 10a neurons only, Fig. 13 both).
    n_trials:
        Number of independent fault maps per fault rate; accuracies are
        averaged across trials.
    batch_size:
        Chunk size forwarded to the inference engine for every
        accuracy measurement; ``None`` uses the engine default.
    """

    def __init__(
        self,
        model: TrainedModel,
        dataset: Dataset,
        techniques: Sequence[MitigationTechnique],
        inject_synapses: bool = True,
        inject_neurons: bool = True,
        n_trials: int = 1,
        batch_size: Optional[int] = None,
    ) -> None:
        if not techniques:
            raise ValueError("at least one technique is required")
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.dataset = dataset
        self.techniques = list(techniques)
        self.inject_synapses = bool(inject_synapses)
        self.inject_neurons = bool(inject_neurons)
        self.n_trials = int(n_trials)
        self.batch_size = batch_size

    # ------------------------------------------------------------------ #
    def run(
        self,
        fault_rates: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        label: str = "sweep",
    ) -> SweepResult:
        """Run the sweep and return the per-technique accuracy series.

        ``rng`` collapses to a single root seed (an ``int`` is used as-is;
        ``None``/a generator draws one) from which every cell derives its
        own seed, so a campaign sharing the root seed and using *label* as
        its experiment key reproduces these exact accuracies.
        """
        from repro.eval.campaign import (
            _execute_serial,
            build_experiment_cells,
            collect_sweep_result,
        )

        if fault_rates is None:
            fault_rates = PAPER_FAULT_RATES
        fault_rates = [float(rate) for rate in fault_rates]
        root_seed = derive_root_seed(rng)

        cells = build_experiment_cells(
            label,
            fault_rates,
            self.n_trials,
            root_seed=root_seed,
            inject_synapses=self.inject_synapses,
            inject_neurons=self.inject_neurons,
            batch_size=self.batch_size,
        )
        results = []
        _execute_serial(
            cells,
            {label: (self.model, self.dataset, self.techniques)},
            results.append,
        )
        return collect_sweep_result(
            label=label,
            fault_rates=fault_rates,
            technique_kinds=[technique.kind for technique in self.techniques],
            n_trials=self.n_trials,
            records={result.cell_id: result for result in results},
        )
