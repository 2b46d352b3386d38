"""Command-line front end of the campaign orchestration subsystem.

Runs the paper's evaluation campaigns — Fig. 3a (weight-register faults),
Fig. 10a (neuron faults), Fig. 13 (full compute engine, all mitigation
techniques) — end-to-end at laptop-friendly scaled-down sizes: spec →
cells → (optionally parallel) execution → resumable JSON-lines result
store → rendered accuracy tables.

Usage::

    python -m repro.campaign fig13 --workers auto
    python -m repro.campaign fig3a --store results/fig3a.jsonl
    python -m repro.campaign smoke --rates 1e-3 1e-1 --trials 1
    softsnn-campaign fig13 --sizes 48 72 --trials 3     # installed entry point

Re-running a command against an existing store resumes it: cells already
recorded are skipped, only the remainder is computed.  ``--no-resume``
truncates the store and starts over.  A JSON summary (with raw per-trial
accuracies) is written next to the store after every successful run.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import repro
from repro.eval.campaign import (
    CampaignSpec,
    resolve_worker_count,
    run_campaign,
)
from repro.eval.experiment import ExperimentConfig
from repro.eval.sweep import PAPER_FAULT_RATES
from repro.snn.encoding import available_encodings
from repro.snn.models import available_models
from repro.hardware.enhancements import MitigationKind
from repro.utils.logging import configure_logging
from repro.utils.serialization import save_json

__all__ = ["build_parser", "build_spec", "main"]

#: Scaled-down stand-ins for the paper's network sizes (see EXPERIMENTS.md).
SCALED_NETWORK_SIZES: Dict[int, int] = {
    400: 48,
    900: 72,
    1600: 96,
    2500: 120,
    3600: 144,
}
_PAPER_SIZE_BY_PROXY = {proxy: paper for paper, proxy in SCALED_NETWORK_SIZES.items()}

ALL_TECHNIQUES = tuple(kind.value for kind in MitigationKind.all_kinds())

#: Preset campaign definitions.  Every field can be overridden from flags.
PRESETS: Dict[str, Dict[str, object]] = {
    "smoke": {
        "help": "tiny CI campaign: 2 rates x 1 trial x 2 techniques",
        "workloads": ["mnist"],
        "sizes": [16],
        "rates": [1e-3, 1e-1],
        "trials": 1,
        "techniques": ["no_mitigation", "bnp3"],
        "inject_synapses": True,
        "inject_neurons": True,
        "n_train": 48,
        "n_test": 16,
        "timesteps": 50,
        "epochs": 1,
    },
    "fig3a": {
        "help": "Fig. 3a — weight-register faults, two fault maps (trials)",
        "workloads": ["mnist"],
        "sizes": [SCALED_NETWORK_SIZES[400]],
        "rates": list(PAPER_FAULT_RATES),
        "trials": 2,
        "techniques": ["no_mitigation"],
        "inject_synapses": True,
        "inject_neurons": False,
        "n_train": 200,
        "n_test": 40,
        "timesteps": 100,
        "epochs": 2,
    },
    "fig10a": {
        "help": "Fig. 10a — neuron-operation faults only",
        "workloads": ["mnist"],
        "sizes": [SCALED_NETWORK_SIZES[400]],
        "rates": [1e-2, 1e-1, 0.5, 1.0],
        "trials": 1,
        "techniques": ["no_mitigation"],
        "inject_synapses": False,
        "inject_neurons": True,
        "n_train": 200,
        "n_test": 40,
        "timesteps": 100,
        "epochs": 2,
    },
    "fig13": {
        "help": "Fig. 13 — all techniques, full compute engine, both workloads",
        "workloads": ["mnist", "fashion-mnist"],
        "sizes": [SCALED_NETWORK_SIZES[400], SCALED_NETWORK_SIZES[900]],
        "rates": list(PAPER_FAULT_RATES),
        "trials": 1,
        "techniques": list(ALL_TECHNIQUES),
        "inject_synapses": True,
        "inject_neurons": True,
        "n_train": 200,
        "n_test": 40,
        "timesteps": 100,
        "epochs": 2,
    },
}


def _parse_workers(value: str) -> Optional[int]:
    """``--workers`` values: a positive integer, or ``auto`` (= CPU count)."""
    if value.strip().lower() == "auto":
        return None
    try:
        workers = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from error
    if workers <= 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be positive, got {workers}"
        )
    return workers


def build_parser() -> argparse.ArgumentParser:
    """The campaign CLI argument parser."""
    preset_lines = "\n".join(
        f"  {name:8s} {preset['help']}" for name, preset in PRESETS.items()
    )
    parser = argparse.ArgumentParser(
        prog="softsnn-campaign",
        description=__doc__,
        epilog=f"presets:\n{preset_lines}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    parser.add_argument(
        "preset",
        choices=sorted(PRESETS),
        help="campaign preset to run (see the preset table below)",
    )
    parser.add_argument(
        "--workloads", nargs="+", help="override the preset's workloads"
    )
    parser.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        help="override the preset's network sizes (excitatory neurons)",
    )
    parser.add_argument(
        "--rates", nargs="+", type=float, help="override the swept fault rates"
    )
    parser.add_argument(
        "--trials", type=int, help="independent fault maps per fault rate"
    )
    parser.add_argument(
        "--techniques",
        nargs="+",
        choices=list(ALL_TECHNIQUES),
        help="override the compared mitigation techniques",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        choices=available_models(),
        help=(
            "neuron models to sweep (grid axis; default: the registry's "
            "default LIF model)"
        ),
    )
    parser.add_argument(
        "--encodings",
        nargs="+",
        choices=available_encodings(),
        help=(
            "input encodings to sweep (grid axis; default: Poisson rate "
            "encoding)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=1,
        metavar="N|auto",
        help=(
            "worker processes (1 = serial in-process execution, "
            "'auto' = one warm pool worker per CPU)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        help="JSON-lines result store (default: campaign-results/<preset>.jsonl)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="keep results in memory only (disables resume)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate an existing store instead of resuming it",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign root seed")
    parser.add_argument(
        "--runner-seed",
        type=int,
        default=2022,
        help="root seed of data generation and model training",
    )
    parser.add_argument("--n-train", type=int, help="training images per experiment")
    parser.add_argument("--n-test", type=int, help="test images per experiment")
    parser.add_argument("--timesteps", type=int, help="presentation timesteps")
    parser.add_argument("--epochs", type=int, help="training epochs")
    parser.add_argument(
        "--batch-size", type=int, help="inference batch size per accuracy measurement"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress logging"
    )
    parser.add_argument(
        "--run-report",
        type=Path,
        metavar="PATH",
        help=(
            "write an end-of-run observability report (per-cell timings, "
            "worker utilization, metrics snapshot) as JSON to PATH"
        ),
    )
    return parser


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    """Materialise the campaign spec from a preset plus flag overrides."""
    preset = PRESETS[args.preset]

    def pick(flag: Optional[object], key: str) -> object:
        return flag if flag is not None else preset[key]

    base = ExperimentConfig(
        n_train=int(pick(args.n_train, "n_train")),
        n_test=int(pick(args.n_test, "n_test")),
        timesteps=int(pick(args.timesteps, "timesteps")),
        epochs=int(pick(args.epochs, "epochs")),
        **(
            {"eval_batch_size": int(args.batch_size)}
            if args.batch_size is not None
            else {}
        ),
    )
    sizes = [int(size) for size in pick(args.sizes, "sizes")]
    return CampaignSpec.grid(
        name=args.preset,
        workloads=list(pick(args.workloads, "workloads")),
        network_sizes=sizes,
        fault_rates=[float(rate) for rate in pick(args.rates, "rates")],
        technique_kinds=[
            MitigationKind(value) for value in pick(args.techniques, "techniques")
        ],
        base=base,
        paper_sizes=_PAPER_SIZE_BY_PROXY,
        models=args.models,
        encodings=args.encodings,
        n_trials=int(pick(args.trials, "trials")),
        inject_synapses=bool(preset["inject_synapses"]),
        inject_neurons=bool(preset["inject_neurons"]),
        seed=int(args.seed),
        runner_seed=int(args.runner_seed),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=logging.WARNING if args.quiet else logging.INFO)

    spec = build_spec(args)
    store_path: Optional[Path]
    if args.no_store:
        store_path = None
    else:
        store_path = (
            args.store
            if args.store is not None
            else Path("campaign-results") / f"{args.preset}.jsonl"
        )

    n_workers = resolve_worker_count(args.workers)
    result = run_campaign(
        spec,
        store_path=store_path,
        n_workers=n_workers,
        resume=not args.no_resume,
    )

    print(result.render_tables())
    print()
    print(
        f"campaign {spec.name}: {result.n_cells} cells "
        f"({result.n_executed} executed, {result.n_skipped} resumed from store) "
        f"in {result.duration_seconds:.1f}s with {n_workers} worker(s)"
    )
    if store_path is not None:
        summary_path = store_path.with_suffix(".summary.json")
        save_json(result.summary(), summary_path)
        print(f"store:   {store_path}")
        print(f"summary: {summary_path}")
    if args.run_report is not None:
        save_json(result.run_report(), args.run_report)
        print(f"report:  {args.run_report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
