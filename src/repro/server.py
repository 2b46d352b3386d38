"""Command-line front end of the online serving layer.

Two subcommands cover the deployment and verification paths:

``run``
    Start the HTTP classifier service over a directory of trained-model
    snapshots.  ``--port 0`` binds an ephemeral port (printed, and
    optionally written to ``--port-file`` so scripts can find it);
    ``--bootstrap-demo`` trains and registers a small demo model when the
    models directory is empty, giving a zero-to-serving path with no
    separate training step.

``smoke``
    Self-contained end-to-end check used by CI: trains a tiny model,
    registers it, starts the service on an ephemeral port, classifies a
    handful of samples over HTTP in all three serving modes (``clean``,
    ``faulty``, ``protected``), and asserts the served predictions are
    identical to the sequential oracle's, on a freshly built fault-injected
    network per ``(image, seed)`` pair.  Exit code 0 means the serving path
    preserved the engine's exactness guarantee.

Usage::

    softsnn-serve run --models-dir models --port 8080
    softsnn-serve run --models-dir models --port 0 --bootstrap-demo
    softsnn-serve smoke
    softsnn-serve --version
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.core.bound_and_protect import NeuronProtection
from repro.core.mitigation import BnPTechnique
from repro.data.datasets import Dataset, load_workload, train_test_split
from repro.faults.injector import FaultInjector
from repro.serve.modes import ServingMode
from repro.serve.service import (
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SoftSNNService,
)
from repro.snn.inference import InferenceEngine
from repro.snn.network import NetworkConfig
from repro.snn.oracle import build_network, evaluate_sequential
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner
from repro.utils.logging import configure_logging, get_logger

__all__ = ["build_parser", "main", "train_demo_model"]

_LOGGER = get_logger("server")

#: Name under which the bootstrap/smoke demo model is registered.
DEMO_MODEL_NAME = "demo-mnist"


def train_demo_model(
    n_neurons: int = 16,
    timesteps: int = 50,
    n_train: int = 48,
    n_test: int = 16,
    workload: str = "mnist",
    seed: int = 2022,
) -> Tuple[TrainedModel, Dataset]:
    """Train a small demo model; returns ``(model, test_set)``.

    Sized like the campaign CLI's ``smoke`` preset, so it finishes in
    seconds — enough to serve real classifications, not enough to matter
    for accuracy claims.
    """
    dataset = load_workload(workload, n_samples=n_train + n_test, rng=seed)
    train_set, test_set = train_test_split(
        dataset, test_fraction=n_test / (n_train + n_test), rng=seed + 1
    )
    trainer = TrainingRunner(
        NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=timesteps),
        TrainingConfig(
            epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"
        ),
    )
    model = trainer.train(train_set, rng=seed + 2)
    return model, test_set


# ---------------------------------------------------------------------- #
# argument parsing
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The serving CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="softsnn-serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="start the HTTP classifier service")
    run.add_argument(
        "--models-dir",
        type=Path,
        default=Path("models"),
        help="directory of TrainedModel snapshots (default: models/)",
    )
    run.add_argument("--host", default="127.0.0.1", help="bind address")
    run.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    run.add_argument(
        "--port-file",
        type=Path,
        help="write the bound port to this file once listening",
    )
    run.add_argument(
        "--max-batch-size",
        type=int,
        default=None,
        help=(
            "micro-batch flush size (1 disables coalescing); default 64"
        ),
    )
    run.add_argument(
        "--max-delay-ms",
        type=float,
        default=5.0,
        help="micro-batch latency budget in milliseconds",
    )
    run.add_argument(
        "--fault-rate",
        type=float,
        default=0.05,
        help="default fault rate of faulty/protected requests",
    )
    run.add_argument(
        "--bootstrap-demo",
        action="store_true",
        help="train and register a small demo model when the directory has none",
    )
    run.add_argument("--quiet", action="store_true", help="warnings only")

    smoke = subparsers.add_parser(
        "smoke", help="end-to-end serving self-test (used by CI)"
    )
    smoke.add_argument("--host", default="127.0.0.1", help="bind address")
    smoke.add_argument(
        "--port", type=int, default=0, help="bind port (default: ephemeral)"
    )
    smoke.add_argument(
        "--n-samples", type=int, default=6, help="samples classified per mode"
    )
    smoke.add_argument(
        "--fault-rate", type=float, default=0.2, help="fault rate of the faulty modes"
    )
    smoke.add_argument(
        "--models-dir",
        type=Path,
        help="register the smoke model here (default: a temporary directory, "
        "removed afterwards)",
    )
    smoke.add_argument("--quiet", action="store_true", help="warnings only")
    return parser


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        models_dir=args.models_dir,
        max_batch_size=args.max_batch_size,
        max_delay_ms=args.max_delay_ms,
        default_fault_rate=args.fault_rate,
    )
    service = SoftSNNService(config)
    if not service.registry.names():
        if args.bootstrap_demo:
            _LOGGER.info("models directory is empty; training demo model")
            model, _ = train_demo_model()
            service.register_model(model, DEMO_MODEL_NAME, workload="mnist")
        else:
            print(
                f"error: no model snapshots found in {args.models_dir} "
                "(train one, or pass --bootstrap-demo)",
                file=sys.stderr,
            )
            return 2
    server = ServiceServer(service, host=args.host, port=args.port)
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        args.port_file.write_text(f"{server.port}\n")
    print(f"softsnn-serve: serving {service.registry.names()} on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("softsnn-serve: shutting down")
    return 0


def _reference_predictions(
    model: TrainedModel,
    mode: ServingMode,
    images: Sequence[np.ndarray],
    seeds: Sequence[int],
) -> List[int]:
    """Direct (scheduler-free) evaluation of the same ``(image, seed)`` pairs.

    Each sample is presented by the sequential oracle
    (:func:`repro.snn.oracle.evaluate_sequential`) to its own freshly built
    network struck by the mode's fault map — the stateless per-request
    semantics of the serving layer — in protected mode through BnP's
    bounding rule and a :class:`~repro.core.bound_and_protect.NeuronProtection`
    monitor: an independent path, sharing no session or engine with the
    service it checks.
    """
    config = mode.fault_config()
    protected = mode.kind == "protected"
    rule = BnPTechnique(mode.variant).bounding_for(model).as_weight_rule()
    reference: List[int] = []
    for image, seed in zip(images, seeds):
        network = build_network(model)
        if config is not None:
            FaultInjector(network).inject(config, rng=mode.fault_seed)
        result = evaluate_sequential(
            InferenceEngine(network, model.neuron_labels),
            Dataset(
                images=np.asarray(image, dtype=np.float64).reshape(1, 28, 28),
                labels=np.zeros(1, dtype=np.int64),
            ),
            rng=int(seed),
            effective_weights=rule if protected else None,
            step_monitor=(
                NeuronProtection(mode.protection_trigger_cycles) if protected else None
            ),
        )
        reference.append(int(result.predictions[0]))
    return reference


def _cmd_smoke(args: argparse.Namespace) -> int:
    import tempfile

    if args.models_dir is not None:
        return _smoke(args, args.models_dir)
    # Without --models-dir the demo model lives in a scratch directory
    # that is removed on every exit path.
    with tempfile.TemporaryDirectory(prefix="softsnn-serve-smoke-") as models_dir:
        return _smoke(args, Path(models_dir))


def _smoke(args: argparse.Namespace, models_dir: Path) -> int:
    """Train the demo model into *models_dir* and check parity over HTTP."""
    print("softsnn-serve smoke: training demo model…")
    model, test_set = train_demo_model()
    service = SoftSNNService(
        ServiceConfig(
            models_dir=models_dir,
            max_batch_size=4,
            max_delay_ms=3.0,
            default_fault_rate=args.fault_rate,
        )
    )
    service.register_model(model, DEMO_MODEL_NAME, workload="mnist")
    n_samples = min(args.n_samples, len(test_set))
    images = [test_set.images[index].reshape(-1) for index in range(n_samples)]
    seeds = [9000 + index for index in range(n_samples)]

    failures = 0
    with ServiceServer(
        service, host=args.host, port=args.port
    ) as server, ServiceClient(server.url) as client:
        print(f"softsnn-serve smoke: service on {server.url}")
        health = client.healthz()
        assert health["status"] == "ok", health
        assert DEMO_MODEL_NAME in health["models"], health

        for spec in ("clean", "faulty", "protected"):
            response = client.classify(
                [image.tolist() for image in images],
                model=DEMO_MODEL_NAME,
                mode=spec,
                seeds=seeds,
            )
            served = response["predictions"]
            mode = service.resolve_mode(spec)
            expected = _reference_predictions(model, mode, images, seeds)
            status = "OK" if served == expected else "MISMATCH"
            if served != expected:
                failures += 1
            print(
                f"  mode={spec:9s} served={served} oracle={expected} [{status}]"
            )

        metrics = client.metrics()
        print(
            "softsnn-serve smoke: "
            f"{metrics['requests_total']} requests, "
            f"mean batch size {metrics['mean_batch_size']}, "
            f"p99 latency {metrics['latency']['p99_ms']}ms"
        )
    if failures:
        print(
            f"softsnn-serve smoke: FAILED ({failures} mode(s) diverged from "
            "the sequential oracle)",
            file=sys.stderr,
        )
        return 1
    print("softsnn-serve smoke: all modes parity-exact with the sequential oracle")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO
    )
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
