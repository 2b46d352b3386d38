"""Workload ``serve-closed-loop``: single-image requests over HTTP.

The N48 proxy model (the campaign's N400 stand-in) is registered in a models
directory and served by a separate ``python -m repro.server run --port 0
--port-file ... --quiet`` process with default flags.  Two client threads
(one per CPU of the reference machine) run a closed loop: each sends its
next ``protected`` request, with its own seed, only after the previous one
returned.  An operation is one request.

The clients call ``ServiceClient.classify`` with plain-list images.
``repro.serve.loadgen.run_closed_loop`` passes ``[ndarray]``, which the
client cannot JSON-encode, so every request it sends over HTTP fails; the
benchmark does not use it.

Every served prediction is checked against ``build_session(...)
.classify_batch`` on the same ``(image, seed)`` pair.  Serving layers come
from the server's own ``/metrics`` (JSON and Prometheus) in the traced run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from common import Outcome, log, median
from tracer import Tracer

MODEL_NAME = "mnist-n48"
N_NEURONS = 48
TIMESTEPS = 100
N_IMAGES = 256
N_CLIENTS = 2
N_WARMUP = 8
MODE = "protected"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
#: Request indices of warm-up requests start here, far above any run's.
WARMUP_BASE = 5_000_000


@dataclass
class Assets:
    model: object
    images: List[List[float]]
    process: subprocess.Popen
    client: object
    seed: int
    mode: Dict[str, object] = field(default_factory=dict)
    next_index: int = 0

    def request_seed(self, index: int) -> int:
        return self.seed * 10_000_000 + index


@dataclass
class Load:
    """Outcome of one closed-loop phase."""

    seconds: float
    sent: int
    # (request index, client ms, service ms, prediction) per answered request
    answered: List[Tuple[int, float, float, int]]
    errors: List[str]


def _start_server(root: Path, models_dir: Path, port_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else source
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.server", "run",
            "--models-dir", str(models_dir),
            "--port", "0",
            "--port-file", str(port_file),
            "--quiet",
        ],
        cwd=str(root),
        env=env,
        stdout=subprocess.DEVNULL,
    )


def _wait_for_port(process: subprocess.Popen, port_file: Path) -> int:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with code {process.returncode}")
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.005)
    raise RuntimeError("server did not write its port file in time")


def setup(seed: int, workdir: Path, tracer: Tracer) -> Assets:
    from repro.eval.experiment import ExperimentConfig, ExperimentRunner
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import ServiceClient

    config = ExperimentConfig(
        workload="mnist",
        n_neurons=N_NEURONS,
        paper_network_size=400,
        n_train=200,
        n_test=N_IMAGES,
        timesteps=TIMESTEPS,
        epochs=2,
    )
    prepared = ExperimentRunner(root_seed=seed).prepare(config)
    models_dir = workdir / "models"
    ModelRegistry(models_dir).register(prepared.model, MODEL_NAME, workload="mnist")
    images = [image.reshape(-1).tolist() for image in prepared.test_set.images]

    with tracer.span("setup.server_start"):
        process = _start_server(Path(__file__).resolve().parent.parent, models_dir, workdir / "port")
        try:
            port = _wait_for_port(process, workdir / "port")
        except BaseException:
            _stop(process)
            raise
    assets = Assets(
        model=prepared.model,
        images=images,
        process=process,
        client=ServiceClient(f"http://127.0.0.1:{port}"),
        seed=seed,
    )
    # Warm-up: builds the served session and runs the server's batch-size
    # autotune probe before anything is timed.
    try:
        for offset in range(N_WARMUP):
            response = _classify(assets, WARMUP_BASE + offset)
        assets.mode = dict(response["mode"])
    except BaseException:
        teardown(assets)
        raise
    return assets


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def teardown(assets: Assets) -> None:
    _stop(assets.process)


def _classify(assets: Assets, index: int) -> Dict[str, object]:
    image = assets.images[index % len(assets.images)]
    return assets.client.classify(
        [image], model=MODEL_NAME, mode=MODE, seeds=[assets.request_seed(index)]
    )


def _load(assets: Assets, seconds: float) -> Load:
    """Closed loop of N_CLIENTS threads for *seconds*."""
    lock = threading.Lock()
    answered: List[Tuple[int, float, float, int]] = []
    errors: List[str] = []
    counter = [assets.next_index]
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = counter[0]
                counter[0] += 1
            started = time.perf_counter()
            try:
                response = _classify(assets, index)
                client_ms = 1000.0 * (time.perf_counter() - started)
                row = (
                    index,
                    client_ms,
                    float(response["latencies_ms"][0]),
                    int(response["predictions"][0]),
                )
            except Exception as error:  # noqa: BLE001 - counted as a failed request
                with lock:
                    errors.append(f"request {index}: {error}")
                continue
            with lock:
                answered.append(row)

    threads = [threading.Thread(target=client_loop) for _ in range(N_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    sent = counter[0] - assets.next_index
    assets.next_index = counter[0]
    return Load(seconds=elapsed, sent=sent, answered=answered, errors=errors)


def _check(assets: Assets, load: Load, outcome: Outcome) -> None:
    """Served predictions must equal direct ``classify_batch`` results."""
    from repro.serve.modes import ServingMode, build_session

    session = build_session(assets.model, ServingMode.from_request(assets.mode))
    rows = sorted(load.answered)
    mismatches = 0
    for start in range(0, len(rows), 256):
        chunk = rows[start : start + 256]
        expected, _ = session.classify_batch(
            [assets.images[index % len(assets.images)] for index, *_ in chunk],
            [assets.request_seed(index) for index, *_ in chunk],
        )
        mismatches += sum(
            int(row[3] != int(want)) for row, want in zip(chunk, expected)
        )
    outcome.attempted += load.sent
    outcome.failed += mismatches + len(load.errors)
    outcome.work += len(load.answered)
    outcome.seconds += load.seconds
    outcome.latencies_s.extend(row[1] / 1000.0 for row in load.answered)
    if mismatches:
        outcome.problems.append(f"{mismatches} served predictions differ from direct")
    outcome.problems.extend(load.errors[:5])
    log(
        f"  load: {load.sent} requests in {load.seconds:.2f}s, "
        f"{len(load.errors)} errors, {mismatches} mismatches"
    )


def measure(assets: Assets, seconds: float, outcome: Outcome) -> None:
    """Closed-loop load until the run has measured *seconds* in all."""
    if outcome.seconds >= seconds:
        return
    _check(assets, _load(assets, seconds - outcome.seconds), outcome)
    samples = _prometheus(assets.client.metrics_text())
    outcome.autotune_batch = _total(samples, "softsnn_autotune_batch_size")


def _prometheus(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        samples.append((name, dict(re.findall(r'(\w+)="([^"]*)"', labels)), float(value)))
    return samples


def _total(samples, name: str, **labels: str) -> float:
    return sum(
        value
        for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(key) == want for key, want in labels.items())
    )


def _scrape(assets: Assets) -> Tuple[Dict[str, object], list]:
    return assets.client.metrics(), _prometheus(assets.client.metrics_text())


def traced(
    assets: Assets, seconds: float, outcome: Outcome, tracer: Tracer
) -> Dict[str, float]:
    """An untraced half, then a half bracketed by ``/metrics`` scrapes.

    Nothing is wrapped in the client, so the layers come from the server's
    counters (deltas over the second half) and from the service latency
    each response reports.
    """
    first = _load(assets, seconds / 2)
    _check(assets, first, outcome)
    before = _scrape(assets)
    second = _load(assets, seconds / 2)
    after = _scrape(assets)
    _check(assets, second, outcome)
    outcome.autotune_batch = _total(after[1], "softsnn_autotune_batch_size")

    rows = second.answered
    n_requests = max(1, len(rows))
    client_s = sum(row[1] for row in rows) / 1000.0
    service_s = sum(row[2] for row in rows) / 1000.0
    scheduler = _scheduler_delta(before[0], after[0])
    batches = max(1.0, scheduler["n_batches"])

    def delta(name: str, **labels: str) -> float:
        return _total(after[1], name, **labels) - _total(before[1], name, **labels)

    gemm_ns = delta("softsnn_kernel_ns_total", kernel="register_gemm")
    advance_ns = delta("softsnn_kernel_ns_total", kernel="lif_advance")
    neuron_steps = float(len(rows) * TIMESTEPS * N_NEURONS)
    return {
        "trace.wall_s": client_s,
        "trace.overhead_share": (len(first.answered) / first.seconds)
        / (len(rows) / second.seconds) - 1.0,
        "budget.serve.http": client_s - service_s,
        "budget.serve.service": service_s,
        "serve.service_p50_ms": median([row[2] for row in rows]) if rows else 0.0,
        "serve.http_p50_ms": median([row[1] - row[2] for row in rows]) if rows else 0.0,
        "serve.scheduler.mean_batch_size": scheduler["completed"] / batches,
        "serve.scheduler.flush_idle_share": scheduler["flush_idle"] / batches,
        "serve.scheduler.flush_deadline_share": scheduler["flush_deadline"] / batches,
        "serve.scheduler.max_queue_depth": scheduler["max_queue_depth"],
        "serve.kernel_ms_per_request": (gemm_ns + advance_ns) / 1e6 / n_requests,
        "snn.engine.neuron_steps": neuron_steps,
        "snn.engine.latch_resims": delta("softsnn_engine_latch_resimulations_total"),
        "snn.kernels.gemm_ns_per_neuron_step": gemm_ns / max(1.0, neuron_steps),
        "snn.kernels.advance_ns_per_neuron_step": advance_ns / max(1.0, neuron_steps),
        "snn.kernels.gemm_calls": delta("softsnn_kernel_calls_total", kernel="register_gemm"),
        "snn.kernels.advance_calls": delta("softsnn_kernel_calls_total", kernel="lif_advance"),
        "snn.kernels.autotune_batch": _total(after[1], "softsnn_autotune_batch_size"),
    }


def _scheduler_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    keys = ("n_batches", "completed", "flush_idle", "flush_deadline")
    totals = {key: 0.0 for key in keys}
    totals["max_queue_depth"] = 0.0
    for name, stats in after.get("schedulers", {}).items():
        old = before.get("schedulers", {}).get(name, {})
        for key in keys:
            totals[key] += float(stats.get(key, 0)) - float(old.get(key, 0))
        totals["max_queue_depth"] = max(totals["max_queue_depth"], float(stats["max_queue_depth"]))
    return totals
