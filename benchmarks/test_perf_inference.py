"""BENCH — inference throughput: legacy loop vs sequential vs engine.

Times the classification of a fixed test set on a paper-scale N400
population through three code paths, then sweeps the batched engine up the
paper's network sizes (N400 → N6400) to record the scaling curve past the
single size the harness historically measured:

``legacy``
    The pre-batching inference pipeline: the per-image, per-timestep oracle
    loop (:mod:`repro.snn.oracle`) with currents from a dense float64
    vector-matrix product (forced by passing the stored weights as a dense
    ``effective_weights`` override, which reproduces the original
    arithmetic).
``sequential``
    The same per-image loop on the exact integer-code current operator the
    batched engine shares (the parity reference).  The operator alone
    already speeds the loop up several times, because the float32 code
    matrix has a quarter of the memory footprint the legacy path streams
    every timestep.
``batched``
    ``InferenceEngine.evaluate``: the one-row
    :class:`~repro.snn.engine.MapParallelEngine` advancing 64 samples per
    timestep.

The batched engine must beat the inference path it replaced by at least
5x; against the (already accelerated) sequential parity reference a
smaller factor remains.  Results (including the per-size scaling entries
under ``scaling``, each carrying its own geometry) are written to
``benchmarks/results/perf_inference.json`` so successive PRs can track the
hot path.  Set ``PERF_INFERENCE_SMOKE=1`` (the CI artifact step does) to
shrink the scaling sweep to its smallest point.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.synthetic_mnist import SyntheticMNIST
from repro.snn.inference import InferenceEngine
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.oracle import evaluate_sequential

SMOKE = os.environ.get("PERF_INFERENCE_SMOKE") == "1"

#: Paper-scale excitatory population (Fig. 13 sweeps N400…N3600).
N_NEURONS = 400
TIMESTEPS = 150
N_SAMPLES = 64
BATCH_SIZE = 64

#: Scaling sweep points: ``(n_neurons, timesteps, n_samples, n_reps)``.
#: Paper sizes, unscaled; the N6400 point runs a shallower geometry — the
#: recorded ns/neuron-timestep normalizes the cost, so fewer samples and
#: timesteps keep the tier-1 wall time bounded while still exercising the
#: big-GEMM regime past the N1600 the curve historically stopped at.
#: Every full point is best-of-2 — a single rep at N6400 once swung the
#: committed ns/neuron-timestep by 2x between bench runs.
SCALING_POINTS = (
    [(400, 50, 16, 1)]
    if SMOKE
    else [(400, 150, 64, 2), (1600, 150, 64, 2), (6400, 100, 32, 2)]
)

RESULTS_PATH = Path(__file__).parent / "results" / "perf_inference.json"


def _merge_results(section, payload):
    """Update one key of the shared results file, keeping the others."""
    summary = {}
    if RESULTS_PATH.exists():
        summary = json.loads(RESULTS_PATH.read_text())
    summary[section] = payload
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")


def _build():
    config = NetworkConfig(
        n_inputs=784, n_neurons=N_NEURONS, timesteps=TIMESTEPS
    )
    network = DiehlCookNetwork(config, rng=1)
    labels = np.arange(N_NEURONS, dtype=np.int64) % 10
    return network, InferenceEngine(network, labels)


def _best_of(n_reps, run):
    """Best-of-N wall time: the minimum is the least load-disturbed run."""
    best_seconds, result = None, None
    for _ in range(n_reps):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def test_batched_engine_speedup():
    dataset = SyntheticMNIST().generate(n_samples=N_SAMPLES, rng=5)

    # Legacy pipeline: dense float64 weights through the per-image loop.
    network, engine = _build()
    dense_weights = network.synapses.weights
    legacy_seconds, legacy = _best_of(
        2,
        lambda: evaluate_sequential(
            engine,
            dataset,
            rng=np.random.default_rng(7),
            effective_weights=dense_weights,
        ),
    )

    _, engine = _build()
    sequential_seconds, sequential = _best_of(
        2,
        lambda: evaluate_sequential(engine, dataset, rng=np.random.default_rng(7)),
    )

    _, engine = _build()
    batched_seconds, batched = _best_of(
        3,
        lambda: engine.evaluate(
            dataset, rng=np.random.default_rng(7), batch_size=BATCH_SIZE
        ),
    )

    # Throughput must not come at the cost of correctness: the batched
    # engine is spike-exact against the sequential parity reference.  (The
    # legacy path is timed only — its dense float64 sums can differ by an
    # ULP at threshold ties, which is exactly why the exact operator
    # replaced it.)
    assert np.array_equal(sequential.predictions, batched.predictions)
    assert np.array_equal(sequential.spike_counts, batched.spike_counts)

    speedup_vs_legacy = legacy_seconds / batched_seconds
    speedup_vs_sequential = sequential_seconds / batched_seconds
    summary = {
        "n_neurons": N_NEURONS,
        "timesteps": TIMESTEPS,
        "n_samples": N_SAMPLES,
        "batch_size": BATCH_SIZE,
        "legacy_ms_per_sample": round(1000.0 * legacy_seconds / N_SAMPLES, 3),
        "sequential_ms_per_sample": round(
            1000.0 * sequential_seconds / N_SAMPLES, 3
        ),
        "batched_ms_per_sample": round(1000.0 * batched_seconds / N_SAMPLES, 3),
        "speedup_vs_legacy": round(speedup_vs_legacy, 2),
        "speedup_vs_sequential": round(speedup_vs_sequential, 2),
    }
    _merge_results("n400_paths", summary)

    print()
    print(
        f"BENCH perf_inference: N{N_NEURONS}, {N_SAMPLES} samples, "
        f"batch {BATCH_SIZE}: legacy {summary['legacy_ms_per_sample']} "
        f"ms/sample, sequential {summary['sequential_ms_per_sample']} "
        f"ms/sample, batched {summary['batched_ms_per_sample']} ms/sample "
        f"({summary['speedup_vs_legacy']}x vs legacy, "
        f"{summary['speedup_vs_sequential']}x vs sequential)"
    )

    # The engine replaced the legacy path; that is the bar to clear.  An
    # idle single-core machine measures ~5.3x / ~2.5x; best-of-N timing
    # plus floors well below that keep a loaded CI worker from turning
    # the bench flaky.
    assert speedup_vs_legacy >= 3.0, (
        f"batched engine only {speedup_vs_legacy:.1f}x faster than the "
        f"legacy inference loop (legacy {legacy_seconds:.2f}s, batched "
        f"{batched_seconds:.2f}s)"
    )
    assert speedup_vs_sequential >= 1.3, (
        f"batched engine only {speedup_vs_sequential:.1f}x faster than the "
        f"sequential parity reference"
    )


def test_batched_scaling_curve():
    """Batched throughput from N400 up to N6400 (paper sizes, unscaled).

    The sweep records absolute ms/sample and the per-neuron-timestep cost
    at each size; the latter should stay roughly flat (the engine is
    GEMM-bound, and the GEMM grows linearly in ``n_neurons``), which is the
    signal that the batched path scales past the single N400 point the
    harness historically pinned.  Each point carries its own geometry
    (``SCALING_POINTS``) so the N6400 entry stays affordable; the
    normalized ns/neuron-timestep column is what makes the points
    comparable.  No speed floor is asserted across sizes — the curve is a
    tracking artifact, not a gate.
    """
    datasets = {}
    curve = {}
    print()
    for n_neurons, timesteps, n_samples, n_reps in SCALING_POINTS:
        if n_samples not in datasets:
            datasets[n_samples] = SyntheticMNIST().generate(
                n_samples=n_samples, rng=5
            )
        dataset = datasets[n_samples]
        config = NetworkConfig(
            n_inputs=784, n_neurons=n_neurons, timesteps=timesteps
        )
        network = DiehlCookNetwork(config, rng=1)
        labels = np.arange(n_neurons, dtype=np.int64) % 10
        engine = InferenceEngine(network, labels)
        seconds, _ = _best_of(
            n_reps,
            lambda engine=engine, dataset=dataset: engine.evaluate(
                dataset, rng=np.random.default_rng(7), batch_size=BATCH_SIZE
            ),
        )
        ms_per_sample = 1000.0 * seconds / n_samples
        ns_per_neuron_step = (
            1e9 * seconds / (n_samples * timesteps * n_neurons)
        )
        curve[f"N{n_neurons}"] = {
            "timesteps": timesteps,
            "n_samples": n_samples,
            "ms_per_sample": round(ms_per_sample, 3),
            "ns_per_neuron_timestep": round(ns_per_neuron_step, 2),
        }
        print(
            f"BENCH perf_inference scaling: N{n_neurons} "
            f"{curve[f'N{n_neurons}']['ms_per_sample']} ms/sample "
            f"({curve[f'N{n_neurons}']['ns_per_neuron_timestep']} "
            f"ns/neuron-timestep)"
        )
    _merge_results(
        "scaling",
        {
            "smoke": SMOKE,
            "batch_size": BATCH_SIZE,
            "available_cpus": os.cpu_count() or 1,
            "sizes": curve,
        },
    )
