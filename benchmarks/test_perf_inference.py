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
3x, and the (already accelerated) sequential parity reference by 1.3x,
both judged on the median of the bench harness's rotated pairs.  The two
tests write the ``perf_inference`` and ``perf_inference_scaling`` records.
"""

from __future__ import annotations

import numpy as np

from _harness import assert_at_least, time_sides, write_record
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.snn.inference import InferenceEngine
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.snn.oracle import evaluate_sequential

#: Paper-scale excitatory population (Fig. 13 sweeps N400…N3600).
N_NEURONS = 400
TIMESTEPS = 150
N_SAMPLES = 64
BATCH_SIZE = 64

#: Scaling sweep points: ``(n_neurons, timesteps, n_samples)``.  Paper
#: sizes, unscaled; the N6400 point runs a shallower geometry — the
#: recorded ns/neuron-timestep normalizes the cost, so fewer samples and
#: timesteps keep the tier-1 wall time bounded while still exercising the
#: big-GEMM regime past the N1600 the curve historically stopped at.
SCALING_POINTS = [(400, 150, 64), (1600, 150, 64), (6400, 100, 32)]


def _engine(n_neurons=N_NEURONS, timesteps=TIMESTEPS):
    config = NetworkConfig(n_inputs=784, n_neurons=n_neurons, timesteps=timesteps)
    network = DiehlCookNetwork(config, rng=1)
    labels = np.arange(n_neurons, dtype=np.int64) % 10
    return InferenceEngine(network, labels)


def test_batched_engine_speedup():
    dataset = SyntheticMNIST().generate(n_samples=N_SAMPLES, rng=5)
    legacy, sequential, batched = _engine(), _engine(), _engine()
    dense_weights = legacy.network.synapses.weights

    def run_batched():
        return batched.evaluate(
            dataset, rng=np.random.default_rng(7), batch_size=BATCH_SIZE
        )

    timing = time_sides(
        {
            # Legacy pipeline: dense float64 weights through the per-image loop.
            "legacy": lambda: evaluate_sequential(
                legacy,
                dataset,
                rng=np.random.default_rng(7),
                effective_weights=dense_weights,
            ),
            "sequential": lambda: evaluate_sequential(
                sequential, dataset, rng=np.random.default_rng(7)
            ),
            "batched": run_batched,
        },
        warmup=run_batched,
    )

    # Throughput must not come at the cost of correctness: the batched
    # engine is spike-exact against the sequential parity reference.  (The
    # legacy path is timed only — its dense float64 sums can differ by an
    # ULP at threshold ties, which is exactly why the exact operator
    # replaced it.)
    reference, result = timing.results["sequential"], timing.results["batched"]
    assert np.array_equal(reference.predictions, result.predictions)
    assert np.array_equal(reference.spike_counts, result.spike_counts)

    samples = {
        f"{side}_ms_per_sample": [1000.0 * s / N_SAMPLES for s in seconds]
        for side, seconds in timing.seconds.items()
    }
    samples["speedup_vs_legacy"] = timing.ratios("legacy", "batched")
    samples["speedup_vs_sequential"] = timing.ratios("sequential", "batched")
    record = write_record(
        "perf_inference",
        {
            "n_neurons": N_NEURONS,
            "timesteps": TIMESTEPS,
            "n_samples": N_SAMPLES,
            "batch_size": BATCH_SIZE,
        },
        samples,
    )
    medians = record["median"]

    print()
    print(
        f"BENCH perf_inference: N{N_NEURONS}, {N_SAMPLES} samples, batch "
        f"{BATCH_SIZE}: legacy {medians['legacy_ms_per_sample']:.2f}, "
        f"sequential {medians['sequential_ms_per_sample']:.2f}, batched "
        f"{medians['batched_ms_per_sample']:.2f} ms/sample "
        f"({medians['speedup_vs_legacy']:.2f}x vs legacy, "
        f"{medians['speedup_vs_sequential']:.2f}x vs sequential)"
    )

    # The engine replaced the legacy path; that is the bar to clear.  An
    # idle machine measures well above both floors; they sit low enough
    # that a loaded CI worker does not turn the bench flaky.
    assert_at_least(record, "speedup_vs_legacy", 3.0)
    assert_at_least(record, "speedup_vs_sequential", 1.3)


def test_batched_scaling_curve():
    """Batched throughput from N400 up to N6400 (paper sizes, unscaled).

    The sweep records absolute ms/sample and the per-neuron-timestep cost
    at each size; the latter should stay roughly flat (the engine is
    GEMM-bound, and the GEMM grows linearly in ``n_neurons``), which is the
    signal that the batched path scales past the single N400 point the
    harness historically pinned.  Each point carries its own geometry
    (``SCALING_POINTS``) so the N6400 entry stays affordable; the
    normalized ns/neuron-timestep series is what makes the points
    comparable.  No speed floor is asserted across sizes — the curve is a
    tracking artifact, not a gate.
    """
    sides = {}
    for n_neurons, timesteps, n_samples in SCALING_POINTS:
        engine = _engine(n_neurons, timesteps)
        dataset = SyntheticMNIST().generate(n_samples=n_samples, rng=5)
        sides[f"N{n_neurons}"] = lambda engine=engine, dataset=dataset: engine.evaluate(
            dataset, rng=np.random.default_rng(7), batch_size=BATCH_SIZE
        )
    timing = time_sides(sides, warmup=sides["N400"])

    samples = {}
    for n_neurons, timesteps, n_samples in SCALING_POINTS:
        seconds = timing.seconds[f"N{n_neurons}"]
        samples[f"N{n_neurons}_ms_per_sample"] = [
            1000.0 * s / n_samples for s in seconds
        ]
        samples[f"N{n_neurons}_ns_per_neuron_timestep"] = [
            1e9 * s / (n_samples * timesteps * n_neurons) for s in seconds
        ]
    record = write_record(
        "perf_inference_scaling",
        {
            "batch_size": BATCH_SIZE,
            "points": [
                {"n_neurons": n, "timesteps": t, "n_samples": s}
                for n, t, s in SCALING_POINTS
            ],
        },
        samples,
    )

    print()
    for n_neurons, _, _ in SCALING_POINTS:
        print(
            f"BENCH perf_inference scaling: N{n_neurons} "
            f"{record['median'][f'N{n_neurons}_ms_per_sample']:.3f} ms/sample "
            f"({record['median'][f'N{n_neurons}_ns_per_neuron_timestep']:.2f} "
            f"ns/neuron-timestep)"
        )
