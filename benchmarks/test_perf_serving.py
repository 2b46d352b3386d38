"""BENCH — serving throughput: adaptive micro-batching vs batch-size-1.

Drives the online service with the closed-loop load generator
(`repro/serve/loadgen.py`) in two configurations that differ only in the
scheduler policy:

* **batch-1 baseline** — ``max_batch_size=1``: every request becomes its
  own engine call, the one-request-one-call serving shape;
* **micro-batched** — ``max_batch_size=32`` with a 10 ms latency budget:
  concurrent requests coalesce into engine batches.

Both runs classify the same 400 requests (N400-proxy network, 48 neurons,
100 timesteps) with the same per-request seeds, so the bench first asserts
the predictions are bit-identical — serving must not trade exactness for
throughput — and then asserts the micro-batched configuration clears at
least 2x the baseline throughput, on the median of the bench harness's
rotated pairs.  The ``perf_serving`` record carries both configurations'
last load reports.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from _harness import assert_at_least, time_sides, write_record
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.serve.loadgen import run_closed_loop
from repro.serve.service import InProcessClient, ServiceConfig, SoftSNNService

N_REQUESTS = 400
CONCURRENCY = 16
MICRO_BATCH_SIZE = 32
MICRO_DELAY_MS = 10.0
MODEL_NAME = "bench-mnist-n400"

#: N400-proxy serving model (same scaling as the campaign benches).
BENCH_CONFIG = ExperimentConfig(
    workload="mnist",
    n_neurons=48,
    n_train=200,
    n_test=40,
    timesteps=100,
    epochs=2,
    paper_network_size=400,
)


def _make_service(
    root: Path, model, max_batch_size: int, max_delay_ms: float
) -> SoftSNNService:
    service = SoftSNNService(
        ServiceConfig(
            models_dir=root,
            max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms,
        )
    )
    service.register_model(model, MODEL_NAME, workload="mnist")
    return service


def test_microbatch_vs_single_request_serving(tmp_path):
    prepared = ExperimentRunner(root_seed=2022).prepare(BENCH_CONFIG)
    images = [image.reshape(-1) for image in prepared.test_set.images]
    seeds = list(range(10_000, 10_000 + N_REQUESTS))
    warmup_seeds = list(range(20_000, 20_016))

    with ExitStack() as stack:
        services = {
            label: stack.enter_context(
                _make_service(tmp_path / label, prepared.model, max_batch, delay_ms)
            )
            for label, max_batch, delay_ms in (
                ("batch1", 1, 0.0),
                ("microbatch", MICRO_BATCH_SIZE, MICRO_DELAY_MS),
            )
        }

        def load(label, request_seeds):
            return run_closed_loop(
                InProcessClient(services[label]),
                images,
                request_seeds,
                model=MODEL_NAME,
                mode="clean",
                concurrency=CONCURRENCY,
                label=label,
                metrics_source=services[label].metrics_snapshot,
            )

        # Warm each session (fault-free network build, BLAS paths) so the
        # timed runs measure steady-state serving.
        timing = time_sides(
            {label: lambda label=label: load(label, seeds) for label in services},
            warmup=lambda: [load(label, warmup_seeds) for label in services],
        )

    baseline, micro = timing.results["batch1"], timing.results["microbatch"]
    # Correctness first: micro-batching must not change a single answer.
    assert baseline.errors == 0 and micro.errors == 0
    assert micro.predictions == baseline.predictions

    samples = {f"{label}_s": seconds for label, seconds in timing.seconds.items()}
    samples["speedup"] = timing.ratios("batch1", "microbatch")
    record = write_record(
        "perf_serving",
        {
            "n_requests": N_REQUESTS,
            "concurrency": CONCURRENCY,
            "n_neurons": BENCH_CONFIG.n_neurons,
            "paper_network_size": BENCH_CONFIG.paper_network_size,
            "timesteps": BENCH_CONFIG.timesteps,
            "max_batch_size": MICRO_BATCH_SIZE,
            "max_delay_ms": MICRO_DELAY_MS,
        },
        samples,
        reports={"batch1": baseline.to_dict(), "microbatch": micro.to_dict()},
    )

    print()
    print(
        f"BENCH perf_serving: {N_REQUESTS} requests x {CONCURRENCY} clients, "
        f"batch1 {baseline.throughput_rps:.0f} rps "
        f"(p99 {baseline.latency_percentiles()['p99']:.1f}ms) vs "
        f"microbatch {micro.throughput_rps:.0f} rps "
        f"(p99 {micro.latency_percentiles()['p99']:.1f}ms, "
        f"mean occupancy {micro.mean_batch_size}) -> "
        f"median {record['median']['speedup']:.2f}x"
    )

    # The acceptance floor: micro-batching must at least double throughput
    # over one-request-one-call serving at this size.
    assert_at_least(record, "speedup", 2.0)
