"""Tests of the online serving layer (``repro.serve``).

The load-bearing assertion is the scheduler parity suite: a prediction
served through the adaptive micro-batching path must be bit-identical to
the sequential oracle (:func:`repro.snn.oracle.evaluate_sequential`) run on
a freshly built, fault-injected network for the same ``(image, seed)``
pair, in all three serving modes — an independent route that shares no
session, row or engine with the service — so the online service inherits
the engine's spike-exactness guarantee instead of trading it for
throughput.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import statistics
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.core.mitigation import BnPTechnique
from repro.faults.injector import FaultInjector
from repro.obs.metrics import get_registry
from repro.serve.loadgen import run_closed_loop
from repro.serve.modes import ServingMode, build_session
from repro.serve.registry import (
    ModelNotFoundError,
    ModelRegistry,
    SnapshotIntegrityError,
)
from repro.serve import service as service_module
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.service import (
    LATENCY_WINDOW,
    MAX_WARM_PIPELINES,
    InProcessClient,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SoftSNNService,
)
from repro import server
from repro.server import _reference_predictions
from repro.snn.engine import BatchedInferenceEngine
from repro.snn.network import NetworkConfig
from repro.snn.oracle import build_network
from repro.snn.training import TrainedModel


# --------------------------------------------------------------------- #
# shared fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serve_model(trained_model) -> TrainedModel:
    """Alias fixture making the serving tests' dependency explicit."""
    return trained_model


@pytest.fixture()
def registry(tmp_path, serve_model) -> ModelRegistry:
    registry = ModelRegistry(tmp_path / "models")
    registry.register(serve_model, "tiny-mnist", workload="mnist")
    return registry


@pytest.fixture()
def service(tmp_path, serve_model) -> SoftSNNService:
    svc = SoftSNNService(
        ServiceConfig(
            models_dir=tmp_path / "models",
            max_batch_size=4,
            max_delay_ms=4.0,
            default_fault_rate=0.2,
        )
    )
    svc.register_model(serve_model, "tiny-mnist", workload="mnist")
    yield svc
    svc.close()


@pytest.fixture()
def builds(monkeypatch):
    """Records the sessions and schedulers the service builds."""
    built = {"sessions": 0, "schedulers": []}

    def counting_build_session(model, mode):
        built["sessions"] += 1
        return build_session(model, mode)

    class RecordedScheduler(MicroBatchScheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["schedulers"].append(self)

    monkeypatch.setattr(service_module, "build_session", counting_build_session)
    monkeypatch.setattr(service_module, "MicroBatchScheduler", RecordedScheduler)
    return built


def _test_images(small_split, count: int):
    _, test_set = small_split
    return [test_set.images[index].reshape(-1) for index in range(count)]


def _faulty(fault_seed: int) -> dict:
    return {"kind": "faulty", "fault_rate": 0.1, "fault_seed": fault_seed}


def _network_route(model, mode):
    """The mode's fault-injected network, built independently of sessions."""
    network = build_network(model)
    config = mode.fault_config()
    if config is not None:
        FaultInjector(network).inject(config, rng=mode.fault_seed)
    return network


_STATUS_FIELDS = (
    "vmem_increase_ok",
    "vmem_leak_ok",
    "vmem_reset_ok",
    "spike_generation_ok",
)


# --------------------------------------------------------------------- #
# serving modes
# --------------------------------------------------------------------- #
class TestServingMode:
    def test_clean_rejects_fault_rate(self):
        with pytest.raises(ValueError):
            ServingMode(kind="clean", fault_rate=0.1)

    def test_faulty_requires_fault_rate(self):
        with pytest.raises(ValueError):
            ServingMode(kind="faulty", fault_rate=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServingMode(kind="turbo")

    def test_from_request_accepts_string_and_dict(self):
        assert ServingMode.from_request("clean").kind == "clean"
        mode = ServingMode.from_request(
            {"kind": "protected", "fault_rate": 0.1, "variant": "bnp1"},
        )
        assert mode.kind == "protected"
        assert mode.fault_rate == 0.1
        assert mode.variant.value == "bnp1"

    def test_from_request_applies_defaults(self):
        mode = ServingMode.from_request("faulty", default_fault_rate=0.07)
        assert mode.fault_rate == 0.07

    def test_from_request_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown mode fields"):
            ServingMode.from_request({"kind": "clean", "speed": 11})

    def test_cache_key_distinguishes_scenarios(self):
        a = ServingMode.faulty(0.1, fault_seed=1)
        b = ServingMode.faulty(0.1, fault_seed=2)
        assert a.cache_key != b.cache_key
        assert a.cache_key == ServingMode.faulty(0.1, fault_seed=1).cache_key
        assert a.label != b.label
        assert ServingMode.clean().label == "clean"

    def test_from_request_rejects_non_boolean_inject_flags(self):
        for key in ("inject_synapses", "inject_neurons"):
            for value in ("false", 0, 1, None):
                with pytest.raises(ValueError, match=key):
                    ServingMode.from_request(
                        {"kind": "faulty", "fault_rate": 0.1, key: value}
                    )
        mode = ServingMode.from_request(
            {"kind": "faulty", "fault_rate": 0.1, "inject_neurons": False}
        )
        assert mode.inject_neurons is False and mode.inject_synapses is True

    @pytest.mark.parametrize("value", [2.7, True, "2", None])
    def test_from_request_rejects_non_integer_fault_seed(self, value):
        with pytest.raises(ValueError, match="fault_seed"):
            ServingMode.from_request(
                {"kind": "faulty", "fault_rate": 0.1, "fault_seed": value}
            )
        mode = ServingMode.from_request(
            {"kind": "faulty", "fault_rate": 0.1, "fault_seed": 2.0}
        )
        assert mode.fault_seed == 2 and isinstance(mode.fault_seed, int)

    @pytest.mark.parametrize("value", [2.5, False, "3", None])
    def test_from_request_rejects_non_integer_trigger(self, value):
        with pytest.raises(ValueError, match="protection_trigger_cycles"):
            ServingMode.from_request(
                {
                    "kind": "protected",
                    "fault_rate": 0.1,
                    "protection_trigger_cycles": value,
                }
            )
        mode = ServingMode.from_request(
            {"kind": "protected", "fault_rate": 0.1, "protection_trigger_cycles": 3}
        )
        assert mode.protection_trigger_cycles == 3

    @pytest.mark.parametrize("value", ["0.1", True, None])
    def test_from_request_rejects_non_numeric_fault_rate(self, value):
        with pytest.raises(ValueError, match="fault_rate"):
            ServingMode.from_request({"kind": "faulty", "fault_rate": value})
        assert ServingMode.from_request({"kind": "faulty", "fault_rate": 1}).fault_rate == 1.0

    def test_build_session_is_deterministic(self, serve_model):
        """Each mode's row is the independent network route's engine."""
        for mode in (
            ServingMode.clean(),
            ServingMode.faulty(0.3, fault_seed=11),
            ServingMode.protected(0.3, fault_seed=11),
        ):
            rows = [build_session(serve_model, mode).engine.rows for _ in range(2)]
            assert [len(pair) for pair in rows] == [1, 1]
            network = _network_route(serve_model, mode)
            status = network.neurons.operation_status
            for (row,) in rows:
                assert np.array_equal(row.registers, network.synapses.registers)
                for name in _STATUS_FIELDS:
                    assert np.array_equal(
                        getattr(row.operation_status, name), getattr(status, name)
                    )
                if mode.kind == "protected":
                    technique = BnPTechnique(mode.variant)
                    assert row.weight_rule == (
                        technique.bounding_for(serve_model).as_weight_rule()
                    )
                    assert row.protection_trigger_cycles == (
                        mode.protection_trigger_cycles
                    )
                else:
                    assert row.weight_rule is None
                    assert row.protection_trigger_cycles is None
            clean_registers = _network_route(
                serve_model, ServingMode.clean()
            ).synapses.registers
            faulted = not np.array_equal(rows[0][0].registers, clean_registers)
            assert faulted == (mode.kind != "clean")

    @pytest.mark.parametrize(
        "neuron_model, encoding",
        [("cuba_lif", "ttfs"), ("fixed_point_lif", "poisson")],
    )
    def test_faulty_session_serves_the_model_zoo(self, neuron_model, encoding):
        """Non-LIF, non-Poisson sessions equal the per-request network route."""
        rng = np.random.default_rng(5)
        n_neurons = 12
        model = TrainedModel(
            network_config=NetworkConfig(
                n_inputs=784,
                n_neurons=n_neurons,
                timesteps=24,
                neuron_model=neuron_model,
                encoding=encoding,
            ),
            weights=rng.random((784, n_neurons)),
            theta=rng.random(n_neurons) * 0.05,
            neuron_labels=np.arange(n_neurons, dtype=np.int64) % 4,
            clean_max_weight=1.0,
            clean_most_probable_weight=0.6,
        )
        mode = ServingMode.faulty(0.2, fault_seed=13)
        session = build_session(model, mode)
        images = [rng.random(784) for _ in range(4)]
        seeds = [21, 22, 23, 24]
        _, result = session.classify_batch(images, seeds)
        assert result.spike_counts[0].sum() > 0
        for index, (image, seed) in enumerate(zip(images, seeds)):
            network = _network_route(model, mode)
            reference = BatchedInferenceEngine(network).run(
                image[np.newaxis], rng=seed
            )
            assert np.array_equal(
                result.spike_counts[0][index], reference.spike_counts[0]
            )


# --------------------------------------------------------------------- #
# micro-batch scheduler
# --------------------------------------------------------------------- #
class TestMicroBatchScheduler:
    def test_coalesces_up_to_max_batch_size(self):
        seen = []

        def run_batch(payloads):
            seen.append(len(payloads))
            return payloads

        with MicroBatchScheduler(
            run_batch, max_batch_size=4, max_delay=0.2
        ) as scheduler:
            futures = [scheduler.submit(i) for i in range(8)]
            assert [f.result(timeout=5) for f in futures] == list(range(8))
        assert sum(seen) == 8
        assert max(seen) <= 4
        # Eight back-to-back submits against a 200ms deadline must produce
        # at least one full batch — the coalescing path, not one-by-one.
        assert scheduler.stats.flush_full >= 1
        assert scheduler.stats.mean_batch_size > 1.0

    def test_queue_wait_is_recorded_per_request(self):
        def run_batch(payloads):
            return payloads

        # Only the deadline flushes, so each request waits about 20 ms.  A
        # fresh scheduler name gives a fresh series in the process registry.
        name = f"queue-wait-probe-{time.monotonic_ns()}"
        with MicroBatchScheduler(
            run_batch, max_batch_size=64, max_delay=0.02, idle_grace=1.0, name=name
        ) as scheduler:
            futures = [scheduler.submit(i) for i in range(3)]
            assert [f.result(timeout=5) for f in futures] == [0, 1, 2]
        series = get_registry().snapshot()["softsnn_serve_queue_wait_ms"]["series"]
        waits = series[f"scheduler={name}"]
        assert waits["count"] == 3
        assert 15.0 <= waits["min"] <= waits["max"] < 1000.0

    def test_deadline_flushes_partial_batch(self):
        def run_batch(payloads):
            return payloads

        # idle_grace >= max_delay disables the idle heuristic, leaving the
        # pure max-batch / max-delay policy.
        with MicroBatchScheduler(
            run_batch, max_batch_size=64, max_delay=0.02, idle_grace=1.0
        ) as scheduler:
            started = time.monotonic()
            future = scheduler.submit("lonely")
            assert future.result(timeout=5) == "lonely"
            elapsed = time.monotonic() - started
        assert scheduler.stats.flush_deadline == 1
        assert scheduler.stats.batch_size_histogram == {1: 1}
        assert elapsed < 1.0  # flushed by deadline, not by a filled batch

    def test_idle_arrival_stream_flushes_early(self):
        def run_batch(payloads):
            return payloads

        # A long deadline with a short idle grace: the lonely request must
        # be flushed by the idle heuristic well before the deadline.
        with MicroBatchScheduler(
            run_batch, max_batch_size=64, max_delay=5.0, idle_grace=0.01
        ) as scheduler:
            started = time.monotonic()
            future = scheduler.submit("quiet")
            assert future.result(timeout=5) == "quiet"
            elapsed = time.monotonic() - started
        assert elapsed < 1.0  # far below the 5s deadline
        assert scheduler.stats.flush_idle == 1

    def _blocked_scheduler(self, max_batch_size=2, max_delay=0.01):
        """Scheduler whose worker blocks inside its first batch execution.

        Returns ``(scheduler, first_entered, release)``: ``first_entered``
        is set once the worker is inside ``run_batch`` (holding no lock),
        ``release`` unblocks it.  While blocked, submits pile up in the
        queue — the deterministic setup for flush-attribution tests.
        """
        release = threading.Event()
        first_entered = threading.Event()
        calls = []

        def run_batch(payloads):
            calls.append(len(payloads))
            if len(calls) == 1:
                first_entered.set()
                release.wait(timeout=5.0)
            return payloads

        scheduler = MicroBatchScheduler(
            run_batch,
            max_batch_size=max_batch_size,
            max_delay=max_delay,
            idle_grace=5.0,  # >= max_delay: idle heuristic disabled
        )
        return scheduler, first_entered, release

    def test_close_drain_of_full_queue_counts_flush_close(self):
        # Regression: batches drained by close() used to be misattributed
        # to flush_full whenever they happened to be full.
        scheduler, first_entered, release = self._blocked_scheduler()
        futures = [scheduler.submit(0)]
        assert first_entered.wait(timeout=5.0)
        futures += [scheduler.submit(value) for value in range(1, 5)]

        closer = threading.Thread(target=scheduler.close)
        closer.start()
        time.sleep(0.05)  # let close() mark the scheduler closed
        release.set()
        closer.join(timeout=5.0)

        assert [f.result(timeout=5.0) for f in futures] == [0, 1, 2, 3, 4]
        # First batch: the lonely request, flushed by its deadline.  The
        # four queued requests drain as two full-size batches, but the
        # trigger was the close, not fullness.
        assert scheduler.stats.flush_close == 2
        assert scheduler.stats.flush_full == 0

    def test_deadline_expiry_beats_fullness_attribution(self):
        # Regression: a batch whose deadline expired while the queue
        # happened to fill used to be misattributed to flush_full.
        scheduler, first_entered, release = self._blocked_scheduler()
        futures = [scheduler.submit(0)]
        assert first_entered.wait(timeout=5.0)
        futures += [scheduler.submit(1), scheduler.submit(2)]
        time.sleep(0.05)  # far beyond the 10ms deadline of both requests
        release.set()
        assert [f.result(timeout=5.0) for f in futures] == [0, 1, 2]
        scheduler.close()

        # Both flushes — the lonely first request and the full-but-expired
        # pair — were triggered by their deadlines.
        assert scheduler.stats.flush_deadline == 2
        assert scheduler.stats.flush_full == 0
        assert scheduler.stats.flush_close == 0

    def test_batch_failure_propagates_to_every_future(self):
        def run_batch(payloads):
            raise RuntimeError("engine exploded")

        with MicroBatchScheduler(
            run_batch, max_batch_size=4, max_delay=0.01
        ) as scheduler:
            futures = [scheduler.submit(i) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=5)
        assert scheduler.stats.failed == 3

    def test_wrong_result_count_is_an_error(self):
        def run_batch(payloads):
            return payloads[:-1]

        with MicroBatchScheduler(
            run_batch, max_batch_size=8, max_delay=0.01
        ) as scheduler:
            future = scheduler.submit("x")
            with pytest.raises(RuntimeError, match="returned 0 results"):
                future.result(timeout=5)

    def test_close_drains_pending_requests(self):
        release = threading.Event()

        def run_batch(payloads):
            release.wait(timeout=5)
            return payloads

        scheduler = MicroBatchScheduler(run_batch, max_batch_size=2, max_delay=10.0)
        futures = [scheduler.submit(i) for i in range(5)]
        release.set()
        scheduler.close()
        assert [f.result(timeout=1) for f in futures] == list(range(5))
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("late")

    def test_concurrent_submitters_all_complete(self):
        def run_batch(payloads):
            return [p * 2 for p in payloads]

        results = {}
        with MicroBatchScheduler(
            run_batch, max_batch_size=8, max_delay=0.002
        ) as scheduler:

            def submitter(base):
                for offset in range(20):
                    value = base * 100 + offset
                    results[value] = scheduler.submit(value)

            threads = [
                threading.Thread(target=submitter, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for value, future in results.items():
                assert future.result(timeout=5) == value * 2
        assert scheduler.stats.completed == 80


# --------------------------------------------------------------------- #
# model registry
# --------------------------------------------------------------------- #
class TestModelRegistry:
    def test_register_and_load_round_trip(self, registry, serve_model):
        assert registry.names() == ["tiny-mnist"]
        loaded = registry.load("tiny-mnist")
        assert np.array_equal(loaded.weights, serve_model.weights)

    def test_discovers_bare_snapshots(self, tmp_path, serve_model):
        serve_model.save(tmp_path / "dropped-in")
        registry = ModelRegistry(tmp_path)
        assert "dropped-in" in registry.names()
        entry = registry.entry("dropped-in")
        assert entry.workload is None  # no sidecar: adopted without a tag
        assert set(entry.checksums) == {"npz", "json"}
        assert registry.load("dropped-in").n_neurons == serve_model.n_neurons

    def test_checksum_mismatch_refused(self, registry):
        entry = registry.entry("tiny-mnist")
        # Corrupt the array payload behind the registry's back.
        entry.npz_path.write_bytes(b"PK\x03\x04 not actually a model")
        registry._models.clear()  # force a cold load
        with pytest.raises(SnapshotIntegrityError, match="checksum mismatch"):
            registry.load("tiny-mnist")

    def test_resolve_by_workload_and_size(self, registry, serve_model):
        registry.register(serve_model, "second-mnist", workload="mnist")
        entry = registry.resolve(workload="mnist", n_neurons=serve_model.n_neurons)
        assert entry.name == "second-mnist"  # first in sorted order
        with pytest.raises(ModelNotFoundError):
            registry.resolve(workload="fashion-mnist")
        with pytest.raises(ModelNotFoundError):
            registry.resolve(name="nope")

    def test_warm_session_lru_eviction(self, service, builds, small_split):
        """Warm sessions live in the service's pipeline cache, evicted LRU-first.

        The registry caches decoded models only; it reports the pipeline
        count as ``warm_sessions`` in the metrics snapshot.
        """
        image = _test_images(small_split, 1)[0]
        n_modes = MAX_WARM_PIPELINES + 1

        def classify(fault_seed):
            return service.classify(
                [image], model="tiny-mnist", mode=_faulty(fault_seed), seeds=[1]
            ).predictions

        first_answers = [classify(fault_seed) for fault_seed in range(n_modes)]
        assert (
            service.metrics_snapshot()["registry"]["warm_sessions"]
            == MAX_WARM_PIPELINES
        )
        # The most recent pipeline is reused as it is ...
        assert classify(n_modes - 1) == first_answers[-1]
        assert builds["sessions"] == n_modes
        # ... and the evicted oldest one is rebuilt to an equivalent pipeline
        # (determinism makes eviction invisible to clients).
        assert classify(0) == first_answers[0]
        assert builds["sessions"] == n_modes + 1
        assert len(service._pipelines) == MAX_WARM_PIPELINES

    def test_reregister_replaces_warm_model(self, registry, serve_model):
        registry.load("tiny-mnist")  # warm the cache with the original
        modified = dataclasses.replace(serve_model, weights=serve_model.weights * 0.5)
        registry.register(modified, "tiny-mnist", workload="mnist")
        assert np.array_equal(
            registry.load("tiny-mnist").weights, modified.weights
        )

    def test_dotted_names_rejected_and_not_adopted(
        self, tmp_path, registry, serve_model
    ):
        # Path.with_suffix would truncate "model.v2" onto "model.npz",
        # silently overwriting another model — so dots are refused outright.
        with pytest.raises(ValueError, match="invalid model name"):
            registry.register(serve_model, "tiny-mnist.v2")
        # Dotted bare snapshots are skipped at discovery for the same reason
        # (TrainedModel.load would resolve "bad.v2.npz" -> "bad.json").
        serve_model.save(tmp_path / "ok")
        (tmp_path / "ok.npz").rename(tmp_path / "bad.v2.npz")
        (tmp_path / "ok.json").rename(tmp_path / "bad.v2.json")
        assert ModelRegistry(tmp_path).names() == []

    def test_retrain_in_place(self, registry, small_split):
        train_set, _ = small_split
        from repro.snn.training import TrainingConfig

        before = registry.entry("tiny-mnist")
        entry = registry.retrain(
            "tiny-mnist",
            train_set,
            rng=5,
            training_config=TrainingConfig(
                epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"
            ),
        )
        # Same identity, fresh bytes, workload tag preserved, and the
        # republished snapshot loads cleanly (checksums re-recorded).
        assert entry.name == "tiny-mnist"
        assert entry.workload == "mnist"
        assert entry.checksums != before.checksums
        reloaded = registry.load("tiny-mnist")
        assert reloaded.n_neurons == before.n_neurons
        entry.verify()

        # The retrain is deterministic and engine-backed: an offline
        # sequential retrain from the same seed yields the same weights.
        from repro.snn.oracle import train_sequential
        from repro.snn.training import TrainingRunner

        offline = train_sequential(
            TrainingRunner(
                reloaded.network_config,
                TrainingConfig(
                    epochs=1, learning_mode="fast_wta", label_assignment_mode="fast"
                ),
            ),
            train_set,
            rng=5,
        )
        assert np.array_equal(offline.weights, reloaded.weights)

    def test_retrain_refuses_tampered_snapshot(self, registry, small_split):
        """A modified sidecar must not be laundered into fresh checksums."""
        train_set, _ = small_split
        from repro.snn.training import TrainingConfig

        json_path = registry.entry("tiny-mnist").json_path
        json_path.write_text(
            json_path.read_text().replace('"n_neurons": 20', '"n_neurons": 10')
        )
        with pytest.raises(SnapshotIntegrityError):
            registry.retrain("tiny-mnist", train_set, TrainingConfig(), rng=1)

    def test_retrain_unknown_name(self, registry, small_split):
        train_set, _ = small_split
        from repro.snn.training import TrainingConfig

        with pytest.raises(ModelNotFoundError):
            registry.retrain("nope", train_set, TrainingConfig(), rng=1)


# --------------------------------------------------------------------- #
# scheduler parity (the acceptance criterion)
# --------------------------------------------------------------------- #
class TestSchedulerParity:
    @pytest.mark.parametrize(
        "mode_spec",
        [
            "clean",
            {"kind": "faulty", "fault_rate": 0.25, "fault_seed": 17},
            {"kind": "protected", "fault_rate": 0.25, "fault_seed": 17},
        ],
        ids=["clean", "faulty", "protected"],
    )
    def test_served_equals_direct_evaluation(
        self, service, serve_model, small_split, mode_spec
    ):
        images = _test_images(small_split, 10)
        seeds = [5000 + index for index in range(len(images))]
        served = service.classify(
            images, model="tiny-mnist", mode=mode_spec, seeds=seeds
        )
        mode = service.resolve_mode(mode_spec)
        expected = _reference_predictions(serve_model, mode, images, seeds)
        assert served.predictions == expected
        # The requests really were micro-batched, not trivially size-1.
        stats = service.metrics_snapshot()
        assert stats["mean_batch_size"] > 1.0

    def test_prediction_independent_of_batch_composition(
        self, service, small_split
    ):
        """The same (image, seed) answers identically alone or co-batched."""
        images = _test_images(small_split, 6)
        seeds = [7000 + index for index in range(len(images))]
        mode = {"kind": "faulty", "fault_rate": 0.3, "fault_seed": 3}
        batched = service.classify(
            images, model="tiny-mnist", mode=mode, seeds=seeds
        ).predictions
        solo = [
            service.classify(
                [image], model="tiny-mnist", mode=mode, seeds=[seed]
            ).predictions[0]
            for image, seed in zip(images, seeds)
        ]
        assert batched == solo

    def test_repeated_request_is_deterministic(self, service, small_split):
        image = _test_images(small_split, 1)[0]
        first = service.classify([image], model="tiny-mnist", seeds=[42])
        second = service.classify([image], model="tiny-mnist", seeds=[42])
        assert first.predictions == second.predictions

    def test_reregistered_model_serves_new_weights(
        self, service, serve_model, builds, small_split
    ):
        """The scheduler pipeline must not stay bound to a stale session."""
        images = _test_images(small_split, 4)
        seeds = [100, 101, 102, 103]
        before = service.classify(
            images, model="tiny-mnist", mode="clean", seeds=seeds
        ).predictions
        (stale,) = builds["schedulers"]
        # Re-register in place with visibly different weights (zero out the
        # crossbar: a silent network deterministically predicts class 0).
        silenced = dataclasses.replace(
            serve_model,
            weights=np.zeros_like(serve_model.weights),
            clean_max_weight=serve_model.clean_max_weight,
        )
        service.register_model(silenced, "tiny-mnist", workload="mnist")
        after = service.classify(
            images, model="tiny-mnist", mode="clean", seeds=seeds
        ).predictions
        assert after == [0, 0, 0, 0]
        assert after != before  # the stale session would have repeated these
        # The stale pipeline was retired: its scheduler is closed, and one
        # fresh pipeline serves the new weights.
        with pytest.raises(RuntimeError, match="closed"):
            stale.submit((images[0], seeds[0]))
        assert len(builds["schedulers"]) == 2
        assert service.metrics_snapshot()["registry"]["warm_sessions"] == 1

    def test_reregistering_identical_bytes_keeps_the_pipeline(
        self, service, serve_model, builds, small_split
    ):
        image = _test_images(small_split, 1)[0]
        first = service.classify([image], model="tiny-mnist", seeds=[8])
        (pipeline,) = service._pipelines.values()
        service.register_model(serve_model, "tiny-mnist", workload="mnist")
        again = service.classify([image], model="tiny-mnist", seeds=[8])
        assert again.predictions == first.predictions
        (kept,) = service._pipelines.values()
        assert kept is pipeline
        assert builds["sessions"] == 1 and len(builds["schedulers"]) == 1

    def test_dropped_in_snapshot_served_without_restart(
        self, service, serve_model, small_split
    ):
        """An unknown name triggers one re-scan before the request 404s."""
        serve_model.save(service.registry.root / "late-arrival")
        image = _test_images(small_split, 1)[0]
        response = service.classify([image], model="late-arrival", seeds=[5])
        assert response.model == "late-arrival"

    def test_in_place_rewrite_served_after_models_scan(
        self, service, serve_model, small_split
    ):
        """GET /models re-discovers a snapshot atomically re-trained in place."""
        images = _test_images(small_split, 2)
        seeds = [60, 61]
        before = service.classify(
            images, model="tiny-mnist", seeds=seeds
        ).predictions
        silenced = dataclasses.replace(
            serve_model, weights=np.zeros_like(serve_model.weights)
        )
        # Overwrite the snapshot files directly (atomic writers), leaving
        # the registration-time sidecar checksums stale.
        silenced.save(service.registry.root / "tiny-mnist")
        listing = service.models()  # the GET /models body; triggers refresh
        assert listing[0]["warm"] is False  # the stale warm model is dropped
        assert listing[0]["warm_modes"] == []  # and its pipeline is not listed
        after = service.classify(
            images, model="tiny-mnist", seeds=seeds
        ).predictions
        assert after == [0, 0]  # a silent network always votes class 0
        assert after != before

    def test_pipeline_cache_is_bounded(self, service, builds, small_split):
        """More distinct modes than the bound retire the oldest pipelines."""
        image = _test_images(small_split, 1)[0]
        n_modes = MAX_WARM_PIPELINES + 2
        for fault_seed in range(n_modes):
            service.classify(
                [image], model="tiny-mnist", mode=_faulty(fault_seed), seeds=[1]
            )
        assert len(service._pipelines) == MAX_WARM_PIPELINES
        assert builds["sessions"] == n_modes
        schedulers = builds["schedulers"]
        for retired in schedulers[:2]:
            with pytest.raises(RuntimeError, match="closed"):
                retired.submit((image, 1))
        for warm in schedulers[2:]:
            assert warm.submit((image, 1)).result(timeout=30) is not None



class TestPipelineCache:
    """The service's (model, mode) pipelines are its one warm-session cache."""

    def test_cycling_modes_within_the_bound_builds_each_once(
        self, service, builds, small_split
    ):
        image = _test_images(small_split, 1)[0]
        fault_seeds = list(range(MAX_WARM_PIPELINES))
        for round_index in range(10):
            for fault_seed in fault_seeds:
                service.classify(
                    [image],
                    model="tiny-mnist",
                    mode=_faulty(fault_seed),
                    seeds=[round_index],
                )
        assert builds["sessions"] == len(fault_seeds)
        assert len(builds["schedulers"]) == len(fault_seeds)
        registry = service.metrics_snapshot()["registry"]
        assert registry["warm_sessions"] == len(fault_seeds)
        (listing,) = service.models()
        assert listing["warm"] is True
        assert [mode["fault_seed"] for mode in listing["warm_modes"]] == fault_seeds

    def test_metrics_keep_every_pipeline_of_one_kind(self, service, small_split):
        """Pipelines of one model and kind report apart in ``/metrics``."""
        image = _test_images(small_split, 1)[0]
        fault_seeds = (1, 2, 3)
        for fault_seed in fault_seeds:
            service.classify(
                [image], model="tiny-mnist", mode=_faulty(fault_seed), seeds=[1]
            )
        snapshot = service.metrics_snapshot()
        names = set(snapshot["schedulers"])
        assert len(names) == len(fault_seeds)
        assert set(snapshot["queue_depth"]) == names
        assert sum(snapshot["batch_size_histogram"].values()) == len(fault_seeds)
        prefix = 'softsnn_serve_batches_total{scheduler="'
        labelled = {
            line[len(prefix) :].split('"', 1)[0]
            for line in service.metrics_prometheus().splitlines()
            if line.startswith(prefix)
        }
        assert names <= labelled

    def test_racing_cold_requests_leave_one_scheduler(
        self, service, serve_model, builds, small_split
    ):
        n_threads = 8
        images = _test_images(small_split, n_threads)
        seeds = [800 + index for index in range(n_threads)]
        barrier = threading.Barrier(n_threads)
        served = [None] * n_threads
        errors = []

        def call(index):
            try:
                barrier.wait(timeout=30)
                served[index] = service.classify(
                    [images[index]],
                    model="tiny-mnist",
                    mode="protected",
                    seeds=[seeds[index]],
                ).predictions[0]
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(index,)) for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(builds["schedulers"]) == 1
        assert len(service._pipelines) == 1
        expected, _ = build_session(
            serve_model, service.resolve_mode("protected")
        ).classify_batch(images, seeds)
        assert served == expected.tolist()


# --------------------------------------------------------------------- #
# serve.classify span instrumentation
# --------------------------------------------------------------------- #
class TestServeTracing:
    def test_classify_span_emitted_and_predictions_identical(
        self, service, small_split, tmp_path
    ):
        """Tracing must observe the request without changing its answer."""
        import json

        from repro.obs import configure_trace

        images = _test_images(small_split, 4)
        seeds = [9000 + index for index in range(len(images))]
        baseline = service.classify(
            images, model="tiny-mnist", mode="clean", seeds=seeds
        ).predictions
        sink = tmp_path / "trace.jsonl"
        configure_trace(str(sink))
        try:
            traced = service.classify(
                images, model="tiny-mnist", mode="clean", seeds=seeds
            ).predictions
        finally:
            configure_trace(None)
        assert traced == baseline
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        spans = [event for event in events if event["name"] == "serve.classify"]
        assert len(spans) == 1
        attributes = spans[0]["attributes"]
        assert attributes["model"] == "tiny-mnist"
        assert attributes["mode"] == "clean"
        assert attributes["n_images"] == len(images)
        assert spans[0]["duration_ns"] >= 0


# --------------------------------------------------------------------- #
# the smoke command
# --------------------------------------------------------------------- #
class TestSmokeCommand:
    """``python -m repro.server smoke`` leaves no scratch models behind."""

    def test_temp_models_dir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert server.main(["smoke", "--n-samples", "2", "--quiet"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_temp_models_dir_is_removed_on_failure(self, tmp_path, monkeypatch):
        def oracle_down(*args, **kwargs):
            raise RuntimeError("oracle down")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(server, "_reference_predictions", oracle_down)
        with pytest.raises(RuntimeError, match="oracle down"):
            server.main(["smoke", "--n-samples", "2", "--quiet"])
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# service + HTTP front end
# --------------------------------------------------------------------- #
class TestServiceHTTP:
    def test_endpoints_round_trip(self, service, small_split):
        images = _test_images(small_split, 3)
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["models"] == ["tiny-mnist"]

            models = client.models()
            assert models[0]["name"] == "tiny-mnist"
            assert models[0]["workload"] == "mnist"
            assert set(models[0]["checksums"]) == {"npz", "json"}

            response = client.classify(
                [image.tolist() for image in images],
                model="tiny-mnist",
                mode="clean",
                seeds=[1, 2, 3],
            )
            assert response["model"] == "tiny-mnist"
            assert len(response["predictions"]) == 3
            assert response["seeds"] == [1, 2, 3]

            metrics = client.metrics()
            assert metrics["requests_total"] == 3
            assert metrics["requests_by_mode"] == {"clean": 3}
            assert metrics["latency"]["count"] == 3
            assert metrics["latency"]["p99_ms"] >= metrics["latency"]["p50_ms"]
            assert sum(
                int(k) * v for k, v in metrics["batch_size_histogram"].items()
            ) == 3

    def test_http_errors_are_structured(self, service, small_split):
        image = _test_images(small_split, 1)[0]
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            with pytest.raises(RuntimeError, match="HTTP 404"):
                client.classify([image.tolist()], model="missing-model")
            with pytest.raises(RuntimeError, match="HTTP 400"):
                client.classify([[0.5, 0.5]], model="tiny-mnist")
            with pytest.raises(RuntimeError, match="HTTP 400"):
                client._request("/classify", {"model": "tiny-mnist"})
            with pytest.raises(RuntimeError, match="HTTP 404"):
                client._request("/nowhere")

    def test_bad_seed_fails_only_its_own_request(
        self, tmp_path, serve_model, small_split
    ):
        """A rejected seed never fails the micro-batch it would have joined."""
        image = _test_images(small_split, 1)[0]
        # Two requests fill a batch; a lone one waits for the idle grace
        # (a quarter of max_delay_ms, 500 ms), far longer than the 50 ms
        # between the two submissions below.
        config = ServiceConfig(
            models_dir=tmp_path / "models", max_batch_size=2, max_delay_ms=2000.0
        )
        outcomes = {}

        def call(label, seed):
            try:
                outcomes[label] = svc.classify(
                    [image], model="tiny-mnist", seeds=[seed]
                ).predictions
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                outcomes[label] = exc

        with SoftSNNService(config) as svc:
            svc.register_model(serve_model, "tiny-mnist", workload="mnist")
            svc.classify([image], model="tiny-mnist", seeds=[0])  # warm
            threads = [
                threading.Thread(target=call, args=args)
                for args in (("valid", 3), ("invalid", -1))
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.05)
            for thread in threads:
                thread.join(timeout=30)
            assert isinstance(outcomes["invalid"], ValueError)
            expected, _ = build_session(
                serve_model, ServingMode.clean()
            ).classify_batch([image], [3])
            assert outcomes["valid"] == expected.tolist()
            for seed in (-1, 2.5, "7", True):
                with pytest.raises(ValueError, match="non-negative integers"):
                    svc.classify([image], model="tiny-mnist", seeds=[seed])
            with ServiceServer(svc, port=0) as server:
                client = ServiceClient(server.url)
                for seed in (-1, 2.5, np.float64(3.5), "7"):
                    with pytest.raises(RuntimeError, match="HTTP 400"):
                        client.classify(
                            [image], model="tiny-mnist", seeds=[seed]
                        )
                served = client.classify(
                    [image], model="tiny-mnist", seeds=[np.int64(3)]
                )
                assert served["predictions"] == expected.tolist()

    def test_workload_resolution_over_http(self, service, small_split):
        image = _test_images(small_split, 1)[0]
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            response = client.classify(
                [image.tolist()], workload="mnist", seeds=[9]
            )
            assert response["model"] == "tiny-mnist"

    def test_derived_seeds_are_returned(self, service, small_split):
        image = _test_images(small_split, 1)[0]
        response = service.classify([image], model="tiny-mnist")
        assert len(response.seeds) == 1
        # Replaying the returned seed reproduces the prediction.
        replay = service.classify(
            [image], model="tiny-mnist", seeds=response.seeds
        )
        assert replay.predictions == response.predictions

    def test_metrics_json_keys_are_pinned(self, service, small_split):
        """The JSON /metrics contract: dashboards parse these exact keys."""
        images = _test_images(small_split, 2)
        service.classify(images, model="tiny-mnist", seeds=[1, 2])
        snapshot = service.metrics_snapshot()
        assert set(snapshot) == {
            "requests_total",
            "requests_by_mode",
            "errors_total",
            "latency",
            "batch_size_histogram",
            "mean_batch_size",
            "queue_depth",
            "schedulers",
            "registry",
        }
        assert set(snapshot["latency"]) == {
            "count",
            "mean_ms",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "max_ms",
            "window_size",
            "samples",
        }
        assert snapshot["latency"]["window_size"] == LATENCY_WINDOW
        assert snapshot["latency"]["samples"] == snapshot["latency"]["count"] == 2
        # The empty-reservoir branch carries the same keys.
        with SoftSNNService(service.config) as idle:
            assert set(idle.metrics.latency_summary()) == set(snapshot["latency"])
            assert idle.metrics.latency_summary()["samples"] == 0

    @staticmethod
    def _prom_value(text: str, series: str) -> float:
        for line in text.splitlines():
            if line.startswith(series + " "):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    def test_prometheus_metrics_over_http(self, service, small_split):
        images = _test_images(small_split, 2)
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            before = client.metrics_text()
            client.classify(
                [image.tolist() for image in images],
                model="tiny-mnist",
                seeds=[5, 6],
            )
            text = client.metrics_text()
        # Serving, scheduler, and registry metrics all appear.  The obs
        # registry is process-wide, so counters are compared as deltas.
        requests = 'softsnn_serve_requests_total{mode="clean"}'
        assert self._prom_value(text, requests) - self._prom_value(
            before, requests
        ) == 2
        count = "softsnn_serve_latency_ms_count"
        assert self._prom_value(text, count) - self._prom_value(
            before, count
        ) == 2
        assert "softsnn_serve_batches_total{" in text
        assert 'softsnn_serve_registry_entries{tier="models"} 1' in text
        assert "softsnn_serve_latency_ms_bucket{" in text


def _connections_total() -> float:
    # The obs registry is process-wide, so tests compare deltas.
    return get_registry().value("softsnn_serve_connections_total")


class TestPersistentConnections:
    """Keep-alive: one connection per client thread, no Nagle stall."""

    def test_kept_alive_requests_do_not_stall(self, service):
        with ServiceServer(service, port=0) as server:
            connection = http.client.HTTPConnection(server.host, server.port)
            try:
                samples_ms = []
                sockets = set()
                for _ in range(10):
                    started = time.perf_counter()
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    samples_ms.append(1000.0 * (time.perf_counter() - started))
                    assert response.status == 200 and body["status"] == "ok"
                    sockets.add(id(connection.sock))
            finally:
                connection.close()
        assert len(sockets) == 1, "the server closed the kept-alive connection"
        # A delayed-ACK stall costs ~40 ms per request; a healthy one < 1 ms.
        assert statistics.median(samples_ms) < 20.0, samples_ms

    def test_threads_sharing_a_client_keep_one_connection_each(
        self, service, serve_model, small_split
    ):
        images = _test_images(small_split, 4)
        seeds = list(range(700, 720))
        served = [None] * len(seeds)
        errors = []
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)

            def call(indices):
                try:
                    for index in indices:
                        response = client.classify(
                            [images[index % len(images)]],
                            model="tiny-mnist",
                            mode="protected",
                            seeds=[seeds[index]],
                        )
                        served[index] = response["predictions"][0]
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            before = _connections_total()
            threads = [
                threading.Thread(target=call, args=(range(start, len(seeds), 2),))
                for start in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            opened = _connections_total() - before
        assert not errors, errors
        expected, _ = build_session(
            serve_model, service.resolve_mode("protected")
        ).classify_batch(
            [images[index % len(images)] for index in range(len(seeds))], seeds
        )
        assert served == expected.tolist()
        assert opened == 2

    def test_many_threads_share_a_client_under_fast_switching(self, service):
        """More client threads than cores, switching every 10 us."""
        statuses = []

        def call():
            for _ in range(5):
                statuses.append(client.healthz()["status"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceServer(service, port=0) as server:
                client = ServiceClient(server.url)
                before = _connections_total()
                threads = [threading.Thread(target=call) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                opened = _connections_total() - before
        finally:
            sys.setswitchinterval(interval)
        assert statuses == ["ok"] * 40
        assert opened == 8
        # Every accepted connection was accounted closed by the stop.
        assert not server._httpd._connections

    def test_restarted_server_is_reached_through_one_retry(
        self, service, serve_model, small_split, monkeypatch
    ):
        image = _test_images(small_split, 1)[0]
        first = ServiceServer(service, port=0).start()
        port = first.port
        client = ServiceClient(first.url)
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            first.stop()
        sent = []
        original = http.client.HTTPConnection.request

        def counting_request(self, *args, **kwargs):
            sent.append(args[:2])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", counting_request)
        restarted = SoftSNNService(service.config)
        with client, ServiceServer(restarted, port=port):
            response = client.classify([image], model="tiny-mnist", seeds=[11])
        # The stale kept-alive connection failed once, the fresh one answered.
        assert sent == [("POST", "/classify")] * 2
        expected, _ = build_session(serve_model, ServingMode.clean()).classify_batch(
            [image], [11]
        )
        assert response["predictions"] == expected.tolist()

    def test_stop_without_start_returns_and_closes_the_service(
        self, service, small_split
    ):
        server = ServiceServer(service, port=0)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() blocked on a loop that never ran"
        assert server._httpd.socket.fileno() == -1
        image = _test_images(small_split, 1)[0]
        with pytest.raises(RuntimeError, match="service is closed"):
            service.classify([image], model="tiny-mnist", seeds=[1])

    def test_unrouted_post_body_is_consumed(self, service):
        with ServiceServer(service, port=0) as server:
            connection = http.client.HTTPConnection(server.host, server.port)
            try:
                connection.request(
                    "POST",
                    "/nowhere",
                    body=json.dumps({"images": [[0.0] * 8]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 404
                assert "no such endpoint" in json.loads(response.read())["error"]
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"

                connection.putrequest("POST", "/classify")
                connection.putheader("Content-Length", "many")
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == 400
                assert response.getheader("Connection") == "close"
                response.read()
            finally:
                connection.close()


# --------------------------------------------------------------------- #
# load generator
# --------------------------------------------------------------------- #
class TestLoadGenerator:
    def test_closed_loop_report(self, service, small_split):
        images = _test_images(small_split, 4)
        seeds = list(range(300, 324))
        report = run_closed_loop(
            InProcessClient(service),
            images,
            seeds,
            model="tiny-mnist",
            mode="clean",
            concurrency=4,
            label="unit",
            metrics_source=service.metrics_snapshot,
        )
        assert report.errors == 0
        assert report.n_requests == len(seeds)
        assert len(report.latencies_ms) == len(seeds)
        assert all(pred is not None for pred in report.predictions)
        assert report.throughput_rps > 0
        assert report.mean_batch_size >= 1.0
        summary = report.to_dict()
        assert summary["latency_ms"]["p99"] >= summary["latency_ms"]["p50"]

    def test_closed_loop_over_http_with_array_images(self, service, small_split):
        """``run_closed_loop`` sends ``[image]`` with ndarray images over HTTP."""
        images = _test_images(small_split, 3)
        seeds = list(range(500, 506))
        kwargs = dict(model="tiny-mnist", mode="clean", concurrency=2)
        with ServiceServer(service, port=0) as server:
            report = run_closed_loop(
                ServiceClient(server.url), images, seeds, **kwargs
            )
            direct = run_closed_loop(InProcessClient(service), images, seeds, **kwargs)
        assert report.errors == 0
        assert report.predictions == direct.predictions

    def test_deterministic_predictions_across_runs(self, service, small_split):
        images = _test_images(small_split, 4)
        seeds = list(range(400, 412))
        kwargs = dict(model="tiny-mnist", mode="clean", concurrency=3)
        first = run_closed_loop(InProcessClient(service), images, seeds, **kwargs)
        second = run_closed_loop(InProcessClient(service), images, seeds, **kwargs)
        assert first.predictions == second.predictions
