"""BENCH — per-kernel throughput of the fused kernel layer.

Times the two primitives every engine runs — the exact register-code GEMM
and the in-place LIF timestep advance (:mod:`repro.snn.kernels`) — in
isolation, at paper-scale geometries (N400 and N1600 on 784 inputs).

Results go to ``benchmarks/results/perf_kernels.json`` so successive PRs
can track each primitive separately from the end-to-end engine benches:
``<size>.numpy.gemm_gops`` is GEMM throughput in effective billion MACs/s
and ``<size>.numpy.advance_ns_per_neuron_step`` the advance cost per
neuron-timestep.  A second sweep times every shipped neuron model's
advance at N400 and records the per-model ns/neuron-timestep under a
``models`` key, so the zoo's dynamics are tracked alongside the default
LIF.  Set ``PERF_KERNELS_SMOKE=1`` (the CI artifact step does) to shrink
the geometry sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.snn.kernels import (
    KernelWorkspace,
    LIFStepConfig,
    OperationMasks,
    exact_gemm_dtype,
    exact_scale,
    register_gemm,
)
from repro.snn.models import get_model

SMOKE = os.environ.get("PERF_KERNELS_SMOKE") == "1"

N_INPUTS = 784
#: Paper network sizes measured (Fig. 13 sweeps N400…N3600).
SIZES = [400] if SMOKE else [400, 1600]
#: Shipped neuron models measured by the per-model sweep.  Explicit rather
#: than :func:`repro.snn.models.available_models` so probe registrations
#: leaked by earlier test files never reach the bench.
MODEL_NAMES = ("lif", "cuba_lif", "fixed_point_lif")
TIMESTEPS = 30 if SMOKE else 100
BATCH = 32 if SMOKE else 64
N_REPS = 3 if SMOKE else 5

RESULTS_PATH = Path(__file__).parent / "results" / "perf_kernels.json"


def _best_of(n_reps, run):
    """Best-of-N wall time: the minimum is the least load-disturbed run."""
    best = np.inf
    for _ in range(n_reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_kernels(n_neurons, rng):
    """Time both kernels at one network size."""
    gemm_dtype = exact_gemm_dtype(N_INPUTS, 255)
    codes = np.ascontiguousarray(
        rng.integers(0, 256, size=(N_INPUTS, n_neurons)), dtype=gemm_dtype
    )
    raster = rng.random((BATCH * TIMESTEPS, N_INPUTS)) < 0.05

    def run_gemm():
        register_gemm(raster, codes)

    shape = (1, BATCH, n_neurons)
    currents = exact_scale(register_gemm(raster, codes), 2.0 / 255.0).reshape(
        (TIMESTEPS,) + shape
    )
    output = np.zeros((TIMESTEPS,) + shape, dtype=bool)
    threshold = np.full(n_neurons, 20.0)
    config = LIFStepConfig(
        v_rest=-65.0,
        v_reset=-60.0,
        v_min=-80.0,
        membrane_decay=0.95,
        refractory_period=5,
        inhibition_strength=1.0,
    )
    masks = OperationMasks.healthy(n_neurons)
    workspace = KernelWorkspace()
    state = {}

    def reset_state():
        state["arrays"] = (
            np.full(shape, config.v_rest, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
        )

    advance = get_model("lif").advance

    def run_advance():
        reset_state()
        advance(
            currents,
            output,
            *state["arrays"],
            masks,
            threshold,
            config,
            workspace,
        )

    run_gemm()  # warm caches off the clock
    run_advance()
    gemm_seconds = _best_of(N_REPS, run_gemm)
    advance_seconds = _best_of(N_REPS, run_advance)

    macs = raster.shape[0] * N_INPUTS * n_neurons
    neuron_steps = TIMESTEPS * BATCH * n_neurons
    return {
        "gemm_ms": round(1000.0 * gemm_seconds, 3),
        "gemm_gops": round(macs / gemm_seconds / 1e9, 3),
        "advance_ms": round(1000.0 * advance_seconds, 3),
        "advance_ns_per_neuron_step": round(
            1e9 * advance_seconds / neuron_steps, 2
        ),
    }


def test_kernel_throughput():
    summary = {
        "smoke": SMOKE,
        "n_inputs": N_INPUTS,
        "timesteps": TIMESTEPS,
        "batch": BATCH,
        "sizes": {},
    }
    for n_neurons in SIZES:
        rng = np.random.default_rng(n_neurons)
        summary["sizes"][f"N{n_neurons}"] = {
            "numpy": _bench_kernels(n_neurons, rng)
        }

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")

    print()
    for size, entry in summary["sizes"].items():
        results = entry["numpy"]
        print(
            f"BENCH perf_kernels: {size} gemm {results['gemm_gops']} GMAC/s, "
            f"advance {results['advance_ns_per_neuron_step']} ns/neuron-step"
        )


def test_model_advance_costs():
    """Per-neuron-timestep advance cost of every shipped neuron model.

    Runs each registered model's :meth:`~repro.snn.models.NeuronModel.
    advance` — the exact dispatch path the engines take — over the same
    N400 geometry the kernel sweep uses, and records the normalized
    ns/neuron-timestep per model.  Results merge into the ``models`` key
    of ``perf_kernels.json`` by read-modify-write: ``test_kernel_throughput``
    rewrites the file whole, so this test runs after it in file order and
    must preserve its payload.  No floor is asserted — the zoo's extra
    state (CUBA current, fixed-point quantization) legitimately costs more
    than the plain LIF pipeline; the column is a tracking artifact.
    """
    n_neurons = 400
    rng = np.random.default_rng(n_neurons)
    gemm_dtype = exact_gemm_dtype(N_INPUTS, 255)
    codes = np.ascontiguousarray(
        rng.integers(0, 256, size=(N_INPUTS, n_neurons)), dtype=gemm_dtype
    )
    raster = rng.random((BATCH * TIMESTEPS, N_INPUTS)) < 0.05

    shape = (1, BATCH, n_neurons)
    currents = exact_scale(register_gemm(raster, codes), 2.0 / 255.0).reshape(
        (TIMESTEPS,) + shape
    )
    output = np.zeros((TIMESTEPS,) + shape, dtype=bool)
    threshold = np.full(n_neurons, 20.0)
    config = LIFStepConfig(
        v_rest=-65.0,
        v_reset=-60.0,
        v_min=-80.0,
        membrane_decay=0.95,
        refractory_period=5,
        inhibition_strength=1.0,
    )
    masks = OperationMasks.healthy(n_neurons)
    workspace = KernelWorkspace()
    state = {}

    def reset_state():
        state["arrays"] = (
            np.full(shape, config.v_rest, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
        )

    neuron_steps = TIMESTEPS * BATCH * n_neurons
    per_model = {}
    print()
    for name in MODEL_NAMES:
        model = get_model(name)

        def run_advance(model=model):
            reset_state()
            model.advance(
                currents,
                output,
                *state["arrays"],
                masks,
                threshold,
                config,
                workspace,
            )

        run_advance()  # warm caches off the clock
        seconds = _best_of(N_REPS, run_advance)
        per_model[name] = {
            "advance_ms": round(1000.0 * seconds, 3),
            "advance_ns_per_neuron_step": round(
                1e9 * seconds / neuron_steps, 2
            ),
        }
        print(
            f"BENCH perf_kernels: models [{name}] advance "
            f"{per_model[name]['advance_ns_per_neuron_step']} ns/neuron-step"
        )

    summary = {}
    if RESULTS_PATH.exists():
        summary = json.loads(RESULTS_PATH.read_text())
    summary["models"] = {
        "smoke": SMOKE,
        "n_neurons": n_neurons,
        "timesteps": TIMESTEPS,
        "batch": BATCH,
        "per_model": per_model,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")

    assert set(per_model) == set(MODEL_NAMES)
    for results in per_model.values():
        assert results["advance_ns_per_neuron_step"] > 0.0


def test_telemetry_overhead_guard():
    """Kernel instrumentation must cost ≤2% of the cheapest kernel call.

    A wall-clock A/B comparison of full benches with telemetry on and off
    is hopelessly noisy on shared CI workers, so the guard is analytic
    instead: each instrumented kernel call pays exactly one
    ``_record_kernel`` event (two counter increments through cached
    children), so the overhead fraction is the per-event record cost over
    the duration of the cheapest real kernel call the layer instruments —
    the smoke-geometry GEMM.  Runs in smoke mode too; the record path is
    microseconds of work.
    """
    from repro.obs import metrics as _obs
    from repro.snn import kernels as kernel_module

    assert _obs.enabled(), "guard must measure the enabled record path"

    n_events = 20_000

    def record_many():
        for _ in range(n_events):
            kernel_module._record_kernel("register_gemm", 1000)

    record_many()  # warm the per-callsite child cache off the clock
    record_seconds = _best_of(3, record_many) / n_events

    # The cheapest instrumented call: a smoke-geometry register GEMM.
    rng = np.random.default_rng(0)
    n_neurons = 400
    gemm_dtype = exact_gemm_dtype(N_INPUTS, 255)
    codes = np.ascontiguousarray(
        rng.integers(0, 256, size=(N_INPUTS, n_neurons)), dtype=gemm_dtype
    )
    raster = rng.random((32 * 30, N_INPUTS)) < 0.05

    def run_gemm():
        register_gemm(raster, codes)

    run_gemm()
    gemm_seconds = _best_of(N_REPS, run_gemm)

    overhead = record_seconds / gemm_seconds
    print(
        f"\nBENCH perf_kernels: telemetry record {1e9 * record_seconds:.0f} ns"
        f"/event = {100.0 * overhead:.3f}% of a smoke GEMM"
    )
    assert overhead <= 0.02, (
        f"telemetry records cost {100.0 * overhead:.2f}% of the cheapest "
        "instrumented kernel call — the observability layer must stay ≤2%"
    )
