"""BENCH — per-kernel throughput of the fused kernel layer.

Times the two primitives every engine runs — the exact register-code GEMM
and the in-place timestep advance (:mod:`repro.snn.kernels`) — in
isolation, at paper-scale geometries (N400 and N1600 on 784 inputs).

The ``perf_kernels`` record tracks each primitive separately from the
end-to-end engine benches: ``N<size>_gemm_gops`` is GEMM throughput in
effective billion MACs/s and ``N<size>_advance_ns_per_neuron_step`` the
advance cost per neuron-timestep.  A second sweep times every shipped
neuron model's advance at N400 into the ``perf_kernels_models`` record, so
the zoo's dynamics are tracked alongside the default LIF, plus one LIF side
under faulty operation masks (``lif_faulty``), so the fault-gated path the
engines run under a fault map is tracked too.  Each series is the median of
the bench harness's rotated repetitions.
"""

from __future__ import annotations

import numpy as np

from _harness import time_sides, write_record
from repro.snn.kernels import (
    KernelWorkspace,
    LIFStepConfig,
    OperationMasks,
    exact_gemm_dtype,
    exact_scale,
    register_gemm,
)
from repro.snn.models import get_model

N_INPUTS = 784
#: Paper network sizes measured (Fig. 13 sweeps N400…N3600).
SIZES = [400, 1600]
#: Shipped neuron models measured by the per-model sweep.  Explicit rather
#: than :func:`repro.snn.models.available_models` so probe registrations
#: leaked by earlier test files never reach the bench.
MODEL_NAMES = ("lif", "cuba_lif", "fixed_point_lif")
TIMESTEPS = 100
BATCH = 64
#: Faulty neurons per operation (leak, increase, reset, spike generation)
#: of the ``lif_faulty`` side: the counts of infer-n400's rate-0.1 fault
#: map at N400.
FAULTY_NEURONS = (34, 36, 41, 27)

CONFIG = LIFStepConfig(
    v_rest=-65.0,
    v_reset=-60.0,
    v_min=-80.0,
    membrane_decay=0.95,
    refractory_period=5,
    inhibition_strength=1.0,
)


def _random_operands(n_neurons, n_rows, rng):
    """Register codes ``(784, n)`` and a 5%-dense input raster ``(rows, 784)``."""
    codes = np.ascontiguousarray(
        rng.integers(0, 256, size=(N_INPUTS, n_neurons)),
        dtype=exact_gemm_dtype(N_INPUTS, 255),
    )
    return codes, rng.random((n_rows, N_INPUTS)) < 0.05


def _faulty_masks(n_neurons):
    """Single-row masks with :data:`FAULTY_NEURONS` faulty neurons per operation."""
    rng = np.random.default_rng(0)
    masks = []
    for count in FAULTY_NEURONS:
        ok = np.ones((1, n_neurons), dtype=bool)
        ok[0, rng.choice(n_neurons, size=count, replace=False)] = False
        masks.append(ok)
    return OperationMasks(*masks)


def _kernel_calls(n_neurons):
    """The GEMM call and a per-model advance call at one network size.

    Every advance call starts from fresh neuron state (the seven arrays a
    model advances in place), allocated inside the timed call; the masks
    are healthy unless the call is given others.
    """
    codes, raster = _random_operands(
        n_neurons, BATCH * TIMESTEPS, np.random.default_rng(n_neurons)
    )
    shape = (1, BATCH, n_neurons)
    currents = exact_scale(register_gemm(raster, codes), 2.0 / 255.0).reshape(
        (TIMESTEPS,) + shape
    )
    output = np.zeros((TIMESTEPS,) + shape, dtype=bool)
    threshold = np.full(n_neurons, 20.0)
    healthy = OperationMasks.healthy(n_neurons)
    workspace = KernelWorkspace()

    def advance(name, masks=healthy):
        model = get_model(name)
        return lambda: model.advance(
            currents,
            output,
            np.full(shape, CONFIG.v_rest, dtype=np.float64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            np.zeros(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool),
            masks,
            threshold,
            CONFIG,
            workspace,
        )

    return (lambda: register_gemm(raster, codes)), advance


def test_kernel_throughput():
    sides = {}
    for n_neurons in SIZES:
        gemm, advance = _kernel_calls(n_neurons)
        sides[f"N{n_neurons}_gemm"] = gemm
        sides[f"N{n_neurons}_advance"] = advance("lif")
    timing = time_sides(sides)

    samples = {}
    for n_neurons in SIZES:
        macs = BATCH * TIMESTEPS * N_INPUTS * n_neurons
        neuron_steps = TIMESTEPS * BATCH * n_neurons
        samples[f"N{n_neurons}_gemm_gops"] = [
            macs / s / 1e9 for s in timing.seconds[f"N{n_neurons}_gemm"]
        ]
        samples[f"N{n_neurons}_advance_ns_per_neuron_step"] = [
            1e9 * s / neuron_steps for s in timing.seconds[f"N{n_neurons}_advance"]
        ]
    record = write_record(
        "perf_kernels",
        {"n_inputs": N_INPUTS, "timesteps": TIMESTEPS, "batch": BATCH, "sizes": SIZES},
        samples,
    )

    print()
    for n_neurons in SIZES:
        print(
            f"BENCH perf_kernels: N{n_neurons} gemm "
            f"{record['median'][f'N{n_neurons}_gemm_gops']:.2f} GMAC/s, advance "
            f"{record['median'][f'N{n_neurons}_advance_ns_per_neuron_step']:.2f} "
            f"ns/neuron-step"
        )


def test_model_advance_costs():
    """Per-neuron-timestep advance cost of every shipped neuron model.

    Runs each registered model's :meth:`~repro.snn.models.NeuronModel.
    advance` — the exact dispatch path the engines take — over the same
    N400 geometry the kernel sweep uses, and records the normalized
    ns/neuron-timestep per model, and for LIF under faulty masks.  No floor
    is asserted — the zoo's extra state (CUBA current, fixed-point
    quantization) legitimately costs more than the plain LIF pipeline; the
    series is a tracking artifact.
    """
    n_neurons = 400
    _, advance = _kernel_calls(n_neurons)
    sides = {name: advance(name) for name in MODEL_NAMES}
    sides["lif_faulty"] = advance("lif", _faulty_masks(n_neurons))
    timing = time_sides(sides)

    neuron_steps = TIMESTEPS * BATCH * n_neurons
    record = write_record(
        "perf_kernels_models",
        {
            "n_neurons": n_neurons,
            "timesteps": TIMESTEPS,
            "batch": BATCH,
            "faulty_neurons": list(FAULTY_NEURONS),
        },
        {
            f"{name}_advance_ns_per_neuron_step": [
                1e9 * s / neuron_steps for s in timing.seconds[name]
            ]
            for name in sides
        },
    )

    print()
    for name in sides:
        cost = record["median"][f"{name}_advance_ns_per_neuron_step"]
        print(f"BENCH perf_kernels: models [{name}] advance {cost:.2f} ns/neuron-step")
        assert cost > 0.0


def test_telemetry_overhead_guard():
    """Kernel instrumentation must cost ≤2% of the cheapest kernel call.

    A wall-clock A/B comparison of full benches with telemetry on and off
    is hopelessly noisy on shared CI workers, so the guard is analytic
    instead: each instrumented kernel call pays exactly one
    ``_record_kernel`` event (two counter increments through cached
    children), so the overhead fraction is the per-event record cost over
    the duration of the cheapest real kernel call the layer instruments —
    a small-geometry GEMM (32 samples x 30 timesteps at N400).
    """
    from repro.obs import metrics as _obs
    from repro.snn import kernels as kernel_module

    assert _obs.enabled(), "guard must measure the enabled record path"

    n_events = 20_000

    def record_many():
        for _ in range(n_events):
            kernel_module._record_kernel("register_gemm", 1000)

    codes, raster = _random_operands(400, 32 * 30, np.random.default_rng(0))
    sides = {"record": record_many, "gemm": lambda: register_gemm(raster, codes)}
    # The warm-up fills the per-callsite child cache off the clock.
    timing = time_sides(sides)

    record_seconds = np.median(timing.seconds["record"]) / n_events
    overhead = record_seconds / np.median(timing.seconds["gemm"])
    print(
        f"\nBENCH perf_kernels: telemetry record {1e9 * record_seconds:.0f} ns"
        f"/event = {100.0 * overhead:.3f}% of a small GEMM"
    )
    assert overhead <= 0.02, (
        f"telemetry records cost {100.0 * overhead:.2f}% of the cheapest "
        "instrumented kernel call — the observability layer must stay ≤2%"
    )
