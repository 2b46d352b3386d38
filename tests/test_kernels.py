"""Unit suite of the fused kernel layer (:mod:`repro.snn.kernels`).

The kernels carry the bit-exactness contract of all three engines, so this
suite checks them against straight-line reference implementations written
in the pre-refactor ``np.where`` style: the float32-exactness boundary of
the register GEMM, the LIF timestep advance under every fault-switch
combination (including protection triggers and carried faulty-reset
latches), the Bound-and-Protect bounding-correction decomposition, the
caller-owned workspace (no allocation inside the hot loop, for every
shipped model), and the batch-size knobs (explicit values win, ``None``
means the default chunk size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.snn.kernels import (
    DEFAULT_BATCH_SIZE,
    FLOAT32_EXACT_SUM_LIMIT,
    NO_PROTECTION_TRIGGER,
    KernelWorkspace,
    LIFStepConfig,
    OperationMasks,
    apply_bounding_correction,
    bounding_correction_terms,
    exact_gemm_dtype,
    exact_scale,
    lif_learning_step,
    plan_bounding_correction,
    register_gemm,
)
from repro.snn.models import available_models, get_model
from repro.core.bound_and_protect import NeuronProtection
from repro.snn.neuron import LIFNeuronGroup, LIFParameters, NeuronOperationStatus
from repro.snn.synapse import BoundedWeightRule, SynapseMatrix

#: Implementations the parity matrices run, by id: the numpy kernels (the
#: advance is the default LIF model's run of the shared timestep loop).
GEMM_KERNELS = [pytest.param(register_gemm, id="numpy")]
ADVANCE_KERNELS = [pytest.param(get_model("lif").advance, id="numpy")]

CONFIG = LIFStepConfig(
    v_rest=0.0,
    v_reset=0.0,
    v_min=-2.0,
    membrane_decay=0.9,
    refractory_period=3,
    inhibition_strength=1.0,
)


# ---------------------------------------------------------------------- #
# exact-GEMM dtype boundary
# ---------------------------------------------------------------------- #
class TestExactGemmDtype:
    """Pin the float32 capability probe exactly at the 2**24 boundary."""

    def test_limit_is_float32_mantissa(self):
        # 2**24 + 1 is the first integer float32 cannot represent: the
        # predicate must be `<=` so the boundary itself stays on float32.
        assert FLOAT32_EXACT_SUM_LIMIT == 2**24
        assert int(np.float32(2**24)) == 2**24
        assert int(np.float32(2**24 + 1)) == 2**24  # rounds down: inexact

    def test_boundary_exactly_at_limit_picks_float32(self):
        # 4096 * 4096 == 2**24: the bound itself is representable.
        assert exact_gemm_dtype(4096, 4096) == np.float32

    def test_boundary_one_below_limit_picks_float32(self):
        # 4095 * 4097 == 2**24 - 1.
        assert 4095 * 4097 == 2**24 - 1
        assert exact_gemm_dtype(4095, 4097) == np.float32

    def test_boundary_one_above_limit_picks_float64(self):
        # 24929 * 673 == 16_777_217 == 2**24 + 1 (= 97 * 257 * 673).
        assert 24929 * 673 == 2**24 + 1
        assert exact_gemm_dtype(24929, 673) == np.float64

    def test_paper_geometry_is_float32(self):
        # 784 inputs x 8-bit codes: comfortably within the mantissa.
        assert exact_gemm_dtype(784, 255) == np.float32

    def test_boundary_sum_is_exact_in_chosen_dtype(self):
        # Worst-case column sum exactly at the limit: all 4096 inputs spike
        # into a column of max codes.  The float32 GEMM must return the
        # exact integer.
        dtype = exact_gemm_dtype(4096, 4096)
        codes = np.full((4096, 1), 4096, dtype=dtype)
        spikes = np.ones((1, 4096), dtype=bool)
        total = register_gemm(spikes, codes)
        assert int(total[0, 0]) == 2**24

    def test_above_boundary_sum_exact_via_float64(self):
        # One past the limit the probe must fall back to float64, where the
        # sum is still exact (and float32 would have rounded it).
        dtype = exact_gemm_dtype(24929, 673)
        assert dtype == np.float64
        codes = np.full((24929, 1), 673, dtype=dtype)
        spikes = np.ones((1, 24929), dtype=bool)
        total = register_gemm(spikes, codes)
        assert int(total[0, 0]) == 2**24 + 1


# ---------------------------------------------------------------------- #
# register GEMM + exact scaling
# ---------------------------------------------------------------------- #
class TestRegisterGemm:
    @pytest.mark.parametrize("gemm", GEMM_KERNELS)
    @pytest.mark.parametrize("code_dtype", [np.float32, np.float64, np.int64])
    def test_matches_integer_matmul(self, gemm, code_dtype):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 256, size=(50, 12)).astype(code_dtype)
        spikes = rng.random((7, 50)) < 0.3
        result = gemm(spikes, codes)
        expected = spikes.astype(np.int64) @ codes.astype(np.int64)
        assert result.dtype == codes.dtype
        assert np.array_equal(result.astype(np.int64), expected)

    def test_exact_scale_is_float64_widening(self):
        accumulated = np.array([[3.0, 150.0]], dtype=np.float32)
        scale = 2.0 / 255.0
        result = exact_scale(accumulated, scale)
        assert result.dtype == np.float64
        expected = accumulated.astype(np.float64) * np.float64(scale)
        assert np.array_equal(result, expected)

    def test_exact_scale_out_parameter(self):
        accumulated = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = np.empty((2, 3), dtype=np.float64)
        returned = exact_scale(accumulated, 0.5, out=out)
        assert returned is out
        assert np.array_equal(out, accumulated.astype(np.float64) * 0.5)


# ---------------------------------------------------------------------- #
# Bound-and-Protect bounding correction
# ---------------------------------------------------------------------- #
class TestBoundingCorrection:
    def _setup(self, threshold, n_inputs=60, n_neurons=9, seed=8):
        rng = np.random.default_rng(seed)
        weights = rng.random((n_inputs, n_neurons)) * 2.0
        synapses = SynapseMatrix(weights)
        rule = BoundedWeightRule(threshold=threshold, substitute=0.25)
        flat = rng.random((11, n_inputs)) < 0.3
        return synapses, rule, flat

    @pytest.mark.parametrize("threshold", [1.9, 1.0, 0.05])
    def test_decomposition_matches_bounded_operator(self, threshold):
        # threshold 1.9 bounds a few synapses (column-restricted path),
        # 1.0 about half, 0.05 nearly all (dense path).
        synapses, rule, flat = self._setup(threshold)
        quantizer = synapses.quantizer
        dtype = exact_gemm_dtype(synapses.n_inputs, quantizer.max_code)
        codes = synapses.registers.astype(dtype)
        spikes = flat.astype(dtype)

        expected = synapses.current_operator(rule).compute(flat)

        correction = plan_bounding_correction(
            synapses.registers, rule.threshold, quantizer
        )
        assert not correction.is_empty
        base = register_gemm(spikes, codes)
        masked, hits = bounding_correction_terms(spikes, correction)
        out = np.empty_like(expected)
        apply_bounding_correction(
            base, masked, hits, quantizer.scale, rule.substitute, out
        )
        assert np.array_equal(out, expected)

    def test_sparse_threshold_restricts_columns(self):
        synapses, rule, _ = self._setup(1.99)
        correction = plan_bounding_correction(
            synapses.registers, rule.threshold, synapses.quantizer
        )
        if correction.is_empty:
            pytest.skip("no weight reached the threshold for this seed")
        assert correction.columns is not None
        assert correction.masked_codes.shape[0] == correction.columns.size

    def test_unreachable_threshold_is_empty(self):
        synapses, _, _ = self._setup(1.0)
        correction = plan_bounding_correction(
            synapses.registers, 3.0, synapses.quantizer
        )
        assert correction.is_empty
        assert correction.columns is None


# ---------------------------------------------------------------------- #
# LIF timestep advance
# ---------------------------------------------------------------------- #
def _reference_advance(
    currents, v, refractory, counter, disabled, latched, masks, threshold,
    config, triggers=None,
):
    """Straight-line ``np.where`` transcription of the engine timestep.

    This is the pre-kernel formulation the batched engine used, lifted to
    ``(rows, batch, neurons)``; the LIF model's advance must reproduce it
    bit for bit.
    """
    leak_ok = masks.leak_ok[:, np.newaxis, :]
    increase_ok = masks.increase_ok[:, np.newaxis, :]
    reset_ok = masks.reset_ok[:, np.newaxis, :]
    spike_ok = masks.spike_ok[:, np.newaxis, :]
    has_reset_fault = not masks.all_reset
    output = np.zeros(currents.shape, dtype=bool)
    for t in range(currents.shape[0]):
        decayed = config.v_rest + (v - config.v_rest) * config.membrane_decay
        v = np.where(leak_ok, decayed, v)
        active = refractory <= 0
        v = v + np.where(active & increase_ok, currents[t], 0.0)
        v = np.maximum(v, config.v_min)
        comparator = active & (v >= threshold)
        counter = np.where(comparator, counter + 1, 0)
        spikes = comparator & spike_ok & ~disabled
        reset_now = comparator & reset_ok
        v = np.where(reset_now, config.v_reset, v)
        refractory = np.where(
            reset_now, config.refractory_period, np.maximum(refractory - 1, 0)
        )
        latched = latched | (comparator & ~reset_ok)
        if config.inhibition_strength > 0 and spikes.any():
            n_spiking = spikes.sum(axis=-1, keepdims=True)
            inhibition = config.inhibition_strength * (n_spiking - spikes)
            v = np.maximum(v - inhibition, config.v_min)
        if has_reset_fault and latched.any():
            v = np.where(latched, np.maximum(v, threshold), v)
        output[t] = spikes
        if triggers is not None:
            disabled = disabled | (counter >= triggers.reshape(-1, 1, 1))
    return output, v, refractory, counter, disabled, latched


def _fresh_state(shape, config, rng=None, latched_init=None):
    """Allocate one ``(rows, batch, neurons)`` kernel state block."""
    v = np.full(shape, config.v_rest, dtype=np.float64)
    if rng is not None:
        v += rng.random(shape)
    latched = np.zeros(shape, dtype=bool)
    if latched_init is not None:
        latched[...] = latched_init
    return {
        "v": v,
        "refractory": np.zeros(shape, dtype=np.int64),
        "counter": np.zeros(shape, dtype=np.int64),
        "disabled": np.zeros(shape, dtype=bool),
        "latched": latched,
    }


def _run_both(currents, masks, threshold, config,
              advance=get_model("lif").advance,
              triggers=None, state=None, workspace=None):
    """Run kernel and reference on identical state; assert bit-identity."""
    shape = currents.shape[1:]
    rng = np.random.default_rng(17)
    if state is None:
        state = _fresh_state(shape, config, rng=rng)
    kernel_state = {key: value.copy() for key, value in state.items()}
    output = np.zeros(currents.shape, dtype=bool)
    advance(
        currents,
        output,
        kernel_state["v"],
        kernel_state["refractory"],
        kernel_state["counter"],
        kernel_state["disabled"],
        kernel_state["latched"],
        np.empty(shape, dtype=bool),
        np.empty(shape, dtype=bool),
        masks,
        threshold,
        config,
        workspace if workspace is not None else KernelWorkspace(),
        triggers=triggers,
    )
    expected = _reference_advance(
        currents,
        state["v"].copy(),
        state["refractory"].copy(),
        state["counter"].copy(),
        state["disabled"].copy(),
        state["latched"].copy(),
        masks,
        threshold,
        config,
        triggers=triggers,
    )
    names = ("output", "v", "refractory", "counter", "disabled", "latched")
    actual = (output,) + tuple(
        kernel_state[key] for key in ("v", "refractory", "counter", "disabled", "latched")
    )
    for name, got, want in zip(names, actual, expected):
        assert np.array_equal(got, want), f"{name} diverged"
    return output, kernel_state


def _fault_rows(rng, n_neurons):
    """Random fault mask with at least one faulty neuron (index 0)."""
    bad = rng.random(n_neurons) < 0.4
    bad[0] = True
    return bad


def _masks_variant(variant, n_rows, n_neurons, rng):
    """Build an :class:`OperationMasks` for one named fault scenario."""
    statuses = []
    for _ in range(n_rows):
        status = NeuronOperationStatus.healthy(n_neurons)
        if variant in ("leak", "mixed"):
            status.vmem_leak_ok[_fault_rows(rng, n_neurons)] = False
        if variant in ("increase", "mixed"):
            status.vmem_increase_ok[_fault_rows(rng, n_neurons)] = False
        if variant in ("reset", "mixed"):
            status.vmem_reset_ok[_fault_rows(rng, n_neurons)] = False
        if variant in ("spike", "mixed"):
            status.spike_generation_ok[_fault_rows(rng, n_neurons)] = False
        statuses.append(status)
    return OperationMasks.stack(statuses)


VARIANTS = ["healthy", "leak", "increase", "reset", "spike", "mixed"]


class TestLIFAdvance:
    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_reference(self, advance, variant):
        rng = np.random.default_rng(42)
        timesteps, rows, batch, n = 25, 2, 4, 10
        masks = _masks_variant(variant, rows, n, rng)
        # Non-negative, as every register-code current is: the loop is
        # exact only for non-negative drives (``advance_timesteps``).
        currents = rng.random((timesteps, rows, batch, n)) * 1.7
        threshold = 0.8 + rng.random(n)
        _run_both(currents, masks, threshold, CONFIG, advance)

    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    def test_no_inhibition(self, advance):
        rng = np.random.default_rng(43)
        config = LIFStepConfig(
            v_rest=CONFIG.v_rest,
            v_reset=CONFIG.v_reset,
            v_min=CONFIG.v_min,
            membrane_decay=CONFIG.membrane_decay,
            refractory_period=CONFIG.refractory_period,
            inhibition_strength=0.0,
        )
        masks = _masks_variant("mixed", 1, 8, rng)
        currents = rng.random((20, 1, 3, 8)) * 2.0
        _run_both(currents, masks, np.full(8, 1.0), config, advance)

    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    def test_protection_triggers(self, advance):
        # Row 0 trips after 2 consecutive comparator assertions; row 1
        # carries the no-protection sentinel and must stay ungated.
        rng = np.random.default_rng(44)
        rows, n = 2, 6
        masks = _masks_variant("reset", rows, n, rng)
        currents = np.full((30, rows, 3, n), 2.0)
        triggers = np.array([2, NO_PROTECTION_TRIGGER], dtype=np.int64)
        output, state = _run_both(
            currents, masks, np.full(n, 1.0), CONFIG, advance, triggers=triggers
        )
        assert state["disabled"][0].any()
        assert not state["disabled"][1].any()

    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    def test_carried_latch_state(self, advance):
        # A latch carried in from a previous chunk keeps pinning membranes
        # (the faulty-reset burst coupling across samples).
        rng = np.random.default_rng(45)
        n = 7
        masks = _masks_variant("reset", 1, n, rng)
        latched_init = rng.random((1, 5, n)) < 0.5
        state = _fresh_state((1, 5, n), CONFIG, rng=rng, latched_init=latched_init)
        currents = rng.random((15, 1, 5, n))
        _run_both(
            currents, masks, np.full(n, 1.2), CONFIG, advance, state=state
        )

    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    def test_zero_size_batch(self, advance):
        masks = OperationMasks.healthy(5)
        currents = np.zeros((4, 1, 0, 5))
        output, _ = _run_both(currents, masks, np.full(5, 1.0), CONFIG, advance)
        assert output.shape == (4, 1, 0, 5)

    @pytest.mark.parametrize("advance", ADVANCE_KERNELS)
    def test_single_neuron(self, advance):
        rng = np.random.default_rng(46)
        masks = OperationMasks.healthy(1)
        currents = rng.random((12, 1, 3, 1)) * 2.0
        _run_both(currents, masks, np.full(1, 1.0), CONFIG, advance)


class TestAdvanceMatchesSequentialOracle:
    """The loop against the sequential oracle, byte for byte.

    Every ``(row, sample)`` of a block is replayed through
    :meth:`repro.snn.neuron.LIFNeuronGroup.step` with the row's operation
    status (plus the protection monitor's post-step gate when the row has
    a trigger), and every state array the loop leaves behind — ``v`` by
    its bytes, so signed zeros count — must equal the oracle's.  The cases
    aim at the loop's fault gates: rows whose faulty neurons differ for
    every operation, refractory and protection counters (and latches)
    entering a call split over several blocks, protection counters that
    outgrow int16, neurons disabled on entry without triggers, and the
    degenerate ``refractory_period=0`` / ``inhibition_strength=0`` /
    spike-free timesteps.
    """

    N = 12
    BATCH = 3
    TIMESTEPS = 24

    def _masks(self, rng, n_rows):
        statuses = []
        for _ in range(n_rows):
            status = NeuronOperationStatus.healthy(self.N)
            for mask in (
                status.vmem_leak_ok,
                status.vmem_increase_ok,
                status.vmem_reset_ok,
                status.spike_generation_ok,
            ):
                mask[rng.choice(self.N, size=rng.integers(1, 4), replace=False)] = False
            statuses.append(status)
        return statuses

    def _run(self, params, seed, n_rows=3, blocks=(TIMESTEPS,), entering=False,
             disabled_on_entry=False, triggers=None, silent_steps=(),
             counter_start=0):
        rng = np.random.default_rng(seed)
        statuses = self._masks(rng, n_rows)
        shape = (n_rows, self.BATCH, self.N)
        theta = rng.random(self.N) * 0.2
        threshold = params.v_threshold + theta
        currents = rng.random((self.TIMESTEPS,) + shape) * 0.9
        currents[list(silent_steps)] = 0.0
        state = {
            "v": rng.random(shape) * 0.8 - 0.3,
            "refractory": np.zeros(shape, dtype=np.int64),
            "counter": np.full(shape, counter_start, dtype=np.int64),
            "disabled": np.zeros(shape, dtype=bool),
            "latched": np.zeros(shape, dtype=bool),
        }
        if counter_start:
            # Every comparator asserts at the first timestep.
            state["v"] += 2.0
        if entering:
            state["refractory"] = rng.integers(
                0, params.refractory_period + 1, size=shape
            )
            state["counter"] = rng.integers(0, 4, size=shape)
            reset_bad = ~np.stack([status.vmem_reset_ok for status in statuses])
            state["latched"] = reset_bad[:, np.newaxis, :] & (rng.random(shape) < 0.5)
        if disabled_on_entry:
            # Only the first row's gates are shut, so a gate check that
            # misses one row or sample cannot hide behind the others.
            state["disabled"][0, 0] = rng.random(self.N) < 0.5

        config = LIFStepConfig.from_params(params)
        model = get_model("lif")
        kernel = {key: value.copy() for key, value in state.items()}
        output = np.zeros(currents.shape, dtype=bool)
        comparator = np.empty(shape, dtype=bool)
        spikes = np.empty(shape, dtype=bool)
        workspace = KernelWorkspace()
        dynamics = model.dynamics(config, threshold, kernel["v"])
        assert sum(blocks) == self.TIMESTEPS
        stops = np.cumsum(blocks)
        for start, stop in zip(stops - np.asarray(blocks), stops):
            model.advance(
                currents[start:stop],
                output[start:stop],
                kernel["v"],
                kernel["refractory"],
                kernel["counter"],
                kernel["disabled"],
                kernel["latched"],
                comparator,
                spikes,
                OperationMasks.stack(statuses),
                threshold,
                config,
                workspace,
                triggers=triggers,
                dynamics=dynamics,
            )
        dynamics.finish(kernel["v"])

        for r in range(n_rows):
            monitor = None if triggers is None else NeuronProtection(int(triggers[r]))
            for b in range(self.BATCH):
                group = LIFNeuronGroup(self.N, params, statuses[r])
                group.theta = theta.copy()
                group.v = state["v"][r, b].copy()
                group.refractory_remaining = state["refractory"][r, b].copy()
                group.consecutive_above_threshold = state["counter"][r, b].copy()
                group.spike_disabled = state["disabled"][r, b].copy()
                group.reset_fault_latched = state["latched"][r, b].copy()
                for t in range(self.TIMESTEPS):
                    emitted = group.step(currents[t, r, b])
                    if monitor is not None:
                        monitor(group)
                    assert np.array_equal(output[t, r, b], emitted), (t, r, b)
                where = (r, b)
                assert kernel["v"][where].tobytes() == group.v.tobytes(), where
                assert np.array_equal(
                    kernel["refractory"][where], group.refractory_remaining
                ), where
                assert np.array_equal(
                    kernel["counter"][where], group.consecutive_above_threshold
                ), where
                assert np.array_equal(kernel["disabled"][where], group.spike_disabled)
                assert np.array_equal(
                    kernel["latched"][where], group.reset_fault_latched
                ), where
                assert np.array_equal(comparator[where], group.comparator_output)
                assert np.array_equal(spikes[where], group.last_spikes), where
        return output, kernel

    def test_rows_with_different_faulty_neurons(self):
        output, kernel = self._run(LIFParameters(v_reset=-0.2), seed=60)
        assert output.any() and kernel["latched"].any()

    def test_state_entering_blocked_calls(self):
        params = LIFParameters(v_reset=-0.2, refractory_period=4)
        output, kernel = self._run(
            params,
            seed=61,
            blocks=(5, 1, 7, 11),
            entering=True,
            triggers=np.array([2, NO_PROTECTION_TRIGGER, 3], dtype=np.int64),
        )
        assert kernel["disabled"].any() and kernel["refractory"].any()

    def test_disabled_on_entry_without_triggers(self):
        output, kernel = self._run(
            LIFParameters(v_reset=-0.2), seed=62, blocks=(10, 14),
            disabled_on_entry=True,
        )
        assert output.any()
        assert not output[:, 0, 0][:, kernel["disabled"][0, 0]].any()

    def test_counter_beyond_int16(self):
        # Faulty-reset neurons assert their comparator at every timestep,
        # so counters entering near the int16 limit leave the call above it.
        limit = int(np.iinfo(np.int16).max)
        triggers = np.array([limit + 5, NO_PROTECTION_TRIGGER, 2], dtype=np.int64)
        _, kernel = self._run(
            LIFParameters(v_reset=-0.2), seed=64, blocks=(12, 12),
            triggers=triggers, counter_start=limit - 10,
        )
        assert kernel["counter"].max() > limit
        assert kernel["disabled"][0].any() and not kernel["disabled"][1].any()

    @pytest.mark.parametrize(
        "params",
        [
            LIFParameters(v_reset=-0.2, refractory_period=0),
            LIFParameters(v_reset=-0.2, inhibition_strength=0.0),
        ],
        ids=["refractory_period=0", "inhibition_strength=0"],
    )
    def test_degenerate_parameters_and_silent_steps(self, params):
        # Membranes enter below threshold, so the first, input-free
        # timesteps emit no spike (nor does any later one with no input
        # and no latched neuron).
        output, _ = self._run(
            params, seed=63, blocks=(4, 20), entering=True,
            silent_steps=(0, 1, 2, 9, 10, 17),
        )
        assert output.any()
        assert not output[:3].any()


#: Every per-shape buffer a :class:`KernelWorkspace` holds.
WORKSPACE_BUFFERS = (
    "vbuf",
    "fbuf",
    "active",
    "boolbuf",
    "last_reset",
    "pin_floor",
    "counter16",
    "countbuf",
    "diffbuf",
)


def _workspace_buffers(workspace):
    """The workspace's buffers, the leak gate's gather buffer included."""
    return tuple(getattr(workspace, name) for name in WORKSPACE_BUFFERS) + (
        workspace._kept,
    )


class TestKernelWorkspace:
    def test_ensure_reuses_buffers_for_same_shape(self):
        workspace = KernelWorkspace()
        workspace.ensure((2, 8, 16))
        buffers = _workspace_buffers(workspace)
        workspace.ensure((2, 8, 16))
        for name, old, new in zip(WORKSPACE_BUFFERS, buffers, _workspace_buffers(workspace)):
            assert new is old, name

    def test_ensure_reallocates_on_shape_change(self):
        workspace = KernelWorkspace()
        workspace.ensure((1, 8, 16))
        old = workspace.vbuf
        workspace.ensure((1, 5, 16))
        assert workspace.vbuf is not old
        assert workspace.vbuf.shape == (1, 5, 16)
        assert workspace.countbuf.shape == (1, 5, 1)

    def test_leak_gate_rejects_a_strided_membrane(self):
        masks = _masks_variant("leak", 1, 6, np.random.default_rng(46))
        state = _fresh_state((1, 4, 6), CONFIG)
        strided = np.zeros((1, 4, 12))[..., ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            get_model("lif").advance(
                np.zeros((3, 1, 4, 6)),
                np.zeros((3, 1, 4, 6), dtype=bool),
                strided,
                state["refractory"],
                state["counter"],
                state["disabled"],
                state["latched"],
                np.empty((1, 4, 6), dtype=bool),
                np.empty((1, 4, 6), dtype=bool),
                masks,
                np.full(6, 1.0),
                CONFIG,
                KernelWorkspace(),
            )

    def test_leak_fault_indices_are_built_once_per_batch(self):
        masks = _masks_variant("leak", 2, 6, np.random.default_rng(47))
        for batch in (1, 3):
            index = masks.leak_faults(batch)
            assert masks.leak_faults(batch) is index
            expected = np.flatnonzero(
                np.broadcast_to(~masks.leak_ok[:, np.newaxis, :], (2, batch, 6))
            )
            assert np.array_equal(index, expected)

    def test_reuse_across_batch_sizes_is_exact(self):
        # One workspace shared by consecutive runs of different batch
        # sizes (the engine's chunk-tail case) must not perturb results.
        rng = np.random.default_rng(48)
        masks = _masks_variant("mixed", 1, 6, rng)
        threshold = np.full(6, 1.0)
        shared = KernelWorkspace()
        for batch in (8, 3, 8):
            currents = np.random.default_rng(batch).random((10, 1, batch, 6)) * 2
            _run_both(
                currents, masks, threshold, CONFIG, workspace=shared
            )

    def test_no_per_timestep_allocation(self):
        # The hot loop must only touch the caller's state arrays and the
        # workspace buffers: every timestep sees the same buffer objects,
        # whichever shipped model's dynamics drive it (probe models other
        # suites register are skipped).
        n = 6
        shape = (1, 4, n)
        masks = _masks_variant("mixed", 1, n, np.random.default_rng(49))
        currents = np.random.default_rng(51).random((20,) + shape) * 2
        shipped = [
            name
            for name in available_models()
            if type(get_model(name)).__module__ == "repro.snn.models"
        ]
        assert len(shipped) >= 3
        for model in shipped:
            workspace = KernelWorkspace().ensure(shape)
            workspace.kept(masks.leak_faults(shape[1]).size)
            frozen = _workspace_buffers(workspace)
            state = _fresh_state(shape, CONFIG, rng=np.random.default_rng(50))
            threshold = np.full(n, 1.0)
            dynamics = get_model(model).dynamics(CONFIG, threshold, state["v"])
            drive = dynamics.drive
            seen = []

            def observed_drive(current, out, drive=drive):
                # Called once per timestep, inside the loop.
                for old, new in zip(frozen, _workspace_buffers(workspace)):
                    assert new is old, model
                seen.append(True)
                return drive(current, out)

            dynamics.drive = observed_drive
            get_model(model).advance(
                currents,
                np.zeros(currents.shape, dtype=bool),
                state["v"],
                state["refractory"],
                state["counter"],
                state["disabled"],
                state["latched"],
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=bool),
                masks,
                threshold,
                CONFIG,
                workspace,
                triggers=np.array([4], dtype=np.int64),
                dynamics=dynamics,
            )
            dynamics.finish(state["v"])
            assert len(seen) == 20, model


class TestLIFLearningStep:
    def test_matches_inline_reference(self):
        params = LIFParameters()
        config = LIFStepConfig.from_params(params)
        rng = np.random.default_rng(52)
        n = 12
        v = rng.random(n)
        refractory = rng.integers(0, 3, size=n)
        theta = rng.random(n) * 0.1
        current = rng.random(n) * 2.0

        # The original trainer's inline step, verbatim.
        ref_v = params.v_rest + (v - params.v_rest) * params.membrane_decay
        active = refractory <= 0
        ref_v = ref_v + np.where(active, current, 0.0)
        ref_v = np.maximum(ref_v, params.v_min)
        ref_theta = theta.copy()
        ref_spikes = active & (ref_v >= params.v_threshold + ref_theta)
        ref_v = np.where(ref_spikes, params.v_reset, ref_v)
        ref_refractory = np.where(
            ref_spikes, params.refractory_period, np.maximum(refractory - 1, 0)
        )
        theta_decay = 0.95
        theta_plus = params.theta_plus
        ref_theta *= theta_decay
        ref_theta += theta_plus * ref_spikes.astype(np.float64)
        if params.inhibition_strength > 0 and ref_spikes.any():
            inhibition = params.inhibition_strength * (
                int(ref_spikes.sum()) - ref_spikes.astype(np.float64)
            )
            ref_v = np.maximum(ref_v - inhibition, params.v_min)

        got_theta = theta.copy()
        got_v, got_refractory, got_spikes = lif_learning_step(
            v.copy(),
            refractory.copy(),
            got_theta,
            current,
            config,
            params.v_threshold,
            theta_plus,
            theta_decay,
        )
        assert np.array_equal(got_v, ref_v)
        assert np.array_equal(got_refractory, ref_refractory)
        assert np.array_equal(got_spikes, ref_spikes)
        assert np.array_equal(got_theta, ref_theta)


# ---------------------------------------------------------------------- #
# batch-size knobs: explicit values win, None means the default
# ---------------------------------------------------------------------- #
class TestExplicitKnobWins:
    """``None`` batch sizes mean :data:`DEFAULT_BATCH_SIZE`; explicit wins."""

    def _engine(self):
        from repro.snn.inference import InferenceEngine
        from repro.snn.network import DiehlCookNetwork, NetworkConfig

        network = DiehlCookNetwork(
            NetworkConfig(n_inputs=784, n_neurons=8, timesteps=15), rng=0
        )
        labels = np.arange(8, dtype=np.int64) % 2
        return InferenceEngine(network, labels)

    def _dataset(self):
        from repro.data.synthetic_mnist import SyntheticMNIST

        return SyntheticMNIST().generate(n_samples=3, rng=13)

    def test_evaluate_default_chunking_is_bit_identical(self):
        engine = self._engine()
        dataset = self._dataset()
        default = engine.evaluate(dataset, rng=np.random.default_rng(2))
        explicit = self._engine().evaluate(
            dataset, rng=np.random.default_rng(2), batch_size=1
        )
        assert np.array_equal(default.predictions, explicit.predictions)
        assert np.array_equal(default.spike_counts, explicit.spike_counts)

    def test_scheduler_none_falls_back_to_default(self):
        from repro.serve.scheduler import MicroBatchScheduler

        scheduler = MicroBatchScheduler(lambda payloads: payloads)
        try:
            assert scheduler.max_batch_size == DEFAULT_BATCH_SIZE
        finally:
            scheduler.close()

    def test_scheduler_explicit_wins(self):
        from repro.serve.scheduler import MicroBatchScheduler

        scheduler = MicroBatchScheduler(
            lambda payloads: payloads, max_batch_size=5
        )
        try:
            assert scheduler.max_batch_size == 5
        finally:
            scheduler.close()

    def test_service_explicit_max_batch_size_wins(self, tmp_path):
        from repro.serve.service import ServiceConfig, SoftSNNService
        from repro.snn.network import NetworkConfig
        from repro.snn.training import TrainedModel

        rng = np.random.default_rng(3)
        trained = TrainedModel(
            network_config=NetworkConfig(n_inputs=784, n_neurons=8, timesteps=15),
            weights=rng.random((784, 8)),
            theta=np.zeros(8),
            neuron_labels=np.arange(8, dtype=np.int64) % 2,
            clean_max_weight=1.0,
            clean_most_probable_weight=0.5,
        )
        for knob, expected in ((7, 7), (None, DEFAULT_BATCH_SIZE)):
            service = SoftSNNService(
                ServiceConfig(models_dir=tmp_path / "models", max_batch_size=knob)
            )
            try:
                service.register_model(trained, "knob")
                pipeline = service._pipeline(
                    service.registry.entry("knob"), service.resolve_mode(None)
                )
                assert pipeline.scheduler.max_batch_size == expected
            finally:
                service.close()
