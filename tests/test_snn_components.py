"""Tests for the SNN building blocks: encoding, quantisation, synapses, STDP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.encoding import PoissonEncoder
from repro.snn.quantization import WeightQuantizer
from repro.snn.stdp import STDPConfig, STDPRule
from repro.snn.synapse import SynapseMatrix


class TestPoissonEncoder:
    def test_raster_shape_and_dtype(self):
        encoder = PoissonEncoder(timesteps=50, max_rate=0.2)
        raster = encoder.encode(np.full((4, 4), 0.5), rng=0)
        assert raster.shape == (50, 16)
        assert raster.dtype == bool

    def test_zero_image_produces_no_spikes(self):
        encoder = PoissonEncoder(timesteps=30)
        assert encoder.encode(np.zeros((3, 3)), rng=0).sum() == 0

    def test_rate_scales_with_intensity(self):
        encoder = PoissonEncoder(timesteps=400, max_rate=0.5)
        bright = encoder.encode(np.ones((2, 2)), rng=1).mean()
        dim = encoder.encode(np.full((2, 2), 0.2), rng=1).mean()
        assert bright > dim

    def test_expected_counts(self):
        encoder = PoissonEncoder(timesteps=100, max_rate=0.3)
        expected = encoder.expected_spike_counts(np.array([[1.0]]))
        assert expected[0] == pytest.approx(30.0)

    def test_target_total_intensity_normalises_ink(self):
        encoder = PoissonEncoder(timesteps=10, max_rate=0.2, target_total_intensity=2.0)
        sparse = np.zeros((4, 4))
        sparse[:2, 0] = 1.0          # total ink 2 -> no rescaling needed
        dense = np.full((4, 4), 0.5)  # total ink 8 -> scaled down by 4
        assert encoder.spike_probabilities(sparse).sum() == pytest.approx(
            encoder.spike_probabilities(dense).sum(), rel=1e-6
        )

    def test_invalid_image_values_raise(self):
        encoder = PoissonEncoder(timesteps=10)
        with pytest.raises(ValueError):
            encoder.encode(np.full((2, 2), 1.5))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            PoissonEncoder(timesteps=0)
        with pytest.raises(ValueError):
            PoissonEncoder(max_rate=0.0)
        with pytest.raises(ValueError):
            PoissonEncoder(target_total_intensity=-1.0)

    def test_encode_batch_returns_batch_array(self):
        encoder = PoissonEncoder(timesteps=5)
        images = np.random.default_rng(0).random((3, 2, 2))
        rasters = encoder.encode_batch(images, rng=1)
        assert rasters.shape == (3, 5, 4)
        assert rasters.dtype == bool

    def test_encode_batch_matches_sequential_stream(self):
        encoder = PoissonEncoder(timesteps=6)
        images = np.random.default_rng(0).random((4, 3, 3))
        sequential_rng = np.random.default_rng(5)
        reference = np.stack(
            [encoder.encode(image, rng=sequential_rng) for image in images]
        )
        assert np.array_equal(reference, encoder.encode_batch(images, rng=5))

    def test_chunked_draws_cross_chunk_boundaries_exactly(self):
        # 37 samples drawn through one reused buffer.  The batch must
        # consume exactly the stream the per-sample calls consume.
        encoder = PoissonEncoder(timesteps=6)
        images = np.random.default_rng(0).random((37, 3, 3))
        sequential_rng = np.random.default_rng(5)
        reference = np.stack(
            [encoder.encode(image, rng=sequential_rng) for image in images]
        )
        batch_rng = np.random.default_rng(5)
        assert np.array_equal(reference, encoder.encode_batch(images, rng=batch_rng))
        assert batch_rng.random() == sequential_rng.random()

    def test_deterministic_with_seed(self):
        encoder = PoissonEncoder(timesteps=20)
        image = np.random.default_rng(2).random((3, 3))
        assert np.array_equal(encoder.encode(image, rng=7), encoder.encode(image, rng=7))


class TestWeightQuantizer:
    def test_scale_and_max_code(self):
        quantizer = WeightQuantizer(bits=8, full_scale=2.0)
        assert quantizer.max_code == 255
        assert quantizer.scale == pytest.approx(2.0 / 255)

    def test_roundtrip_error_bounded_by_half_lsb(self):
        quantizer = WeightQuantizer(bits=8, full_scale=1.0)
        weights = np.linspace(0, 1.0, 101)
        assert quantizer.quantization_error(weights).max() <= quantizer.scale / 2 + 1e-12

    def test_saturation(self):
        quantizer = WeightQuantizer(bits=8, full_scale=1.0)
        assert quantizer.quantize(np.array([5.0]))[0] == 255
        assert quantizer.quantize(np.array([-1.0]))[0] == 0

    def test_dequantize_rejects_out_of_range_codes(self):
        quantizer = WeightQuantizer(bits=8)
        with pytest.raises(ValueError):
            quantizer.dequantize(np.array([300]))

    def test_dequantize_rejects_floats(self):
        with pytest.raises(TypeError):
            WeightQuantizer().dequantize(np.array([0.5]))

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            WeightQuantizer(bits=0)
        with pytest.raises(ValueError):
            WeightQuantizer(bits=17)

    def test_equality_and_hash(self):
        assert WeightQuantizer(8, 2.0) == WeightQuantizer(8, 2.0)
        assert WeightQuantizer(8, 2.0) != WeightQuantizer(8, 1.0)
        assert hash(WeightQuantizer(8, 2.0)) == hash(WeightQuantizer(8, 2.0))

    @given(
        value=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_monotonicity_property(self, value):
        quantizer = WeightQuantizer(bits=8, full_scale=2.0)
        assert abs(quantizer.roundtrip(np.array([value]))[0] - value) <= quantizer.scale


class TestSynapseMatrix:
    def _matrix(self, quantizer=None):
        rng = np.random.default_rng(0)
        return SynapseMatrix.random(8, 4, rng, high=0.5, quantizer=quantizer)

    def test_shapes_and_counts(self):
        matrix = self._matrix()
        assert matrix.shape == (8, 4)
        assert matrix.n_synapses == 32
        assert matrix.registers.shape == (8, 4)

    def test_weights_match_registers(self):
        matrix = self._matrix()
        assert np.allclose(
            matrix.weights, matrix.quantizer.dequantize(matrix.registers)
        )

    def test_set_weights_roundtrips_through_registers(self):
        matrix = self._matrix()
        new = np.full((8, 4), 0.25)
        matrix.set_weights(new)
        assert np.allclose(matrix.weights, 0.25, atol=matrix.quantizer.scale)

    def test_set_weights_rejects_negative(self):
        matrix = self._matrix()
        with pytest.raises(ValueError):
            matrix.set_weights(np.full((8, 4), -0.1))

    def test_set_weights_rejects_out_of_scale(self):
        matrix = self._matrix()
        with pytest.raises(ValueError):
            matrix.set_weights(np.full((8, 4), 100.0))

    def test_apply_bit_flips_changes_only_targets(self):
        matrix = self._matrix()
        before = matrix.registers
        matrix.apply_bit_flips(np.array([0]), np.array([7]))
        after = matrix.registers
        assert after.ravel()[0] == before.ravel()[0] ^ 128
        assert np.array_equal(after.ravel()[1:], before.ravel()[1:])

    def test_input_current_accumulates_active_rows(self):
        matrix = SynapseMatrix(np.ones((3, 2)) * 0.5)
        spikes = np.array([True, False, True])
        current = matrix.input_current(spikes)
        assert current.shape == (2,)
        assert np.allclose(current, 1.0, atol=2 * matrix.quantizer.scale)

    def test_input_current_with_effective_weights(self):
        matrix = SynapseMatrix(np.ones((3, 2)) * 0.5)
        zeros = np.zeros((3, 2))
        assert matrix.input_current(np.array([1, 1, 1]), effective_weights=zeros).sum() == 0

    def test_copy_is_independent(self):
        matrix = self._matrix()
        clone = matrix.copy()
        clone.apply_bit_flips(np.array([0]), np.array([0]))
        assert not np.array_equal(clone.registers, matrix.registers)

    def test_max_weight(self):
        matrix = self._matrix()
        assert matrix.max_weight() == matrix.weights.max()
        assert matrix.max_weight() <= matrix.quantizer.full_scale

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SynapseMatrix(np.zeros(5))
        with pytest.raises(ValueError):
            SynapseMatrix(np.full((2, 2), -1.0))


class TestSTDPRule:
    def test_potentiation_on_post_spike(self):
        rule = STDPRule(3, 2, STDPConfig(learning_rate_post=0.1, learning_rate_pre=0.0))
        weights = np.zeros((3, 2))
        # Pre spike first builds the pre trace, post spike then potentiates.
        weights = rule.step(weights, np.array([1, 0, 0], bool), np.array([0, 0], bool))
        weights = rule.step(weights, np.array([0, 0, 0], bool), np.array([1, 0], bool))
        assert weights[0, 0] > 0
        assert weights[1, 0] == 0
        assert weights[0, 1] == 0

    def test_depression_on_pre_spike(self):
        rule = STDPRule(2, 2, STDPConfig(learning_rate_post=0.0, learning_rate_pre=0.1))
        weights = np.full((2, 2), 0.5)
        weights = rule.step(weights, np.array([0, 0], bool), np.array([1, 1], bool))
        weights = rule.step(weights, np.array([1, 0], bool), np.array([0, 0], bool))
        assert weights[0, 0] < 0.5
        assert weights[1, 0] == 0.5

    def test_weights_stay_clipped(self):
        config = STDPConfig(learning_rate_post=10.0, learning_rate_pre=10.0, w_max=1.0)
        rule = STDPRule(2, 2, config)
        weights = np.full((2, 2), 0.5)
        for _ in range(5):
            weights = rule.step(
                weights, np.array([1, 1], bool), np.array([1, 1], bool)
            )
        assert weights.min() >= 0.0
        assert weights.max() <= 1.0

    def test_traces_decay(self):
        rule = STDPRule(1, 1, STDPConfig(tau_pre=5.0, tau_post=5.0))
        rule.step(np.zeros((1, 1)), np.array([1], bool), np.array([1], bool))
        trace_after_spike = rule.pre_trace[0]
        rule.step(np.zeros((1, 1)), np.array([0], bool), np.array([0], bool))
        assert rule.pre_trace[0] < trace_after_spike

    def test_reset_traces(self):
        rule = STDPRule(1, 1)
        rule.step(np.zeros((1, 1)), np.array([1], bool), np.array([1], bool))
        rule.reset_traces()
        assert rule.pre_trace[0] == 0.0 and rule.post_trace[0] == 0.0

    def test_shape_validation(self):
        rule = STDPRule(2, 3)
        with pytest.raises(ValueError):
            rule.step(np.zeros((3, 2)), np.zeros(2, bool), np.zeros(3, bool))
        with pytest.raises(ValueError):
            rule.step(np.zeros((2, 3)), np.zeros(3, bool), np.zeros(3, bool))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            STDPConfig(w_max=0.0)
        with pytest.raises(ValueError):
            STDPConfig(tau_pre=0.0)
        with pytest.raises(ValueError):
            STDPConfig(learning_rate_post=-1.0)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_weights_always_within_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        config = STDPConfig()
        rule = STDPRule(4, 3, config)
        weights = rng.random((4, 3)) * config.w_max
        for _ in range(10):
            weights = rule.step(weights, rng.random(4) < 0.3, rng.random(3) < 0.3)
        assert weights.min() >= config.w_min - 1e-12
        assert weights.max() <= config.w_max + 1e-12
