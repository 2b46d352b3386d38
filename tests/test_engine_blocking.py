"""Timestep blocking of the engine pass, inline protection and memory bounds.

:class:`~repro.snn.engine.MapParallelEngine` computes each chunk's exact
register-code accumulators and then advances the neuron state one block of
timesteps at a time, scaling only that block's currents to float64.  The
block length is a pure performance choice, so this suite pins that any
block length — one timestep, an odd seven, the whole presentation — yields
byte-identical spikes, final state and latches, for every shipped neuron
model (whose dynamics are built once per pass and carried across blocks),
with latch fix-up suffixes crossing block boundaries, and at batch 1.
Rows whose latch fix-ups re-simulate together in one pass equal each row
run alone.

It also pins the inline neuron protection of ``BnPTechnique.evaluate`` and
protected serving sessions to the sequential oracle run with a
:class:`~repro.core.bound_and_protect.NeuronProtection` monitor, and bounds
the traced memory of one N400 chunk, of encoding 64 images and of one
4-cell campaign unit (deterministic allocation sizes, not timings).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import repro.snn.engine as engine_module
from repro.core.bound_and_protect import BnPVariant, NeuronProtection, WeightBounding
from repro.core.mitigation import BnPTechnique
from repro.data.datasets import Dataset
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.eval.campaign import (
    TechniqueSpec,
    build_experiment_cells,
    execute_cell_group,
)
from repro.faults.fault_map import FaultMap
from repro.faults.injector import FaultInjector
from repro.faults.models import NeuronFaultType
from repro.hardware.enhancements import MitigationKind
from repro.serve.modes import ServingMode, build_session
from repro.snn.encoding import PoissonEncoder
from repro.snn.engine import (
    MapParallelEngine,
    MapRow,
    block_timesteps,
    protection_counts,
)
from repro.snn.inference import InferenceEngine
from repro.snn.network import NetworkConfig
from repro.snn.oracle import build_network, evaluate_sequential, present_sequential
from repro.snn.neuron import NeuronOperationStatus
from repro.snn.synapse import BoundedWeightRule
from repro.snn.training import TrainedModel
from repro.utils.rng import resolve_rng

MODELS = ("lif", "cuba_lif", "fixed_point_lif")
N_NEURONS = 16
TIMESTEPS = 30
#: ``BLOCK_GEMM_ROWS`` settings giving blocks of 1 and 7 timesteps and one
#: block spanning the presentation (the block is ceil(rows / batch)).
BLOCKINGS = {"block1": lambda batch: 1, "block7": lambda batch: 7 * batch,
             "whole": lambda batch: 10**9}


def _trained(model_name: str, n_neurons: int = N_NEURONS,
             timesteps: int = TIMESTEPS) -> TrainedModel:
    """A deterministic trained model without paying for actual training."""
    rng = np.random.default_rng(3)
    return TrainedModel(
        network_config=NetworkConfig(
            n_inputs=784,
            n_neurons=n_neurons,
            timesteps=timesteps,
            neuron_model=model_name,
        ),
        weights=rng.random((784, n_neurons)),
        theta=rng.random(n_neurons) * 0.05,
        neuron_labels=np.arange(n_neurons, dtype=np.int64) % 4,
        clean_max_weight=1.0,
        clean_most_probable_weight=0.6,
    )


def _faulty_status(n_neurons: int) -> NeuronOperationStatus:
    """One fault of every operation kind, including two faulty resets."""
    status = NeuronOperationStatus.healthy(n_neurons)
    status.vmem_leak_ok[3] = False
    status.vmem_increase_ok[6] = False
    status.spike_generation_ok[9] = False
    status.vmem_reset_ok[[1, 12]] = False
    return status


def _engine(trained: TrainedModel) -> MapParallelEngine:
    """Rows covering every current path the block loop scales.

    Clean, faulty (faulty resets: the latch fix-up), bounded + protected
    on a base that also serves an unbounded row (so the masked correction
    term is kept), and an unreachable bounding threshold (the empty
    correction) on a second raster group.
    """
    config = trained.network_config
    quantizer = config.make_quantizer(trained.clean_max_weight)
    clean = np.asarray(build_network(trained, rng=0).synapses.registers).copy()
    faulty = clean.copy()
    faulty.flat[[3, 500, 1207, 2000]] = quantizer.max_code
    status = _faulty_status(config.n_neurons)
    bnp3 = WeightBounding.for_variant(
        BnPVariant.BNP3,
        clean_max_weight=trained.clean_max_weight,
        most_probable_weight=trained.clean_most_probable_weight,
    ).as_weight_rule()
    rows = [
        MapRow(0, clean, NeuronOperationStatus.healthy(config.n_neurons)),
        MapRow(0, faulty, status),
        MapRow(0, faulty, status, weight_rule=bnp3, protection_trigger_cycles=2),
        MapRow(
            1, faulty, status,
            weight_rule=BoundedWeightRule(threshold=1e9, substitute=0.0),
        ),
    ]
    return MapParallelEngine(
        rows,
        quantizer=quantizer,
        params=config.neuron_params,
        theta=trained.theta,
        model=config.neuron_model,
    )


def _rasters(batch: int, timesteps: int = TIMESTEPS):
    images = np.stack(
        [SyntheticMNIST().render(digit % 10, rng=digit) for digit in range(batch)]
    ).reshape(batch, -1)
    encoder = PoissonEncoder(timesteps=timesteps, max_rate=0.4)
    return [
        encoder.encode_batch(images[:, np.newaxis, :], rng=seed) for seed in (5, 6)
    ]


def _run(monkeypatch, engine, rasters, rows_per_block, **kwargs):
    monkeypatch.setattr(engine_module, "BLOCK_GEMM_ROWS", rows_per_block)
    return engine.run_encoded(rasters, collect_output_spikes=True, **kwargs)


def _assert_byte_identical(result, reference):
    assert result.output_spikes.tobytes() == reference.output_spikes.tobytes()
    assert np.array_equal(result.spike_counts, reference.spike_counts)
    assert np.array_equal(result.final_reset_latch, reference.final_reset_latch)
    assert np.array_equal(result.input_spike_counts, reference.input_spike_counts)
    assert result.simulation_passes == reference.simulation_passes
    for field in fields(reference.final_state):
        got = getattr(result.final_state, field.name)
        want = getattr(reference.final_state, field.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name


class TestBlockBoundaryParity:
    @pytest.mark.parametrize("model", MODELS)
    def test_any_block_length_is_byte_identical(self, monkeypatch, model):
        batch = 6
        engine = _engine(_trained(model))
        rasters = _rasters(batch)
        latch = np.zeros((engine.n_rows, N_NEURONS), dtype=bool)
        latch[[1, 2, 3], 12] = True  # a latch carried in from a previous chunk
        runs = {
            name: _run(
                monkeypatch, engine, rasters, rows(batch), initial_reset_latch=latch
            )
            for name, rows in BLOCKINGS.items()
        }
        reference = runs.pop("whole")
        # The fix-up re-simulated suffixes (crossing every block boundary
        # of the shorter blockings), the model actually spiked and the
        # protected row gated inline.
        assert reference.simulation_passes > 1
        assert reference.spike_counts.sum() > 0
        assert reference.final_state.spike_disabled.any()
        for result in runs.values():
            _assert_byte_identical(result, reference)

    @pytest.mark.parametrize("model", MODELS)
    def test_batch_of_one(self, monkeypatch, model):
        engine = _engine(_trained(model))
        rasters = [raster[:1] for raster in _rasters(2)]
        runs = {
            name: _run(monkeypatch, engine, rasters, rows(1))
            for name, rows in BLOCKINGS.items()
        }
        reference = runs.pop("whole")
        assert reference.spike_counts.sum() > 0
        for result in runs.values():
            _assert_byte_identical(result, reference)

    def test_serving_micro_batches_run_as_one_block(self):
        assert block_timesteps(1, 100) == 100
        assert block_timesteps(2, 100) == 100
        assert block_timesteps(16, 100) == 64
        assert block_timesteps(64, 100) == 16
        assert block_timesteps(4096, 100) == 1

    def test_input_spike_counts_are_per_sample_totals(self):
        engine = _engine(_trained("lif"))
        rasters = _rasters(3)
        result = engine.run_encoded(rasters)
        expected = np.stack([r.sum(axis=(1, 2), dtype=np.int64) for r in rasters])
        assert result.input_spike_counts.dtype == np.int64
        assert np.array_equal(result.input_spike_counts, expected)


class TestJointLatchFixup:
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_fixed_up_together_equal_each_row_alone(self, model):
        """Rows with faulty resets re-simulate in shared passes, bit-exactly.

        Each pending row keeps only the samples from its own restart on, so
        the fused chunk equals every row run through a one-row engine —
        spikes, latches and final state — while needing fewer extra passes
        than the rows need one at a time.
        """
        # Weak weights keep the outputs below saturation, so a sample run
        # under the wrong latch shows in its spikes.  Silent first
        # presentations on the second raster group make its row latch
        # later, so the rows restart at different samples.
        trained = _trained(model)
        engine = _engine(replace(trained, weights=trained.weights * 0.05))
        rasters = _rasters(12)
        rasters[1][:5] = False
        result = engine.run_encoded(rasters, collect_output_spikes=True)
        alone_extra_passes = 0
        for m, row in enumerate(engine.rows):
            alone = MapParallelEngine(
                [replace(row, raster_index=0)],
                quantizer=engine.quantizer,
                params=engine.params,
                theta=engine.theta,
                model=model,
            ).run_encoded([rasters[row.raster_index]], collect_output_spikes=True)
            alone_extra_passes += alone.simulation_passes - 1
            assert np.array_equal(result.output_spikes[m], alone.output_spikes[0])
            assert np.array_equal(
                result.final_reset_latch[m], alone.final_reset_latch[0]
            )
            unique = engine.row_to_unique[m]
            for field in fields(alone.final_state):
                got = getattr(result.final_state, field.name)[unique]
                want = getattr(alone.final_state, field.name)[0]
                assert got.tobytes() == want.tobytes(), field.name
        assert 1 < result.simulation_passes < 1 + alone_extra_passes

    def test_duplicate_rows_must_carry_one_latch(self):
        engine = _engine(_trained("lif"))
        row = engine.rows[1]
        twins = MapParallelEngine(
            [row, row],
            quantizer=engine.quantizer,
            params=engine.params,
            theta=engine.theta,
        )
        assert twins.n_unique_rows == 1
        rasters = _rasters(2)[:1]
        latch = np.zeros((2, N_NEURONS), dtype=bool)
        latch[:, 12] = True
        result = twins.run_encoded(rasters, initial_reset_latch=latch)
        assert result.final_reset_latch[:, 12].all()
        latch[1, 1] = True
        with pytest.raises(ValueError, match="diverging reset latches"):
            twins.run_encoded(rasters, initial_reset_latch=latch)


# ---------------------------------------------------------------------- #
# inline protection on the evaluate and serving paths
# ---------------------------------------------------------------------- #
def _fault_map(trained: TrainedModel) -> FaultMap:
    bits = trained.network_config.weight_bits
    return FaultMap(
        crossbar_shape=(784, trained.n_neurons),
        synapse_flat_indices=np.array([3, 40, 500, 1207]),
        synapse_bit_positions=np.array([bits - 1] * 4),
        neuron_faults=[
            (1, NeuronFaultType.VMEM_RESET),
            (12, NeuronFaultType.VMEM_RESET),
            (4, NeuronFaultType.SPIKE_GENERATION),
        ],
        fault_rate=1e-2,
        bit_width=bits,
    )


class TestInlineProtection:
    def test_bnp_evaluate_matches_step_monitor_hook(self):
        trained = _trained("lif")
        dataset = SyntheticMNIST().generate(n_samples=12, rng=21)
        fault_map = _fault_map(trained)
        technique = BnPTechnique(BnPVariant.BNP3)
        inline = technique.evaluate(
            trained, dataset, rng=17, fault_map=fault_map, batch_size=5
        )

        # The sequential oracle on the identically built faulty network.
        generator = resolve_rng(17)
        network = build_network(trained, rng=generator)
        FaultInjector(network).apply_fault_map(fault_map)
        monitor = NeuronProtection(trigger_cycles=technique.protection_trigger_cycles)
        hooked = evaluate_sequential(
            InferenceEngine(network, trained.neuron_labels),
            dataset,
            rng=generator,
            effective_weights=technique.bounding_for(trained).as_weight_rule(),
            step_monitor=monitor,
        )
        assert np.array_equal(inline.predictions, hooked.predictions)
        assert np.array_equal(inline.spike_counts, hooked.spike_counts)
        assert inline.protection_activations > 0
        assert inline.protected_neurons == monitor.protected_neurons
        assert inline.protection_activations == monitor.activation_count

    def test_protected_session_matches_step_monitor_hook(self):
        trained = _trained("lif")
        mode = ServingMode(kind="protected", fault_rate=0.3, fault_seed=1)
        session = build_session(trained, mode)
        assert session.engine.rows[0].protection_trigger_cycles == (
            mode.protection_trigger_cycles
        )
        images = [
            SyntheticMNIST().render(digit, rng=digit).reshape(-1)
            for digit in (1, 4, 7)
        ]
        seeds = [11, 12, 13]
        _, result = session.classify_batch(images, seeds)

        # Stateless serving: each request is the oracle's presentation on
        # a freshly built, fault-injected network, all observed by one
        # monitor.
        monitor = NeuronProtection(trigger_cycles=mode.protection_trigger_cycles)
        rule = BnPTechnique(mode.variant).bounding_for(trained).as_weight_rule()
        hooked = []
        for image, seed in zip(images, seeds):
            network = build_network(trained)
            FaultInjector(network).inject(mode.fault_config(), rng=mode.fault_seed)
            hooked.append(
                present_sequential(
                    network,
                    image,
                    rng=seed,
                    effective_weights=rule,
                    step_monitor=monitor,
                ).spike_counts
            )
        assert np.array_equal(result.spike_counts[0], np.stack(hooked))
        activations, gated = protection_counts(result.final_state.spike_disabled[0])
        assert activations > 0
        assert set(np.flatnonzero(gated).tolist()) == monitor.protected_neurons
        assert activations == monitor.activation_count


# ---------------------------------------------------------------------- #
# memory bounds (traced allocation peaks, not timings)
# ---------------------------------------------------------------------- #
def _traced_peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    def test_n400_bnp3_chunk_stays_under_50_mb(self):
        trained = _trained("lif", n_neurons=400, timesteps=100)
        engine = _engine(trained)
        bnp3_row = engine.rows[2]
        engine = MapParallelEngine(
            [bnp3_row],
            quantizer=engine.quantizer,
            params=engine.params,
            theta=engine.theta,
        )
        raster = np.random.default_rng(0).random((64, 100, 784)) < 0.02
        peak = _traced_peak_mb(lambda: engine.run_encoded([raster]))
        # With the whole-chunk float raster copy and the float64
        # (T, U, B, n) current tensor (20 MB alone) this chunk traced 82 MB.
        assert peak <= 50.0, f"one N400 x B64 x T100 BnP3 chunk traced {peak:.1f} MB"

    def test_encoding_64_images_stays_under_16_mb(self):
        encoder = PoissonEncoder(timesteps=100, max_rate=0.25)
        images = np.random.default_rng(1).random((64, 28, 28))
        peak = _traced_peak_mb(lambda: encoder.encode_batch(images, rng=2))
        # The raster itself is 5 MB; one whole-batch float64 draw (40 MB)
        # made this trace 46 MB.
        assert peak <= 16.0, f"encoding 64 images traced {peak:.1f} MB"

    def test_4_cell_n48_campaign_unit_stays_under_45_mb(self):
        # The Fig. 13 unit shape: four trials of one fault rate, N48, T100,
        # 200 test images, all five techniques.
        trained = _trained("lif", n_neurons=48, timesteps=100)
        images = np.stack(
            [SyntheticMNIST().render(i % 10, rng=i) for i in range(200)]
        )
        dataset = Dataset(images=images, labels=np.arange(200) % 10)
        cells = build_experiment_cells("mem", [0.1], 4, root_seed=11,
                                       include_clean=False)
        techniques = [TechniqueSpec(kind).build()
                      for kind in MitigationKind.all_kinds()]
        peak = _traced_peak_mb(
            lambda: execute_cell_group(cells, trained, dataset, techniques)
        )
        # Streamed one engine chunk at a time this unit traces 32 MB; the
        # bound leaves 40% over it.  Encoding each cell's whole test set up
        # front (4 x 200 x 100 x 784 booleans, 63 MB) made it trace 90 MB.
        assert peak <= 45.0, f"one 4-cell N48 x T100 unit traced {peak:.1f} MB"
