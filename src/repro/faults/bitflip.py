"""Bit-flip fault model for the weight registers of the synapse crossbar.

Section 2.2 (synapse part): "A fault in a synapse hardware only affects a
single weight bit in form of a bit flip.  This faulty bit persists until it
is overwritten with a new bit value."

The model treats every *bit* of every weight register as a potential fault
location.  Given a fault rate it draws the set of struck bits; it can also
report summary statistics (how many weights increased / decreased, by how
much) which the fault tolerance analysis of Section 3.1 uses.  The flips
themselves are applied to the registers by
:func:`repro.core.mitigation.prepare_map_assets` (and, in the sequential
oracle, by :meth:`~repro.snn.synapse.SynapseMatrix.apply_bit_flips`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.snn.quantization import WeightQuantizer
from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.validation import check_probability

__all__ = ["WeightBitFlipModel"]


class WeightBitFlipModel:
    """Random single-bit-flip fault locations for weight registers.

    The fault rate is interpreted per *bit*: every bit of every register
    is an independent potential fault location, matching "each weight
    memory cell" in Fig. 7 (a memory cell stores one bit).

    Parameters
    ----------
    quantizer:
        Register format of the target crossbar (defines the bit width and
        the weight value of every bit position).
    """

    def __init__(self, quantizer: WeightQuantizer) -> None:
        if not isinstance(quantizer, WeightQuantizer):
            raise TypeError(
                f"quantizer must be a WeightQuantizer, got {type(quantizer).__name__}"
            )
        self.quantizer = quantizer

    # ------------------------------------------------------------------ #
    def draw_fault_locations(
        self,
        n_registers: int,
        fault_rate: float,
        rng: RNGLike = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw struck (register, bit) pairs for the given fault rate.

        Returns
        -------
        tuple
            ``(flat_indices, bit_positions)`` arrays of equal length.
        """
        check_probability(fault_rate, "fault_rate")
        if n_registers <= 0:
            raise ValueError(f"n_registers must be positive, got {n_registers}")
        generator = resolve_rng(rng)
        bits = self.quantizer.bits

        if fault_rate == 0.0:
            empty = np.array([], dtype=np.int64)
            return empty, empty.copy()

        struck = np.flatnonzero(generator.random(n_registers * bits) < fault_rate)
        return (struck // bits).astype(np.int64), (struck % bits).astype(np.int64)

    # ------------------------------------------------------------------ #
    # analysis helpers (Section 3.1, Fig. 9)
    # ------------------------------------------------------------------ #
    def weight_change_summary(
        self, clean_registers: np.ndarray, faulty_registers: np.ndarray
    ) -> dict:
        """Summarise how the bit flips changed the weight values.

        Returns a dictionary with the number of increased / decreased /
        unchanged weights, the number of faulty weights exceeding the clean
        maximum, and the new maximum weight — the quantities behind the
        observations of Fig. 9.
        """
        clean_registers = np.asarray(clean_registers)
        faulty_registers = np.asarray(faulty_registers)
        if clean_registers.shape != faulty_registers.shape:
            raise ValueError("register arrays must have the same shape")
        clean = self.quantizer.dequantize(clean_registers)
        faulty = self.quantizer.dequantize(faulty_registers)
        clean_max = float(clean.max()) if clean.size else 0.0
        return {
            "n_increased": int((faulty > clean).sum()),
            "n_decreased": int((faulty < clean).sum()),
            "n_unchanged": int((faulty == clean).sum()),
            "n_above_clean_max": int((faulty > clean_max).sum()),
            "clean_max_weight": clean_max,
            "faulty_max_weight": float(faulty.max()) if faulty.size else 0.0,
            "mean_absolute_change": float(np.abs(faulty - clean).mean())
            if clean.size
            else 0.0,
        }
