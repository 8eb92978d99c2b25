"""Branch predictor models: bimodal and gshare.

The encoder's trace carries (context, outcome) pairs for its data-
dependent decisions (skip? intra? coefficient significant?).  We map each
context id to a branch PC and replay outcomes through classic predictors:

* :class:`BimodalPredictor` -- a table of 2-bit saturating counters
  indexed by PC.
* :class:`GsharePredictor` -- 2-bit counters indexed by PC XOR global
  history; the stronger baseline that modern front ends approximate.

High-entropy video makes the coefficient-significance and mode branches
closer to coin flips, which is exactly why the paper sees branch MPKI
rise with entropy (Figure 5, middle).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BimodalPredictor", "GsharePredictor"]

_TAKEN_THRESHOLD = 2  # counter >= 2 predicts taken


class BimodalPredictor:
    """Per-PC 2-bit saturating counters."""

    def __init__(self, table_bits: int = 12) -> None:
        if not 1 <= table_bits <= 24:
            raise ValueError(f"table_bits must be in [1, 24], got {table_bits}")
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._table = np.full(1 << table_bits, 1, dtype=np.int8)  # weak not-taken
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return pc & self._mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``; train on ``taken``; True if correct."""
        idx = self._index(pc)
        prediction = self._table[idx] >= _TAKEN_THRESHOLD
        correct = prediction == bool(taken)
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            self._table[idx] = min(3, self._table[idx] + 1)
        else:
            self._table[idx] = max(0, self._table[idx] - 1)
        return correct

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> int:
        """Replay a trace; returns the misprediction count."""
        pcs = np.asarray(pcs, dtype=np.int64)
        outcomes = np.asarray(outcomes, dtype=np.uint8)
        if pcs.shape != outcomes.shape:
            raise ValueError(
                f"pc/outcome shape mismatch: {pcs.shape} vs {outcomes.shape}"
            )
        before = self.mispredictions
        for pc, taken in zip(pcs.tolist(), outcomes.tolist()):
            self.predict_and_update(pc, bool(taken))
        return self.mispredictions - before


class GsharePredictor(BimodalPredictor):
    """2-bit counters indexed by PC XOR global branch history."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12) -> None:
        super().__init__(table_bits)
        if not 1 <= history_bits <= table_bits:
            raise ValueError(
                f"history_bits must be in [1, {table_bits}], got {history_bits}"
            )
        self.history_bits = history_bits
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        correct = super().predict_and_update(pc, taken)
        self._history = ((self._history << 1) | int(bool(taken))) & self._history_mask
        return correct
