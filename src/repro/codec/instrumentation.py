"""Encoder instrumentation: kernel-work counters and execution traces.

Two levels of observability, both fed by the encoder as it works:

* :class:`Counters` -- how many units of each kernel ran (SAD evaluations,
  DCT blocks, entropy bins, ...).  Always on; nearly free.  The cycle-cost
  model in :mod:`repro.simd` converts these into modeled CPU time, and the
  SIMD study (Figures 7/8) attributes them to ISA levels.

* :class:`TraceRecorder` -- per-macroblock control-flow and data-access
  events reconstructed from the frame plan after each frame is encoded:
  the dynamic kernel sequence (drives the I-cache model), branch outcomes
  (drives the branch predictor model), and touched memory blocks (drives
  the LLC model).  Opt-in, because building the event arrays costs real
  time; used by the microarchitecture studies (Figures 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["Counters", "TraceRecorder", "KERNELS", "kernel_id"]

#: Every kernel the codec executes, in a stable order.  The id of a kernel
#: is its index in this tuple; the uarch I-cache model lays kernels out in
#: this order in its synthetic code address space.
KERNELS = (
    "frame_setup",
    "sad",
    "interp_halfpel",
    "mc_blocks",
    "intra_pred",
    "mode_decision",
    "dct",
    "quant",
    "rdoq",
    "idct",
    "dequant",
    "recon",
    "entropy_sym",
    "entropy_bin",
    "deblock_edge",
    "ratecontrol",
    "bitstream_io",
    "me_blocks",
)

_KERNEL_INDEX = {name: i for i, name in enumerate(KERNELS)}


def kernel_id(name: str) -> int:
    """Stable integer id of a kernel name."""
    try:
        return _KERNEL_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; expected one of {KERNELS}") from None


class Counters:
    """Accumulates units of work per kernel.

    A thin mapping wrapper with arithmetic conveniences; values are floats
    so vectorized call sites can add fractional or very large counts.

    Semantics: a count is the number of kernel invocations the codec
    *actually performed*, not the number a naive implementation would have
    performed.  In particular ``"sad"`` counts one unit per (block,
    candidate) SAD reduction evaluated -- the log search skips candidates
    that clip back onto a block's current best vector, and those skipped
    evaluations are (correctly) not counted.  This keeps the Figure 7/8
    cycle attribution consistent: modeled cycles reflect work done, and an
    algorithmic improvement that avoids work shows up as fewer counted
    units, exactly as it would in a profiled native encoder.

    One exception: full search counts the exhaustive scan the cycle model
    prices, ``k**2 - 1`` per searched block, while the host prunes it by
    successive elimination and computes only a few percent of those SADs.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, kernel: str, units: float) -> None:
        """Add ``units`` of work to ``kernel`` (must be a known kernel)."""
        if kernel not in _KERNEL_INDEX:
            raise ValueError(f"unknown kernel {kernel!r}")
        self._counts[kernel] = self._counts.get(kernel, 0.0) + float(units)

    def get(self, kernel: str) -> float:
        """Units of work recorded for ``kernel`` (0 if never touched)."""
        return self._counts.get(kernel, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """A copy of the raw counts."""
        return dict(self._counts)

    def merge(self, other: "Counters") -> "Counters":
        """Add another counter set into this one (e.g. two-pass totals)."""
        for kernel, units in other._counts.items():
            self._counts[kernel] = self._counts.get(kernel, 0.0) + units
        return self

    def total(self) -> float:
        """Sum of all units across kernels."""
        return float(sum(self._counts.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"Counters({items})"


@dataclass
class TraceRecorder:
    """Collects per-macroblock execution events for the uarch simulators.

    Attributes:
        kernel_seq: Dynamic sequence of kernel ids, one entry per kernel
            executed per macroblock, in coding order.
        branches: ``(context_id, taken)`` pairs for every modelled branch.
        mem_blocks: 64-byte-block addresses touched, in access order.
        sample_stride: Keep only every ``sample_stride``-th macroblock's
            events (1 = everything).  Sampling keeps big runs tractable and
            is statistically safe because MPKI is a ratio.
    """

    sample_stride: int = 1
    kernel_seq: List[np.ndarray] = field(default_factory=list)
    branch_ctx: List[np.ndarray] = field(default_factory=list)
    branch_taken: List[np.ndarray] = field(default_factory=list)
    mem_blocks: List[np.ndarray] = field(default_factory=list)

    def record_kernels(self, seq: np.ndarray) -> None:
        """Append a chunk of dynamic kernel ids."""
        self.kernel_seq.append(np.asarray(seq, dtype=np.int16))

    def record_branches(self, contexts: np.ndarray, taken: np.ndarray) -> None:
        """Append branch events (parallel context / outcome arrays)."""
        contexts = np.asarray(contexts, dtype=np.int16)
        taken = np.asarray(taken, dtype=np.uint8)
        if contexts.shape != taken.shape:
            raise ValueError(
                f"context/outcome shape mismatch: {contexts.shape} vs {taken.shape}"
            )
        self.branch_ctx.append(contexts)
        self.branch_taken.append(taken)

    def record_memory(self, block_addresses: np.ndarray) -> None:
        """Append 64-byte block addresses, in access order."""
        self.mem_blocks.append(np.asarray(block_addresses, dtype=np.int64))

    # -- consolidated views --------------------------------------------------

    def kernels(self) -> np.ndarray:
        """All kernel ids as one array."""
        if not self.kernel_seq:
            return np.zeros(0, dtype=np.int16)
        return np.concatenate(self.kernel_seq)

    def branch_events(self) -> tuple:
        """``(contexts, outcomes)`` arrays covering the whole run."""
        if not self.branch_ctx:
            return np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.uint8)
        return np.concatenate(self.branch_ctx), np.concatenate(self.branch_taken)

    def memory_accesses(self) -> np.ndarray:
        """All touched block addresses as one array."""
        if not self.mem_blocks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.mem_blocks)
