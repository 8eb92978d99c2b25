"""Trace generation: turning frame plans into microarchitectural events.

After each frame is encoded, the encoder hands its *plan* (modes, motion
vectors, quantized levels) to these functions, which reconstruct the
dynamic execution the plan implies:

* **kernel sequence** -- which code regions ran, macroblock by macroblock,
  in coding order.  A skip block touches almost no code; a coded inter
  block walks motion compensation, transform, quantization, and entropy
  coding; an intra block walks a different path.  Mode *diversity* within a
  frame is therefore what stresses the instruction cache -- exactly the
  effect the paper measures (Figure 5, I$ MPKI rising with entropy).

* **branch events** -- the data-dependent decisions (skip? intra? coded?
  significant coefficient?) with stable context ids, replayed through a
  real predictor model.  Complex content makes these decisions less
  predictable (branch MPKI rising with entropy).

* **memory accesses** -- the 64-byte lines of the current, reference, and
  reconstruction buffers each macroblock touches.  The data footprint
  depends on resolution, not content, so instructions-per-byte grows with
  entropy and LLC MPKI falls -- the paper's third trend.

Events are *reconstructed from the plan*, not sampled from the host CPU:
they reflect what this encoder actually decided on this video.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.codec.instrumentation import Counters, TraceRecorder, kernel_id
from repro.codec.types import MB_SIZE, BlockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.codec.encoder import _CodingState

__all__ = [
    "record_p_frame",
    "record_i_frame",
]

# Branch context ids: 0 skip_decision, 1 intra_decision, 2 mv_nonzero,
# 3 coded_block, 4 coeff_significant, 5 mv_sign_y, 6 mv_sign_x,
# 7 coeff_sign, 8 subpel_bit.

# Fixed buffer base addresses (bytes): encoders reuse their frame buffers,
# which is what gives the LLC its temporal locality across frames.
CUR_BASE = 0x1000_0000
REF_BASE = 0x2000_0000
RECON_BASE = 0x3000_0000
_LINE = 64

_KID = {name: kernel_id(name) for name in (
    "mode_decision", "sad", "interp_halfpel", "mc_blocks", "intra_pred",
    "dct", "quant", "rdoq", "idct", "dequant", "recon", "entropy_sym",
    "entropy_bin", "deblock_edge",
)}

#: How many scan positions per transform block contribute significance
#: branches to the trace (all of an 8x8 block's scan loop).
_SIG_BRANCH_POSITIONS = 64
#: Cap on per-macroblock coefficient-sign branches.  Signs of transform
#: coefficients are near-random for natural content -- they are the
#: hard-to-predict branches that make branch MPKI grow with entropy.
_SIGN_BRANCH_CAP = 128


def _mb_lines(base: int, y: int, x: int, width: int, rows: int) -> np.ndarray:
    """The 64-byte line addresses a ``rows``-tall block read touches."""
    offsets = (np.arange(rows) + y) * width + x
    return base + (offsets // _LINE) * _LINE


def record_p_frame(
    trace: TraceRecorder,
    state: "_CodingState",
    modes: np.ndarray,
    mvs: np.ndarray,
    mb_levels,
    counters: Counters,
) -> None:
    """Reconstruct and record the events of one P frame.

    ``mb_levels`` maps non-skip macroblock index to its quantized luma
    level blocks (``(blocks, S, S)``) -- shape-agnostic so adaptive
    transform sizes trace correctly.
    """
    n_mb = modes.size
    stride = max(1, trace.sample_stride)
    subpel = state.cfg.subpel_depth > 0
    entropy_kid = (
        _KID["entropy_bin"] if state.cfg.entropy_coder == "cabac" else _KID["entropy_sym"]
    )
    rdoq = state.cfg.rdoq

    kernel_chunks: List[np.ndarray] = []
    branch_ctx: List[np.ndarray] = []
    branch_taken: List[np.ndarray] = []
    mem_chunks: List[np.ndarray] = []
    width = state.coded_w

    for i in range(0, n_mb, stride):
        mode = int(modes[i])
        y, x = int(state.ys[i]), int(state.xs[i])
        mvy, mvx = int(mvs[i, 0]) // 4, int(mvs[i, 1]) // 4

        seq = [_KID["mode_decision"], _KID["sad"]]
        ctxs = [0]
        takens = [1 if mode == int(BlockMode.SKIP) else 0]
        mem = [_mb_lines(CUR_BASE, y, x, width, MB_SIZE)]

        if mode == int(BlockMode.SKIP):
            seq += [_KID["mc_blocks"], _KID["recon"]]
            mem.append(_mb_lines(REF_BASE, y, x, width, MB_SIZE))
        else:
            levels = mb_levels[i]
            blocks = levels.reshape(levels.shape[0], -1)
            nnz = int(np.count_nonzero(blocks))
            coded = nnz > 0
            sig_bits = (blocks[:, :_SIG_BRANCH_POSITIONS] != 0).astype(np.uint8).ravel()
            values = blocks[blocks != 0]
            sign_bits = (values[:_SIGN_BRANCH_CAP] < 0).astype(np.uint8)
            n_blocks = levels.shape[0]

            ctxs.append(1)
            takens.append(1 if mode == int(BlockMode.INTRA) else 0)
            if mode == int(BlockMode.INTER):
                seq += [_KID["sad"]] * 3
                if subpel:
                    seq.append(_KID["interp_halfpel"])
                seq.append(_KID["mc_blocks"])
                ctxs.append(2)
                takens.append(1 if (mvy or mvx) else 0)
                ctxs += [5, 6]
                takens += [1 if mvs[i, 0] < 0 else 0, 1 if mvs[i, 1] < 0 else 0]
                ctxs += [8, 8]
                takens += [int(mvs[i, 0]) & 1, int(mvs[i, 1]) & 1]
                mem.append(_mb_lines(REF_BASE, y + mvy, x + mvx, width, MB_SIZE))
            else:
                seq.append(_KID["intra_pred"])
            seq += [_KID["dct"], _KID["quant"]] * n_blocks
            if rdoq:
                seq += [_KID["rdoq"]] * n_blocks
            ctxs.append(3)
            takens.append(1 if coded else 0)
            if coded:
                ctxs += [4] * sig_bits.size
                takens += sig_bits.tolist()
                ctxs += [7] * sign_bits.size
                takens += sign_bits.tolist()
                seq += [entropy_kid] * max(1, nnz)
                seq += [_KID["dequant"], _KID["idct"]] * n_blocks
            else:
                seq.append(entropy_kid)
            seq.append(_KID["recon"])
        mem.append(_mb_lines(RECON_BASE, y, x, width, MB_SIZE))
        if state.cfg.deblock:
            seq.append(_KID["deblock_edge"])

        kernel_chunks.append(np.array(seq, dtype=np.int16))
        branch_ctx.append(np.array(ctxs, dtype=np.int16))
        branch_taken.append(np.array(takens, dtype=np.uint8))
        mem_chunks.append(np.concatenate(mem))

    trace.record_kernels(np.concatenate(kernel_chunks))
    trace.record_branches(np.concatenate(branch_ctx), np.concatenate(branch_taken))
    trace.record_memory(np.concatenate(mem_chunks))


def record_i_frame(
    trace: TraceRecorder,
    state: "_CodingState",
    luma_levels: np.ndarray,
    counters: Counters,
) -> None:
    """Reconstruct and record the events of one I frame (8x8 transforms)."""
    n_mb = state.n_mb
    k2 = 4  # intra pictures always use the 8x8 transform
    stride = max(1, trace.sample_stride)
    entropy_kid = (
        _KID["entropy_bin"] if state.cfg.entropy_coder == "cabac" else _KID["entropy_sym"]
    )
    per_mb = luma_levels.reshape(n_mb, k2, 8, 8)
    nnz_per_mb = np.count_nonzero(per_mb, axis=(1, 2, 3))
    width = state.coded_w

    kernel_chunks: List[np.ndarray] = []
    branch_ctx: List[np.ndarray] = []
    branch_taken: List[np.ndarray] = []
    mem_chunks: List[np.ndarray] = []

    for i in range(0, n_mb, stride):
        y, x = int(state.ys[i]), int(state.xs[i])
        coded = nnz_per_mb[i] > 0
        seq = [_KID["intra_pred"]] + [_KID["dct"], _KID["quant"]] * k2
        if state.cfg.rdoq:
            seq += [_KID["rdoq"]] * k2
        seq += [entropy_kid] * int(max(1, nnz_per_mb[i]))
        seq += [_KID["dequant"], _KID["idct"]] * k2 + [_KID["recon"]]
        if state.cfg.deblock:
            seq.append(_KID["deblock_edge"])
        blocks = per_mb[i].reshape(k2, 64)
        sig_bits = (blocks[:, :_SIG_BRANCH_POSITIONS] != 0).astype(np.uint8).ravel()
        values = blocks[blocks != 0]
        sign_bits = (values[:_SIGN_BRANCH_CAP] < 0).astype(np.uint8)
        ctxs = [3] + [4] * sig_bits.size + [7] * sign_bits.size
        takens = [1 if coded else 0] + sig_bits.tolist() + sign_bits.tolist()
        mem = [
            _mb_lines(CUR_BASE, y, x, width, MB_SIZE),
            _mb_lines(RECON_BASE, y, x, width, MB_SIZE),
        ]
        kernel_chunks.append(np.array(seq, dtype=np.int16))
        branch_ctx.append(np.array(ctxs, dtype=np.int16))
        branch_taken.append(np.array(takens, dtype=np.uint8))
        mem_chunks.append(np.concatenate(mem))

    trace.record_kernels(np.concatenate(kernel_chunks))
    trace.record_branches(np.concatenate(branch_ctx), np.concatenate(branch_taken))
    trace.record_memory(np.concatenate(mem_chunks))
