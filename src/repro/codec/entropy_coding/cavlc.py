"""CAVLC-class coefficient coding: zig-zag scan plus run/level Exp-Golomb.

Each quantized block is scanned in zig-zag order; the coder emits the number
of non-zero levels, then for each non-zero level the run of zeros preceding
it (unsigned code) and the level itself (signed code).  The whole encode
side is vectorized across every block of a frame at once -- symbol values
and bit lengths are computed as arrays and handed to the bit packer in one
call -- which is what makes the fast presets fast.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.codec.entropy_coding.bitio import BitReader, BitWriter, walk_chain
from repro.codec.errors import CorruptPayload, raise_deferred
from repro.codec.entropy_coding.expgolomb import (
    MAX_UE_ZEROS,
    se_codes,
    ue_codes,
)
from repro.codec.transform import ZIGZAG_SCANS, zigzag_order

__all__ = ["encode_levels_cavlc", "decode_levels_cavlc"]


def encode_levels_cavlc(writer: BitWriter, levels: np.ndarray) -> int:
    """Encode ``(n, S, S)`` quantized blocks; returns the symbol count.

    The symbol count (one per coded value) feeds the entropy-work counter
    used by the cycle-cost model.
    """
    levels = np.asarray(levels)
    if levels.ndim != 3 or levels.shape[1] != levels.shape[2]:
        raise ValueError(f"expected (n, S, S) levels, got shape {levels.shape}")
    if levels.dtype.kind not in "iu":
        raise ValueError(f"levels must be integers, got dtype {levels.dtype}")
    n, size, _ = levels.shape
    if n == 0:
        return 0
    scan = zigzag_order(size)
    flat = levels.reshape(n, size * size)[:, scan]

    nnz = np.count_nonzero(flat, axis=1)
    block_idx, positions = np.nonzero(flat)
    values = flat[block_idx, positions]

    # Zero-run before each non-zero coefficient, computed without a Python
    # loop: within a block the run is the gap to the previous non-zero; the
    # first non-zero in a block runs from position 0.
    runs = np.empty_like(positions)
    if positions.size:
        runs[0] = positions[0]
        same_block = block_idx[1:] == block_idx[:-1]
        runs[1:] = np.where(
            same_block, positions[1:] - positions[:-1] - 1, positions[1:]
        )

    # Interleave symbols into stream order:
    #   [nnz_b, (run, level) * nnz_b] for each block b.
    symbols_per_block = 1 + 2 * nnz
    out_total = int(symbols_per_block.sum())
    offsets = np.cumsum(symbols_per_block) - symbols_per_block

    codes = np.empty(out_total, dtype=np.int64)
    lengths = np.empty(out_total, dtype=np.int64)

    nnz_codes, nnz_lengths = ue_codes(nnz)
    codes[offsets] = nnz_codes
    lengths[offsets] = nnz_lengths

    if positions.size:
        # Index of each coefficient within its block (0-based).
        coeff_rank = np.arange(positions.size) - np.repeat(
            np.cumsum(nnz) - nnz, nnz
        )
        base = np.repeat(offsets, nnz) + 1 + 2 * coeff_rank
        run_codes, run_lengths = ue_codes(runs)
        codes[base] = run_codes
        lengths[base] = run_lengths
        level_codes, level_lengths = se_codes(values)
        codes[base + 1] = level_codes
        lengths[base + 1] = level_lengths

    writer.write_array(codes, lengths)
    return out_total


def _block_positions(
    syms_arr: np.ndarray, starts: np.ndarray, run_counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coefficient ``(block, run_symbol_index, scan_position)`` arrays.

    ``starts[i]`` is the symbol index of block ``i``'s first run code and
    ``run_counts[i]`` how many of its run codes are available; positions
    are the per-block cumulative ``run + 1`` walk of the scalar decoder,
    computed with a segmented cumsum.
    """
    total = int(run_counts.sum())
    blk = np.repeat(np.arange(starts.size), run_counts)
    seg = np.cumsum(run_counts) - run_counts
    rank = np.arange(total) - np.repeat(seg, run_counts)
    run_idx = starts[blk] + 2 * rank
    runs = syms_arr[run_idx]
    cum = np.cumsum(runs + 1)
    seg_c = np.minimum(seg, max(total - 1, 0))
    before = cum[seg_c] - (runs[seg_c] + 1)
    pos = cum - np.repeat(before, run_counts) - 1
    return blk, run_idx, pos


def _earliest_coeff_error(
    syms_arr: np.ndarray, starts: np.ndarray, caps: np.ndarray, max_pos: int
) -> Optional[Tuple[int, CorruptPayload]]:
    """First run/level violation over the decoded symbols, in stream order.

    ``caps[i]`` is how many coefficient symbols of block ``i`` were decoded
    (``2 * nnz`` for complete blocks, fewer for a truncated tail block).
    Returns ``(symbol_index, exception)`` of the earliest violation, or
    None -- used to arbitrate against a deferred stream error so the batch
    decoder raises exactly what the symbol-at-a-time decoder would have.
    """
    if starts.size == 0:
        return None
    run_counts = (caps + 1) // 2
    if not run_counts.sum():
        return None
    blk, run_idx, pos = _block_positions(syms_arr, starts, run_counts)
    rank = run_idx - starts[blk]
    bad_run = pos >= max_pos
    has_level = rank // 2 < (caps // 2)[blk]
    level_idx = np.where(has_level, run_idx + 1, 0)
    bad_level = has_level & (syms_arr[level_idx] == 0)
    best: Optional[Tuple[int, int, str]] = None
    if bad_run.any():
        k = int(np.argmax(bad_run))
        best = (int(run_idx[k]), int(blk[k]), "run")
    if bad_level.any():
        k = int(np.argmax(bad_level))
        if best is None or int(run_idx[k]) + 1 < best[0]:
            best = (int(run_idx[k]) + 1, int(blk[k]), "level")
    if best is None:
        return None
    index, block, kind = best
    if kind == "run":
        return index, CorruptPayload(f"corrupt stream: run overflows block {block}")
    return index, CorruptPayload(f"corrupt stream: zero level in block {block}")


def _block_heads(syms: np.ndarray, n_blocks: int, max_pos: int) -> np.ndarray:
    """Symbol index of each block's nnz code, ``[0, h_1, h_2, ...]``.

    Block ``b + 1`` starts ``1 + 2 * nnz_b`` symbols after block ``b``.  The
    walk has at most ``n_blocks + 1`` entries (the last is the end of the
    last block) and stops early at the first block whose nnz exceeds
    ``max_pos`` or whose codes run past the decoded symbols.
    """
    n = syms.size
    after = np.arange(1, n + 1) + 2 * syms
    step = np.full(n + 2, n + 1, dtype=np.int64)
    step[:n] = np.where((syms <= max_pos) & (after <= n), after, n + 1)
    return walk_chain(step, n_blocks)


def decode_levels_cavlc(
    reader: BitReader, n_blocks: int, size: int
) -> np.ndarray:
    """Decode ``n_blocks`` blocks of ``size x size`` quantized levels.

    The residual section is one homogeneous sequence of Exp-Golomb
    codewords (nnz, then run/level pairs, per block), so symbols are
    decoded speculatively by vectorized scans and the block structure is
    walked over the decoded values; the reader is rewound to the exact
    end of the last symbol the symbol-at-a-time parser would have consumed.
    Errors -- stream damage and semantic violations alike -- are raised
    with the same type and message, for the earliest offending symbol in
    stream order, exactly as the scalar loop raised them.
    """
    if n_blocks < 0:
        # The count is derived from stream-read headers, so a negative
        # value is stream damage, not a caller bug: it must flow through
        # the BitstreamError taxonomy into strict=False concealment.
        raise CorruptPayload(f"block count must be non-negative, got {n_blocks}")
    scan = ZIGZAG_SCANS[size]
    max_pos = size * size
    out = np.zeros((n_blocks, max_pos), dtype=np.int32)
    if n_blocks == 0:
        return out.reshape(n_blocks, size, size)

    chain_start = reader.position
    # A block codes its nnz and at most 2 * max_pos more symbols.  When the
    # bits left cannot hold more codewords than that (a frame payload),
    # they are scanned in one call.  A reader over a whole stream starts at
    # one symbol per block and doubles on demand, so each frame scans a
    # small multiple of its own bits, not the rest of the stream.
    want = reader.remaining
    if want > n_blocks * (1 + 2 * max_pos):
        want = n_blocks
    syms = np.zeros(0, dtype=np.int64)
    deferred: Optional[Exception] = None
    while True:
        if want > syms.size and deferred is None:
            values, deferred = reader.scan_ue_array(
                want - syms.size, MAX_UE_ZEROS
            )
            syms = np.concatenate((syms, values))
        heads = _block_heads(syms, n_blocks, max_pos)
        done = heads.size - 1  # blocks with every code decoded
        head = int(heads[-1])
        if done == n_blocks:
            break
        nnz = int(syms[head]) if head < syms.size else 0
        if nnz > max_pos or deferred is not None:
            break
        # Ask for at least the stuck block and one symbol per later block,
        # and at least double what is decoded.
        want = max(head + 1 + 2 * nnz + n_blocks - done - 1, 2 * syms.size)

    complete = heads[:done]
    starts = complete + 1  # symbol index of each block's first run code
    caps = 2 * syms[complete]  # coefficient symbols available per block
    pending: Optional[Exception] = None
    pending_idx = 0
    if done < n_blocks:
        if nnz > max_pos:
            pending = CorruptPayload(
                f"corrupt stream: {nnz} coefficients in block {done}"
            )
            pending_idx = head
        else:
            pending, pending_idx = deferred, syms.size
            if head < syms.size:  # a block cut short by the failed symbol
                starts = np.append(starts, head + 1)
                caps = np.append(caps, syms.size - head - 1)
    coeff_error = _earliest_coeff_error(syms, starts, caps, max_pos)
    if coeff_error is not None and (pending is None or coeff_error[0] < pending_idx):
        raise_deferred(coeff_error[1])
    if pending is not None:
        raise_deferred(pending)

    # All blocks parsed clean: scatter the levels and rewind the reader to
    # the end of the last consumed symbol (codeword lengths follow from
    # the values, since the code is self-delimiting).
    nnzs = caps // 2
    if nnzs.sum():
        blk, run_idx, pos = _block_positions(syms, starts, nnzs)
        index = syms[run_idx + 1]
        out[blk, scan[pos]] = np.where(index % 2, (index + 1) // 2, -(index // 2))
    if head < syms.size:
        used = syms[:head] + 1
        nbits = np.frexp(used.astype(np.float64))[1].astype(np.int64)
        reader.seek(chain_start + int((2 * nbits - 1).sum()))
    return out.reshape(n_blocks, size, size)
