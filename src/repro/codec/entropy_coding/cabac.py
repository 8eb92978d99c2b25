"""Context-adaptive binary arithmetic coding (CABAC-class).

A binary range coder (the carry-counting LZMA construction, equivalent in
spirit to H.264's arithmetic coding engine) plus adaptive probability
contexts.  Every syntax element is binarized into a sequence of binary
decisions ("bins"); each bin is coded against a context whose probability
estimate adapts as the frame is coded.  Adaptation is what buys CABAC its
bitrate advantage over static VLC tables -- and its strictly sequential
data dependence is why hardware encoders and fast software presets avoid it
(Sections 2.1 and 5.3 of the paper).

Coefficient binarization follows the H.264 pattern: a coded-block flag,
then interleaved significance/last flags over the zig-zag scan, then for
each significant coefficient a greater-than-one flag, an Exp-Golomb-coded
remainder in bypass mode, and a bypass sign bit.  The encoder binarizes a
whole block set with numpy, then runs the range coder over those bins in
one loop; the decoder reads bin by bin.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.codec.entropy_coding.expgolomb import ue_code
from repro.codec.errors import CorruptPayload
from repro.codec.transform import ZIGZAG_SCANS, zigzag_order

__all__ = ["CabacEncoder", "CabacDecoder"]

_PROB_BITS = 11
_PROB_ONE = 1 << _PROB_BITS  # probabilities are P(bit == 0) in [1, 2047]
_PROB_INIT = _PROB_ONE // 2
_ADAPT_SHIFT = 5
_TOP = 1 << 24
_SIG_CTXS = 16  # significance contexts, bucketed by scan position
_LEVEL_MAX = int(np.iinfo(np.int32).max)  # the decoder's output type
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))
# Offsets of ContextSet's lists in the one flat list the engine adapts.
_FLAG = 0
_SIG = _FLAG + 2
_LAST = _SIG + _SIG_CTXS
_GT1 = _LAST + _SIG_CTXS


class ContextSet:
    """Adaptive probability contexts for one frame's residual data."""

    def __init__(self) -> None:
        self.coded_flag = [_PROB_INIT, _PROB_INIT]  # [luma, chroma]
        self.sig = [_PROB_INIT] * _SIG_CTXS
        self.last = [_PROB_INIT] * _SIG_CTXS
        self.gt1 = [_PROB_INIT, _PROB_INIT]


class CabacEncoder:
    """Binary range encoder with adaptive contexts.

    Usage: construct, call :meth:`encode_blocks` (or the bin-level methods),
    then :meth:`flush` to obtain the coded bytes.  ``bins`` counts every
    coded bin -- the unit of entropy-coding work in the cycle model.
    """

    def __init__(self) -> None:
        self._low = 0
        self._range = 0xFFFFFFFF
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()
        self.contexts = ContextSet()
        self.bins = 0

    # -- engine -----------------------------------------------------------

    def _encode_bins(
        self, probs: List[int], ctxs: Sequence[int], bins: Sequence[int]
    ) -> None:
        """Code ``bins[i]`` against ``probs[ctxs[i]]``, or equiprobable
        (bypass) where ``ctxs[i] < 0``; adapts ``probs`` in place.

        The one copy of the range-coder arithmetic: every bin, whether from
        :meth:`encode_blocks` or a bin-level method, is coded here.
        """
        low, rng = self._low, self._range
        cache, cache_size, out = self._cache, self._cache_size, self._out
        for ctx, bit in zip(ctxs, bins):
            if ctx < 0:
                rng >>= 1
                if bit:
                    low += rng
            else:
                prob = probs[ctx]
                bound = (rng >> _PROB_BITS) * prob
                if bit:
                    low += bound
                    rng -= bound
                    probs[ctx] = prob - (prob >> _ADAPT_SHIFT)
                else:
                    rng = bound
                    probs[ctx] = prob + ((_PROB_ONE - prob) >> _ADAPT_SHIFT)
            if rng < _TOP:
                rng <<= 8
                low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        self._low, self._range = low, rng
        self._cache, self._cache_size = cache, cache_size
        self.bins += len(bins)

    def encode_bit(self, contexts: List[int], index: int, bit: int) -> None:
        """Code one bin against an adaptive context."""
        self._encode_bins(contexts, (index,), (bit,))

    def encode_bypass(self, bit: int) -> None:
        """Code one equiprobable bin (sign bits, suffix bits)."""
        self._encode_bins([], (-1,), (bit,))

    def encode_bypass_eg0(self, value: int) -> None:
        """Code an unsigned value as order-0 Exp-Golomb in bypass mode."""
        code, length = ue_code(value)
        bits = [(code >> shift) & 1 for shift in range(length - 1, -1, -1)]
        self._encode_bins([], (-1,) * length, bits)

    def flush(self) -> bytes:
        """Terminate the stream and return the coded bytes."""
        for _ in range(5):
            self._low, self._cache, self._cache_size = _shift_low(
                self._low, self._cache, self._cache_size, self._out
            )
        return bytes(self._out)

    # -- residual coding -----------------------------------------------------

    def encode_blocks(self, levels: np.ndarray, chroma: bool = False) -> None:
        """Encode ``(n, S, S)`` quantized blocks of one plane class.

        Two passes: :func:`_binarize` turns the whole block set into its
        bins with numpy, then :meth:`_encode_bins` codes them in one loop
        against the frame's contexts, which later calls keep adapting.
        """
        levels = np.asarray(levels)
        if levels.ndim != 3 or levels.shape[1] != levels.shape[2]:
            raise ValueError(f"expected (n, S, S) levels, got {levels.shape}")
        if levels.dtype.kind not in "iu":
            raise ValueError(f"levels must be integers, got dtype {levels.dtype}")
        if levels.size and (
            int(levels.max()) > _LEVEL_MAX or int(levels.min()) < -_LEVEL_MAX
        ):
            # The decoder returns int32 levels: a larger one cannot come back.
            raise ValueError(f"levels must lie within +/-{_LEVEL_MAX}")
        n, size, _ = levels.shape
        flat = levels.astype(np.int64).reshape(n, size * size)[:, zigzag_order(size)]
        ctxs, bins = _binarize(flat, 1 if chroma else 0)
        ctx = self.contexts
        probs = ctx.coded_flag + ctx.sig + ctx.last + ctx.gt1
        self._encode_bins(probs, ctxs.tolist(), bins.tolist())
        ctx.coded_flag[:] = probs[_FLAG:_SIG]
        ctx.sig[:] = probs[_SIG:_LAST]
        ctx.last[:] = probs[_LAST:_GT1]
        ctx.gt1[:] = probs[_GT1:]


def _shift_low(
    low: int, cache: int, cache_size: int, out: bytearray
) -> Tuple[int, int, int]:
    """Emit the top byte of ``low``, holding back a run of 0xFF bytes
    until a carry into them is settled; returns the new ``low``, ``cache``
    and ``cache_size``."""
    if low < 0xFF000000 or low > 0xFFFFFFFF:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        if cache_size > 1:
            out.extend(bytes(((0xFF + carry) & 0xFF,)) * (cache_size - 1))
        cache = (low >> 24) & 0xFF
        cache_size = 0
    return (low << 8) & 0xFFFFFFFF, cache, cache_size + 1


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of ``lengths`` starts."""
    return np.cumsum(lengths) - lengths


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for each ``(s, l)``, concatenated."""
    offsets = np.repeat(starts - _starts(lengths), lengths)
    return offsets + np.arange(int(lengths.sum()))


def _binarize(flat: np.ndarray, plane: int) -> Tuple[np.ndarray, np.ndarray]:
    """Context index (-1 for bypass) and value of every bin of a block set.

    ``flat`` holds ``(n, S*S)`` levels in scan order.  A block codes its
    coded flag; then a significance bin per scan position up to its last
    level, each 1 followed by a last bin (the final position has neither:
    arriving there implies it); then per level a greater-than-one bin and,
    in bypass, the order-0 Exp-Golomb code of ``|level| - 2`` (when > 1)
    and the sign.  The work is proportional to the bins, not to ``n*S*S``:
    every bin's index in the stream is computed from the block and level
    counts, and the arrays are filled by scatter.
    """
    n, max_pos = flat.shape
    blk, pos = np.nonzero(flat)  # every level, in coding order
    level = flat[blk, pos]
    nnz = np.bincount(blk, minlength=n)
    first = _starts(nnz)  # each block's first level
    rank = np.arange(blk.size) - first[blk]
    closes = rank == nnz[blk] - 1  # the level that closes its block
    flagged = pos < max_pos - 1  # coded with sig and last bins
    n_sig = np.zeros(n, dtype=np.int64)
    n_sig[blk[closes]] = np.minimum(pos[closes] + 1, max_pos - 1)
    scan_len = n_sig + np.bincount(blk[flagged], minlength=n)
    mag = np.abs(level)
    big = mag > 1
    # The order-0 Exp-Golomb code of |level| - 2 is |level| - 1 in
    # 2 * bit_length - 1 bits; a bit length is how many powers of two are
    # <= the value, counted in exact integers.
    eg_code = np.where(big, mag - 1, 0)
    eg_bits = np.searchsorted(_POWERS_OF_TWO, eg_code, side="right")
    suffix_len = 1 + np.where(big, 2 * eg_bits - 1, 0)  # then the sign
    # Where each level's gt1 bin and suffix start, counted over all levels.
    level_at = np.append(0, np.cumsum(1 + suffix_len))
    block_len = 1 + scan_len + level_at[first + nnz] - level_at[first]
    start = _starts(block_len)

    total = int(block_len.sum())
    ctxs = np.full(total, -1, dtype=np.int64)
    bins = np.zeros(total, dtype=np.int64)
    ctxs[start] = _FLAG + plane
    bins[start] = nnz > 0
    # A level's sig bin comes after one sig bin per earlier position and
    # one last bin per earlier level of its block.
    sig_at = (start[blk] + 1 + pos + rank)[flagged]
    is_sig = np.zeros(total, dtype=bool)
    is_sig[_ranges(start + 1, scan_len)] = True
    is_sig[sig_at + 1] = False
    sig_pos = _ranges(np.zeros_like(n_sig), n_sig)
    ctxs[is_sig] = _SIG + np.minimum(sig_pos, _SIG_CTXS - 1)
    ctxs[sig_at + 1] = _LAST + np.minimum(pos[flagged], _SIG_CTXS - 1)
    bins[sig_at] = 1
    bins[sig_at + 1] = closes[flagged]
    gt1_at = start[blk] + 1 + scan_len[blk] + level_at[:-1] - level_at[first[blk]]
    ctxs[gt1_at] = _GT1 + plane
    bins[gt1_at] = big
    suffix = (eg_code << 1) | (level < 0)
    suffix_at = _ranges(gt1_at + 1, suffix_len)
    # Bit i of a suffix is bit (length - 1 - i) of its codeword.
    shifts = np.repeat(gt1_at + suffix_len, suffix_len) - suffix_at
    bins[suffix_at] = (np.repeat(suffix, suffix_len) >> shifts) & 1
    return ctxs, bins


class CabacDecoder:
    """Mirror of :class:`CabacEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 1  # first byte emitted by the encoder is always 0
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()
        self._range = 0xFFFFFFFF
        self.contexts = ContextSet()

    def _next_byte(self) -> int:
        byte = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return byte

    def decode_bit(self, contexts: List[int], index: int) -> int:
        prob = contexts[index]
        bound = (self._range >> _PROB_BITS) * prob
        if self._code < bound:
            bit = 0
            self._range = bound
            contexts[index] = prob + ((_PROB_ONE - prob) >> _ADAPT_SHIFT)
        else:
            bit = 1
            self._code -= bound
            self._range -= bound
            contexts[index] = prob - (prob >> _ADAPT_SHIFT)
        if self._range < _TOP:
            self._range <<= 8
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF
        return bit

    def decode_bypass(self) -> int:
        self._range >>= 1
        if self._code >= self._range:
            self._code -= self._range
            bit = 1
        else:
            bit = 0
        if self._range < _TOP:
            self._range <<= 8
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF
        return bit

    def decode_bypass_eg0(self) -> int:
        zeros = 0
        while self.decode_bypass() == 0:
            zeros += 1
            if zeros > 62:
                raise CorruptPayload("corrupt CABAC stream: runaway EG prefix")
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.decode_bypass()
        return value - 1

    def decode_blocks(
        self, n_blocks: int, size: int, chroma: bool = False
    ) -> np.ndarray:
        """Decode ``n_blocks`` blocks of ``size x size`` levels."""
        if n_blocks < 0:
            # Stream-derived, like the CAVLC side: corrupt, not a TypeError.
            raise CorruptPayload(
                f"block count must be non-negative, got {n_blocks}"
            )
        scan = ZIGZAG_SCANS[size]
        ctx = self.contexts
        plane = 1 if chroma else 0
        max_pos = size * size
        out = np.zeros((n_blocks, max_pos), dtype=np.int32)
        for b in range(n_blocks):
            if not self.decode_bit(ctx.coded_flag, plane):
                continue
            significant = []
            pos = 0
            while pos < max_pos:
                bucket = min(pos, _SIG_CTXS - 1)
                if pos == max_pos - 1:
                    significant.append(pos)
                    break
                if self.decode_bit(ctx.sig, bucket):
                    significant.append(pos)
                    if self.decode_bit(ctx.last, bucket):
                        break
                pos += 1
            for pos in significant:
                mag = 1
                if self.decode_bit(ctx.gt1, plane):
                    mag = 2 + self.decode_bypass_eg0()
                sign = self.decode_bypass()
                out[b, scan[pos]] = -mag if sign else mag
        return out.reshape(n_blocks, size, size)
