"""CABAC: engine round trips, adaptation benefit, block coding.

The per-bin encoder that the binarize-then-code encoder replaced lives on
below as an oracle, held equal: same bytes, same bin count, same final
context state.
"""

import ast
import inspect

import numpy as np
import pytest

from repro.codec.entropy_coding import cabac as cabac_module
from repro.codec.entropy_coding.bitio import BitWriter
from repro.codec.entropy_coding.cabac import CabacDecoder, CabacEncoder, ContextSet
from repro.codec.entropy_coding.cavlc import encode_levels_cavlc
from repro.codec.transform import zigzag_order

_PROB_BITS = 11
_PROB_ONE = 1 << _PROB_BITS
_ADAPT_SHIFT = 5
_TOP = 1 << 24
_SIG_CTXS = 16


class _PerBinEncoder:
    """The per-bin CABAC encoder: one method call per bin.

    It also records the longest run of held-back 0xFF bytes that a carry
    went through, so a test can show it exercised that path.
    """

    def __init__(self):
        self._low = 0
        self._range = 0xFFFFFFFF
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()
        self.contexts = ContextSet()
        self.bins = 0
        self.longest_carry_run = 0

    def _shift_low(self):
        if self._low < 0xFF000000 or self._low > 0xFFFFFFFF:
            carry = self._low >> 32
            if carry:
                self.longest_carry_run = max(
                    self.longest_carry_run, self._cache_size - 1
                )
            self._out.append((self._cache + carry) & 0xFF)
            self._out.extend(
                ((0xFF + carry) & 0xFF for _ in range(self._cache_size - 1))
            )
            self._cache = (self._low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (self._low << 8) & 0xFFFFFFFF

    def encode_bit(self, contexts, index, bit):
        prob = contexts[index]
        bound = (self._range >> _PROB_BITS) * prob
        if bit == 0:
            self._range = bound
            contexts[index] = prob + ((_PROB_ONE - prob) >> _ADAPT_SHIFT)
        else:
            self._low += bound
            self._range -= bound
            contexts[index] = prob - (prob >> _ADAPT_SHIFT)
        if self._range < _TOP:
            self._range <<= 8
            self._shift_low()
        self.bins += 1

    def encode_bypass(self, bit):
        self._range >>= 1
        if bit:
            self._low += self._range
        if self._range < _TOP:
            self._range <<= 8
            self._shift_low()
        self.bins += 1

    def encode_bypass_eg0(self, value):
        shifted = value + 1
        nbits = shifted.bit_length()
        for _ in range(nbits - 1):
            self.encode_bypass(0)
        for shift in range(nbits - 1, -1, -1):
            self.encode_bypass((shifted >> shift) & 1)

    def flush(self):
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)

    def encode_blocks(self, levels, chroma=False):
        n, size, _ = levels.shape
        scan = zigzag_order(size)
        flat = levels.reshape(n, size * size)[:, scan]
        ctx = self.contexts
        plane = 1 if chroma else 0
        max_pos = size * size
        nonzero_set = set(np.nonzero(np.any(flat, axis=1))[0].tolist())
        for b in range(n):
            if b not in nonzero_set:
                self.encode_bit(ctx.coded_flag, plane, 0)
                continue
            self.encode_bit(ctx.coded_flag, plane, 1)
            row = flat[b]
            sig_positions = np.nonzero(row)[0]
            last = int(sig_positions[-1])
            for pos in range(last + 1):
                value = int(row[pos])
                bucket = min(pos, _SIG_CTXS - 1)
                if pos < max_pos - 1:
                    self.encode_bit(ctx.sig, bucket, 1 if value else 0)
                    if value:
                        self.encode_bit(ctx.last, bucket, 1 if pos == last else 0)
            for pos in sig_positions.tolist():
                value = int(row[pos])
                mag = abs(value)
                self.encode_bit(ctx.gt1, plane, 1 if mag > 1 else 0)
                if mag > 1:
                    self.encode_bypass_eg0(mag - 2)
                self.encode_bypass(1 if value < 0 else 0)


def _assert_matches_oracle(*calls):
    """Run ``encode_blocks(levels, chroma)`` for each call on both
    encoders; the streams, bin counts and contexts must be equal."""
    new, oracle = CabacEncoder(), _PerBinEncoder()
    for levels, chroma in calls:
        new.encode_blocks(levels, chroma=chroma)
        oracle.encode_blocks(levels, chroma)
    assert new.bins == oracle.bins
    assert vars(new.contexts) == vars(oracle.contexts)
    assert new.flush() == oracle.flush()
    return oracle


def _random_levels(rng, n, size, density, max_mag):
    mags = rng.integers(1, max_mag + 1, size=(n, size, size))
    signs = rng.choice([-1, 1], size=(n, size, size))
    mask = rng.random((n, size, size)) < density
    return np.where(mask, mags * signs, 0).astype(np.int32)


class TestEngine:
    def test_bit_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=500).tolist()
        enc = CabacEncoder()
        ctx = enc.contexts.sig
        for b in bits:
            enc.encode_bit(ctx, 0, b)
        data = enc.flush()
        dec = CabacDecoder(data)
        assert [dec.decode_bit(dec.contexts.sig, 0) for _ in bits] == bits

    def test_bypass_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=300).tolist()
        enc = CabacEncoder()
        for b in bits:
            enc.encode_bypass(b)
        dec = CabacDecoder(enc.flush())
        assert [dec.decode_bypass() for _ in bits] == bits

    def test_eg0_roundtrip(self):
        values = [0, 1, 2, 7, 100, 9999]
        enc = CabacEncoder()
        for v in values:
            enc.encode_bypass_eg0(v)
        dec = CabacDecoder(enc.flush())
        assert [dec.decode_bypass_eg0() for _ in values] == values

    def test_eg0_rejects_negative(self):
        with pytest.raises(ValueError):
            CabacEncoder().encode_bypass_eg0(-1)

    def test_bin_counter(self):
        enc = CabacEncoder()
        enc.encode_bypass(1)
        enc.encode_bit(enc.contexts.gt1, 0, 0)
        assert enc.bins == 2

    def test_skewed_stream_compresses(self, rng):
        # 95% zeros: the adaptive coder should beat 1 bit/bin by a lot.
        bits = (rng.random(4000) < 0.05).astype(int).tolist()
        enc = CabacEncoder()
        for b in bits:
            enc.encode_bit(enc.contexts.sig, 0, b)
        assert len(enc.flush()) * 8 < 0.5 * len(bits)


class TestBlockCoding:
    def _roundtrip(self, levels, chroma=False):
        enc = CabacEncoder()
        enc.encode_blocks(levels, chroma=chroma)
        dec = CabacDecoder(enc.flush())
        return dec.decode_blocks(levels.shape[0], levels.shape[1], chroma=chroma)

    def test_zero_blocks(self):
        levels = np.zeros((6, 8, 8), dtype=np.int32)
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_random_sparse(self, rng):
        levels = np.zeros((12, 8, 8), dtype=np.int32)
        mask = rng.random((12, 8, 8)) < 0.08
        levels[mask] = rng.choice([-5, -2, -1, 1, 2, 9], size=int(mask.sum()))
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_last_position_significant(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 7, 7] = 2
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_large_magnitudes(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 1000
        levels[0, 0, 1] = -1000
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_16x16_blocks(self, rng):
        levels = np.zeros((2, 16, 16), dtype=np.int32)
        levels[0, 0, 0] = 7
        levels[1, 3, 2] = -4
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_luma_chroma_interleaved(self, rng):
        luma = np.zeros((4, 8, 8), dtype=np.int32)
        luma[:, 0, 0] = rng.integers(1, 10, size=4)
        chroma = np.zeros((2, 8, 8), dtype=np.int32)
        chroma[0, 1, 0] = -2
        enc = CabacEncoder()
        enc.encode_blocks(luma, chroma=False)
        enc.encode_blocks(chroma, chroma=True)
        dec = CabacDecoder(enc.flush())
        assert np.array_equal(dec.decode_blocks(4, 8, chroma=False), luma)
        assert np.array_equal(dec.decode_blocks(2, 8, chroma=True), chroma)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CabacEncoder().encode_blocks(np.zeros((8, 8), dtype=np.int32))

    def test_rejects_float_levels(self):
        # A float block set used to encode without error, then decode to
        # other levels (0.5 -> 1) or desync the stream.
        levels = np.zeros((2, 4, 4))
        levels[0, 0, :2] = [0.5, 3.0]
        levels[1, 0, 0] = -2.7
        with pytest.raises(ValueError, match="integers"):
            CabacEncoder().encode_blocks(levels)

    @pytest.mark.parametrize("level", [2**40, -(2**31), 2**31])
    def test_rejects_levels_the_decoder_cannot_return(self, level):
        # The decoder writes int32 levels: 2**40 used to encode, then
        # raise OverflowError on the way back out.
        levels = np.zeros((1, 8, 8), dtype=np.int64)
        levels[0, 0, 0] = level
        with pytest.raises(ValueError, match="within"):
            CabacEncoder().encode_blocks(levels)

    def test_int32_extremes_round_trip(self):
        top = np.iinfo(np.int32).max
        levels = np.zeros((1, 8, 8), dtype=np.int64)
        levels[0, 0, :2] = [top, -top]
        assert np.array_equal(self._roundtrip(levels), levels)

    def test_decode_rejects_negative_count_as_corruption(self):
        # Mirrors the CAVLC contract: stream-derived counts raise through
        # the BitstreamError taxonomy so strict=False can conceal.
        from repro.codec.errors import CorruptPayload

        dec = CabacDecoder(CabacEncoder().flush())
        with pytest.raises(CorruptPayload):
            dec.decode_blocks(-1, 8)


class TestCompressionAdvantage:
    def test_beats_cavlc_on_typical_residuals(self, rng):
        """CABAC's whole reason to exist: fewer bits on real-ish data."""
        levels = np.zeros((150, 8, 8), dtype=np.int32)
        # DCT-like statistics: low frequencies more likely significant.
        for b in range(150):
            n = rng.integers(0, 8)
            for _ in range(n):
                i = min(7, int(abs(rng.normal(0, 1.6))))
                j = min(7, int(abs(rng.normal(0, 1.6))))
                levels[b, i, j] = int(np.sign(rng.normal()) or 1) * max(
                    1, int(abs(rng.normal(0, 2)))
                )
        writer = BitWriter()
        encode_levels_cavlc(writer, levels)
        cavlc_bits = writer.bit_length
        enc = CabacEncoder()
        enc.encode_blocks(levels)
        cabac_bits = len(enc.flush()) * 8
        assert cabac_bits < cavlc_bits


class TestPerBinOracle:
    """The binarize-then-code encoder emits what the per-bin one did."""

    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_random_block_sets(self, size, n):
        rng = np.random.default_rng(1000 * size + n)
        for density in (0.02, 0.15, 0.6):
            levels = _random_levels(rng, n, size, density, max_mag=40)
            _assert_matches_oracle((levels, False))

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_all_zero_blocks(self, size):
        _assert_matches_oracle((np.zeros((9, size, size), dtype=np.int32), False))

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_dense_blocks(self, size):
        rng = np.random.default_rng(size)
        _assert_matches_oracle((_random_levels(rng, 5, size, 1.0, 9), True))

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_last_position_only_blocks(self, size):
        # The final scan position codes no sig or last bin of its own.
        levels = np.zeros((4, size, size), dtype=np.int32)
        last = zigzag_order(size)[-1]
        levels.reshape(4, -1)[:, last] = [1, -1, 2, -300]
        levels[2].flat[zigzag_order(size)[:3]] = [5, 0, -1]
        _assert_matches_oracle((levels, False))

    def test_magnitudes_up_to_2_pow_20(self):
        rng = np.random.default_rng(20)
        levels = _random_levels(rng, 30, 8, 0.2, max_mag=2**20)
        levels[0, 0, 0] = 2**20
        levels[0, 0, 1] = -(2**20)
        levels[1, 0, 0] = 2**19 + 1  # an Exp-Golomb length boundary
        _assert_matches_oracle((levels, False))

    def test_luma_then_chroma_share_contexts(self):
        rng = np.random.default_rng(5)
        _assert_matches_oracle(
            (_random_levels(rng, 40, 8, 0.1, 12), False),
            (_random_levels(rng, 6, 16, 0.05, 12), False),
            (_random_levels(rng, 20, 8, 0.1, 12), True),
        )

    def test_long_carry_run(self):
        # Steer bypass bins to keep the carry point 2**32 inside the coding
        # interval: the top byte of low stays 0xFF and is held back, until
        # the final 1s carry into the whole run.
        oracle, bits = _PerBinEncoder(), []
        for i in range(3000):
            half = oracle._range >> 1
            bit = 1 if i >= 2900 or oracle._low + half <= 1 << 32 else 0
            oracle.encode_bypass(bit)
            bits.append(bit)
        new = CabacEncoder()
        for bit in bits:
            new.encode_bypass(bit)
        data = new.flush()
        assert data == oracle.flush()
        assert oracle.longest_carry_run >= 300
        dec = CabacDecoder(data)
        assert [dec.decode_bypass() for _ in bits] == bits

    def test_bin_level_methods(self, rng):
        new, oracle = CabacEncoder(), _PerBinEncoder()
        for step in range(400):
            kind = step % 3
            value = int(rng.integers(0, 2))
            if kind == 0:
                new.encode_bit(new.contexts.gt1, 1, value)
                oracle.encode_bit(oracle.contexts.gt1, 1, value)
            elif kind == 1:
                new.encode_bypass(value)
                oracle.encode_bypass(value)
            else:
                big = int(rng.integers(0, 5000))
                new.encode_bypass_eg0(big)
                oracle.encode_bypass_eg0(big)
        assert new.bins == oracle.bins
        assert new.flush() == oracle.flush()


def test_one_copy_of_the_range_coder():
    """Only the engine loop renormalizes: no second coder in the class."""
    tree = ast.parse(inspect.getsource(cabac_module.CabacEncoder))
    renormalizing = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(name, ast.Name) and name.id == "_TOP"
            for name in ast.walk(node)
        )
    }
    assert renormalizing == {"_encode_bins"}
