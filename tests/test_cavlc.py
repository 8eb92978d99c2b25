"""CAVLC coefficient coding: round trips, sparsity, corruption."""

import numpy as np
import pytest

from repro.codec.entropy_coding.bitio import BitReader, BitWriter
from repro.codec.entropy_coding.cavlc import decode_levels_cavlc, encode_levels_cavlc
from repro.codec.errors import CorruptPayload


def _roundtrip(levels):
    writer = BitWriter()
    encode_levels_cavlc(writer, levels)
    reader = BitReader(writer.getvalue())
    return decode_levels_cavlc(reader, levels.shape[0], levels.shape[1])


class TestRoundTrip:
    def test_zero_blocks(self):
        levels = np.zeros((5, 8, 8), dtype=np.int32)
        assert np.array_equal(_roundtrip(levels), levels)

    def test_random_sparse(self, rng):
        levels = np.zeros((10, 8, 8), dtype=np.int32)
        mask = rng.random((10, 8, 8)) < 0.1
        levels[mask] = rng.integers(-30, 31, size=int(mask.sum()))
        levels[mask & (levels == 0)] = 1
        levels[~mask] = 0
        assert np.array_equal(_roundtrip(levels), levels)

    def test_dense_block(self, rng):
        levels = rng.integers(1, 5, size=(2, 8, 8)).astype(np.int32)
        assert np.array_equal(_roundtrip(levels), levels)

    def test_single_trailing_coefficient(self):
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 7, 7] = -3
        assert np.array_equal(_roundtrip(levels), levels)

    def test_large_transform(self, rng):
        levels = np.zeros((3, 16, 16), dtype=np.int32)
        levels[:, 0, 0] = rng.integers(1, 100, size=3)
        assert np.array_equal(_roundtrip(levels), levels)

    def test_empty_array(self):
        levels = np.zeros((0, 8, 8), dtype=np.int32)
        writer = BitWriter()
        assert encode_levels_cavlc(writer, levels) == 0


class TestEfficiency:
    def test_zero_block_costs_one_bit(self):
        writer = BitWriter()
        encode_levels_cavlc(writer, np.zeros((1, 8, 8), dtype=np.int32))
        assert writer.bit_length == 1

    def test_sparser_is_smaller(self, rng):
        sparse = np.zeros((8, 8, 8), dtype=np.int32)
        sparse[:, 0, 0] = 1
        dense = rng.integers(1, 3, size=(8, 8, 8)).astype(np.int32)
        w1, w2 = BitWriter(), BitWriter()
        encode_levels_cavlc(w1, sparse)
        encode_levels_cavlc(w2, dense)
        assert w1.bit_length < w2.bit_length

    def test_symbol_count(self):
        levels = np.zeros((2, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 4
        writer = BitWriter()
        # block0: nnz + run + level = 3 symbols; block1: nnz = 1 symbol.
        assert encode_levels_cavlc(writer, levels) == 4


class TestValidation:
    def test_encode_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            encode_levels_cavlc(BitWriter(), np.zeros((8, 8), dtype=np.int32))

    def test_encode_rejects_float_levels(self):
        # Float levels would be truncated (0.5 to a zero level) into a
        # stream the decoder rejects as corrupt.
        levels = np.zeros((2, 8, 8))
        levels[0, 0, :2] = [0.5, 3.0]
        levels[1, 0, 0] = -2.7
        with pytest.raises(ValueError, match="integers"):
            encode_levels_cavlc(BitWriter(), levels)

    def test_decode_rejects_negative_count_as_corruption(self):
        # The count derives from stream-read headers: a corrupt stream must
        # flow through the BitstreamError taxonomy (strict=False conceals),
        # not crash with a TypeError.
        with pytest.raises(CorruptPayload):
            decode_levels_cavlc(BitReader(b"\xff"), -1, 8)

    def test_decode_detects_corrupt_run(self):
        writer = BitWriter()
        levels = np.zeros((1, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 1
        encode_levels_cavlc(writer, levels)
        # Claim 70 coefficients in an 8x8 block.
        bad = BitWriter()
        from repro.codec.entropy_coding.expgolomb import write_ue

        write_ue(bad, 70)
        with pytest.raises(ValueError, match="corrupt"):
            decode_levels_cavlc(BitReader(bad.getvalue()), 1, 8)
