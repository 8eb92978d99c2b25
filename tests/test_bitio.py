"""Bit I/O: packing, alignment, reader/writer round trips.

The per-bit packer and the per-codeword Exp-Golomb scan that the
codeword-granular bit layer replaced live on below as oracles, held
equal: same bytes, same values, same deferred error, same position.
"""

from bisect import bisect_left
from typing import Optional

import numpy as np
import pytest

from repro.codec import decoder as decoder_module
from repro.codec.decoder import Decoder
from repro.codec.entropy_coding.bitio import BitReader, BitWriter, pack_bits
from repro.codec.entropy_coding.cavlc import (
    _block_positions,
    _earliest_coeff_error,
)
from repro.codec.entropy_coding.expgolomb import MAX_UE_ZEROS, ue_codes
from repro.codec.errors import (
    BitstreamError,
    CorruptPayload,
    TruncatedStream,
    raise_deferred,
)
from repro.codec.transform import zigzag_order
from repro.fuzz import DEFAULT_MAX_PIXELS, MUTATORS, mutate, seed_streams


def _oracle_pack_bits(values, lengths) -> bytes:
    """The per-bit packer: every bit of every codeword, MSB first."""
    values = np.asarray(values, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return b""
    repeated_values = np.repeat(values, lengths)
    repeated_lengths = np.repeat(lengths, lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    within = np.arange(total, dtype=np.int64) - starts
    shifts = repeated_lengths - 1 - within
    bits = ((repeated_values >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits).tobytes()


def _oracle_scan_ue_array(reader, count, limit):
    """The per-codeword scan: one bisection into the window's one-bit
    positions per codeword (usable as a ``BitReader`` method)."""
    bits = reader._bits
    size = bits.size
    start = reader._pos
    window = bits[start : start + count * (2 * limit + 1) + limit + 1]
    ones = np.flatnonzero(window).tolist()
    zeros = np.empty(count, dtype=np.int64)
    one_pos = np.empty(count, dtype=np.int64)
    cur = 0
    j = 0
    error: Optional[Exception] = None
    n_ok = 0
    for _ in range(count):
        avail = size - start - cur
        if avail <= 0:
            error = TruncatedStream("bitstream exhausted")
            break
        j = bisect_left(ones, cur, j)
        if j == len(ones) or ones[j] - cur > limit:
            if avail >= limit + 1:
                error = CorruptPayload(
                    f"zero run exceeds {limit} bits (runaway Exp-Golomb prefix)"
                )
            else:
                error = TruncatedStream("no terminating 1 bit found")
            break
        z = ones[j] - cur
        if start + cur + 2 * z + 1 > size:
            error = TruncatedStream(
                f"bitstream exhausted: wanted {z + 1} bits, "
                f"have {size - start - ones[j]}"
            )
            break
        zeros[n_ok] = z
        one_pos[n_ok] = ones[j]
        cur += 2 * z + 1
        n_ok += 1
    reader._pos = start + cur
    if n_ok == 0:
        return np.zeros(0, dtype=np.int64), error
    lens = zeros[:n_ok] + 1
    seg = np.cumsum(lens) - lens
    total = int(lens.sum())
    offs = np.arange(total, dtype=np.int64) - np.repeat(seg, lens)
    bitvals = window[np.repeat(one_pos[:n_ok], lens) + offs].astype(np.int64)
    shifts = np.repeat(lens, lens) - 1 - offs
    values = np.add.reduceat(bitvals << shifts, seg) - 1
    return values, error


def _oracle_decode_levels_cavlc(reader, n_blocks, size):
    """The block parse one block per Python iteration, scanning symbols
    in chunks of at least 256."""
    if n_blocks < 0:
        raise CorruptPayload(f"block count must be non-negative, got {n_blocks}")
    scan = zigzag_order(size)
    max_pos = size * size
    out = np.zeros((n_blocks, max_pos), dtype=np.int32)
    if n_blocks == 0:
        return out.reshape(n_blocks, size, size)
    chain_start = reader.position
    syms: list = []
    deferred: Optional[Exception] = None

    def _ensure(n):
        nonlocal deferred
        while len(syms) < n and deferred is None:
            values, deferred = reader.scan_ue_array(
                max(256, n - len(syms)), MAX_UE_ZEROS
            )
            syms.extend(values.tolist())
        return len(syms)

    starts_l, nnz_l, caps_l = [], [], []
    pending: Optional[Exception] = None
    pending_idx = 0
    ptr = 0
    for b in range(n_blocks):
        if _ensure(ptr + 1) < ptr + 1:
            pending, pending_idx = deferred, len(syms)
            break
        nnz = syms[ptr]
        ptr += 1
        if nnz > max_pos:
            pending = CorruptPayload(f"corrupt stream: {nnz} coefficients in block {b}")
            pending_idx = ptr - 1
            break
        starts_l.append(ptr)
        nnz_l.append(nnz)
        have = min(_ensure(ptr + 2 * nnz), ptr + 2 * nnz) - ptr
        caps_l.append(have)
        if have < 2 * nnz:
            pending, pending_idx = deferred, len(syms)
            break
        ptr += 2 * nnz
    syms_arr = np.array(syms, dtype=np.int64)
    starts = np.array(starts_l, dtype=np.int64)
    caps = np.array(caps_l, dtype=np.int64)
    coeff_error = _earliest_coeff_error(syms_arr, starts, caps, max_pos)
    if coeff_error is not None and (pending is None or coeff_error[0] < pending_idx):
        raise_deferred(coeff_error[1])
    if pending is not None:
        raise_deferred(pending)
    nnzs = np.array(nnz_l, dtype=np.int64)
    if nnzs.sum():
        blk, run_idx, pos = _block_positions(syms_arr, starts, nnzs)
        index = syms_arr[run_idx + 1]
        out[blk, scan[pos]] = np.where(index % 2, (index + 1) // 2, -(index // 2))
    if ptr < len(syms):
        used = syms_arr[:ptr] + 1
        nbits = np.frexp(used.astype(np.float64))[1].astype(np.int64)
        reader.seek(chain_start + int((2 * nbits - 1).sum()))
    return out.reshape(n_blocks, size, size)


class TestPackBits:
    def test_single_byte(self):
        out = pack_bits(np.array([0b10110010]), np.array([8]))
        assert out == bytes([0b10110010])

    def test_msb_first_across_boundary(self):
        out = pack_bits(np.array([0b1, 0b0101]), np.array([1, 4]))
        # bits: 1 0101 -> 10101000 after zero padding
        assert out == bytes([0b10101000])

    def test_zero_length_entries(self):
        out = pack_bits(np.array([5, 0, 3]), np.array([3, 0, 2]))
        # 101 11 -> 10111000
        assert out == bytes([0b10111000])

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == b""

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([-1]), np.array([4]))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1]), np.array([70]))

    def test_rejects_oversize_value_like_write(self):
        # 5 needs three bits; keeping its low two would emit `01`.
        with pytest.raises(ValueError, match="value 5 does not fit in 2 bits"):
            pack_bits(np.array([5]), np.array([2]))
        with pytest.raises(ValueError, match="value 1 does not fit in 0 bits"):
            pack_bits(np.array([0, 1]), np.array([3, 0]))


class TestBitWriter:
    def test_write_and_length(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.write(0b1010, 4)
        assert writer.bit_length == 5
        assert writer.getvalue() == bytes([0b11010000])

    def test_write_rejects_overflow_value(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            writer.write(8, 3)

    def test_write_zero_bits_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0

    def test_write_array(self):
        writer = BitWriter()
        writer.write_array(np.array([3, 1]), np.array([2, 1]))
        assert writer.bit_length == 3
        assert writer.getvalue() == bytes([0b11100000])

    def test_write_array_rejects_oversize_value_like_write(self):
        with pytest.raises(ValueError) as scalar:
            BitWriter().write(5, 2)
        writer = BitWriter()
        with pytest.raises(ValueError) as batch:
            writer.write_array(np.array([1, 5]), np.array([1, 2]))
        assert str(batch.value) == str(scalar.value) == "value 5 does not fit in 2 bits"
        assert writer.bit_length == 0  # nothing of the bad batch was kept

    def test_align(self):
        writer = BitWriter()
        writer.write(1, 3)
        writer.align()
        assert writer.bit_length == 8
        writer.align()  # already aligned: no-op
        assert writer.bit_length == 8

    def test_write_bytes(self):
        writer = BitWriter()
        writer.write_bytes(b"\xab\xcd")
        assert writer.getvalue() == b"\xab\xcd"

    def test_write_bytes_unaligned(self):
        writer = BitWriter()
        writer.write(1, 4)
        writer.write_bytes(b"\xff")
        assert writer.bit_length == 12

    def test_empty(self):
        assert BitWriter().getvalue() == b""


class TestBitReader:
    def test_read_sequence(self):
        reader = BitReader(bytes([0b10110100]))
        assert reader.read(1) == 1
        assert reader.read(3) == 0b011
        assert reader.read(4) == 0b0100
        assert reader.remaining == 0

    def test_read_bit(self):
        reader = BitReader(bytes([0b10000000]))
        assert reader.read_bit() == 1
        assert reader.read_bit() == 0

    def test_eof(self):
        reader = BitReader(b"\x00")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_count_zeros(self):
        reader = BitReader(bytes([0b00010000]))
        assert reader.count_zeros() == 3
        assert reader.read_bit() == 1

    def test_count_zeros_without_one(self):
        reader = BitReader(b"\x00")
        with pytest.raises(EOFError):
            reader.count_zeros()

    def test_align_and_read_bytes(self):
        reader = BitReader(bytes([0b10100000, 0xAB, 0xCD]))
        reader.read(3)
        reader.align()
        assert reader.position == 8
        assert reader.read_bytes(2) == b"\xab\xcd"

    def test_read_bytes_requires_alignment(self):
        reader = BitReader(b"\xff\xff")
        reader.read(3)
        with pytest.raises(TypeError, match="alignment"):
            reader.read_bytes(1)

    def test_count_zeros_limit(self):
        reader = BitReader(bytes([0x00, 0x01]))  # 15 zeros then a 1
        with pytest.raises(CorruptPayload):
            reader.count_zeros(8)

    def test_count_zeros_limit_allows_exact_run(self):
        reader = BitReader(bytes([0x01]))  # 7 zeros then a 1
        assert reader.count_zeros(7) == 7

    def test_count_zeros_truncation_beats_limit(self):
        # Fewer bits remain than the limit allows: truncation, not corruption.
        reader = BitReader(b"\x00")
        with pytest.raises(TruncatedStream):
            reader.count_zeros(32)

    def test_seek_pattern_finds_marker(self):
        reader = BitReader(b"\x01\x02RSYN\x03")
        assert reader.seek_pattern(b"RSYN")
        assert reader.position == 16
        assert reader.read_bytes(4) == b"RSYN"

    def test_seek_pattern_miss_consumes_stream(self):
        reader = BitReader(b"\x01\x02\x03")
        assert not reader.seek_pattern(b"RSYN")
        assert reader.remaining == 0


class TestRoundTrip:
    def test_writer_reader(self, rng):
        values = rng.integers(0, 2**16, size=200)
        lengths = rng.integers(17, 20, size=200)
        writer = BitWriter()
        for v, n in zip(values.tolist(), lengths.tolist()):
            writer.write(v, n)
        reader = BitReader(writer.getvalue())
        for v, n in zip(values.tolist(), lengths.tolist()):
            assert reader.read(n) == v


class TestVectorizedReads:
    def test_read_bits_matches_read_bit(self, rng):
        data = rng.integers(0, 256, size=16).astype(np.uint8).tobytes()
        r1, r2 = BitReader(data), BitReader(data)
        assert r1.read_bits(40).tolist() == [r2.read_bit() for _ in range(40)]
        assert r1.position == r2.position

    def test_read_bits_truncation(self):
        reader = BitReader(b"\xff")
        with pytest.raises(TruncatedStream):
            reader.read_bits(9)

    def test_write_bits_mirrors_read_bits(self, rng):
        bits = rng.integers(0, 2, size=77)
        writer = BitWriter()
        writer.write_bits(bits)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(77).tolist() == bits.tolist()

    def test_write_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(np.array([0, 2]))

    def test_seek_rewinds(self):
        reader = BitReader(b"\xa5")
        reader.read(5)
        reader.seek(1)
        assert reader.position == 1
        assert reader.read(7) == 0x25

    def test_seek_rejects_out_of_range(self):
        with pytest.raises(TypeError):
            BitReader(b"\x00").seek(9)


class TestScanUeArray:
    """The vectorized Exp-Golomb scanner mirrors count_zeros + read."""

    def _stream(self, values):
        from repro.codec.entropy_coding.expgolomb import write_ue

        writer = BitWriter()
        for v in values:
            write_ue(writer, v)
        return writer.getvalue()

    def test_decodes_values_and_position(self, rng):
        values = rng.integers(0, 5000, size=300).tolist()
        reader = BitReader(self._stream(values))
        decoded, error = reader.scan_ue_array(len(values), 32)
        assert error is None
        assert decoded.tolist() == values
        assert reader.remaining < 8  # only byte padding left

    def test_partial_decode_defers_truncation(self):
        reader = BitReader(self._stream([3, 4, 5])[:1])
        decoded, error = reader.scan_ue_array(3, 32)
        assert decoded.tolist() == [3]  # ue(3)+ue(4) span 5+5 bits > 8
        assert isinstance(error, TruncatedStream)

    def test_runaway_prefix_deferred_as_corruption(self):
        reader = BitReader(b"\x00" * 6)  # 48 zero bits, limit 32
        decoded, error = reader.scan_ue_array(1, 32)
        assert decoded.size == 0
        assert isinstance(error, CorruptPayload)

    def test_exhausted_stream(self):
        decoded, error = BitReader(b"").scan_ue_array(1, 32)
        assert decoded.size == 0
        assert isinstance(error, TruncatedStream)

    def test_matches_scalar_reader_on_random_streams(self, rng):
        from repro.codec.entropy_coding.expgolomb import MAX_UE_ZEROS, read_ue

        for _ in range(50):
            data = rng.integers(0, 256, size=int(rng.integers(1, 24)))
            data = data.astype(np.uint8).tobytes()
            scalar = BitReader(data)
            got, scalar_error = [], None
            try:
                while True:
                    got.append(read_ue(scalar))
            except (TruncatedStream, CorruptPayload) as exc:
                scalar_error = exc
            batch = BitReader(data)
            decoded, error = batch.scan_ue_array(len(got) + 1, MAX_UE_ZEROS)
            assert decoded.tolist() == got
            assert type(error) is type(scalar_error)
            assert str(error) == str(scalar_error)


def _fitting_values(rng, lengths):
    """Random values with ``values[i] < 2**lengths[i]``."""
    top = rng.integers(0, np.iinfo(np.int64).max, size=lengths.size, dtype=np.int64)
    return top >> (63 - lengths)


class TestPackOracle:
    """The codeword packer emits exactly the per-bit packer's bytes."""

    def test_pack_bits_matches_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 300))
            lengths = rng.integers(0, 64, size=n)
            lengths[rng.random(n) < 0.2] = 0
            values = _fitting_values(rng, lengths)
            assert pack_bits(values, lengths) == _oracle_pack_bits(values, lengths)

    def test_writer_matches_oracle(self, rng):
        """Arrays, scalars, aligned and unaligned bytes, in any order; a
        ``getvalue`` midway changes nothing after it."""
        for _ in range(150):
            writer = BitWriter()
            values, lengths = [], []
            for _ in range(int(rng.integers(1, 14))):
                op = int(rng.integers(0, 5))
                if op == 0:
                    n_bits = rng.integers(0, 64, size=int(rng.integers(0, 40)))
                    chunk = _fitting_values(rng, n_bits)
                    writer.write_array(chunk, n_bits)
                    values += chunk.tolist()
                    lengths += n_bits.tolist()
                elif op == 1:
                    nbits = int(rng.integers(0, 64))
                    value = int(_fitting_values(rng, np.array([nbits]))[0])
                    writer.write(value, nbits)
                    values.append(value)
                    lengths.append(nbits)
                elif op == 2:
                    assert writer.getvalue() == _oracle_pack_bits(values, lengths)
                else:
                    if op == 3:  # aligned: kept as a segment
                        lengths.append((-sum(lengths)) % 8)
                        values.append(0)
                        writer.align()
                    payload = rng.integers(0, 256, size=int(rng.integers(0, 20)))
                    writer.write_bytes(payload.astype(np.uint8).tobytes())
                    values += payload.tolist()
                    lengths += [8] * payload.size
            assert writer.bit_length == sum(lengths)
            assert writer.getvalue() == _oracle_pack_bits(values, lengths)


def _random_stream(rng, kind):
    """Random bytes, sparse ones (long zero runs), a truncated Exp-Golomb
    stream, or one with a runaway all-zeros prefix spliced in."""
    if kind == 0:
        return rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8).tobytes()
    if kind == 1:
        density = float(rng.choice([0.01, 0.05, 0.3]))
        bits = rng.random(8 * int(rng.integers(0, 200))) < density
        return np.packbits(bits).tobytes()
    codes, lengths = ue_codes(rng.geometric(0.4, size=int(rng.integers(0, 400))) - 1)
    data = pack_bits(codes, lengths)
    if kind == 2:
        return data[: int(rng.integers(0, len(data) + 1))]
    cut = int(rng.integers(0, len(data) + 1))
    return data[:cut] + bytes(int(rng.integers(1, 12))) + data[cut:]


class TestScanOracle:
    """``scan_ue_array`` returns the per-codeword scan's values, deferred
    error (type and message) and final position."""

    @staticmethod
    def _both(data, start, count, limit):
        new, old = BitReader(data), BitReader(data)
        new.seek(start)
        old.seek(start)
        got = new.scan_ue_array(count, limit)
        want = _oracle_scan_ue_array(old, count, limit)
        return (got, new.position), (want, old.position)

    def _assert_same(self, data, start, count, limit):
        ((values, error), pos), ((o_values, o_error), o_pos) = self._both(
            data, start, count, limit
        )
        assert values.tolist() == o_values.tolist()
        assert type(error) is type(o_error)
        assert str(error) == str(o_error)
        assert pos == o_pos
        # A deferred error holds no traceback, so no stack frame (and none
        # of its arrays) outlives the scan.
        assert error is None or error.__traceback__ is None

    def test_random_truncated_and_runaway_streams(self, rng):
        for trial in range(400):
            data = _random_stream(rng, trial % 4)
            start = int(rng.integers(0, 8 * len(data) + 1))
            limit = int(rng.choice([0, 1, 3, 8, MAX_UE_ZEROS]))
            count = int(rng.integers(0, 500))
            self._assert_same(data, start, count, limit)

    def test_streams_longer_than_one_window(self, rng):
        codes, lengths = ue_codes(rng.geometric(0.3, size=40_000) - 1)
        data = pack_bits(codes, lengths)
        assert 8 * len(data) > 1 << 16
        self._assert_same(data, 0, codes.size, MAX_UE_ZEROS)
        self._assert_same(data, 3, codes.size + 10, MAX_UE_ZEROS)


class TestDifferentialDecode:
    """Fuzz mutants decode alike through the oracle parser (per-codeword
    scan, one Python iteration per block) and the table-driven one: the
    fuzz oracle only flags taxonomy violations, so a moved verdict would
    otherwise go unnoticed."""

    CASES = 40

    @staticmethod
    def _outcome(data, strict):
        try:
            result = Decoder().decode(data, strict=strict, max_pixels=DEFAULT_MAX_PIXELS)
        except Exception as exc:  # compared, not judged
            return type(exc), str(exc)
        pixels = [frame.y.tobytes() + frame.u.tobytes() + frame.v.tobytes()
                  for frame in result.video]
        return result.concealed, pixels

    def test_fuzz_mutants_decode_alike(self, monkeypatch):
        seeds = seed_streams()
        names = sorted(MUTATORS)
        parsed = 0
        for case in range(self.CASES):
            rng = np.random.default_rng((31, case))
            _, clean = seeds[int(rng.integers(0, len(seeds)))]
            data = mutate(names[int(rng.integers(0, len(names)))], clean, rng)
            new = [self._outcome(data, strict) for strict in (False, True)]
            with monkeypatch.context() as patch:
                patch.setattr(BitReader, "scan_ue_array", _oracle_scan_ue_array)
                patch.setattr(
                    decoder_module, "decode_levels_cavlc", _oracle_decode_levels_cavlc
                )
                old = [self._outcome(data, strict) for strict in (False, True)]
            assert new == old, f"case {case}"
            parsed += not isinstance(new[0][0], type)
        assert parsed > self.CASES // 2  # most mutants decode past the header


class TestCavlcParseOracle:
    """``decode_levels_cavlc`` parses exactly as the one-block-per-iteration
    oracle on clean, truncated and bit-flipped residual sections: same
    levels and final position, or the same error type and message."""

    @staticmethod
    def _parse(decode, data, n_blocks, size):
        reader = BitReader(data)
        try:
            levels = decode(reader, n_blocks, size)
        except BitstreamError as exc:
            return type(exc), str(exc)
        return levels.tolist(), reader.position

    def test_matches_oracle(self, rng):
        from repro.codec.entropy_coding.cavlc import (
            decode_levels_cavlc,
            encode_levels_cavlc,
        )

        for _ in range(300):
            size = int(rng.choice([8, 16]))
            n_blocks = int(rng.integers(1, 12))
            levels = np.zeros((n_blocks, size, size), dtype=np.int32)
            mask = rng.random(levels.shape) < float(rng.choice([0.02, 0.2, 0.8]))
            levels[mask] = rng.integers(1, 40, size=int(mask.sum())) * rng.choice([-1, 1])
            writer = BitWriter()
            encode_levels_cavlc(writer, levels)
            data = bytearray(writer.getvalue() + bytes(int(rng.integers(0, 3))))
            for _ in range(int(rng.integers(0, 4))):
                if data:
                    data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
            data = bytes(data[: int(rng.integers(0, len(data) + 1))])
            assert self._parse(decode_levels_cavlc, data, n_blocks, size) == (
                self._parse(_oracle_decode_levels_cavlc, data, n_blocks, size)
            )
