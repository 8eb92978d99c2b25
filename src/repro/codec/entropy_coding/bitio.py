"""Bit-granular I/O that works in codewords and bytes, never bit by bit.

``BitWriter`` buffers (value, length) pairs -- including whole numpy arrays
of codewords at once -- and packs them by placing each codeword into
big-endian 64-bit words at its bit offset, so the cost is per codeword, not
per bit.  Bytes written at a byte boundary (packet payloads, CABAC chunks)
are kept as they are and joined, never re-packed.  ``BitReader`` mirrors it
with a table-driven scanner for the one self-delimiting code family the
codec uses (Exp-Golomb), so both directions of the CAVLC path entropy code
thousands of blocks per frame without a per-codeword Python loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.codec.errors import CorruptPayload, TruncatedStream

__all__ = ["BitWriter", "BitReader", "pack_bits", "walk_chain"]

_MAX_BITS = 63  # codewords are handled as int64

#: Most bits one Exp-Golomb scan window covers.  The pointer-doubling
#: tables hold one index per bit per level, so this bounds their memory;
#: longer runs of codewords take several windows.
_MAX_WINDOW = 1 << 16

#: Pointer-doubling levels over a scan window.  Each level costs one pass
#: over the window; the walk then takes one table lookup per
#: ``2**(_LEVELS - 1)`` codewords.
_LEVELS = 7


def _check_codewords(values: np.ndarray, lengths: np.ndarray) -> None:
    """Raise ``ValueError`` unless every ``values[i]`` fits ``lengths[i]`` bits."""
    if (lengths & ~_MAX_BITS).any():  # _MAX_BITS = 2**6 - 1: outside [0, 63]
        raise ValueError(f"bit lengths must be in [0, {_MAX_BITS}]")
    overflow = values >> lengths  # non-zero for a negative value, too
    if overflow.any():
        if values.min() < 0:
            raise ValueError("codeword values must be non-negative")
        index = np.flatnonzero(overflow)[0]
        raise ValueError(
            f"value {values[index]} does not fit in {lengths[index]} bits"
        )


def _pack(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """:func:`pack_bits` on codewords already known to be valid.

    Each codeword is shifted into the word that holds its last bit; the
    high bits that fall off the top are the part that belongs to the word
    before, which receives ``value >> (64 - shift)``.  Only the first
    codeword ending in a word can start in the one before.  Codewords
    sharing a word occupy disjoint bits, so their sum is their OR.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total == 0:
        return b""
    # Bit index of each codeword's last bit, one word on: word 0 is a dummy
    # that takes the (zero) spill of the codewords that start the stream.
    last = ends + 63
    word = last >> 6
    shift = (63 - (last & 63)).view(np.uint64)
    codes = values.view(np.uint64)
    first = np.concatenate(([0], np.flatnonzero(word[1:] != word[:-1]) + 1))
    head = word[first]
    words = np.zeros(((total + 63) >> 6) + 1, dtype=np.uint64)
    words[head] = np.add.reduceat(codes << shift, first)
    words[head - 1] += codes[first] >> (64 - shift[first])
    return words[1:].byteswap().tobytes()[: (total + 7) >> 3]


def pack_bits(values: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack codewords MSB-first into bytes (zero-padded to a byte boundary).

    Args:
        values: Non-negative codeword values, ``values[i] < 2**lengths[i]``;
            a value that does not fit raises ``ValueError``.
        lengths: Bit length of each codeword (may be 0; such entries emit
            nothing).
    """
    values = np.asarray(values, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape or values.ndim != 1:
        raise ValueError("values and lengths must be 1-D arrays of equal length")
    if values.size == 0:
        return b""
    _check_codewords(values, lengths)
    return _pack(values, lengths)


class BitWriter:
    """Accumulates codewords; call :meth:`getvalue` to pack them.

    The output so far is a list of byte segments plus the codewords written
    since the last one.  A byte-aligned :meth:`write_bytes` packs those
    codewords into a segment and appends its payload as the next segment
    unchanged; :meth:`getvalue` joins the segments.
    """

    def __init__(self) -> None:
        self._segments: List[bytes] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._bits = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._bits

    def write(self, value: int, nbits: int) -> None:
        """Append a single ``nbits``-wide codeword."""
        if nbits < 0 or nbits > _MAX_BITS:
            raise ValueError(f"nbits must be in [0, {_MAX_BITS}], got {nbits}")
        if value < 0 or (nbits < _MAX_BITS and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        if nbits == 0:
            return
        self._chunks.append(
            (np.array([value], dtype=np.int64), np.array([nbits], dtype=np.int64))
        )
        self._bits += nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self.write(bit, 1)

    def write_bits(self, bits: np.ndarray) -> None:
        """Append many single bits at once (mirror of
        :meth:`BitReader.read_bits`)."""
        bits = np.asarray(bits, dtype=np.int64)
        if bits.ndim != 1:
            raise ValueError("bits must be a 1-D array")
        if np.any((bits < 0) | (bits > 1)):
            raise ValueError("bits must be 0 or 1")
        self.write_array(bits, np.ones(bits.size, dtype=np.int64))

    def write_array(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append many codewords at once (the vectorized fast path).

        Raises ``ValueError`` here, as :meth:`write` does, for a length
        outside ``[0, 63]`` or a value that does not fit its length.
        """
        values = np.asarray(values, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if values.shape != lengths.shape or values.ndim != 1:
            raise ValueError("values and lengths must be 1-D arrays of equal shape")
        if values.size == 0:
            return
        _check_codewords(values, lengths)
        self._chunks.append((values, lengths))
        self._bits += int(lengths.sum())

    def write_bytes(self, payload: bytes) -> None:
        """Append raw bytes (packet payloads, CABAC chunks).

        At a byte boundary the payload is kept as one segment, never
        re-packed.  The writer need not be byte-aligned; otherwise the
        payload is treated as a sequence of 8-bit codewords.
        """
        if not payload:
            return
        if self._bits % 8:
            arr = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
            self._chunks.append((arr, np.full(arr.size, 8, dtype=np.int64)))
        else:
            if self._chunks:
                self._segments.append(self._packed_chunks())
                self._chunks = []
            self._segments.append(bytes(payload))
        self._bits += 8 * len(payload)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        rem = (-self._bits) % 8
        if rem:
            self.write(0, rem)

    def _packed_chunks(self) -> bytes:
        if len(self._chunks) == 1:
            return _pack(*self._chunks[0])
        values = np.concatenate([c[0] for c in self._chunks])
        lengths = np.concatenate([c[1] for c in self._chunks])
        return _pack(values, lengths)

    def getvalue(self) -> bytes:
        """Pack everything written so far into bytes."""
        if self._chunks:
            return b"".join(self._segments + [self._packed_chunks()])
        return b"".join(self._segments)


def walk_chain(step: np.ndarray, count: int) -> np.ndarray:
    """``[0, step[0], step[step[0]], ...]``, at most ``count + 1`` entries.

    ``step`` must increase along every walk, and its last index is the
    absorbing end state, which the result stops short of.  Pointer
    doubling builds up to :data:`_LEVELS` tables, level ``k`` jumping
    ``2**k`` steps; the top one is walked by table lookup, and expanding
    that walk back down the levels interleaves each level's landing points.
    """
    end = step.size - 1
    jumps = [step]
    while (
        len(jumps) < _LEVELS
        and (1 << len(jumps)) <= count
        and jumps[-1][0] != end
    ):
        jumps.append(jumps[-1].take(jumps[-1]))
    top = jumps.pop()
    stride = 1 << len(jumps)
    coarse = [0]
    while coarse[-1] != end and len(coarse) * stride <= count:
        coarse.append(top.item(coarse[-1]))
    path = np.array(coarse, dtype=step.dtype)
    for jump in reversed(jumps):
        finer = np.empty(2 * path.size, dtype=step.dtype)
        finer[0::2] = path
        finer[1::2] = jump.take(path)
        path = finer
    return path[: min(count + 1, int(np.searchsorted(path, end)))]


def _scan_window(
    window: np.ndarray, count: int, limit: int
) -> Tuple[np.ndarray, int]:
    """Values of the first (up to ``count``) Exp-Golomb codewords lying
    wholly inside ``window`` with a zero prefix of at most ``limit``, and
    the bit offset after the last of them.

    One table gives every boundary: ``marker[p]``, the first 1-bit at or
    after ``p``.  A codeword starting at ``p`` has ``marker[p] - p`` zeros
    and is followed by the next at ``2 * marker[p] - p + 1``.
    """
    size = window.size
    offsets = np.arange(size)
    marker = np.where(window, offsets, size)
    marker = np.minimum.accumulate(marker[::-1])[::-1]
    # step[p]: where the codeword at p ends, or the end state size + 1 when
    # it runs past the window or its zero prefix exceeds `limit`; the
    # window's end (index size) leads there too.
    step = np.empty(size + 2, dtype=offsets.dtype)
    step[size:] = size + 1
    after = step[:size]
    np.subtract(marker, offsets, out=after)
    runaway = after > limit
    after += marker
    after += 1
    np.minimum(after, size + 1, out=after)
    np.copyto(after, size + 1, where=runaway)
    path = walk_chain(step, count)
    starts = path[:-1]
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    marks = marker.take(starts)
    zeros = (marks - starts).astype(np.uint64)
    # A codeword's value is its z + 1 bits from the marker on (at most 63),
    # so the 128 bits from the marker's byte cover them.  `words` holds the
    # big-endian 64 bits at byte 8 * j + k at index k * n_words + j.
    packed = np.packbits(window).tobytes() + bytes(24)
    n_words = (len(packed) - 7) // 8
    words = np.concatenate(
        [np.frombuffer(packed, ">u8", n_words, k) for k in range(8)]
    )
    byte = marks >> 3
    at = (byte & 7) * n_words + (byte >> 3)
    high = words.take(at)
    low = words.take(at + 1)  # the 64 bits 8 bytes on
    skip = (marks & 7).astype(np.uint64)
    head = (high << skip) | (low >> (np.uint64(64) - skip))
    values = (head >> (np.uint64(63) - zeros)).astype(np.int64) - 1
    return values, int(path[-1])


class BitReader:
    """Sequential MSB-first bit reader over a byte string."""

    def __init__(self, data: bytes) -> None:
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self._pos = 0

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left in the buffer."""
        return int(self._bits.size - self._pos)

    def read(self, nbits: int) -> int:
        """Read ``nbits`` as an unsigned integer."""
        if nbits < 0 or nbits > _MAX_BITS:
            raise TypeError(f"nbits must be in [0, {_MAX_BITS}], got {nbits}")
        if nbits == 0:
            return 0
        if self._pos + nbits > self._bits.size:
            raise TruncatedStream(
                f"bitstream exhausted: wanted {nbits} bits, "
                f"have {self._bits.size - self._pos}"
            )
        chunk = self._bits[self._pos : self._pos + nbits]
        self._pos += nbits
        value = 0
        for bit in chunk.tolist():
            value = (value << 1) | bit
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._pos >= self._bits.size:
            raise TruncatedStream("bitstream exhausted")
        bit = int(self._bits[self._pos])
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> np.ndarray:
        """Read ``count`` single bits as a 0/1 array (vectorized
        :meth:`read_bit`)."""
        if count < 0:
            raise TypeError(f"count must be non-negative, got {count}")
        if self._pos + count > self._bits.size:
            raise TruncatedStream("bitstream exhausted")
        out = self._bits[self._pos : self._pos + count].astype(np.int64)
        self._pos += count
        return out

    def seek(self, bit_position: int) -> None:
        """Set the absolute bit position.

        Used to rewind after a speculative batch decode consumed more
        codewords than the caller's parse actually needed.
        """
        if bit_position < 0 or bit_position > self._bits.size:
            raise TypeError(
                f"bit position {bit_position} outside [0, {self._bits.size}]"
            )
        self._pos = int(bit_position)

    def read_array(self, lengths: np.ndarray) -> np.ndarray:
        """Read one codeword per entry of ``lengths`` (mirror of
        :meth:`BitWriter.write_array`; the caller supplies the bit lengths,
        which the stream itself does not delimit)."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1:
            raise TypeError("lengths must be a 1-D array")
        return np.array(
            [self.read(int(nbits)) for nbits in lengths], dtype=np.int64
        )

    def count_zeros(self, limit: Optional[int] = None) -> int:
        """Consume and count zero bits up to (not including) the next 1.

        This is the leading-zero scan of Exp-Golomb decoding.  With a
        ``limit``, at most ``limit + 1`` bits are examined and a run of
        more than ``limit`` zeros raises :class:`CorruptPayload` -- a
        bounded scan, so an all-zeros tail costs O(limit), not O(stream).
        """
        if limit is None:
            rest = self._bits[self._pos :]
        else:
            if limit < 0:
                raise TypeError(f"limit must be non-negative, got {limit}")
            rest = self._bits[self._pos : self._pos + limit + 1]
        if rest.size == 0:
            raise TruncatedStream("bitstream exhausted")
        nz = np.flatnonzero(rest)
        if nz.size == 0:
            if limit is not None and rest.size == limit + 1:
                raise CorruptPayload(
                    f"zero run exceeds {limit} bits (runaway Exp-Golomb prefix)"
                )
            raise TruncatedStream("no terminating 1 bit found")
        zeros = int(nz[0])
        self._pos += zeros
        return zeros

    def scan_ue_array(
        self, count: int, limit: int
    ) -> Tuple[np.ndarray, Optional[Exception]]:
        """Decode up to ``count`` Exp-Golomb codewords (vectorized).

        Codeword boundaries come from a table over a window of the stream
        (see :func:`_scan_window`).  The first window holds ``count + limit
        + 1`` bits, the fewest ``count`` codewords and a failing prefix scan
        can occupy; each further one starts after the last decoded codeword
        and is twice as long, so the bits examined stay within a small
        multiple of the bits consumed.

        Returns ``(values, error)``: the values of the fully decoded
        codewords (consumed from the stream; the position is left after
        the last good codeword) and the exception the per-symbol reader
        (:meth:`count_zeros` with ``limit`` + :meth:`read`) would raise at
        the first failed codeword, or None.  Deferring the error lets a
        caller decode speculatively and only raise if its parse actually
        reaches the failed symbol.
        """
        if count < 0:
            raise TypeError(f"count must be non-negative, got {count}")
        if limit < 0:
            raise TypeError(f"limit must be non-negative, got {limit}")
        pieces = [np.zeros(0, dtype=np.int64)]
        error: Optional[Exception] = None
        span = count + limit + 1
        while count:
            start = self._pos
            window = self._bits[start : start + min(span, _MAX_WINDOW)]
            values, used = _scan_window(window, count, limit)
            pieces.append(values)
            self._pos = start + used
            count -= values.size
            if count:
                # The next codeword did not decode inside the window: either
                # the stream fails there, or it runs past the window's end.
                error = self._ue_error(limit)
                if error is not None:
                    break
                span *= 2
        return np.concatenate(pieces), error

    def _ue_error(self, limit: int) -> Optional[Exception]:
        """The error reading one codeword here raises, or None; the
        position is left unchanged."""
        start = self._pos
        try:
            self.read(self.count_zeros(limit) + 1)
        except (TruncatedStream, CorruptPayload) as exc:
            # Deferred errors travel without a traceback: one would keep
            # every frame of the caller's stack, and their arrays, alive.
            return exc.with_traceback(None)
        finally:
            self._pos = start
        return None

    def align(self) -> None:
        """Skip to the next byte boundary."""
        self._pos += (-self._pos) % 8

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` aligned bytes (reader must be byte-aligned)."""
        if self._pos % 8:
            raise TypeError("read_bytes requires byte alignment")
        if count < 0:
            raise CorruptPayload(f"negative byte count {count}")
        needed = count * 8
        if self._pos + needed > self._bits.size:
            raise TruncatedStream(f"bitstream exhausted: wanted {count} bytes")
        chunk = self._bits[self._pos : self._pos + needed]
        self._pos += needed
        return np.packbits(chunk).tobytes()

    def seek_pattern(self, pattern: bytes) -> bool:
        """Byte-aligned forward scan for ``pattern``.

        Aligns the reader, then searches the remaining bytes.  On success
        the position is left at the start of the first occurrence and True
        is returned; otherwise the position moves to the end of the stream
        and False is returned.  This is the resync-seek primitive of the
        error-resilient container.
        """
        if not pattern:
            raise TypeError("pattern must be non-empty")
        self.align()
        rest = np.packbits(self._bits[self._pos :]).tobytes()
        found = rest.find(pattern)
        if found < 0:
            self._pos = int(self._bits.size)
            return False
        self._pos += 8 * found
        return True
