"""The video decoder: bitstream readers around the shared reconstruction.

Decoding simply follows the interpretation rules of the bitstream
(Section 2 of the paper: "the decoding step ... is deterministic and
relatively fast").  The pixels are rebuilt by
:mod:`repro.codec.reconstruct`, the same code the encoder reconstructs
with, so decoded pixels equal :attr:`EncodeResult.recon` bit for bit (the
central codec invariant, pinned by the round-trip tests).  This module
owns what only a decoder does: parsing, every validation of untrusted
input, and concealment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.codec.bitstream import (
    StreamHeader,
    read_container_header,
    read_frame_packet,
    seek_resync,
)
from repro.codec.blocks import merge_blocks
from repro.codec.entropy_coding.bitio import BitReader
from repro.codec.entropy_coding.cabac import CabacDecoder
from repro.codec.entropy_coding.cavlc import decode_levels_cavlc
from repro.codec.entropy_coding.expgolomb import read_ses, read_ues
from repro.codec.errors import BitstreamError, CorruptPayload, HeaderError
from repro.codec.instrumentation import Counters
from repro.codec.quant import QP_MAX, clamp_qp
from repro.codec.reconstruct import (
    FrameReconstructor,
    PFramePlan,
    Planes,
    coded_size,
    pad_planes,
    residual_pixels,
)
from repro.codec.types import MB_SIZE, BlockMode, FrameType
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = ["Decoder", "DecodeResult", "decode"]


@dataclass
class DecodeResult:
    """A decoded video plus decoding-side work counters.

    ``concealed`` has one flag per output frame: True where the decoder
    replaced a damaged frame with concealment pixels (strict=False only;
    strict decodes always report all-False).
    """

    video: Video
    header: StreamHeader
    counters: Counters
    concealed: List[bool] = field(default_factory=list)

    @property
    def frames_concealed(self) -> int:
        """Number of frames replaced by error concealment."""
        return int(sum(self.concealed))


class Decoder:
    """Stateless decoder object (state lives per-call)."""

    def decode(
        self,
        bitstream: bytes,
        name: str = "",
        strict: bool = True,
        max_pixels: Optional[int] = None,
    ) -> DecodeResult:
        """Decode a bitstream produced by :class:`repro.codec.Encoder`.

        Args:
            bitstream: The compressed stream (RPV1 or RPV2 container).
            name: Name for the returned video.
            strict: With True (default) any damage raises a
                :class:`~repro.codec.errors.BitstreamError` subclass.  With
                False the decoder conceals damaged frames instead: in the
                packetized v2 container damage is localized per frame (CRC
                or payload failures conceal one frame, framing damage is
                healed by scanning to the next resync marker); the
                unframed v1 container cannot re-synchronize, so the first
                failure conceals every remaining frame.  A concealed frame
                repeats the co-located previous reconstruction, or DC gray
                when no frame decoded yet.
            max_pixels: Optional cap on total decoded luma pixels
                (``coded_w * coded_h * n_frames``); headers exceeding it
                raise :class:`~repro.codec.errors.HeaderError`.  Fuzzers
                use this to bound the work a crafted header can demand.
        """
        counters = Counters()
        reader = BitReader(bitstream)
        header, version = read_container_header(reader)

        coded_w, coded_h = coded_size(header.width, header.height)
        if max_pixels is not None and coded_w * coded_h * header.n_frames > max_pixels:
            raise HeaderError(
                f"stream geometry {coded_w}x{coded_h}x{header.n_frames} exceeds "
                f"the {max_pixels}-pixel decode budget"
            )
        recon = FrameReconstructor(header.width, header.height, header)

        refs: List[Planes] = []
        frames: List[Frame] = []
        concealed: List[bool] = []
        dead = False  # no more usable data: conceal every remaining frame

        for _ in range(header.n_frames):
            counters.add("frame_setup", 1)
            planes = None
            if not dead and version >= 2:
                payload = None
                try:
                    payload = read_frame_packet(reader)
                except BitstreamError:
                    if strict:
                        raise
                    # Damaged framing: conceal this frame and re-acquire at
                    # the next resync marker (end of stream if none left).
                    dead = not seek_resync(reader)
                if payload is not None:
                    try:
                        planes = self._decode_frame_payload(
                            BitReader(payload), header, recon, refs, counters
                        )
                    except BitstreamError:
                        if strict:
                            raise
            elif not dead:
                try:
                    planes = self._decode_frame_payload(
                        reader, header, recon, refs, counters
                    )
                except BitstreamError:
                    if strict:
                        raise
                    # v1 has no framing to recover: the rest is lost.
                    dead = True

            concealed.append(planes is None)
            if planes is None:
                planes = self._conceal_frame(refs, coded_h, coded_w)
            recon_y, recon_u, recon_v = planes
            refs.insert(0, planes)
            del refs[2:]
            frames.append(
                Frame.from_planes(
                    recon_y[: header.height, : header.width],
                    recon_u[: header.height // 2, : header.width // 2],
                    recon_v[: header.height // 2, : header.width // 2],
                )
            )

        video = Video(frames, fps=header.fps, name=name)
        return DecodeResult(
            video=video,
            header=header,
            counters=counters,
            concealed=concealed,
        )

    # -- per-frame decode and concealment --------------------------------------

    def _decode_frame_payload(
        self,
        reader: BitReader,
        header: StreamHeader,
        recon: FrameReconstructor,
        refs: List[Planes],
        counters: Counters,
    ) -> Planes:
        """Decode one frame's payload into clipped reconstruction planes.

        Defense in depth for the untrusted-input contract: the explicit
        validations below catch the corruptions we know about, and any
        stray ``ValueError``/``ArithmeticError``/``IndexError`` a helper
        raises on bit patterns they missed is converted here instead of
        crashing through :meth:`Decoder.decode` (the fuzz oracle treats
        such an escape as a violation).  Taxonomy errors pass through
        untouched so truncation stays distinguishable from corruption.
        """
        try:
            return self._decode_frame_payload_unchecked(
                reader, header, recon, refs, counters
            )
        except BitstreamError:
            raise
        except (ValueError, ArithmeticError, IndexError) as exc:
            raise CorruptPayload(f"corrupt stream: {exc}") from exc

    def _decode_frame_payload_unchecked(
        self,
        reader: BitReader,
        header: StreamHeader,
        recon: FrameReconstructor,
        refs: List[Planes],
        counters: Counters,
    ) -> Planes:
        frame_type = FrameType(reader.read(1))
        qp = reader.read(6)
        if qp > QP_MAX:
            raise CorruptPayload(f"corrupt stream: qp {qp} out of range")
        qp_c = clamp_qp(qp + header.chroma_qp_offset)

        if frame_type is FrameType.I:
            planes = self._decode_i_frame(reader, header, recon, qp, qp_c, counters)
            modes = None
        else:
            if not refs:
                raise CorruptPayload("corrupt stream: P frame before any I frame")
            planes, modes = self._decode_p_frame(
                reader, header, recon, qp, qp_c, refs, counters
            )

        planes = recon.filter_and_snap(planes, modes, qp, qp_c, counters)
        if not all(np.isfinite(plane).all() for plane in planes):
            raise CorruptPayload("corrupt stream: non-finite reconstruction")
        return planes

    @staticmethod
    def _conceal_frame(refs: List[Planes], coded_h: int, coded_w: int) -> Planes:
        """Concealment pixels: repeat the previous reconstruction, or DC
        gray when nothing has decoded yet."""
        if refs:
            return refs[0]
        return (
            np.full((coded_h, coded_w), 128.0),
            np.full((coded_h // 2, coded_w // 2), 128.0),
            np.full((coded_h // 2, coded_w // 2), 128.0),
        )

    # -- residual payload -------------------------------------------------------

    def _read_residuals(
        self,
        reader: BitReader,
        header: StreamHeader,
        n_luma8: int,
        n_luma16: int,
        n_chroma: int,
        counters: Counters,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual payload: 8x8 luma, 16x16 luma, then chroma levels.

        An I frame is the ``n_luma16 = 0`` case: zero blocks read no bits.
        """
        if header.entropy_coder == "cavlc":
            levels8 = decode_levels_cavlc(reader, n_luma8, 8)
            levels16 = decode_levels_cavlc(reader, n_luma16, 16)
            chroma = decode_levels_cavlc(reader, n_chroma, 8)
            counters.add(
                "entropy_sym",
                n_luma8 + n_luma16 + n_chroma
                + int(np.count_nonzero(levels8))
                + int(np.count_nonzero(levels16))
                + int(np.count_nonzero(chroma)),
            )
            return levels8, levels16, chroma
        reader.align()
        length = reader.read(32)
        chunk = reader.read_bytes(length)
        cabac = CabacDecoder(chunk)
        levels8 = cabac.decode_blocks(n_luma8, 8, chroma=False)
        levels16 = cabac.decode_blocks(n_luma16, 16, chroma=False)
        chroma = cabac.decode_blocks(n_chroma, 8, chroma=True)
        counters.add("entropy_bin", 8 * length)
        return levels8, levels16, chroma

    # -- I frames ---------------------------------------------------------------

    def _decode_i_frame(
        self,
        reader: BitReader,
        header: StreamHeader,
        recon: FrameReconstructor,
        qp: int,
        qp_c: int,
        counters: Counters,
    ) -> Planes:
        # Intra pictures always use the 8x8 transform (see the encoder).
        n_mb = recon.n_mb
        luma_levels, _, chroma_levels = self._read_residuals(
            reader, header, 4 * n_mb, 0, 2 * n_mb, counters
        )
        # The coded residual is independent of the predictor, so dequant +
        # IDCT run over the whole frame in one batch; only the DC add has
        # the above/left recurrence, which the shared wavefront walk handles.
        flat = header.flat_quant
        luma = merge_blocks(residual_pixels(luma_levels, qp, flat, counters), MB_SIZE)
        chroma = residual_pixels(chroma_levels, qp_c, flat, counters)
        residuals = (luma, chroma[:n_mb], chroma[n_mb:])
        return recon.reconstruct_intra(
            lambda plane, idx, dcs: residuals[plane][idx], counters
        )

    # -- P frames -----------------------------------------------------------------

    def _decode_p_frame(
        self,
        reader: BitReader,
        header: StreamHeader,
        recon: FrameReconstructor,
        qp: int,
        qp_c: int,
        refs: List[Planes],
        counters: Counters,
    ) -> Tuple[Planes, np.ndarray]:
        n_mb = recon.n_mb
        modes = read_ues(reader, n_mb)
        if np.any(modes > int(BlockMode.INTRA)):
            raise CorruptPayload("corrupt stream: invalid block mode")
        inter_idx = np.nonzero(modes == int(BlockMode.INTER))[0]
        mvs = np.zeros((n_mb, 2), dtype=np.int64)
        if inter_idx.size:
            mvds = read_ses(reader, 2 * inter_idx.size).reshape(-1, 2)
            mvs[inter_idx] = np.cumsum(mvds, axis=0)
            # Sanity bound: no conforming encoder emits vectors beyond a
            # frame diagonal; a corrupt stream must not trigger a giant
            # reference-padding allocation below.
            limit = 4 * (recon.coded_w + recon.coded_h)
            if int(np.max(np.abs(mvs))) > limit:
                raise CorruptPayload("corrupt stream: motion vector out of range")
        ref_idx = np.zeros(n_mb, dtype=np.int64)
        if header.references == 2 and inter_idx.size:
            ref_idx[inter_idx] = reader.read_bits(inter_idx.size)

        nonskip_idx = np.nonzero(modes != int(BlockMode.SKIP))[0]
        n_ns = nonskip_idx.size
        # Adaptive-transform flags: one bit per non-skip macroblock.
        if header.transform_size == 16 and n_ns:
            use16 = reader.read_bits(n_ns).astype(bool)
        else:
            use16 = np.zeros(n_ns, dtype=bool)
        n16 = int(use16.sum())
        levels8, levels16, chroma_levels = self._read_residuals(
            reader, header, 4 * (n_ns - n16), n16, 2 * n_ns, counters
        )

        # Pad per frame by the largest vector actually parsed (the encoder
        # pads by its search range, which the stream does not carry).
        max_mv = int(np.max(np.abs(mvs))) // 4 if n_mb else 0
        pad = max_mv + 2
        cpad = max(max_mv // 2 + 2, 4)
        padded_refs = [pad_planes(ref, pad, cpad) for ref in refs]
        luma_pred, chroma_pred = recon.predict_p(
            padded_refs, pad, cpad, modes, mvs, ref_idx, nonskip_idx, counters
        )
        plan = PFramePlan(
            modes, nonskip_idx, use16, levels8, levels16, chroma_levels,
            luma_pred, chroma_pred,
        )
        planes = recon.reconstruct_p(
            padded_refs[0], pad, cpad, plan, qp, qp_c, counters
        )
        return planes, modes


def decode(
    bitstream: bytes,
    name: str = "",
    strict: bool = True,
    max_pixels: Optional[int] = None,
) -> Video:
    """Decode a bitstream to a :class:`Video` (convenience wrapper)."""
    return Decoder().decode(
        bitstream, name=name, strict=strict, max_pixels=max_pixels
    ).video
