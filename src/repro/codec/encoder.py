"""The video encoder: the paper's Section 2.1 template, end to end.

Per frame: decide the frame type (I at keyframe interval or scene cuts, P
otherwise), run motion estimation for P frames, make a rate-distortion mode
decision per macroblock (skip / inter / intra), transform and quantize the
residuals, entropy code everything, and reconstruct the picture a decoder will
produce -- the reference for the next frame.  The reconstruction itself
(prediction, residual add, loop filter, pixel snap) is not written here:
:mod:`repro.codec.reconstruct` owns it for both sides; this module owns the
decisions and the bitstream writers.

The P-frame pipeline is vectorized across all macroblocks of the frame;
I frames walk macroblocks in raster order because DC intra prediction
depends on previously reconstructed neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.codec import tracegen
from repro.codec.bitstream import (
    PACKET_OVERHEAD_BITS,
    StreamHeader,
    fps_fraction,
    write_frame_packet,
    write_header,
    write_header_v2,
)
from repro.codec.blocks import merge_blocks, split_blocks, to_blocks
from repro.codec.entropy_coding.bitio import BitWriter
from repro.codec.entropy_coding.cabac import CabacEncoder
from repro.codec.entropy_coding.cavlc import encode_levels_cavlc
from repro.codec.entropy_coding.expgolomb import se_codes, ue_codes
from repro.codec.instrumentation import Counters, TraceRecorder
from repro.codec.motion import MotionField, estimate_motion
from repro.codec.predict import intra_cost
from repro.codec.presets import EncoderConfig, preset
from repro.codec.quant import clamp_qp, qp_to_qstep, quantize, rdoq_threshold
from repro.codec.ratecontrol import RateControl
from repro.codec.reconstruct import (
    FrameReconstructor,
    PFramePlan,
    Planes,
    pad_planes,
    residual_pixels,
)
from repro.codec.transform import forward_dct
from repro.codec.types import MB_SIZE, BlockMode, FrameStats, FrameType
from repro.video.frame import Frame
from repro.video.video import Video

__all__ = ["Encoder", "EncodeResult", "encode"]

#: Lambda scale for the SAD-based mode decision (x264 uses ~0.85 * qstep
#: for SSD; SAD costs scale with qstep directly).
_LAMBDA_SCALE = 2.0
#: Early-skip SAD threshold per pixel, in units of qstep.
_SKIP_THRESHOLD_SCALE = 0.10
#: Static penalty (in bits) charged to intra mode in P frames.
_INTRA_MODE_BITS = 16.0


@dataclass
class EncodeResult:
    """Everything an encode produces.

    Attributes:
        bitstream: The compressed stream (decodable by
            :func:`repro.codec.decoder.decode`).
        recon: The reconstructed video -- identical to what decoding the
            bitstream yields, so quality can be measured without a decode.
        stats: Per-frame statistics.
        counters: Kernel-work counters for the whole encode (both passes
            for two-pass encodes).
        config: The configuration used.
    """

    bitstream: bytes
    recon: Video
    stats: List[FrameStats]
    counters: Counters
    config: EncoderConfig

    @property
    def total_bits(self) -> int:
        return 8 * len(self.bitstream)

    @property
    def keyframes(self) -> int:
        return sum(1 for s in self.stats if s.frame_type is FrameType.I)


class Encoder:
    """A configured encoder instance.

    Args:
        config: Tool/effort configuration (see
            :class:`~repro.codec.presets.EncoderConfig`), or a preset name.
        trace: Optional :class:`TraceRecorder` for the uarch studies.
    """

    def __init__(
        self,
        config: "EncoderConfig | str" = "medium",
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = preset(config) if isinstance(config, str) else config
        self.trace = trace

    # -- public API --------------------------------------------------------

    def encode(self, video: Video, rate_control: RateControl) -> EncodeResult:
        """Encode ``video`` under ``rate_control``."""
        cfg = self.config
        counters = Counters()
        writer = BitWriter()
        frac = fps_fraction(video.fps)
        header = StreamHeader(
            width=video.width,
            height=video.height,
            fps_num=frac.numerator,
            fps_den=frac.denominator,
            n_frames=len(video),
            transform_size=cfg.transform_size,
            entropy_coder=cfg.entropy_coder,
            deblock=cfg.deblock,
            flat_quant=cfg.flat_quant,
            chroma_subpel=cfg.chroma_subpel,
            references=cfg.references,
            chroma_qp_offset=cfg.chroma_qp_offset,
        )
        packetize = cfg.container_version >= 2
        if packetize:
            write_header_v2(writer, header)
        else:
            write_header(writer, header)

        state = _CodingState(video, cfg)
        stats: List[FrameStats] = []
        recon_frames: List[Frame] = []

        for index in range(len(video)):
            counters.add("frame_setup", 1)
            counters.add("ratecontrol", 1)
            state.load_frame(video[index])
            frame_type = state.decide_frame_type(index)
            qp = rate_control.frame_qp(frame_type)
            # In the packetized v2 container each frame is coded into its
            # own writer and wrapped in a framed, CRC-protected packet; in
            # v1 frames run back to back in the shared writer.
            frame_writer = BitWriter() if packetize else writer
            bits_before = frame_writer.bit_length
            if frame_type is FrameType.I:
                frame_stats = self._encode_i_frame(state, frame_writer, qp, counters)
            else:
                frame_stats = self._encode_p_frame(state, frame_writer, qp, counters)
            if packetize:
                payload = frame_writer.getvalue()
                write_frame_packet(writer, payload)
                bits = 8 * len(payload) + PACKET_OVERHEAD_BITS
            else:
                bits = frame_writer.bit_length - bits_before
            frame_stats.bits = bits
            rate_control.feedback(frame_type, qp, bits)
            stats.append(frame_stats)
            recon_frames.append(state.emit_recon_frame())
            counters.add("bitstream_io", bits / 8.0)

        payload = writer.getvalue()
        recon = Video(
            recon_frames, video.fps, name=video.name,
            nominal_resolution=video.nominal_resolution,
        )
        return EncodeResult(
            bitstream=payload,
            recon=recon,
            stats=stats,
            counters=counters,
            config=cfg,
        )

    # -- I frames ---------------------------------------------------------

    def _encode_i_frame(
        self, state: "_CodingState", writer: BitWriter, qp: int, counters: Counters
    ) -> FrameStats:
        cfg = self.config
        writer.write(int(FrameType.I), 1)
        writer.write(qp, 6)
        qp_c = clamp_qp(qp + cfg.chroma_qp_offset)

        luma_levels, chroma_levels = state.intra_reconstruct(
            qp, qp_c, cfg, counters
        )
        empty16 = np.zeros((0, 16, 16), dtype=np.int32)
        self._write_residuals(
            writer, luma_levels, empty16, chroma_levels, counters, cfg
        )
        state.finish_frame(FrameType.I, qp, qp_c, counters)
        if self.trace is not None:
            tracegen.record_i_frame(self.trace, state, luma_levels, counters)
        nnz = int(np.count_nonzero(luma_levels)) + int(np.count_nonzero(chroma_levels))
        return FrameStats(
            frame_type=FrameType.I,
            qp=qp,
            bits=0,
            intra_blocks=state.n_mb,
            nonzero_coeffs=nnz,
        )

    # -- P frames -----------------------------------------------------------

    def _encode_p_frame(
        self, state: "_CodingState", writer: BitWriter, qp: int, counters: Counters
    ) -> FrameStats:
        cfg = self.config
        writer.write(int(FrameType.P), 1)
        writer.write(qp, 6)
        qstep = qp_to_qstep(qp)
        lam = _LAMBDA_SCALE * qstep
        qp_c = clamp_qp(qp + cfg.chroma_qp_offset)

        skip_threshold = (
            _SKIP_THRESHOLD_SCALE * cfg.skip_bias * qstep * MB_SIZE * MB_SIZE
            if cfg.early_skip
            else None
        )
        def _search(reference_padded):
            return estimate_motion(
                state.cur_y,
                reference_padded,
                state.pad,
                MB_SIZE,
                search_method=cfg.search_method,
                search_range=cfg.search_range,
                subpel_depth=cfg.subpel_depth,
                refine_iterations=cfg.me_iterations,
                init_mvs=state.prev_mvs,
                skip_threshold=skip_threshold,
                counters=counters,
            )

        mf = _search(state.refs[0][0])
        ref_idx = np.zeros(state.n_mb, dtype=np.int64)
        if cfg.references == 2 and len(state.refs) > 1:
            # Search the older reference too; a block switches only when
            # the win clearly pays for the reference-index bit.
            mf_alt = _search(state.refs[1][0])
            lam_ref = _LAMBDA_SCALE * qstep
            better = mf_alt.sads + lam_ref < mf.sads
            ref_idx[better] = 1
            mvs_combined = np.where(better[:, None], mf_alt.mvs, mf.mvs)
            sads_combined = np.where(better, mf_alt.sads, mf.sads)
            mf = MotionField(
                mvs=mvs_combined, sads=sads_combined, zero_sads=mf.zero_sads
            )
        sad_evals = int(counters.get("sad"))

        # Mode decision (vectorized RD): inter vs intra, with early skip.
        counters.add("mode_decision", state.n_mb)
        cur_blocks = to_blocks(state.cur_y, MB_SIZE)
        mv_bits = _mv_bits_estimate(mf.mvs)
        cost_inter = mf.sads + lam * mv_bits
        cost_intra = intra_cost(cur_blocks) + lam * _INTRA_MODE_BITS
        modes = np.where(
            cost_intra < cost_inter, int(BlockMode.INTRA), int(BlockMode.INTER)
        ).astype(np.int64)
        if skip_threshold is not None:
            modes[mf.zero_sads < skip_threshold] = int(BlockMode.SKIP)
        mvs = mf.mvs.copy()
        mvs[modes != int(BlockMode.INTER)] = 0
        ref_idx[modes != int(BlockMode.INTER)] = 0

        plan = state.code_p_residuals(
            modes, mvs, ref_idx, qp, qp_c, cfg, counters
        )
        modes = plan.modes
        nonskip_idx = plan.nonskip_idx

        # -- write the frame ------------------------------------------------
        mode_codes, mode_lengths = ue_codes(modes)
        writer.write_array(mode_codes, mode_lengths)
        counters.add("entropy_sym", modes.size)

        inter_idx = np.nonzero(modes == int(BlockMode.INTER))[0]
        if inter_idx.size:
            inter_mvs = mvs[inter_idx]
            mvds = np.empty_like(inter_mvs)
            mvds[0] = inter_mvs[0]
            mvds[1:] = inter_mvs[1:] - inter_mvs[:-1]
            mvd_codes, mvd_lengths = se_codes(mvds.ravel())
            writer.write_array(mvd_codes, mvd_lengths)
            counters.add("entropy_sym", mvds.size)
            if cfg.references == 2:
                flags = ref_idx[inter_idx]
                writer.write_array(flags, np.ones(flags.size, dtype=np.int64))
                counters.add("entropy_sym", flags.size)

        # Adaptive-transform flags: one bit per non-skip macroblock.
        if cfg.transform_size == 16 and nonskip_idx.size:
            flags = plan.use16.astype(np.int64)
            writer.write_array(flags, np.ones(flags.size, dtype=np.int64))
            counters.add("entropy_sym", flags.size)

        self._write_residuals(
            writer, plan.levels8, plan.levels16, plan.chroma_levels,
            counters, cfg,
        )

        state.recon = state.reconstruct_p(
            state.refs[0], state.pad, state.cpad, plan, qp, qp_c, counters
        )
        state.finish_frame(FrameType.P, qp, qp_c, counters, modes=modes)
        state.prev_mvs = (mvs // 4).astype(np.int64)

        if self.trace is not None:
            tracegen.record_p_frame(
                self.trace, state, modes, mvs, plan.mb_levels(), counters
            )

        nnz = (
            int(np.count_nonzero(plan.levels8))
            + int(np.count_nonzero(plan.levels16))
            + int(np.count_nonzero(plan.chroma_levels))
        )
        return FrameStats(
            frame_type=FrameType.P,
            qp=qp,
            bits=0,
            skip_blocks=int(np.sum(modes == int(BlockMode.SKIP))),
            inter_blocks=int(np.sum(modes == int(BlockMode.INTER))),
            intra_blocks=int(np.sum(modes == int(BlockMode.INTRA))),
            nonzero_coeffs=nnz,
            sad_evaluations=sad_evals,
        )

    # -- residual serialization -----------------------------------------------

    def _write_residuals(
        self,
        writer: BitWriter,
        levels8: np.ndarray,
        levels16: np.ndarray,
        chroma_levels: np.ndarray,
        counters: Counters,
        cfg: EncoderConfig,
    ) -> int:
        """Entropy code the residual level arrays into the stream.

        Order: 8x8 luma blocks, 16x16 luma blocks, chroma blocks -- the
        per-MB transform flags written earlier tell the decoder how the
        luma blocks distribute over macroblocks.
        """
        if cfg.entropy_coder == "cavlc":
            symbols = encode_levels_cavlc(writer, levels8)
            if levels16.size or cfg.transform_size == 16:
                symbols += encode_levels_cavlc(writer, levels16)
            symbols += encode_levels_cavlc(writer, chroma_levels)
            counters.add("entropy_sym", symbols)
            return symbols
        cabac = CabacEncoder()
        cabac.encode_blocks(levels8, chroma=False)
        if levels16.size or cfg.transform_size == 16:
            cabac.encode_blocks(levels16, chroma=False)
        cabac.encode_blocks(chroma_levels, chroma=True)
        chunk = cabac.flush()
        counters.add("entropy_bin", cabac.bins)
        writer.align()
        writer.write(len(chunk), 32)
        writer.write_bytes(chunk)
        return cabac.bins


# ---------------------------------------------------------------------------
# Coding state: planes, references, reconstruction
# ---------------------------------------------------------------------------


def _mv_bits_estimate(mvs_halfpel: np.ndarray) -> np.ndarray:
    """Approximate signalling cost (bits) of each motion vector."""
    mags = np.abs(mvs_halfpel).astype(np.float64)
    return 2.0 + np.sum(2.0 * np.log2(mags + 1.0), axis=1)


def _estimated_bits8(levels_by_mb: np.ndarray) -> np.ndarray:
    """Approximate CAVLC cost (bits) of each MB's four 8x8 blocks."""
    mags = np.abs(levels_by_mb).astype(np.float64)
    per_level = np.where(mags > 0, 2.0 * np.floor(np.log2(2 * mags + 1)) + 4.0, 0.0)
    return per_level.sum(axis=(1, 2, 3)) + 4.0  # one coded flag per block


def _estimated_bits16(levels16: np.ndarray) -> np.ndarray:
    """Approximate CAVLC cost (bits) of each MB's single 16x16 block."""
    mags = np.abs(levels16).astype(np.float64)
    per_level = np.where(mags > 0, 2.0 * np.floor(np.log2(2 * mags + 1)) + 4.0, 0.0)
    # One coded flag plus the transform-selection bit itself.
    return per_level.sum(axis=(1, 2)) + 2.0


class _CodingState(FrameReconstructor):
    """Mutable per-encode state: current planes, references, geometry."""

    def __init__(self, video: Video, cfg: EncoderConfig) -> None:
        super().__init__(video.width, video.height, cfg)
        self.cfg = cfg
        self.display_w = video.width
        self.display_h = video.height
        self.pad = cfg.search_range + 2
        self.cpad = max(cfg.search_range // 2 + 2, 4)

        self.cur_y: np.ndarray = np.zeros((self.coded_h, self.coded_w))
        self.cur_u: np.ndarray = np.zeros((self.coded_h // 2, self.coded_w // 2))
        self.cur_v: np.ndarray = np.zeros_like(self.cur_u)
        self.prev_orig_y: Optional[np.ndarray] = None
        # Reference list, most recent first (padded planes per entry).
        self.refs: List[Planes] = []
        self.recon: Optional[Planes] = None
        self.prev_mvs = np.zeros((self.n_mb, 2), dtype=np.int64)
        self.frames_since_key = 0
        self.mad_baseline: Optional[float] = None

    # -- per-frame setup ------------------------------------------------------

    def load_frame(self, frame: Frame) -> None:
        padded = frame.pad_to_multiple(MB_SIZE)
        new_y = padded.y.astype(np.float64)
        self.scene_change_score = (
            float(np.mean(np.abs(new_y - self.prev_orig_y)))
            if self.prev_orig_y is not None
            else float("inf")
        )
        self.prev_orig_y = new_y
        self.cur_y = new_y
        self.cur_u = padded.u.astype(np.float64)
        self.cur_v = padded.v.astype(np.float64)

    def decide_frame_type(self, index: int) -> FrameType:
        """I at clip start, keyframe interval, or scene cuts.

        Scene cuts are detected *relatively*: the luma change must exceed
        the absolute threshold and stand well above the clip's running
        motion baseline, so steady high-motion content stays P-coded while
        genuine cuts (a sudden multiple of the baseline) force an I frame.
        """
        cfg = self.cfg
        score = self.scene_change_score
        if index == 0 or not self.refs or self.frames_since_key >= cfg.keyint:
            decision = FrameType.I
        elif (
            score > cfg.scene_cut
            and self.mad_baseline is not None
            and score > 2.5 * self.mad_baseline
        ):
            decision = FrameType.I
        else:
            decision = FrameType.P
        if np.isfinite(score):
            if self.mad_baseline is None:
                self.mad_baseline = score
            else:
                self.mad_baseline = 0.8 * self.mad_baseline + 0.2 * score
        return decision

    # -- I-frame coding -----------------------------------------------------

    def intra_reconstruct(
        self,
        qp: int,
        qp_c: int,
        cfg: EncoderConfig,
        counters: Counters,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Wavefront DC-predicted intra coding of the whole frame.

        The levels of a block depend on its DC predictor, hence on the
        reconstruction of its neighbours, so the forward DCT/quant/RDOQ
        runs inside the shared wavefront walk, a luma then a U/V batch per
        anti-diagonal (same predictors, levels and reconstruction as a
        per-macroblock loop; guarded by the golden-digest tests).  Intra
        pictures always use the 8x8 transform: DC-predicted residuals have
        block-local structure, and real codecs use small intra transforms
        for the same reason.

        Returns the (luma, chroma) level arrays in stream order and leaves
        the unfiltered reconstruction in ``recon``.
        """
        half = MB_SIZE // 2
        luma = np.zeros((self.n_mb, 4, 8, 8), np.int32)
        chroma = np.zeros((2, self.n_mb, half, half), np.int32)
        cur_y = to_blocks(self.cur_y, MB_SIZE)
        cur_uv = np.stack((to_blocks(self.cur_u, half), to_blocks(self.cur_v, half)))

        def code(plane: int, sl: slice, dcs: np.ndarray) -> np.ndarray:
            if plane == 0:
                sub = split_blocks(cur_y[sl] - dcs[:, None, None], 8)
                coeffs = forward_dct(sub)
                levels = quantize(coeffs, qp, flat=cfg.flat_quant)
                if cfg.rdoq:
                    levels = rdoq_threshold(levels, coeffs, qp, flat=cfg.flat_quant)
                    counters.add("rdoq", sub.shape[0])
                counters.add("dct", sub.shape[0])
                counters.add("quant", sub.shape[0])
                luma[sl] = levels.reshape(-1, 4, 8, 8)
                return merge_blocks(
                    residual_pixels(levels, qp, cfg.flat_quant, counters), MB_SIZE
                )
            # Both chroma planes in one batch (8x8 per plane per MB); stream
            # order is all-U then all-V.
            sub = (cur_uv[:, sl] - dcs[..., None, None]).reshape(-1, half, half)
            levels = quantize(forward_dct(sub), qp_c, flat=cfg.flat_quant)
            counters.add("dct", sub.shape[0])
            counters.add("quant", sub.shape[0])
            chroma[:, sl] = levels.reshape(2, -1, half, half)
            rec = residual_pixels(levels, qp_c, cfg.flat_quant, counters)
            return rec.reshape(2, -1, half, half)

        self.recon = self.reconstruct_intra(code, counters)
        return luma.reshape(-1, 8, 8), chroma.reshape(-1, half, half)

    # -- P-frame coding ---------------------------------------------------------

    def code_p_residuals(
        self,
        modes: np.ndarray,
        mvs: np.ndarray,
        ref_idx: np.ndarray,
        qp: int,
        qp_c: int,
        cfg: EncoderConfig,
        counters: Counters,
    ) -> "PFramePlan":
        """Transform/quantize residuals for non-skip blocks.

        When the large transform is available (``cfg.transform_size == 16``)
        both representations of every macroblock's luma residual are coded
        tentatively and the cheaper one wins -- the adaptive
        transform-size selection that gives HEVC/VP9-class encoders their
        edge on smooth content (and costs them transform work, which the
        counters record).  Zero-residual zero-motion inter blocks are
        reclassified as skip.
        """
        nonskip_idx = np.nonzero(modes != int(BlockMode.SKIP))[0]
        n_ns = nonskip_idx.size

        cur_blocks = to_blocks(self.cur_y, MB_SIZE)
        cur_u_blocks = to_blocks(self.cur_u, MB_SIZE // 2)
        cur_v_blocks = to_blocks(self.cur_v, MB_SIZE // 2)

        luma_pred, chroma_pred = self.predict_p(
            self.refs, self.pad, self.cpad,
            modes, mvs, ref_idx, nonskip_idx, counters,
        )
        inter_sel = modes[nonskip_idx] == int(BlockMode.INTER)

        def _quantize(coeffs: np.ndarray, plane_qp: int, units: float):
            levels = quantize(coeffs, plane_qp, flat=cfg.flat_quant)
            counters.add("quant", units)
            if cfg.rdoq:
                levels = rdoq_threshold(levels, coeffs, plane_qp, flat=cfg.flat_quant)
                counters.add("rdoq", units)
            return levels

        if n_ns:
            residual = cur_blocks[nonskip_idx] - luma_pred
            sub8 = split_blocks(residual, 8)
            coeffs8 = forward_dct(sub8)
            counters.add("dct", sub8.shape[0])
            all8 = _quantize(coeffs8, qp, sub8.shape[0]).reshape(n_ns, 4, 8, 8)
            if cfg.transform_size == 16:
                coeffs16 = forward_dct(residual)
                # 16x16 DCT is 8x the work of an 8x8 (O(S^3)); quantization
                # 4x (O(S^2)).  Counters are in 8x8-equivalent units.
                counters.add("dct", 8.0 * n_ns)
                all16 = _quantize(coeffs16, qp, 4.0 * n_ns)
                use16 = _estimated_bits16(all16) < _estimated_bits8(all8)
            else:
                all16 = np.zeros((n_ns, 16, 16), dtype=np.int32)
                use16 = np.zeros(n_ns, dtype=bool)

            chroma_levels = np.concatenate(
                [
                    _quantize(
                        forward_dct(cur_u_blocks[nonskip_idx] - chroma_pred[0]),
                        qp_c, n_ns,
                    ),
                    _quantize(
                        forward_dct(cur_v_blocks[nonskip_idx] - chroma_pred[1]),
                        qp_c, n_ns,
                    ),
                ]
            )
            counters.add("dct", 2 * n_ns)
        else:
            all8 = np.zeros((0, 4, 8, 8), dtype=np.int32)
            all16 = np.zeros((0, 16, 16), dtype=np.int32)
            use16 = np.zeros(0, dtype=bool)
            chroma_levels = np.zeros((0, 8, 8), dtype=np.int32)

        # Reclassify: inter, zero motion, all-zero chosen residual -> skip.
        if n_ns:
            mv_zero = (
                np.all(mvs[nonskip_idx] == 0, axis=1)
                & inter_sel
                & (ref_idx[nonskip_idx] == 0)
            )
            zero8 = ~np.any(all8, axis=(1, 2, 3))
            zero16 = ~np.any(all16, axis=(1, 2))
            luma_zero = np.where(use16, zero16, zero8)
            cz_u = ~np.any(chroma_levels[:n_ns], axis=(1, 2))
            cz_v = ~np.any(chroma_levels[n_ns:], axis=(1, 2))
            to_skip = mv_zero & luma_zero & cz_u & cz_v
            if to_skip.any():
                modes = modes.copy()
                modes[nonskip_idx[to_skip]] = int(BlockMode.SKIP)
                keep = ~to_skip
                nonskip_idx = nonskip_idx[keep]
                all8 = all8[keep]
                all16 = all16[keep]
                use16 = use16[keep]
                chroma_levels = np.concatenate(
                    [chroma_levels[:n_ns][keep], chroma_levels[n_ns:][keep]]
                )
                luma_pred = luma_pred[keep]
                chroma_pred = chroma_pred[:, keep]

        return PFramePlan(
            modes=modes,
            nonskip_idx=nonskip_idx,
            use16=use16,
            levels8=all8[~use16].reshape(-1, 8, 8),
            levels16=all16[use16],
            chroma_levels=chroma_levels,
            luma_pred=luma_pred,
            chroma_pred=chroma_pred,
        )

    # -- frame finalization --------------------------------------------------

    def finish_frame(
        self,
        frame_type: FrameType,
        qp: int,
        qp_c: int,
        counters: Counters,
        modes: Optional[np.ndarray] = None,
    ) -> None:
        """Filter and snap ``recon`` (``modes`` gates the loop filter on P
        frames), and install it as the new reference."""
        self.recon = self.filter_and_snap(self.recon, modes, qp, qp_c, counters)
        self.refs.insert(0, pad_planes(self.recon, self.pad, self.cpad))
        del self.refs[2:]  # the codec keeps at most two references
        if frame_type is FrameType.I:
            self.frames_since_key = 1
            self.prev_mvs = np.zeros((self.n_mb, 2), dtype=np.int64)
        else:
            self.frames_since_key += 1

    def emit_recon_frame(self) -> Frame:
        """The display-cropped reconstructed frame."""
        recon_y, recon_u, recon_v = self.recon
        return Frame.from_planes(
            recon_y[: self.display_h, : self.display_w],
            recon_u[: self.display_h // 2, : self.display_w // 2],
            recon_v[: self.display_h // 2, : self.display_w // 2],
        )


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def encode(
    video: Video,
    config: "EncoderConfig | str" = "medium",
    crf: Optional[int] = None,
    bitrate_bps: Optional[float] = None,
    two_pass: bool = False,
    trace: Optional[TraceRecorder] = None,
) -> EncodeResult:
    """Encode a video in one call.

    Exactly one of ``crf`` or ``bitrate_bps`` must be given.  With
    ``two_pass=True`` (bitrate mode only) a fast first pass measures
    per-frame complexity and the second pass allocates the bit budget
    accordingly -- the offline VOD configuration from the paper; the
    returned counters and wall time cover *both* passes.
    """
    if (crf is None) == (bitrate_bps is None):
        raise ValueError("specify exactly one of crf or bitrate_bps")
    cfg = preset(config) if isinstance(config, str) else config
    encoder = Encoder(cfg, trace=trace)
    if crf is not None:
        if two_pass:
            raise ValueError("two-pass encoding needs a bitrate target")
        return encoder.encode(video, RateControl.crf(crf))
    if not two_pass:
        return encoder.encode(
            video,
            RateControl.abr(bitrate_bps, video.fps, video.frame_pixels),
        )

    # Pass 1: cheap constant-QP analysis pass.
    analysis_cfg = cfg.derived(
        subpel_depth=0,
        rdoq=False,
        entropy_coder="cavlc",
        me_iterations=min(cfg.me_iterations, 2),
        search_method="log" if cfg.search_method != "none" else "none",
    )
    first = Encoder(analysis_cfg).encode(video, RateControl.crf(33))
    complexities = [max(s.bits, 1) for s in first.stats]
    second = encoder.encode(
        video,
        RateControl.two_pass(
            bitrate_bps, video.fps, complexities, video.frame_pixels
        ),
    )
    merged = Counters()
    merged.merge(first.counters)
    merged.merge(second.counters)
    return EncodeResult(
        bitstream=second.bitstream,
        recon=second.recon,
        stats=second.stats,
        counters=merged,
        config=cfg,
    )
