"""Reconstruction: how a frame's pixels are rebuilt from its coded description.

Section 2 of the paper rests on decoding being deterministic and on the
encoder predicting from *exactly* the picture a decoder will hold.  This
module is the single owner of that picture: motion-compensated and intra
prediction, dequantize + inverse transform, the residual add, the loop
filter and the snap to the 8-bit pixel grid live here once, and
:mod:`repro.codec.encoder` and :mod:`repro.codec.decoder` both stand on
:class:`FrameReconstructor` -- so each stage of the cycle model (MC,
dequant+IDCT, deblock, recon) is also counted at exactly one site.

What differs by side stays with the side.  The encoder owns the decisions
and the bitstream writers, and pads each reference once, by its search
range; the decoder owns the readers, every check of untrusted input and
concealment, and pads per frame by the largest vector it parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codec.bitstream import StreamHeader
from repro.codec.blocks import from_blocks, merge_blocks
from repro.codec.deblock import deblock_plane
from repro.codec.instrumentation import Counters
from repro.codec.motion import (
    block_positions,
    motion_compensate,
    motion_compensate_chroma,
    pad_reference,
)
from repro.codec.predict import FLAT_PREDICTOR, edge_dc
from repro.codec.presets import EncoderConfig
from repro.codec.quant import dequantize
from repro.codec.transform import inverse_dct
from repro.codec.types import MB_SIZE, BlockMode

__all__ = [
    "FrameReconstructor",
    "PFramePlan",
    "Planes",
    "coded_size",
    "pad_planes",
    "residual_pixels",
]

#: The ``(y, u, v)`` planes of one picture.
Planes = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Macroblock edge per plane (4:2:0: chroma is half resolution).
_SIZES = (MB_SIZE, MB_SIZE // 2, MB_SIZE // 2)


def coded_size(width: int, height: int) -> Tuple[int, int]:
    """``(coded_w, coded_h)``: the display size in whole macroblocks."""
    return -(-width // MB_SIZE) * MB_SIZE, -(-height // MB_SIZE) * MB_SIZE


def pad_planes(planes: Planes, pad: int, cpad: int) -> Planes:
    """Edge-pad a picture for motion compensation: luma by ``pad``, chroma
    by ``cpad`` (how far is each side's policy, see the module docstring)."""
    y, u, v = planes
    return pad_reference(y, pad), pad_reference(u, cpad), pad_reference(v, cpad)


def residual_pixels(
    levels: np.ndarray, qp: int, flat_quant: bool, counters: Counters
) -> np.ndarray:
    """Dequantize + inverse transform ``(n, S, S)`` levels to pixel residuals.

    Counted in 8x8-equivalent units: a 16x16 IDCT is 8x the work of an 8x8
    (O(S^3)), its dequantization 4x (O(S^2)).
    """
    n = levels.shape[0]
    large = levels.shape[1] == 16
    counters.add("idct", 8.0 * n if large else n)
    counters.add("dequant", 4.0 * n if large else n)
    return inverse_dct(dequantize(levels, qp, flat=flat_quant))


def reconstruct_luma_residual(
    levels8: np.ndarray,
    levels16: np.ndarray,
    use16: np.ndarray,
    qp: int,
    flat_quant: bool,
    counters: Counters,
) -> np.ndarray:
    """``(use16.size, 16, 16)`` pixel residuals of mixed-size luma blocks."""
    rec = np.zeros((use16.size, MB_SIZE, MB_SIZE))
    if not use16.all():
        rec[~use16] = merge_blocks(
            residual_pixels(levels8, qp, flat_quant, counters), MB_SIZE
        )
    if levels16.shape[0]:
        rec[use16] = residual_pixels(levels16, qp, flat_quant, counters)
    return rec


@dataclass
class PFramePlan:
    """The coded description of one P frame, plus its predictors.

    The encoder decides it, the decoder parses it, and
    :meth:`FrameReconstructor.reconstruct_p` rebuilds the pixels from it.
    ``levels8`` holds the 8x8 blocks of macroblocks that chose the small
    transform (four per MB, MB raster order); ``levels16`` the single
    blocks of macroblocks that chose the large transform; ``use16`` says
    which is which, indexed over ``nonskip_idx`` -- as are the predictors
    (see :meth:`FrameReconstructor.predict_p`).
    """

    modes: np.ndarray
    nonskip_idx: np.ndarray
    use16: np.ndarray
    levels8: np.ndarray
    levels16: np.ndarray
    chroma_levels: np.ndarray
    luma_pred: np.ndarray
    chroma_pred: np.ndarray

    def mb_levels(self) -> Dict[int, np.ndarray]:
        """Per-MB quantized luma levels: ``{mb_index: (blocks, S, S)}``.

        Trace generation consumes this view (it needs per-macroblock
        significance and sign bits regardless of transform size).
        """
        out = {}
        eight = self.levels8.reshape(-1, 4, 8, 8)
        i8 = 0
        i16 = 0
        for j, mb in enumerate(self.nonskip_idx.tolist()):
            if self.use16[j]:
                out[mb] = self.levels16[i16][None]
                i16 += 1
            else:
                out[mb] = eight[i8]
                i8 += 1
        return out


class FrameReconstructor:
    """Coded-frame geometry, and the pixels every coded frame turns into.

    ``tools`` supplies the coding-tool switches reconstruction depends on
    (``transform_size``, ``deblock``, ``flat_quant``, ``chroma_subpel``):
    the encoder's config, or the stream header it was written into.
    """

    def __init__(
        self, width: int, height: int, tools: Union[EncoderConfig, StreamHeader]
    ) -> None:
        self.tools = tools
        self.coded_w, self.coded_h = coded_size(width, height)
        self.n_mb = (self.coded_w // MB_SIZE) * (self.coded_h // MB_SIZE)
        self.ys, self.xs = block_positions(self.coded_h, self.coded_w, MB_SIZE)
        self.cys, self.cxs = self.ys // 2, self.xs // 2
        self._plane_shapes = tuple(
            (self.coded_h * size // MB_SIZE, self.coded_w * size // MB_SIZE)
            for size in _SIZES
        )

    def reconstruct_intra(
        self,
        residual: Callable[[int, slice, np.ndarray], np.ndarray],
        counters: Counters,
    ) -> Planes:
        """Unfiltered planes of a DC-predicted intra frame.

        Block ``(r, c)``'s DC reads the bottom row of ``(r - 1, c)`` and the
        right column of ``(r, c - 1)``, so the walk goes anti-diagonal by
        anti-diagonal (raster indices ``cols - 1`` apart: a strided slice),
        keeping only the clipped edges of finished blocks; each plane is
        built once at the end, as ``clip(residual + dc)`` over all blocks.

        ``residual(0, sl, dcs)`` supplies the ``(m, 16, 16)`` pixel-domain
        luma residual of macroblocks ``sl`` given their ``(m,)`` DC
        predictors; ``residual(1, sl, dcs)`` the ``(2, m, 8, 8)`` U/V pair
        given ``(2, m)`` predictors.  The encoder codes the blocks right
        there (its levels depend on the predictors); the decoder's residual
        does not, so it hands out slices of one whole-frame dequant + IDCT.
        """
        n, rows, cols = self.n_mb, self.coded_h // MB_SIZE, self.coded_w // MB_SIZE
        step = max(cols - 1, 1)  # one column: every wavefront is one block
        # Per walk (luma; the U/V pair): residual, DC, bottom row, right column.
        walks = []
        for lead, size in (((), MB_SIZE), ((2,), MB_SIZE // 2)):
            shapes = ((n, size, size), (n,), (n, size), (n, size))
            walks.append(tuple(np.empty(lead + shape) for shape in shapes))
        for k in range(rows + cols - 1):
            r0, r1 = max(0, k - cols + 1), min(k, rows - 1)
            m, first = r1 - r0 + 1, r0 * cols + k - r0
            sl = slice(first, first + (m - 1) * step + 1, step)
            # lo..hi-1 have both neighbours; (0, k) lacks up, (k, 0) left.
            lo, hi = int(r0 == 0), m - int(r1 == k)
            both = slice(first + lo * step, first + (hi - 1) * step + 1, step)
            up = slice(both.start - cols, both.stop - cols, step)
            left = slice(both.start - 1, both.stop - 1, step)
            for plane, (res, dc, bottom, right) in enumerate(walks):
                dc_k = np.full(dc.shape[:-1] + (m,), FLAT_PREDICTOR)
                if lo < hi:
                    dc_k[..., lo:hi] = edge_dc(bottom[..., up, :], right[..., left, :])
                if k and lo:
                    dc_k[..., 0] = edge_dc(None, right[..., k - 1, :])
                if k and hi < m:
                    dc_k[..., -1] = edge_dc(bottom[..., (k - 1) * cols, :], None)
                res_k = residual(plane, sl, dc_k)
                res[..., sl, :, :], dc[..., sl] = res_k, dc_k
                edge = dc_k[..., None]
                bottom[..., sl, :] = np.clip(res_k[..., -1, :] + edge, 0, 255)
                right[..., sl, :] = np.clip(res_k[..., -1] + edge, 0, 255)
        counters.add("intra_pred", 3 * n)
        counters.add("recon", n)
        (res_y, dc_y, _, _), (res_c, dc_c, _, _) = walks
        luma_shape, chroma_shape = self._plane_shapes[:2]
        u, v = np.clip(res_c + dc_c[..., None, None], 0, 255)
        return (
            from_blocks(np.clip(res_y + dc_y[..., None, None], 0, 255), *luma_shape),
            from_blocks(u, *chroma_shape),
            from_blocks(v, *chroma_shape),
        )

    def predict_p(
        self,
        refs: Sequence[Planes],
        pad: int,
        cpad: int,
        modes: np.ndarray,
        mvs: np.ndarray,
        ref_idx: np.ndarray,
        nonskip_idx: np.ndarray,
        counters: Counters,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictors of a P frame's non-skip macroblocks.

        Inter blocks are motion compensated from the reference ``ref_idx``
        picks; intra blocks get the flat predictor.  ``refs`` holds the
        reference pictures most recent first, padded by ``pad``/``cpad``.
        Returns ``(luma_pred, chroma_pred)`` shaped ``(n_ns, 16, 16)`` and
        ``(2, n_ns, 8, 8)``.
        """
        n_ns = nonskip_idx.size
        half = MB_SIZE // 2
        luma_pred = np.full((n_ns, MB_SIZE, MB_SIZE), FLAT_PREDICTOR)
        chroma_pred = np.full((2, n_ns, half, half), FLAT_PREDICTOR)
        inter_sel = modes[nonskip_idx] == int(BlockMode.INTER)
        for ref, (ref_y, ref_u, ref_v) in enumerate(refs):
            pick = inter_sel & (ref_idx[nonskip_idx] == ref)
            if not pick.any():
                continue
            sel = nonskip_idx[pick]
            luma_pred[pick] = motion_compensate(
                ref_y, pad, mvs[sel], self.ys[sel], self.xs[sel], MB_SIZE,
                counters=counters,
            )
            for plane, ref_c in enumerate((ref_u, ref_v)):
                chroma_pred[plane, pick] = motion_compensate_chroma(
                    ref_c, cpad, mvs[sel], self.cys[sel], self.cxs[sel], half,
                    subpel=self.tools.chroma_subpel, counters=counters,
                )
        return luma_pred, chroma_pred

    def reconstruct_p(
        self,
        ref: Planes,
        pad: int,
        cpad: int,
        plan: PFramePlan,
        qp: int,
        qp_c: int,
        counters: Counters,
    ) -> Planes:
        """Unfiltered planes of a P frame.

        Skip macroblocks copy the co-located block of ``ref`` (the most
        recent reference, padded by ``pad``/``cpad``); the others are
        ``clip(predictor + residual)``.
        """
        blocks = [np.empty((self.n_mb, size, size)) for size in _SIZES]
        skip_idx = np.nonzero(plan.modes == int(BlockMode.SKIP))[0]
        if skip_idx.size:
            zeros = np.zeros((skip_idx.size, 2), dtype=np.int64)
            blocks[0][skip_idx] = motion_compensate(
                ref[0], pad, zeros, self.ys[skip_idx], self.xs[skip_idx], MB_SIZE,
                counters=counters,
            )
            for plane in (1, 2):
                # Uncounted (counters=None): the cycle model has never been
                # charged for the chroma skip copy, and counting it now would
                # move every modelled time (ROADMAP item 1(b) re-baselines it).
                blocks[plane][skip_idx] = motion_compensate_chroma(
                    ref[plane], cpad, zeros, self.cys[skip_idx], self.cxs[skip_idx],
                    MB_SIZE // 2, subpel=False, counters=None,
                )
        n_ns = plan.nonskip_idx.size
        if n_ns:
            flat = self.tools.flat_quant
            luma_res = reconstruct_luma_residual(
                plan.levels8, plan.levels16, plan.use16, qp, flat, counters
            )
            chroma_res = residual_pixels(plan.chroma_levels, qp_c, flat, counters)
            for out, pred, res in zip(
                blocks,
                (plan.luma_pred, plan.chroma_pred[0], plan.chroma_pred[1]),
                (luma_res, chroma_res[:n_ns], chroma_res[n_ns:]),
            ):
                out[plan.nonskip_idx] = np.clip(pred + res, 0, 255)
        counters.add("recon", self.n_mb)
        return tuple(
            from_blocks(out, height, width)
            for out, (height, width) in zip(blocks, self._plane_shapes)
        )

    def filter_and_snap(
        self,
        planes: Planes,
        modes: Optional[np.ndarray],
        qp: int,
        qp_c: int,
        counters: Counters,
    ) -> Planes:
        """Deblock unfiltered planes and snap them to the 8-bit pixel grid.

        ``modes`` (P frames; ``None`` for I frames) gates the loop filter:
        only edges touching a coded macroblock are filtered (boundary
        strength), so static skip regions stay bit-identical to the
        reference.
        """
        tsize = self.tools.transform_size
        if self.tools.deblock:
            luma_active = chroma_active = None
            if modes is not None:
                chroma_active = (modes != int(BlockMode.SKIP)).reshape(
                    self.coded_h // MB_SIZE, self.coded_w // MB_SIZE
                )
                k = MB_SIZE // tsize
                luma_active = np.repeat(np.repeat(chroma_active, k, axis=0), k, axis=1)
            planes = (
                deblock_plane(planes[0], tsize, qp, luma_active, counters),
                deblock_plane(planes[1], 8, qp_c, chroma_active, counters),
                deblock_plane(planes[2], 8, qp_c, chroma_active, counters),
            )
        # References must be bit-identical on both sides, and uint8 storage
        # is the common denominator.
        return tuple(np.clip(np.rint(plane), 0, 255) for plane in planes)
