"""The CPU model: replaying encoder traces through structural simulators.

``CpuModel`` bundles the front end (I-cache + branch predictor) and the
memory side (LLC) with a synthetic code layout: every codec kernel owns a
contiguous code region sized like its real-world footprint, and executing
a kernel touches that region's cache lines in order.  A frame whose
macroblocks alternate between modes (skip next to coded next to intra --
what complex video produces) therefore thrashes the I-cache in a way a
frame of uniform skips cannot; that is the mechanism behind Figure 5's
I$-vs-entropy trend, reproduced rather than asserted.

``profile_encode`` is the one traced-encode path, used by the Figure 5/6
benchmarks, ``repro analyze`` and the uarch example: encode a clip with
tracing enabled and return MPKI numbers alongside the encode's counters.

Scale note: LLC capacity defaults to 1/64 of the paper machine's 8 MiB,
matching the benchmark's 1/8-linear-scale stand-in frames so the
frames-to-cache ratio of the full-size system is preserved (DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.codec.encoder import Encoder
from repro.codec.instrumentation import KERNELS, Counters, TraceRecorder
from repro.codec.presets import EncoderConfig, preset
from repro.codec.ratecontrol import RateControl
from repro.simd.analysis import modeled_instructions
from repro.uarch.branch import GsharePredictor
from repro.uarch.cache import SetAssociativeCache
from repro.video.video import Video

__all__ = ["CpuModel", "UarchProfile", "profile_encode"]

#: Static code footprint per kernel (bytes).  Roughly proportional to the
#: complexity of the corresponding x264 code paths: entropy coding and
#: motion estimation are big, per-pixel arithmetic loops are small.
KERNEL_CODE_BYTES: Dict[str, int] = {
    "frame_setup": 3072,
    "sad": 4096,
    "interp_halfpel": 4096,
    "mc_blocks": 6144,
    "intra_pred": 4096,
    "mode_decision": 6144,
    "dct": 3072,
    "quant": 2048,
    "rdoq": 6144,
    "idct": 3072,
    "dequant": 1536,
    "recon": 1536,
    "entropy_sym": 8192,
    "entropy_bin": 8192,
    "deblock_edge": 3072,
    "ratecontrol": 2048,
    "bitstream_io": 1024,
    "me_blocks": 4096,
}

#: Pseudo-PC multiplier that spreads branch contexts over the predictor.
_BRANCH_PC_STRIDE = 0x9E5
#: Rotating code-subset phases per kernel invocation (see run_trace).
_CODE_PHASES = 8

_LINE = 64


@dataclass
class UarchProfile:
    """Per-encode microarchitectural counters, MPKI-normalized.

    Attributes mirror Figure 5's three panels plus the raw inputs.
    ``counters`` holds the encode's own counters (the Top-Down and SIMD
    models' input) when the profile came from :func:`profile_encode`;
    a bare :meth:`CpuModel.run_trace` replay leaves it ``None``.
    """

    instructions: float
    icache_misses: int
    branch_mispredictions: int
    llc_misses: int
    icache_accesses: int
    branch_count: int
    llc_accesses: int
    counters: Optional[Counters] = field(default=None, compare=False, repr=False)

    def _mpki(self, events: int) -> float:
        if self.instructions <= 0:
            raise ValueError("profile has no instructions")
        return 1000.0 * events / self.instructions

    @property
    def icache_mpki(self) -> float:
        return self._mpki(self.icache_misses)

    @property
    def branch_mpki(self) -> float:
        return self._mpki(self.branch_mispredictions)

    @property
    def llc_mpki(self) -> float:
        return self._mpki(self.llc_misses)


class CpuModel:
    """Front end + memory side of the reference machine.

    Args:
        icache_kib: Instruction cache capacity (32 KiB on Skylake).
        llc_kib: Last-level cache capacity at *simulation scale* (see
            module docstring; 128 KiB stands in for 8 MiB at 1/8 linear
            video scale).
        predictor_bits: gshare table index width.
    """

    def __init__(
        self,
        icache_kib: int = 32,
        llc_kib: int = 128,
        predictor_bits: int = 13,
    ) -> None:
        self.icache = SetAssociativeCache(icache_kib * 1024, _LINE, ways=8)
        self.llc = SetAssociativeCache(llc_kib * 1024, _LINE, ways=16)
        self.predictor = GsharePredictor(table_bits=predictor_bits, history_bits=10)
        # Lay kernels out contiguously in a synthetic code segment and
        # precompute each kernel's line addresses.
        self._kernel_lines: Dict[int, np.ndarray] = {}
        base = 0x0040_0000
        for kid, name in enumerate(KERNELS):
            size = KERNEL_CODE_BYTES[name]
            lines = base + np.arange(0, size, _LINE, dtype=np.int64)
            self._kernel_lines[kid] = lines
            base += size

    # -- replay ---------------------------------------------------------------

    def run_trace(self, trace: TraceRecorder, instructions: float) -> UarchProfile:
        """Replay a recorded trace; returns the MPKI profile.

        When the trace was sampled (``sample_stride > 1``), event counts
        are scaled back up by the stride so MPKI stays comparable.
        """
        stride = max(1, trace.sample_stride)

        kernel_seq = trace.kernels()
        if kernel_seq.size:
            # One invocation executes a rotating quarter of the kernel's
            # static code (loops revisit hot lines; cold paths alternate),
            # so per-call fetch volume stays realistic while the full
            # footprint still contends for the cache.
            phases = dict.fromkeys(self._kernel_lines, 0)
            chunks = []
            for k in kernel_seq.tolist():
                lines = self._kernel_lines[k]
                phase = phases[k]
                phases[k] = (phase + 1) % _CODE_PHASES
                chunks.append(lines[phase::_CODE_PHASES])
            code_addresses = np.concatenate(chunks)
        else:
            code_addresses = np.zeros(0, dtype=np.int64)
        self.icache.reset_stats()
        if code_addresses.size:
            self.icache.access_many(code_addresses)

        contexts, outcomes = trace.branch_events()
        pcs = contexts.astype(np.int64) * _BRANCH_PC_STRIDE
        mispredicts = self.predictor.run(pcs, outcomes) if pcs.size else 0

        mem = trace.memory_accesses()
        self.llc.reset_stats()
        if mem.size:
            self.llc.access_many(mem)

        return UarchProfile(
            instructions=instructions,
            icache_misses=self.icache.misses * stride,
            branch_mispredictions=mispredicts * stride,
            llc_misses=self.llc.misses * stride,
            icache_accesses=self.icache.accesses * stride,
            branch_count=int(outcomes.size) * stride,
            llc_accesses=self.llc.accesses * stride,
        )


def profile_encode(
    video: Video,
    config: "EncoderConfig | str" = "medium",
    crf: Optional[int] = None,
    bitrate_bps: Optional[float] = None,
    cpu: Optional[CpuModel] = None,
    sample_stride: int = 1,
) -> UarchProfile:
    """Encode with tracing enabled and profile the run on a CPU model.

    Exactly one of ``crf``/``bitrate_bps`` selects the rate mode (CRF 23
    if neither is given, the VOD-ish default).
    """
    cfg = preset(config) if isinstance(config, str) else config
    if crf is not None and bitrate_bps is not None:
        raise ValueError("specify at most one of crf and bitrate_bps")
    trace = TraceRecorder(sample_stride=sample_stride)
    encoder = Encoder(cfg, trace=trace)
    if bitrate_bps is not None:
        rate = RateControl.abr(bitrate_bps, video.fps)
    else:
        rate = RateControl.crf(crf if crf is not None else 23)
    result = encoder.encode(video, rate)
    instructions = modeled_instructions(result.counters)
    model = cpu or CpuModel()
    return replace(model.run_trace(trace, instructions), counters=result.counters)
