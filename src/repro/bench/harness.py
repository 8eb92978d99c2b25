"""Structured codec benchmark harness: the repro perf trajectory.

The paper scores transcoders along three axes -- speed (Mpixel/s),
bitrate, and quality -- and tracks them across configurations.  This
module gives the repro the same discipline for its *own* codec: one
:class:`BenchmarkResult` record per run, carrying the parameters that
produced the numbers, the metrics worth tracking across PRs, and a
digest that fingerprints the deterministic subset.

Two rules keep the harness honest:

* **Timing comes from the codec, not the harness.**  ``EncodeResult``
  and ``DecodeResult`` already self-report ``wall_seconds`` from their
  sanctioned measurement sites, so the harness never reads a clock.
  That keeps ``repro.bench`` inside the VL001 determinism contract:
  re-running a benchmark can change the timing metrics but nothing
  else.
* **The digest covers only what a machine cannot perturb.**  Bitstream
  size and hash, quality, and the identifying parameters go into the
  SHA-256; wall-clock metrics and the repeat count stay out.  CI runs
  the bench twice and compares the deterministic records byte-for-byte,
  then checks the digest against the committed ``BENCH_codec.json``
  baseline -- a digest drift means the codec's output changed, which is
  exactly what the bit-identical vectorization rule forbids by
  accident.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Optional

from repro.codec.decoder import Decoder
from repro.codec.encoder import encode
from repro.metrics.psnr import psnr
from repro.metrics.speed import megapixels_per_second
from repro.record import sha256_hex, stable_json
from repro.video.synthesis import synthesize

__all__ = [
    "BENCH_VERSION",
    "TIMING_METRICS",
    "BenchmarkResult",
    "run_codec_bench",
]

#: Schema version of the benchmark record.  Bump when the *meaning* of a
#: field changes (renamed metric, different digest coverage), never for a
#: mere value change -- trajectory tooling compares records with equal
#: versions only.
BENCH_VERSION = 1

#: Metric keys derived from wall-clock time.  They vary run to run and
#: machine to machine, so they are excluded from the digest and dropped
#: entirely from the deterministic record CI compares byte-for-byte.
TIMING_METRICS = frozenset(
    {
        "encode_ms_median",
        "decode_ms_median",
        "encode_mpixel_s",
        "decode_mpixel_s",
    }
)

#: Parameters that shape only the measurement, not the artifact.  Like
#: timing metrics they stay out of the digest: five repeats of the same
#: encode produce the same bitstream.
_MEASUREMENT_PARAMETERS = frozenset({"repeats"})


@dataclass
class BenchmarkResult:
    """One benchmark run: name, parameters, metrics, schema version.

    The shape follows the structured-result idiom of real transcoder
    benchmarks (SNIPPETS.md Snippet 1) and mirrors the traffic
    simulator's ``bench_dict`` record, so the perf trajectory stays one
    homogeneous file family (``BENCH_*.json``).
    """

    name: str
    parameters: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    version: int = BENCH_VERSION

    def deterministic_dict(self) -> Dict[str, object]:
        """The machine-independent subset: same bytes on every host."""
        return {
            "name": self.name,
            "version": self.version,
            "parameters": {
                key: value
                for key, value in self.parameters.items()
                if key not in _MEASUREMENT_PARAMETERS
            },
            "metrics": {
                key: value
                for key, value in self.metrics.items()
                if key not in TIMING_METRICS
            },
        }

    def digest(self) -> str:
        """SHA-256 over the deterministic subset -- the trajectory key."""
        return sha256_hex(stable_json(self.deterministic_dict(), indent=None))

    def bench_dict(self, deterministic: bool = False) -> Dict[str, object]:
        """The compact benchmark record (``BENCH_codec.json`` shape).

        With ``deterministic=True`` timing metrics and measurement-only
        parameters are omitted, making the record byte-stable across
        runs; the digest is identical either way because it never covers
        those fields.
        """
        record = self.deterministic_dict()
        if not deterministic:
            record["parameters"] = dict(self.parameters)
            record["metrics"] = dict(self.metrics)
        record["digest"] = self.digest()
        return record

    def to_json(self, deterministic: bool = False) -> str:
        return stable_json(self.bench_dict(deterministic=deterministic))

    def to_text(self) -> str:
        """Human-readable rows for the terminal."""
        lines = [f"{'benchmark':<18} {self.name} (v{self.version})"]
        for key in sorted(self.parameters):
            lines.append(f"{key:<18} {self.parameters[key]}")
        for key in sorted(self.metrics):
            value = self.metrics[key]
            rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"{key:<18} {rendered}")
        lines.append(f"{'digest':<18} {self.digest()}")
        return "\n".join(lines)


def _median_ms(samples) -> float:
    return round(median(samples) * 1e3, 3)


def run_codec_bench(
    preset: str = "medium",
    content: str = "natural",
    width: int = 192,
    height: int = 128,
    frames: int = 12,
    fps: float = 24.0,
    crf: int = 28,
    seed: int = 11,
    repeats: int = 3,
    timings: Optional[Dict[str, list]] = None,
) -> BenchmarkResult:
    """Benchmark one encode+decode configuration of the repro codec.

    The clip is synthesized from a fixed seed, encoded ``repeats`` times
    and decoded ``repeats`` times, and the **median** self-reported wall
    time of each direction feeds the Mpixel/s speed metric -- the
    repeat-and-take-median protocol real codec benchmarks use to shed
    scheduler noise.  Every repeat must produce a byte-identical
    bitstream; a mismatch means the codec broke its determinism contract
    and the run aborts rather than report a number for it.

    Args:
        timings: Optional sink; when given, the raw per-repeat
            ``wall_seconds`` samples are appended under ``"encode"`` and
            ``"decode"`` (useful for variance inspection in tests).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if frames < 1:
        raise ValueError(f"frames must be positive, got {frames}")
    clip = synthesize(content, width, height, frames, fps, seed=seed)

    encode_s = []
    bitstream = None
    recon = None
    for _ in range(repeats):
        result = encode(clip, config=preset, crf=crf)
        if bitstream is None:
            bitstream, recon = result.bitstream, result.recon
        elif result.bitstream != bitstream:
            raise ValueError(
                "encode produced different bitstreams across repeats; "
                "the codec has lost determinism"
            )
        encode_s.append(result.wall_seconds)

    decode_s = []
    decoder = Decoder()
    for _ in range(repeats):
        decoded = decoder.decode(bitstream, name=clip.name)
        decode_s.append(decoded.wall_seconds)

    if timings is not None:
        timings.setdefault("encode", []).extend(encode_s)
        timings.setdefault("decode", []).extend(decode_s)

    parameters = {
        "preset": preset,
        "content": content,
        "width": width,
        "height": height,
        "frames": frames,
        "fps": round(fps, 3),
        "crf": crf,
        "seed": seed,
        "repeats": repeats,
    }
    metrics = {
        "bitstream_bytes": len(bitstream),
        "bitstream_sha256": hashlib.sha256(bitstream).hexdigest(),
        "psnr_db": round(psnr(clip, recon), 3),
        "encode_ms_median": _median_ms(encode_s),
        "decode_ms_median": _median_ms(decode_s),
        "encode_mpixel_s": round(
            megapixels_per_second(clip.pixels, median(encode_s)), 3
        ),
        "decode_mpixel_s": round(
            megapixels_per_second(clip.pixels, median(decode_s)), 3
        ),
    }
    return BenchmarkResult(
        name=f"codec-{preset}", parameters=parameters, metrics=metrics
    )
