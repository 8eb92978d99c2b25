"""repro: a full reproduction of vbench (ASPLOS 2018).

vbench is a benchmark for cloud video transcoding.  This package rebuilds the
entire system described in the paper from first principles:

* :mod:`repro.video` -- raw YUV420 video, procedural content synthesis, and
  the entropy measure the paper selects videos by.
* :mod:`repro.codec` -- a complete block-based hybrid video codec (motion
  estimation, DCT, quantization, CAVLC/CABAC entropy coding, deblocking,
  CRF/ABR/two-pass rate control, effort presets).
* :mod:`repro.encoders` -- transcoder backends: x264/x265/vp9-class software
  encoders and NVENC/QSV-class hardware encoder models.
* :mod:`repro.metrics` -- PSNR/SSIM quality, normalized bitrate and speed.
* :mod:`repro.corpus` -- a synthetic commercial video corpus, popularity
  model, public-dataset models, and weighted k-means.
* :mod:`repro.core` -- the benchmark itself: algorithmic video selection,
  the five scoring scenarios, reference transcodes, coverage analysis and
  reporting.
* :mod:`repro.uarch` -- cache/branch-predictor simulators and Top-Down cycle
  accounting driven by instrumented encoder traces.
* :mod:`repro.simd` -- ISA-level cycle attribution and Amdahl projections.
* :mod:`repro.pipeline` -- a video sharing service simulation (upload,
  live/VOD, popular re-transcode) with storage/network/compute costs.

Quickstart::

    from repro import vbench_suite, Scenario, run_scenario

    suite = vbench_suite(profile="tiny")
    report = run_scenario(suite, Scenario.VOD, backend="x264:fast")
    print(report.to_table())
"""

from repro.core.benchmark import run_scenario, vbench_suite
from repro.core.scenarios import Scenario
from repro.video.frame import Frame
from repro.video.video import Video

__version__ = "1.0.0"

__all__ = [
    "Frame",
    "Scenario",
    "Video",
    "run_scenario",
    "vbench_suite",
    "__version__",
]
