"""Transcoding metrics: quality, size, and speed (Section 2.3 of the paper).

All three metrics are normalized so videos of different resolutions and
durations can be compared:

* quality: average YCbCr PSNR in dB (:func:`psnr`), plus SSIM;
* size: bitrate in bits per pixel per second (:func:`bits_per_pixel_second`);
* speed: pixels transcoded per second (:func:`pixels_per_second`).
"""

from repro.metrics.bitrate import bits_per_pixel_second, bitrate_bps
from repro.metrics.psnr import mse, psnr
from repro.metrics.speed import megapixels_per_second, pixels_per_second
from repro.metrics.ssim import ssim, ssim_video

__all__ = [
    "bitrate_bps",
    "bits_per_pixel_second",
    "megapixels_per_second",
    "mse",
    "pixels_per_second",
    "psnr",
    "ssim",
    "ssim_video",
]
