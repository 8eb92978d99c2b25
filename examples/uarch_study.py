"""Microarchitecture + SIMD study across content classes (Sections 5.1-5.2).

Encodes one clip per content class with tracing enabled, replays the
traces through the cache/branch models, and prints the Figure 5/6/7
quantities side by side -- the entropy sensitivity the paper argues a
benchmark must expose.

    python examples/uarch_study.py
"""

from repro.simd.analysis import (
    amdahl_speedup_bound,
    scalar_fraction,
    vector_fraction_by_isa,
)
from repro.simd.isa import IsaLevel
from repro.uarch.cpu import profile_encode
from repro.uarch.topdown import top_down
from repro.video.entropy import measure_entropy
from repro.video.synthesis import CONTENT_CLASSES, synthesize


def main() -> None:
    print(
        f"{'class':<11} {'entropy':>8} {'I$MPKI':>7} {'brMPKI':>7} "
        f"{'llcMPKI':>8} {'FE':>6} {'RET':>6} {'scalar':>7} {'avx2':>6}"
    )
    for content in sorted(CONTENT_CLASSES):
        clip = synthesize(content, 112, 64, 14, 30.0, seed=9)
        entropy = measure_entropy(clip)
        profile = profile_encode(clip, config="medium", crf=23)
        counters = profile.counters
        breakdown = top_down(counters, profile)
        fractions = vector_fraction_by_isa(counters)
        print(
            f"{content:<11} {entropy:>8.2f} {profile.icache_mpki:>7.2f} "
            f"{profile.branch_mpki:>7.2f} {profile.llc_mpki:>8.3f} "
            f"{breakdown.frontend:>6.3f} {breakdown.retiring:>6.3f} "
            f"{scalar_fraction(counters):>7.3f} "
            f"{fractions[IsaLevel.AVX2]:>6.3f}"
        )
        if content == sorted(CONTENT_CLASSES)[-1]:
            bound = amdahl_speedup_bound(counters)
            print(
                f"\nAmdahl bound for 2x wider AVX2 on the last clip: "
                f"{bound:.3f}x (the paper's '<10%' wall)"
            )


if __name__ == "__main__":
    main()
