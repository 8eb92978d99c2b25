"""Suite construction and scenario runs: the benchmark's front door.

``vbench_suite()`` builds the 15-video suite from the synthetic corpus via
the Section 4.1 selection pipeline (cached per profile/seed, because
selection re-measures entropy with real encodes).  ``run_scenario()``
takes any backend through a scenario across the whole suite and returns a
:class:`ScenarioReport` with the per-video ratios and scores the paper's
reporting rules require (Section 4.3: report per video; do not average).

Both ``run_scenario`` and ``prime_references`` map one per-video body
over the suite: in-process against the suite's own reference store, or
(``jobs > 1``) over a fork-based process pool -- Li et al. (PAPERS.md)
show transcode farms live or die on parallel task scheduling.  Results
come back in suite order and every encode is deterministic, so the two
paths produce byte-identical reports.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constants import SUITE_SELECTION_SEED
from repro.corpus.synthetic import PROFILES, RenderProfile, SyntheticCorpus
from repro.encoders.base import Transcoder, TranscodeResult
from repro.encoders.registry import get_transcoder
from repro.exec.cache import CacheStats, TranscodeCache
from repro.simd.analysis import modeled_seconds
from repro.simd.isa import IsaLevel
from repro.video.video import Video

from repro.core.harness import candidate_for_scenario
from repro.core.reference import Reference, ReferenceStore
from repro.core.scenarios import Scenario, ScenarioScore, score_scenario
from repro.core.selection import SelectedVideo, select_suite_videos

__all__ = [
    "SuiteVideo",
    "BenchmarkSuite",
    "ScenarioReport",
    "vbench_suite",
    "run_scenario",
    "prime_references",
    "run_platform",
]


@dataclass
class SuiteVideo:
    """One benchmark video: the clip plus its Table 2 row."""

    name: str
    video: Video
    kpixels: int
    framerate: int
    entropy: float
    nominal_resolution: Tuple[int, int]


@dataclass
class BenchmarkSuite:
    """The selected suite plus its own (non-shared) reference store.

    ``videos`` is stored as a tuple: the membership of a built suite is
    immutable, so no caller can perturb another's view of it.  Each suite
    carries a *fresh* :class:`ReferenceStore` -- references accumulated
    by one run never leak into an unrelated one.
    """

    videos: Sequence[SuiteVideo]
    profile: RenderProfile
    seed: int
    references: ReferenceStore = field(default_factory=ReferenceStore)

    def __post_init__(self) -> None:
        self.videos = tuple(self.videos)
        if not self.videos:
            raise ValueError("a benchmark suite needs at least one video")

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self):
        return iter(self.videos)

    def names(self) -> List[str]:
        return [v.name for v in self.videos]

    def table2(self) -> List[Tuple[str, str, int, float]]:
        """Rows of Table 2: (resolution, name, framerate, entropy)."""
        return [
            (
                f"{v.nominal_resolution[0]}x{v.nominal_resolution[1]}",
                v.name,
                v.framerate,
                round(v.entropy, 1),
            )
            for v in self.videos
        ]


#: Caches the *selection* (the expensive part: k-means plus real encodes
#: for entropy re-measurement), never a built suite.  Every vbench_suite()
#: call assembles a fresh BenchmarkSuite around the cached selection, so
#: no two callers ever share a mutable suite or reference store.
_SELECTION_CACHE: Dict[Tuple[str, int, int], Tuple[SelectedVideo, ...]] = {}


def vbench_suite(
    profile: str = "fast",
    k: int = 15,
    seed: int = SUITE_SELECTION_SEED,
    corpus: Optional[SyntheticCorpus] = None,
) -> BenchmarkSuite:
    """Build the vbench suite (selection cached, suite always isolated).

    Args:
        profile: Rendering profile name (``tiny``/``fast``/``bench``/
            ``full``) -- controls stand-in clip scale, see
            :data:`repro.corpus.synthetic.PROFILES`.
        k: Number of videos (the paper uses 15).
        seed: Corpus + selection seed.
        corpus: Optionally reuse an existing corpus (skips regeneration;
            such selections are not cached).

    Returns a *new* :class:`BenchmarkSuite` on every call: the selected
    videos are shared (they are immutable and expensive to recompute) but
    the suite object and its :class:`ReferenceStore` are fresh, so one
    caller's accumulated references and mutations cannot leak into
    another's run.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
        )
    key = (profile, k, seed)
    if corpus is None and key in _SELECTION_CACHE:
        selected = _SELECTION_CACHE[key]
    else:
        corpus_obj = corpus or SyntheticCorpus(seed=seed)
        selected = tuple(
            select_suite_videos(corpus_obj, k=k, profile=profile, seed=seed)
        )
        if corpus is None:
            _SELECTION_CACHE[key] = selected
    return BenchmarkSuite(
        videos=tuple(_suite_video(s) for s in selected),
        profile=PROFILES[profile],
        seed=seed,
    )


def _suite_video(selected: SelectedVideo) -> SuiteVideo:
    return SuiteVideo(
        name=selected.name,
        video=selected.video,
        kpixels=selected.category.kpixels,
        framerate=selected.category.framerate,
        entropy=selected.measured_entropy,
        nominal_resolution=(selected.category.width, selected.category.height),
    )


@dataclass
class ScenarioReport:
    """Per-video scenario results for one backend (Section 4.3 format).

    ``cache`` carries the transcode-cache statistics of the run that
    produced this report (``None`` when no cache was in play).  It is
    deliberately *not* part of :meth:`to_table`: the score table must be
    byte-identical between serial, parallel, cold- and warm-cache runs.
    """

    scenario: Scenario
    backend: str
    scores: List[ScenarioScore]
    candidates: List[TranscodeResult]
    references: List[TranscodeResult]
    cache: Optional[CacheStats] = None

    def to_table(self) -> str:
        """ASCII table: one row per video, ratios and score (or '-')."""
        lines = [
            f"scenario={self.scenario.value} backend={self.backend}",
            f"{'video':<14} {'S':>7} {'B':>7} {'Q':>7} {'score':>8}",
        ]
        for s in self.scores:
            score = f"{s.score:8.2f}" if s.score is not None else f"{'-':>8}"
            lines.append(
                f"{s.video_name:<14} {s.ratios.speed:7.2f} "
                f"{s.ratios.bitrate:7.2f} {s.ratios.quality:7.3f} {score}"
            )
        return "\n".join(lines)

    def valid_scores(self) -> List[float]:
        """Scores of the videos that met the constraint."""
        return [s.score for s in self.scores if s.score is not None]

    def cache_summary(self) -> str:
        """One deterministic line of cache statistics (or a placeholder)."""
        if self.cache is None:
            return "cache: disabled"
        return self.cache.to_line()


_VideoRun = Tuple[
    Reference,
    Optional[TranscodeResult],
    Optional[ScenarioScore],
    Optional[CacheStats],
]


def _run_video(
    refs: ReferenceStore,
    transcoder: Optional[Transcoder],
    video: Video,
    scenario: Scenario,
    bisect_iterations: int,
) -> _VideoRun:
    """One suite video: its reference, then (unless ``transcoder`` is
    ``None``) the candidate and its score, plus ``refs``' cache counters.
    """
    reference = refs.reference(video, scenario)
    candidate = score = None
    if transcoder is not None:
        candidate = candidate_for_scenario(
            transcoder, video, scenario, refs,
            bisect_iterations=bisect_iterations,
        )
        score = score_scenario(scenario, candidate, reference.result)
    stats = refs.cache.stats if refs.cache is not None else None
    return reference, candidate, score, stats


def _pool(jobs: int):
    """A fork-based process pool (fork inherits the loaded interpreter,
    so workers skip re-importing the package)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def _map_suite(
    suite: BenchmarkSuite,
    transcoder: Optional[Transcoder],
    tasks: Sequence[Tuple[Scenario, Video]],
    bisect_iterations: int,
    jobs: int,
    cache: Optional[TranscodeCache],
) -> Tuple[List[_VideoRun], Optional[CacheStats]]:
    """:func:`_run_video` over ``tasks``, in order, ``jobs`` at a time, and
    the cache counters of the whole map (``None`` without a cache).

    In-process the body shares ``suite.references``.  Each pool task gets
    a fresh store with its own handle on ``cache``'s directory; the parent
    installs the references and merges the cache counters it returns.
    """
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    if cache is not None:
        suite.references.attach_cache(cache)
        before = cache.stats.copy()
    if jobs == 1:
        runs = [
            _run_video(
                suite.references, transcoder, video, scenario, bisect_iterations
            )
            for scenario, video in tasks
        ]
    else:
        stores = [ReferenceStore() for _ in tasks]
        if cache is not None:
            for store in stores:
                store.attach_cache(TranscodeCache(cache.root))
        with _pool(jobs) as executor:
            runs = list(
                executor.map(
                    _run_video,
                    stores,
                    repeat(transcoder),
                    [video for _, video in tasks],
                    [scenario for scenario, _ in tasks],
                    repeat(bisect_iterations),
                )
            )
        for (scenario, video), (reference, _, _, stats) in zip(tasks, runs):
            suite.references.install(video, scenario, reference)
            if cache is not None:
                cache.stats.merge(stats)
    return runs, cache.stats.since(before) if cache is not None else None


def run_scenario(
    suite: BenchmarkSuite,
    scenario: Scenario,
    backend: Union[str, Transcoder],
    bisect_iterations: int = 7,
    jobs: int = 1,
    cache: Optional[TranscodeCache] = None,
) -> ScenarioReport:
    """Score ``backend`` under ``scenario`` on every suite video.

    Args:
        jobs: Videos scored concurrently.  ``jobs > 1`` fans out over a
            process pool and produces a byte-identical report.
        cache: Optional persistent transcode cache consulted (and filled)
            by every encode of the run -- candidate, bisection probes,
            and references alike.  The report's ``cache`` field carries
            this run's hit/miss/byte statistics.
    """
    if scenario is Scenario.PLATFORM:
        raise ValueError("use run_platform for the Platform scenario")
    transcoder = (
        get_transcoder(backend) if isinstance(backend, str) else backend
    )
    if jobs > 1:
        try:
            pickle.dumps(transcoder)
        except Exception as error:
            raise ValueError(
                f"backend {backend!r} is not picklable; pass a registry "
                f"spec (e.g. 'x264:medium') for parallel runs"
            ) from error
    runs, stats = _map_suite(
        suite,
        transcoder,
        [(scenario, entry.video) for entry in suite],
        bisect_iterations,
        jobs,
        cache,
    )
    return ScenarioReport(
        scenario=scenario,
        backend=transcoder.name,
        scores=[score for _, _, score, _ in runs],
        candidates=[candidate for _, candidate, _, _ in runs],
        references=[reference.result for reference, _, _, _ in runs],
        cache=stats,
    )


def prime_references(
    suite: BenchmarkSuite,
    scenarios: Union[Scenario, Sequence[Scenario]],
    jobs: int = 1,
    cache: Optional[TranscodeCache] = None,
) -> CacheStats:
    """Generate scenario references for every suite video.

    The references land in ``suite.references``, so a later run
    re-encodes none of them; with a ``cache`` they are also persisted
    for other processes and later runs.  Returns the priming pass's
    cache statistics (all-zero when no cache was given).
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    _, stats = _map_suite(
        suite,
        None,
        [(scenario, entry.video) for scenario in scenarios for entry in suite],
        0,
        jobs,
        cache,
    )
    return stats if stats is not None else CacheStats()


def run_platform(
    suite: BenchmarkSuite,
    isa: IsaLevel,
    baseline_isa: IsaLevel = IsaLevel.AVX2,
) -> List[Tuple[str, float]]:
    """The Platform scenario: same transcode, different machine.

    Re-times the VOD reference transcodes under a different ISA level of
    the cycle model (a stand-in for changing compiler/architecture, as
    the paper describes) and reports ``S`` per video.  Bits and quality
    are identical by construction, so the B = Q = 1 constraint holds.
    """
    results: List[Tuple[str, float]] = []
    for entry in suite:
        reference = suite.references.reference(entry.video, Scenario.PLATFORM)
        counters = reference.result.counters
        base_s = modeled_seconds(counters, isa=baseline_isa)
        new_s = modeled_seconds(counters, isa=isa)
        results.append((entry.name, base_s / new_s))
    return results
