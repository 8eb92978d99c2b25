"""Transcode-time prediction and deadline-aware scheduling.

Covers the prediction stack bottom-up: probe features, the linear
models and their committed coefficients, the pure retraining procedure,
the deadline scheduler's selection rules, the admission estimator's
cold-start seeding, and the end-to-end traffic claim -- the predictor
arm must improve the Live deadline-hit rate over the EWMA arm at equal
or lower cost, deterministically.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.scenarios import Scenario
from repro.encoders.base import RateSpec
from repro.pipeline.costs import CostModel
from repro.pipeline.scheduler import (
    DEFAULT_CANDIDATES,
    DeadlineScheduler,
    ScheduleDecision,
    quality_rank,
)
from repro.predict import (
    FEATURE_NAMES,
    TRAIN_SPECS,
    extract_features,
    train_predictor,
    training_corpus,
)
from repro.predict.model import (
    MODEL_VERSION,
    RATE_MODES,
    TranscodeTimePredictor,
    coefficients_path,
    default_predictor,
    rate_mode,
)
from repro.predict.train import DEFAULT_RIDGE
from repro.traffic import (
    ArrivalConfig,
    AutoscalerConfig,
    PredictionStats,
    ServiceTimeEstimator,
    TrafficConfig,
    chaos_bench_dict,
    run_traffic,
    sched_bench_dict,
)
from repro.video.synthesis import synthesize

REPO = Path(__file__).resolve().parent.parent


def _clip(content="natural", seed=3):
    return synthesize(content, 48, 32, 6, 12.0, seed=seed)


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_deterministic_and_fixed_order(self):
        video = _clip()
        first = extract_features(video)
        second = extract_features(video)
        assert first == second
        assert len(first.vector()) == len(FEATURE_NAMES)
        assert first.vector()[0] == 1.0  # bias term leads

    def test_content_changes_features(self):
        lively = extract_features(_clip("sports"))
        static = extract_features(_clip("slideshow"))
        assert lively != static
        assert lively.entropy_bpps > static.entropy_bpps

    def test_no_wall_clock_leaks_into_vector(self):
        # Every entry must be a pure function of the pixels; two probe
        # runs at different wall times already proved stability above,
        # so here just pin the geometry-derived terms.
        video = _clip()
        features = extract_features(video)
        assert features.frames == len(video)
        assert features.fps == video.fps
        assert features.probe_seconds > 0.0


# ---------------------------------------------------------------------------
# Models and the committed coefficients
# ---------------------------------------------------------------------------


class TestPredictorModel:
    def test_committed_coefficients_load_and_cover_the_farm_pool(self):
        predictor = default_predictor()
        assert set(TRAIN_SPECS) <= set(predictor.specs())
        for key in predictor.models:
            spec, _, mode = key.partition("|")
            assert mode in RATE_MODES
            assert spec in TRAIN_SPECS

    def test_rate_mode_downgrades_two_pass_on_hardware(self):
        abr2 = RateSpec.for_bitrate(50_000.0, two_pass=True)
        assert rate_mode("x264:medium", abr2) == "abr2"
        assert rate_mode("qsv", abr2) == "abr1"
        assert rate_mode("qsv", RateSpec.for_crf(18)) == "crf"

    def test_version_mismatch_rejected(self):
        payload = default_predictor().as_dict()
        payload["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            TranscodeTimePredictor.from_dict(payload)

    def test_predictions_are_positive(self):
        predictor = default_predictor()
        features = extract_features(_clip("gaming"))
        for spec in predictor.specs():
            seconds = predictor.predict_seconds(
                spec, RateSpec.for_crf(18), features
            )
            assert seconds > 0.0


@pytest.fixture(scope="session")
def trained_predictor():
    """One training run at the committed arguments (the dear one: every
    corpus clip through every farm spec), shared by the tests that read it."""
    return train_predictor(specs=TRAIN_SPECS, seed=0, ridge=DEFAULT_RIDGE)


class TestTraining:
    def test_corpus_is_pure_in_seed(self):
        first = training_corpus(3)
        second = training_corpus(3)
        assert [v.name for v in first] == [v.name for v in second]
        assert len(first) == 12
        # A different seed keeps the slate's shape but changes the pixels.
        reseeded = training_corpus(4)
        assert [v.name for v in reseeded] == [v.name for v in first]
        assert extract_features(reseeded[0]) != extract_features(first[0])

    def test_retrain_is_byte_identical(self, trained_predictor):
        # A second training in this process -- of two specs only: each
        # spec's models are fitted on their own, so they must come out as
        # the very floats the full training produced.
        again = train_predictor(specs=("qsv", "x264:ultrafast"), seed=0)
        assert again.models
        for key, model in again.models.items():
            assert model == trained_predictor.models[key]

    def test_committed_coefficients_regenerate_exactly(self, trained_predictor):
        # The reproducibility contract: the shipped file IS the output
        # of the pure training procedure at its committed arguments.
        committed = coefficients_path().read_text(encoding="utf-8")
        assert trained_predictor.to_json() == committed

    def test_fit_is_accurate_on_the_corpus(self):
        predictor = default_predictor()
        errors = []
        for video in training_corpus(0):
            features = extract_features(video)
            from repro.encoders.registry import get_transcoder

            for spec in ("x264:veryfast", "qsv"):
                actual = get_transcoder(spec).transcode(
                    video, RateSpec.for_crf(18)
                ).seconds
                predicted = predictor.predict_seconds(
                    spec, RateSpec.for_crf(18), features
                )
                errors.append(abs(predicted - actual) / actual)
        assert sum(errors) / len(errors) < 0.15


# ---------------------------------------------------------------------------
# The deadline scheduler
# ---------------------------------------------------------------------------


class TestQualityRank:
    def test_hardware_is_the_floor(self):
        assert quality_rank("qsv") == 0
        assert quality_rank("nvenc") == 0

    def test_software_ranks_by_preset_ladder(self):
        ranks = [
            quality_rank(f"x264:{p}")
            for p in ("ultrafast", "veryfast", "medium", "veryslow")
        ]
        assert ranks == sorted(ranks)
        assert ranks[0] > quality_rank("qsv")


class TestDeadlineScheduler:
    @pytest.fixture(scope="class")
    def features(self):
        return extract_features(_clip("natural"))

    def test_generous_budget_picks_best_quality(self, features):
        scheduler = DeadlineScheduler()
        decision = scheduler.choose(features, RateSpec.for_crf(18), 1e9)
        assert decision.fits_budget
        assert decision.quality_rank == max(
            quality_rank(s) for s in DEFAULT_CANDIDATES
        )

    def test_tighter_budget_never_raises_quality(self, features):
        # Monotonicity: shrinking the budget can only hold or lower the
        # chosen quality rank, never raise it.
        scheduler = DeadlineScheduler()
        rate = RateSpec.for_crf(18)
        budgets = [1e9, 1.0, 0.1, 0.01, 1e-4, 1e-7]
        ranks = [scheduler.choose(features, rate, b).quality_rank
                 for b in budgets]
        assert ranks == sorted(ranks, reverse=True)

    def test_nothing_fits_falls_to_fastest(self, features):
        scheduler = DeadlineScheduler()
        rate = RateSpec.for_crf(18)
        decision = scheduler.choose(features, rate, 0.0)
        assert not decision.fits_budget
        fastest = min(
            scheduler.predictor.predict_seconds(spec, rate, features)
            for spec in scheduler.candidates
            if scheduler.predictor.can_predict(spec, rate)
        )
        assert decision.predicted_s == fastest

    def test_measured_times_trump_the_model(self, features):
        # A known service time for the best rung makes it eligible even
        # when the model alone would have rejected it.
        scheduler = DeadlineScheduler()
        rate = RateSpec.for_crf(18)
        model_best = scheduler.choose(features, rate, 1e9)
        tight = model_best.predicted_s / 2.0
        without = scheduler.choose(features, rate, tight)
        assert without.quality_rank < model_best.quality_rank
        with_measured = scheduler.choose(
            features, rate, tight, {model_best.spec: tight}
        )
        assert with_measured.spec == model_best.spec
        assert with_measured.predicted_s == tight

    def test_upload_budget_is_throughput_not_deadline(self, features):
        scheduler = DeadlineScheduler(upload_factor=4.0)
        video = _clip()
        assert scheduler.budget_for(video, Scenario.UPLOAD, 0.5) == (
            pytest.approx(video.duration * 4.0)
        )
        assert scheduler.budget_for(video, Scenario.LIVE, 0.5) == 0.5

    def test_cost_breaks_ties_and_is_priced_by_the_model(self, features):
        model = CostModel(compute_per_hour=3600.0)  # $1 per second
        scheduler = DeadlineScheduler(cost_model=model)
        decision = scheduler.choose(features, RateSpec.for_crf(18), 1e9)
        assert decision.cost_usd == pytest.approx(decision.predicted_s)
        assert isinstance(decision, ScheduleDecision)

    def test_remaining_budget_downgrades_the_rung(self, features):
        # A redelivered job's elapsed time is sunk: re-planning against
        # what is left must drop the rung once the remainder no longer
        # fits the original choice.
        scheduler = DeadlineScheduler()
        rate = RateSpec.for_crf(18)
        best = scheduler.choose(features, rate, 1e9)
        budget = best.predicted_s * 1.5
        fresh = scheduler.choose_remaining(features, rate, budget, 0.0)
        assert fresh.spec == best.spec  # nothing elapsed, nothing changes
        replanned = scheduler.choose_remaining(
            features, rate, budget, budget * 0.9
        )
        assert replanned.quality_rank < best.quality_rank
        # A fully spent (or overspent) budget falls to the fastest rung.
        spent = scheduler.choose_remaining(features, rate, budget, budget * 2)
        assert not spent.fits_budget
        assert spent.spec == scheduler.choose(features, rate, 0.0).spec

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduler(candidates=())
        with pytest.raises(ValueError):
            DeadlineScheduler(time_scale=0.0)
        with pytest.raises(ValueError):
            DeadlineScheduler(upload_factor=-1.0)
        with pytest.raises(ValueError):
            DeadlineScheduler().choose_remaining(
                extract_features(_clip("natural")),
                RateSpec.for_crf(18),
                1.0,
                -0.5,
            )


# ---------------------------------------------------------------------------
# Admission estimator cold start
# ---------------------------------------------------------------------------


class TestServiceTimeEstimator:
    def test_cold_start_uses_seed_hook_not_other_classes(self):
        # The Live fast-shed regression: before the seed hook existed, a
        # cold class fell back to estimates polluted by other classes'
        # service times.  Now: known > seed > per-class EWMA > prior.
        estimator = ServiceTimeEstimator(
            seed=lambda scenario, key: 2.5 if scenario is Scenario.LIVE else None
        )
        estimator.observe(Scenario.UPLOAD, 0, 50.0)
        assert estimator.expected(Scenario.LIVE, 0) == 2.5
        assert estimator.expected(Scenario.VOD, 0) == 0.0  # prior, not 50

    def test_known_trumps_seed(self):
        estimator = ServiceTimeEstimator(seed=lambda s, k: 99.0)
        estimator.observe(Scenario.LIVE, 7, 1.25)
        assert estimator.expected(Scenario.LIVE, 7) == 1.25
        assert estimator.expected(Scenario.LIVE, 8) == 99.0

    def test_ewma_blends_within_a_class(self):
        estimator = ServiceTimeEstimator(alpha=0.5)
        estimator.observe(Scenario.VOD, 1, 4.0)
        estimator.observe(Scenario.VOD, 2, 8.0)
        # Unseen key in a warm class: the class EWMA, untouched by the
        # other classes.
        assert estimator.expected(Scenario.VOD, 3) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            ServiceTimeEstimator(prior_s=-1.0)


# ---------------------------------------------------------------------------
# End-to-end: the predictor arm must beat EWMA under stress
# ---------------------------------------------------------------------------


def _stress_config(use_predictor):
    # The BENCH_sched.json profile: a catalog large enough that most
    # titles are unseen (the regime the predictor exists for) and spikes
    # inside the window so deadlines actually bind.
    return TrafficConfig(
        arrivals=ArrivalConfig(
            duration_s=300.0,
            rps=0.8,
            spike_spacing_s=100.0,
            spike_duration_s=60.0,
        ),
        autoscaler=AutoscalerConfig(max_workers=5),
        catalog_size=48,
        use_predictor=use_predictor,
    )


@pytest.fixture(scope="module")
def stress_reports():
    ewma = run_traffic(config=_stress_config(False), seed=7)
    pred = run_traffic(config=_stress_config(True), seed=7)
    return ewma, pred


class TestPredictorTraffic:
    def test_predictor_run_is_byte_stable(self, stress_reports):
        _, pred = stress_reports
        again = run_traffic(config=_stress_config(True), seed=7)
        assert again.to_json() == pred.to_json()
        assert again.to_text() == pred.to_text()
        assert pred.predictor_enabled

    def test_live_hit_rate_improves_at_no_extra_cost(self, stress_reports):
        ewma, pred = stress_reports
        assert (
            pred.scenarios["live"].deadline_hit_rate
            > ewma.scenarios["live"].deadline_hit_rate
        )
        assert pred.total_cost_usd <= ewma.total_cost_usd
        assert pred.slo_violations <= ewma.slo_violations

    def test_predictions_are_graded_in_both_arms(self, stress_reports):
        for report in stress_reports:
            live = report.scenarios["live"]
            assert live.prediction.count > 0
            assert live.prediction.mape < 0.05
            assert live.scheduled_specs  # the chosen rungs are surfaced

    def test_sched_bench_dict_matches_committed_baseline(
        self, stress_reports
    ):
        import json

        record = sched_bench_dict(*stress_reports)
        committed = json.loads((REPO / "BENCH_sched.json").read_text())
        assert record == committed

    def test_sched_bench_dict_rejects_mismatched_arms(self, stress_reports):
        ewma, pred = stress_reports
        # The check reads the report's own ``seed``: no third run needed.
        other = dataclasses.replace(pred, seed=8)
        with pytest.raises(ValueError, match="same seed"):
            sched_bench_dict(ewma, other)
        with pytest.raises(ValueError, match="same seed"):
            chaos_bench_dict("full", ewma, ewma, other)

    def test_prediction_stats_reduction(self):
        stats = PredictionStats.from_samples(
            [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]
        )
        assert stats.count == 3
        assert stats.mape == pytest.approx((0.5 + 0.0 + 0.5) / 3)
        assert stats.p99_overrun_s == 1.0
        assert stats.p99_underrun_s == 1.0
        assert PredictionStats.from_samples([]) == PredictionStats()
