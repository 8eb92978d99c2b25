"""Preset ladder: validation and monotone effort semantics."""

import pytest

from repro.codec.presets import PRESETS, EncoderConfig, preset


class TestConfigValidation:
    def test_defaults_valid(self):
        EncoderConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"search_method": "zigzag"},
            {"search_range": -1},
            {"entropy_coder": "huffman"},
            {"transform_size": 4},
            {"me_iterations": 0},
            {"keyint": 0},
            {"subpel_depth": 3},
            {"skip_bias": 0},
            {"skip_bias": float("nan")},  # would disable early skip
            {"skip_bias": float("inf")},  # would skip every block
            {"scene_cut": float("nan")},  # would never cut
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EncoderConfig(**kwargs)

    def test_derived_replaces(self):
        cfg = preset("medium").derived(search_range=32)
        assert cfg.search_range == 32
        assert cfg.entropy_coder == preset("medium").entropy_coder

    def test_frozen(self):
        with pytest.raises(Exception):
            preset("medium").search_range = 1


class TestLadder:
    def test_expected_presets_exist(self):
        assert list(PRESETS) == [
            "ultrafast",
            "veryfast",
            "fast",
            "medium",
            "slow",
            "veryslow",
            "placebo",
        ]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("turbo")

    def test_search_range_monotone_over_log_presets(self):
        # placebo switches to exhaustive search, so its range is not
        # comparable; the log-search ladder must widen monotonically.
        log_presets = [n for n in PRESETS if PRESETS[n].search_method == "log"]
        ranges = [PRESETS[n].search_range for n in log_presets]
        assert all(a <= b for a, b in zip(ranges, ranges[1:]))

    def test_slow_presets_use_cabac(self):
        assert PRESETS["slow"].entropy_coder == "cabac"
        assert PRESETS["veryslow"].entropy_coder == "cabac"
        assert PRESETS["ultrafast"].entropy_coder == "cavlc"

    def test_only_top_presets_use_rdoq(self):
        assert not PRESETS["medium"].rdoq
        assert PRESETS["veryslow"].rdoq

    def test_subpel_depth_monotone(self):
        depths = [PRESETS[name].subpel_depth for name in PRESETS]
        assert all(a <= b for a, b in zip(depths, depths[1:]))

    def test_placebo_exhaustive(self):
        assert PRESETS["placebo"].search_method == "full"
