"""Config validation, config-file parsing, and the seeded random source."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sbvod.caching import SchemeId
from sbvod.domain import (
    _MAX_CHANNELS,
    _MAX_MEAN_GAP_MS,
    MS_PER_MINUTE,
    ConfigError,
    QualityLevel,
    RandomSource,
    SimConfig,
    VideoSpec,
    catalog_from_config,
    derive_seed,
    load_config,
    max_channels,
    validate_config,
)
from sbvod.engine import SimulationError, run_simulation


def _quality(rate=1.5e6, size=5.4e9, prob=1.0, q=1):
    return QualityLevel(q_index=q, stream_rate_bps=rate, size_bits=size, request_prob=prob)


class TestValueTypes:
    def test_quality_level_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            QualityLevel(q_index=0, stream_rate_bps=1.0, size_bits=1.0, request_prob=1.0)
        with pytest.raises(ValueError):
            QualityLevel(q_index=1, stream_rate_bps=0.0, size_bits=1.0, request_prob=1.0)
        with pytest.raises(ValueError):
            QualityLevel(q_index=1, stream_rate_bps=1.0, size_bits=-1.0, request_prob=1.0)
        with pytest.raises(ValueError):
            QualityLevel(q_index=1, stream_rate_bps=1.0, size_bits=1.0, request_prob=1.5)

    def test_video_request_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            VideoSpec(
                id=1,
                length_minutes=60,
                consumption_rate_mbps=1.5,
                popularity=1.0,
                qualities=(_quality(prob=0.6), _quality(prob=0.6, q=2)),
            )
        # A hair inside the tolerance is accepted.
        VideoSpec(
            id=1,
            length_minutes=60,
            consumption_rate_mbps=1.5,
            popularity=1.0,
            qualities=(_quality(prob=0.5), _quality(prob=0.5 + 1e-12, q=2)),
        )

    @pytest.mark.parametrize("field, value, message", [
        ("length_minutes", 0, "length_minutes must be positive"),
        ("consumption_rate_mbps", 0, "consumption_rate_mbps must be positive"),
        ("popularity", 1.5, r"popularity must lie in \[0, 1\]"),
        ("qualities", (), "a video needs at least one quality level"),
    ], ids=["length", "rate", "popularity", "no-qualities"])
    def test_video_rejects_bad_field(self, field, value, message):
        fields = dict(id=1, length_minutes=60, consumption_rate_mbps=1.5, popularity=0.5,
                      qualities=(_quality(prob=1.0),))
        with pytest.raises(ValueError, match=message):
            VideoSpec(**{**fields, field: value})

    def test_video_rejects_duplicate_quality_index(self):
        with pytest.raises(ValueError, match="duplicate q_index"):
            VideoSpec(
                id=1,
                length_minutes=60,
                consumption_rate_mbps=1.5,
                popularity=0.5,
                qualities=(_quality(prob=0.5), _quality(prob=0.5)),
            )


class TestValidateConfig:
    def test_defaults_are_valid(self):
        assert validate_config(SimConfig()) == []

    def test_channel_budget_worked_example(self):
        # 1.5 Mbps x 5 channels x 5 videos = 37.5 fits a 45 Mbps link.
        ok = dataclasses.replace(SimConfig(), bandwidth_mbps=45.0, num_videos=5)
        assert validate_config(ok) == []
        # Seven channels push it to 52.5, over budget.
        bad = dataclasses.replace(
            SimConfig(), bandwidth_mbps=45.0, num_videos=5, channels=7, video_length_minutes=70
        )
        msgs = validate_config(bad)
        assert any("exceeds bandwidth_mbps" in m for m in msgs)

    @staticmethod
    def _budget_msgs(**fields):
        msgs = validate_config(dataclasses.replace(SimConfig(), **fields))
        return [m for m in msgs if m.startswith("channel budget")]

    def test_budget_accepts_what_max_channels_grants(self):
        # 45 - 5e-9 Mbps is a hair short of three 1.5 Mbps channels for each
        # of 10 videos; the float tolerance grants the third channel anyway.
        assert max_channels(45 - 5e-9, 1.5, 10) == 3
        assert validate_config(
            dataclasses.replace(SimConfig(), bandwidth_mbps=45 - 5e-9, num_videos=10, channels=3)
        ) == []

    def test_budget_rejects_what_max_channels_refuses(self):
        # Short of four 0.1 Mbps channels by more than the tolerance.
        assert max_channels(0.4 - 5e-10, 0.1, 1) == 3
        msgs = self._budget_msgs(bandwidth_mbps=0.4 - 5e-10, consumption_rate_mbps=0.1, channels=4)
        assert len(msgs) == 1 and "exceeds bandwidth_mbps" in msgs[0]

    @given(
        rate=st.floats(5e-324, 1e3),
        num_videos=st.integers(1, 1000),
        per_video=st.integers(1, 10_000),
        nudge=st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9])
        | st.floats(-1e-3, 1e-3),
        bandwidth=st.none() | st.floats(1e-3, 1e3),
    )
    @example(rate=1e-308, num_videos=1, per_video=1, nudge=0.0, bandwidth=54.0)
    def test_max_channels_validate_and_one_more_does_not(
        self, rate, num_videos, per_video, nudge, bandwidth
    ):
        # Bandwidths cluster around an exact fit of per_video channels,
        # where the tolerance decides, unless one is drawn outright. Then a
        # vanishing rate fits more channels than any config may have.
        if bandwidth is None:
            bandwidth = per_video * rate * num_videos * (1.0 + nudge)
        k = max_channels(bandwidth, rate, num_videos)
        assert isinstance(k, int) and 0 <= k <= _MAX_CHANNELS
        fields = dict(bandwidth_mbps=bandwidth, consumption_rate_mbps=rate, num_videos=num_videos)
        if k >= 1:
            assert self._budget_msgs(channels=k, **fields) == []
        if k == _MAX_CHANNELS:
            msgs = validate_config(dataclasses.replace(SimConfig(), channels=k + 1, **fields))
            assert msgs[0].startswith("channels must be at most")
        else:
            assert len(self._budget_msgs(channels=k + 1, **fields)) == 1

    def test_zero_bandwidth(self):
        msgs = validate_config(dataclasses.replace(SimConfig(), bandwidth_mbps=0.0))
        assert "bandwidth_mbps must be positive" in msgs

    def test_infinite_link_over_infinite_rate_is_only_non_finite(self):
        # The budget quotient is NaN here; the finiteness messages cover it.
        cfg = dataclasses.replace(SimConfig(), bandwidth_mbps=math.inf, consumption_rate_mbps=math.inf)
        assert validate_config(cfg) == ["bandwidth_mbps must be finite", "consumption_rate_mbps must be finite"]

    def test_empty_video_or_no_channels_rejected(self):
        assert validate_config(dataclasses.replace(SimConfig(), video_length_minutes=0)) == [
            "video_length_minutes must be positive"
        ]
        assert validate_config(dataclasses.replace(SimConfig(), channels=0)) == [
            "channels must be at least 1"
        ]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("num_videos", 0, "num_videos must be at least 1"),
            ("num_lps", 0, "num_lps must be at least 1"),
            ("lps_capacity", 0, "lps_capacity must be at least 1"),
            ("msg_latency_ms", -1, "msg_latency_ms must be non-negative"),
        ],
    )
    def test_value_below_its_floor_rejected(self, field, value, message):
        assert validate_config(dataclasses.replace(SimConfig(), **{field: value})) == [message]

    def test_segment_divisibility(self):
        bad = dataclasses.replace(SimConfig(), channels=7)  # 60 min / 7 is not whole ms
        msgs = validate_config(bad)
        assert any("equal segments" in m for m in msgs)

    def test_warmup_exceeding_horizon(self):
        bad = dataclasses.replace(SimConfig(), horizon_minutes=10.0, warmup_minutes=20.0)
        assert any("warmup" in m for m in validate_config(bad))

    def test_probability_bounds(self):
        bad = dataclasses.replace(SimConfig(), random_cache_prob=1.5)
        assert any("random_cache_prob" in m for m in validate_config(bad))

    def test_validation_is_pure(self):
        cfg = dataclasses.replace(SimConfig(), bandwidth_mbps=-1.0, channels=0)
        assert validate_config(cfg) == validate_config(cfg)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SimConfig) if f.type in ("float", float)]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, name, value):
        # NaN slips through every ordering check, and inf overflows the
        # minute-to-ms conversions, so neither may reach a run.
        cfg = dataclasses.replace(SimConfig(), **{name: value})
        assert f"{name} must be finite" in validate_config(cfg)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("num_lps", 2.0, "num_lps must be an integer"),
            ("num_videos", 2.0, "num_videos must be an integer"),
            ("msg_latency_ms", 20.5, "msg_latency_ms must be an integer"),
            ("num_lps", "2", "num_lps must be an integer"),
            ("channels", True, "channels must be an integer"),
            ("seed", 1.0, "seed must be an integer"),
            ("arrival_rate_per_min", "6", "arrival_rate_per_min must be a number"),
            ("random_cache_prob", True, "random_cache_prob must be a number"),
            ("horizon_minutes", None, "horizon_minutes must be a number"),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, name, value, message):
        # A float in an int field once validated, then broke range() or put
        # fractional ms into integer-ms time; a str made validation raise.
        assert validate_config(dataclasses.replace(SimConfig(), **{name: value})) == [message]

    @pytest.mark.parametrize("name,value", [("num_lps", 2.0), ("num_videos", 2.0), ("msg_latency_ms", 20.5)])
    def test_run_refuses_a_float_in_an_int_field(self, name, value):
        with pytest.raises(SimulationError, match=f"{name} must be an integer"):
            run_simulation(dataclasses.replace(SimConfig(), **{name: value}), SchemeId.PROXY_CACHE)

    def test_int_in_a_float_field_is_a_number(self):
        assert validate_config(SimConfig(bandwidth_mbps=54, arrival_rate_per_min=6, horizon_minutes=300)) == []


    @pytest.mark.parametrize(
        "field,value",
        [
            ("arrival_rate_per_min", 1e-305),
            ("client_range_m", 5e-324),
            ("client_range_m", 1e200),
            ("msg_latency_ms", 10**400),
            ("horizon_minutes", 1e305),
            pytest.param("video_length_minutes", 10**400, id="video_length_minutes-10**400"),
            pytest.param("channels", 10**400, id="channels-10**400"),
            pytest.param("num_videos", 10**400, id="num_videos-10**400"),
        ],
    )
    def test_values_that_overflow_a_run_rejected(self, field, value):
        # Each of these once validated and then crashed with an OverflowError.
        msgs = validate_config(dataclasses.replace(SimConfig(), **{field: value}))
        assert len(msgs) == 1 and msgs[0].startswith(field)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arrival_rate_per_min", MS_PER_MINUTE / 2.0**1017),
            ("client_range_m", 150.0 / 2.0**52),
            ("client_range_m", 2.0**509),
            ("msg_latency_ms", 2**53),
        ],
    )
    def test_float_limits_are_inclusive(self, field, value):
        assert validate_config(dataclasses.replace(SimConfig(), **{field: value})) == []

    def test_range_whose_square_underflows_rejected(self):
        # Two clients 1e-170 m apart square to 0, "within" a 1e-300 m range.
        small = dict(lf_radius_m=1e-290)
        msgs = validate_config(dataclasses.replace(SimConfig(), client_range_m=1e-300, **small))
        assert len(msgs) == 1 and msgs[0].startswith("client_range_m")
        assert validate_config(dataclasses.replace(SimConfig(), client_range_m=2.0**-500, **small)) == []

    # Each limit at its exact value, with the companions it needs to fit the
    # channel budget and the segment rule, then one step past it.
    _AT_LIMIT = {
        "horizon_minutes": {"horizon_minutes": 2.0**1008},
        "video_length_minutes": {"video_length_minutes": 2**1008},
        "channels": {"channels": MS_PER_MINUTE * 2**1008, "video_length_minutes": 2**1008,
                     "consumption_rate_mbps": 1e-308},
        "num_videos": {"num_videos": 10**5, "consumption_rate_mbps": 1e-4},
    }

    @pytest.mark.parametrize("field", sorted(_AT_LIMIT))
    def test_count_and_minute_limits_are_inclusive(self, field):
        cfg = dataclasses.replace(SimConfig(), **self._AT_LIMIT[field])
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("field", sorted(_AT_LIMIT))
    def test_one_step_past_a_count_or_minute_limit_rejected(self, field):
        overrides = dict(self._AT_LIMIT[field])
        value = overrides[field]
        overrides[field] = math.nextafter(value, math.inf) if isinstance(value, float) else value + 1
        msgs = validate_config(dataclasses.replace(SimConfig(), **overrides))
        assert len(msgs) == 1 and msgs[0].startswith(field)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# evaluation setup\n"
            "bandwidth_mbps = 45\n"
            "channels = 5\n"
            "arrival_rate_per_min = 4  # clients per minute\n"
            "seed = 99\n"
            "\n",
            encoding="utf-8",
        )
        cfg = load_config(p)
        assert cfg.bandwidth_mbps == 45.0
        assert cfg.channels == 5
        assert cfg.arrival_rate_per_min == 4.0
        assert cfg.seed == 99
        assert cfg.num_lps == SimConfig().num_lps  # untouched default

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bandwith = 45\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("channels = five\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("channels\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(p)

    def test_duplicate_key(self, tmp_path):
        # Last-wins would run with seed 2 and hide the first line.
        p = tmp_path / "dup.cfg"
        p.write_text("seed = 1\n# again\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert str(err.value) == f"{p}:3: duplicate key 'seed' (first on line 1)"


class TestRandomSource:
    def test_derived_seeds_are_stable(self):
        # Anchors for the documented 64-bit mix; any change here silently
        # reshuffles every experiment, so they are pinned.
        assert derive_seed(1) == 17797172410793473910
        assert derive_seed(1, "arrivals") == 9658426091350732144
        assert derive_seed(7, "no-cache", "6", 0) == 13971762907855657622

    def test_label_paths_separate_streams(self):
        assert derive_seed(1, "arrivals") != derive_seed(1, "placement")
        assert derive_seed(1, "arrivals") != derive_seed(2, "arrivals")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)

    # Seeds outside 64 bits are hashed whole, so -1 and 2**64 + 7 are not aliases of 2**64 - 1 and 7.
    @pytest.mark.parametrize("seed, label", [
        *((7, label) for label in ("arrivals", "placement", "video-choice", "cache-retention")),
        (-1, "arrivals"), (2**64 + 7, "arrivals"),
    ], ids=["arrivals", "placement", "video-choice", "cache-retention", "seed=-1", "seed=2**64+7"])
    def test_substream_is_mt19937_seeded_by_derive_seed(self, seed, label):
        n = 10_000
        got, want = RandomSource(seed).substream(label), random.Random(derive_seed(seed, label))
        assert [got.random().hex() for _ in range(n)] == [want.random().hex() for _ in range(n)]

    def test_substream_reproducibility(self):
        a = RandomSource(42).substream("arrivals")
        b = RandomSource(42).substream("arrivals")
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]

    def test_substreams_are_independent_of_each_other(self):
        src = RandomSource(42)
        a = src.substream("arrivals")
        b = src.substream("video-choice")
        assert [a.random() for _ in range(16)] != [b.random() for _ in range(16)]

    def test_largest_inversion_draw_at_the_largest_mean_gap_is_finite(self):
        # random() stops at 1 - 2**-53, so the engine's inverted gap stops
        # at 53 ln 2 means; at the largest mean gap validation accepts,
        # that is still a finite float.
        u = 1.0 - 2.0**-53
        assert u < 1.0 and math.nextafter(u, 2.0) == 1.0
        gap = _MAX_MEAN_GAP_MS * -math.log(1.0 - u)
        assert gap == pytest.approx(53 * math.log(2) * _MAX_MEAN_GAP_MS)
        assert math.isfinite(gap)

    def test_repr_names_generator(self):
        assert "MT19937" in repr(RandomSource(1))


class TestCatalog:
    def test_single_video_defaults(self):
        videos = catalog_from_config(SimConfig())
        assert len(videos) == 1
        (v,) = videos
        assert v.popularity == 1.0
        assert v.qualities[0].request_prob == 1.0
        # 60 minutes at 1.5 Mbps.
        assert v.qualities[0].size_bits == 60 * 60 * 1.5e6

    def test_rank_skew_normalises(self):
        cfg = dataclasses.replace(SimConfig(), num_videos=3)
        videos = catalog_from_config(cfg)
        pops = [v.popularity for v in videos]
        assert pops[0] > pops[1] > pops[2]
        assert sum(pops) == pytest.approx(1.0, abs=1e-12)
        h3 = 1 + 0.5 + 1 / 3
        assert pops[0] == pytest.approx(1 / h3)
