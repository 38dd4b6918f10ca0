"""Shared value types, configuration handling, and the seeded random source.

Time is kept as integer milliseconds throughout the package. Config fields
that are expressed in minutes are converted exactly once, at the point where
a component starts working with them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields as _dc_fields
from pathlib import Path

MS_PER_MINUTE = 60_000
BITS_PER_MEGABIT = 1_000_000

# Tolerance when checking that request probabilities sum to one.
_PROB_TOL = 1e-9

# Float limits that keep a validated run's arithmetic finite and exact.
# An arrival gap is drawn by inversion, -log(1 - u) means, with u at most
# 1 - 2**-53, so a gap is at most 53 ln 2 (about 36.74) means, under 2**6:
# a mean gap up to 2**1017 ms keeps every gap below 2**1023, finite. Grid
# cell keys stay exact while lf_radius / range is at most 2**52. A relay
# measures from the client to holders in its 5x5 cell block, under 3 cells
# per axis, and from an in-range via to the holders it keeps, within two
# cells of the client, so squared distances stay below 18 * cell**2,
# finite up to a range of 2**509 m. A mean delay
# past the float range raises, so latencies stop at 2**53 ms, far inside it.
# Minute fields become ms that meet floats (buffer bits, video sizes, mean
# delays), so m * 60000 must convert to a float: 60000 < 2**16, so
# horizons and video lengths stop at 2**1008 minutes. A segment lasts at
# least 1 ms, so channels stop at the longest video's length in ms,
# 60000 * 2**1008, still below 2**1024. The analytic model builds, places
# and reports a catalog entry per video: `sbvod analyze` over 10**5 videos
# took 1.25 s and 101 MB max RSS (2-vCPU Xeon, Python 3.11.7), so videos
# stop there.
#
# Grid cells are a little wider than the range, so that every client in
# range of a point sits in the 3x3 block of cells around it. Squared
# distances are IEEE products (dx * dx), correctly rounded on every
# platform, not libm pow, whose ``** 2`` may round differently by platform:
# - From 2**-500 m up, squares near range**2 are normal floats, so a
#   squared distance that rounds to at most range**2 means each coordinate
#   differs by at most range * (1 + 2**-51), well inside the 2**-20 slack.
#   Below 2**-500 m the squares underflow and "in range" loses its
#   meaning, so ranges stop there.
# - A key is floor(x / cell) with the quotient rounded. Key 0 ends a
#   share 2**-54 short of a cell, inside the slack. Key 2**j, where the
#   quotient's float spacing doubles, is e = cell * 2**(j - 54) narrower
#   than a cell. But 2**j * cell is a position, and its neighbours are
#   whole steps of g = 2**j * ulp(cell) > 2 * e, so the last position
#   before key 2**j lies more than e below the key's start: positions one
#   key either side of it still lie more than a cell apart. A hop in range
#   spans at most range / g steps, fewer than a cell's, so the 5x5 block
#   (reach 2) holds every client in range of one in range of its centre
#   there too: the relay search scans only that block for holders.
# - The relay keeps only the holders whose squared distance to the client
#   computes to at most 4 * cell * cell. Each of the subtraction, the
#   products and the sum rounds by a factor within 2**-53 of 1, and a
#   square too small to be normal is off by under 2**-1074, under 2**-74
#   of range**2. So a squared distance that computes to at most range**2
#   is at most range**2 * (1 + 2**-50) exactly, a distance under
#   range * (1 + 2**-51). By the triangle inequality, a holder in range of a
#   via in range of the client lies under 2 * range * (1 + 2**-51) from
#   it, and its squared distance computes to under 4 * range**2 *
#   (1 + 2**-49). 4 * cell * cell computes to over 4 * range**2 *
#   (1 + 2**-19), so no holder a relay can use is dropped, from 2**-500 m
#   to 2**509 m, where 4 * cell * cell is about 2**1020, finite.
_MAX_MEAN_GAP_MS = 2.0**1017
_MAX_GRID_CELLS = 2.0**52
_CELL_SLACK = 2.0**-20
_MIN_RANGE_M = 2.0**-500
_MAX_RANGE_M = 2.0**509
_MAX_LATENCY_MS = 2**53
_MAX_MINUTES = 2**1008
_MAX_CHANNELS = MS_PER_MINUTE * _MAX_MINUTES
_MAX_VIDEOS = 10**5


class ConfigError(ValueError):
    """Unreadable config file, unknown key, or a value of the wrong type."""


@dataclass(frozen=True)
class QualityLevel:
    """One encoding of a video: its rate, stored size, and request share.

    ``request_prob`` is the probability that a viewer of the parent video
    asks for this particular quality; across one video they sum to 1.
    """

    q_index: int
    stream_rate_bps: float
    size_bits: float
    request_prob: float

    def __post_init__(self):
        if self.q_index < 1:
            raise ValueError("q_index is 1-based and must be >= 1")
        if self.stream_rate_bps <= 0:
            raise ValueError("stream_rate_bps must be positive")
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")
        if not 0.0 <= self.request_prob <= 1.0:
            raise ValueError("request_prob must lie in [0, 1]")


@dataclass(frozen=True)
class VideoSpec:
    """A video in the service catalog with its quality ladder."""

    id: int
    length_minutes: int
    consumption_rate_mbps: float
    popularity: float
    qualities: tuple[QualityLevel, ...]

    def __post_init__(self):
        if self.length_minutes <= 0:
            raise ValueError("length_minutes must be positive")
        if self.consumption_rate_mbps <= 0:
            raise ValueError("consumption_rate_mbps must be positive")
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError("popularity must lie in [0, 1]")
        if not self.qualities:
            raise ValueError("a video needs at least one quality level")
        seen = set()
        for q in self.qualities:
            if q.q_index in seen:
                raise ValueError(f"duplicate q_index {q.q_index}")
            seen.add(q.q_index)
        total = math.fsum(q.request_prob for q in self.qualities)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(
                f"quality request probabilities must sum to 1 (got {total!r})"
            )


@dataclass(frozen=True)
class SimConfig:
    """Every tunable of a simulation or analysis run, with usable defaults.

    Geometry fields describe a circular service area of radius
    ``lf_radius_m`` with clients dropped uniformly inside it;
    ``client_range_m`` is the client-to-client radio reach.
    """

    bandwidth_mbps: float = 54.0
    channels: int = 5
    video_length_minutes: int = 60
    consumption_rate_mbps: float = 1.5
    arrival_rate_per_min: float = 6.0
    num_videos: int = 1
    num_lps: int = 2
    lps_capacity: int = 20
    lf_radius_m: float = 150.0
    client_range_m: float = 25.0
    msg_latency_ms: int = 20
    random_cache_prob: float = 0.5
    seed: int = 1
    horizon_minutes: float = 300.0
    warmup_minutes: float = 30.0


# Each field's declared type, "int" or "float", as the annotation string.
_FIELD_TYPES = {f.name: f.type for f in _dc_fields(SimConfig)}


def max_channels(bandwidth_mbps: float, transmission_rate_mbps: float, num_videos: int) -> int:
    """Largest per-video channel count the link can carry.

    Each channel transmits at the consumption rate, and every one of the
    ``num_videos`` videos gets its own channel group, so the budget is
    rate * K * num_videos <= bandwidth. The count stops at the most
    channels ``validate_config`` accepts, since a vanishing rate sends the
    quotient to infinity (and an infinite link over an infinite rate to NaN).
    """
    if not (bandwidth_mbps > 0 and transmission_rate_mbps > 0 and num_videos >= 1):
        raise ValueError("arguments must be positive")
    # Guard against 6.999999 style float artifacts before flooring.
    per_video = bandwidth_mbps / (transmission_rate_mbps * num_videos) + 1e-9
    return math.floor(per_video) if per_video <= _MAX_CHANNELS else _MAX_CHANNELS


def validate_config(cfg: SimConfig) -> list[str]:
    """Return a list of violation messages; an empty list means the config is sound.

    Anything accepted here must run cleanly downstream, so this also rejects
    a value of the wrong type (a float or a bool in an int field), NaN and
    infinite values, and covers the segment-divisibility rule and
    the channel bandwidth budget of :func:`max_channels` (consumption rate
    x channels x videos must fit inside the link).
    """
    out: list[str] = []
    for name, ftype in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        # A bool is an int to isinstance, but no count or rate.
        if isinstance(value, bool) or not isinstance(value, int if ftype == "int" else (int, float)):
            out.append(f"{name} must be an integer" if ftype == "int" else f"{name} must be a number")
    if out:
        return out  # the range rules below need numbers of the declared type
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            out.append(f"{name} must be finite")
    if cfg.bandwidth_mbps <= 0:
        out.append("bandwidth_mbps must be positive")
    if cfg.channels < 1:
        out.append("channels must be at least 1")
    elif cfg.channels > _MAX_CHANNELS:
        out.append("channels must be at most 60000 * 2**1008")
    if cfg.video_length_minutes <= 0:
        out.append("video_length_minutes must be positive")
    elif cfg.video_length_minutes > _MAX_MINUTES:
        out.append("video_length_minutes must be at most 2**1008")
    if cfg.consumption_rate_mbps <= 0:
        out.append("consumption_rate_mbps must be positive")
    if cfg.arrival_rate_per_min <= 0:
        out.append("arrival_rate_per_min must be positive")
    elif MS_PER_MINUTE / cfg.arrival_rate_per_min > _MAX_MEAN_GAP_MS:
        out.append(
            f"arrival_rate_per_min = {cfg.arrival_rate_per_min:g} is too small:"
            " the gap between arrivals overflows a float"
        )
    if cfg.num_videos < 1:
        out.append("num_videos must be at least 1")
    elif cfg.num_videos > _MAX_VIDEOS:
        out.append("num_videos must be at most 10**5")
    if cfg.num_lps < 1:
        out.append("num_lps must be at least 1")
    if cfg.lps_capacity < 1:
        out.append("lps_capacity must be at least 1")
    if cfg.lf_radius_m <= 0:
        out.append("lf_radius_m must be positive")
    if cfg.client_range_m <= 0:
        out.append("client_range_m must be positive")
    elif cfg.client_range_m < _MIN_RANGE_M:
        out.append(
            f"client_range_m = {cfg.client_range_m:g} is too small:"
            " squared distances underflow a float below 2**-500 m"
        )
    elif cfg.client_range_m > _MAX_RANGE_M:
        out.append(
            f"client_range_m = {cfg.client_range_m:g} is too large:"
            " squared distances overflow a float past 2**509 m"
        )
    elif cfg.lf_radius_m / cfg.client_range_m > _MAX_GRID_CELLS:
        out.append(
            f"client_range_m = {cfg.client_range_m:g} is too small for lf_radius_m ="
            f" {cfg.lf_radius_m:g}: grid cell keys past 2**52 are not exact"
        )
    if cfg.msg_latency_ms < 0:
        out.append("msg_latency_ms must be non-negative")
    elif cfg.msg_latency_ms > _MAX_LATENCY_MS:
        out.append("msg_latency_ms must be at most 2**53")
    if not 0.0 <= cfg.random_cache_prob <= 1.0:
        out.append("random_cache_prob must lie in [0, 1]")
    if cfg.horizon_minutes <= 0:
        out.append("horizon_minutes must be positive")
    elif cfg.horizon_minutes > _MAX_MINUTES:
        out.append("horizon_minutes must be at most 2**1008")
    if cfg.warmup_minutes < 0:
        out.append("warmup_minutes must be non-negative")
    elif cfg.warmup_minutes > cfg.horizon_minutes:
        out.append("warmup_minutes must not exceed horizon_minutes")

    channels_ok = 1 <= cfg.channels <= _MAX_CHANNELS
    if (cfg.bandwidth_mbps > 0 and cfg.consumption_rate_mbps > 0 and channels_ok
            and 1 <= cfg.num_videos <= _MAX_VIDEOS
            and cfg.channels > max_channels(cfg.bandwidth_mbps, cfg.consumption_rate_mbps,
                                            cfg.num_videos)):
        per_video = cfg.bandwidth_mbps / (cfg.consumption_rate_mbps * cfg.num_videos)
        out.append(
            f"channel budget infeasible: channels = {cfg.channels} exceeds"
            " bandwidth_mbps / (consumption_rate_mbps * num_videos) ="
            f" {per_video:.12g}"
        )
    if 0 < cfg.video_length_minutes <= _MAX_MINUTES and channels_ok:
        if (cfg.video_length_minutes * MS_PER_MINUTE) % cfg.channels != 0:
            out.append(
                f"video_length_minutes = {cfg.video_length_minutes} does not"
                f" split into {cfg.channels} equal segments"
            )
    return out


def load_config(path: str | Path) -> SimConfig:
    """Parse a flat ``key = value`` UTF-8 file, byte-order mark allowed, into a SimConfig.

    Lines starting with ``#`` (and trailing ``#`` comments) are ignored.
    Unknown and repeated keys raise ConfigError rather than being silently
    dropped or overwritten, and so does a file that cannot be read.
    """
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first on line {first_line[key]})")
        first_line[key] = lineno
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "int":
                values[key] = int(val)
            else:
                values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return SimConfig(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def derive_seed(base_seed: int, *labels: object) -> int:
    """Mix a base seed and a label path into a stable 64-bit child seed.

    The mix is blake2b over ``"<seed>/<label>/<label>/..."`` truncated to
    64 bits, so the same inputs give the same child seed on every platform
    and in every process.
    """
    import hashlib  # here: it also loads OpenSSL's _hashlib (~3 MB), which analyze never needs

    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest(), "big")


class RandomSource:
    """Deterministic random source with independent labelled sub-streams.

    Each ``substream(*labels)`` call returns a fresh MT19937 generator
    (``random.Random``) seeded from :func:`derive_seed`, so components can
    draw without perturbing one another and replications can be given
    disjoint streams. Python keeps ``random()``'s sequence for an int seed
    the same on every version, so a run's bytes do not depend on it.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def substream(self, *labels: object) -> random.Random:
        return random.Random(derive_seed(self.seed, *labels))

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, generator=MT19937)"


def zipf_popularity(n: int) -> list[float]:
    """Request shares of videos 1..n on a Zipf-like 1/rank curve (Breslau et al. 1999)."""
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    return [(1.0 / k) / harmonic for k in range(1, n + 1)]


def catalog_from_config(cfg: SimConfig) -> tuple[VideoSpec, ...]:
    """Build the default video catalog for a config.

    Popularity follows :func:`zipf_popularity` over ``num_videos``. Each
    video carries a single quality at the consumption rate; the levels are
    frozen, so every video shares one ladder.
    """
    rate_bps = cfg.consumption_rate_mbps * BITS_PER_MEGABIT
    ladder = (QualityLevel(q_index=1, stream_rate_bps=rate_bps,
                           size_bits=cfg.video_length_minutes * 60 * rate_bps, request_prob=1.0),)
    return tuple(
        VideoSpec(
            id=k,
            length_minutes=cfg.video_length_minutes,
            consumption_rate_mbps=cfg.consumption_rate_mbps,
            popularity=popularity,
            qualities=ladder,
        )
        for k, popularity in enumerate(zipf_popularity(cfg.num_videos), start=1)
    )
