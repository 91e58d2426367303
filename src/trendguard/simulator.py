"""
Synthetic labeled event streams for detector validation: organic trends,
background chatter, and attack clusters that satisfy the attack model by
construction, plus a toy trending oracle with a deletion-penalty
countermeasure and an end-to-end evaluation harness.

Streams are replayable: LabeledStream.events() regenerates the identical
event sequence from the scenario seed, so serialization is byte-identical
across runs and memory stays bounded by one day of activity.
"""

from __future__ import annotations

import csv
import json
import random
import re
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from json.encoder import encode_basestring
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, get_type_hints,
)

from .core import (
    DEFAULT_LOCALE,
    DEFAULT_TZ_OFFSET,
    Keyword,
    TrendGuardError,
    normalize_keyword,
    span_s,
)
from .ingest import (
    Deletion,
    TrendDay,
    Tweet,
    TweetEvent,
    _MONTH_NAMES,
    _csv_rows,
    _keyword_index,
    _text_input,
    build_trend_instances,
    parse_date,
)
from .classify import flags_for_instance
from .detector import AttackParams, DetectorConfig, score_instance


# The scenario's keywords and texts are Turkish: the plan normalizes its
# keywords in this locale, and everything that reads them back must too.
SCENARIO_LOCALE = "tr"


class WordlistTooSmall(TrendGuardError):
    """The lexicon wordlist has fewer than 10 usable words."""


class InfeasibleParams(TrendGuardError):
    """No deletion schedule can satisfy the requested windows."""


def load_wordlist(path: Optional[str] = None) -> tuple[str, ...]:
    """Load the bundled (or a custom) lexicon wordlist: one lowercase word per line."""
    if path is None:
        from importlib.resources import files

        text = files("trendguard").joinpath("data/wordlist.txt").read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    words = tuple(w for w in (line.strip() for line in text.splitlines()) if w)
    if len(words) < 10:
        raise WordlistTooSmall(f"need at least 10 words, have {len(words)}")
    return words


def gen_lexicon_text(wordlist: Sequence[str], rng: random.Random) -> str:
    """2-9 uniformly chosen lowercase words joined by single spaces."""
    if len(wordlist) < 10:
        raise WordlistTooSmall(f"need at least 10 words, have {len(wordlist)}")
    count = rng.randint(2, 9)
    return " ".join(rng.choice(wordlist) for _ in range(count))


# ---------------------------------------------------------------------------
# Event cluster generators
# ---------------------------------------------------------------------------

def _place_keyword(words: list[str], keyword: Keyword, rng: random.Random) -> str:
    position = rng.randint(0, len(words))
    return " ".join(words[:position] + keyword.raw.split() + words[position:])


def _random_geo(rng: random.Random) -> tuple[float, float]:
    return (rng.uniform(36.0, 42.0), rng.uniform(26.0, 45.0))


class GeoTweet(Tweet):
    """A simulated tweet that carries a (lat, lon) point; the writer emits
    it as the record's `geo`, which no reader of the archive uses. The point
    is read-only and survives pickling, copying and _replace; equality, as
    a tuple's, compares the Tweet fields alone."""

    geo: tuple[float, float]

    def __new__(cls, *args, geo: tuple[float, float], **fields):
        tweet = super().__new__(cls, *args, **fields)
        object.__setattr__(tweet, "geo", geo)
        return tweet

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a GeoTweet")

    def __getnewargs_ex__(self):
        return tuple(self), {"geo": self.geo}

    def _replace(self, **changes):
        return GeoTweet(**{**self._asdict(), "geo": self.geo, **changes})

    @classmethod
    def _make(cls, iterable):
        raise TypeError("GeoTweet._make cannot give the required geo point; "
                        "call GeoTweet(*fields, geo=point)")


def _tweet(geo: Optional[tuple[float, float]], *fields) -> Tweet:
    return Tweet(*fields) if geo is None else GeoTweet(*fields, geo=geo)


def _keyword_hashtags(keyword: Keyword) -> tuple[str, ...]:
    if keyword.kind == "hashtag":
        return (keyword.raw.lstrip("#"),)
    return ()


def gen_attack(
    keyword: Keyword,
    params: AttackParams,
    n_bots: int,
    t0: int,
    rng: random.Random,
    wordlist: Sequence[str],
    tweet_id_start: int = 1,
    user_id_start: int = 1,
    creation_span: Optional[int] = None,
    deletion_span: Optional[int] = None,
    deletion_lag: int = 1,
    geo_rate: float = 0.0,
) -> list[TweetEvent]:
    """One attack: n_bots distinct users each post and delete one lexicon tweet.

    Creations land in [t0, t0 + alpha_p), deletions share an alpha_d window,
    and every lifetime stays under theta. Raises InfeasibleParams when theta
    leaves no room for a positive lifetime.
    """
    if n_bots < 1:
        raise ValueError("n_bots must be at least 1")
    theta = params.theta
    if theta < 2:
        raise InfeasibleParams(f"theta={theta}s leaves no room for deletion after creation")
    deletion_lag = max(1, deletion_lag)

    span_budget = max(0, min(params.alpha_p - 1, theta - 1 - deletion_lag))
    if creation_span is not None:
        span_budget = min(span_budget, creation_span)

    creations = sorted(t0 + rng.randint(0, span_budget) for _ in range(n_bots))
    span_p = creations[-1] - creations[0]

    d_budget = min(params.alpha_d, theta - 1 - deletion_lag - span_p)
    if d_budget < 0:
        raise InfeasibleParams(
            f"theta={theta}s cannot cover creation span {span_p}s plus deletion lag"
        )
    if deletion_span is not None:
        d_budget = min(d_budget, deletion_span)
    d0 = creations[-1] + deletion_lag

    events: list[TweetEvent] = []
    hashtags = _keyword_hashtags(keyword)
    for i, created in enumerate(creations):
        tweet_id = tweet_id_start + i
        user_id = user_id_start + i
        words = gen_lexicon_text(wordlist, rng).split()
        geo = _random_geo(rng) if geo_rate > 0 and rng.random() < geo_rate else None
        text = _place_keyword(words, keyword, rng)
        events.append(_tweet(geo, tweet_id, user_id, text, created * 1000, hashtags))
        deleted = d0 + rng.randint(0, d_budget)
        events.append(Deletion(tweet_id, user_id, deleted * 1000))

    _assert_attack_conditions(events, params, n_bots)
    return events


def _assert_attack_conditions(events: list[TweetEvent], params: AttackParams, n_bots: int) -> None:
    creations = {e.id: e for e in events if isinstance(e, Tweet)}
    deletions = {e.tweet_id: e.time_ms for e in events if isinstance(e, Deletion)}
    p = [t.created_ms for t in creations.values()]
    d = [deletions[tid] for tid in creations]
    lifetimes = [span_s(deletions[tid], t.created_ms) for tid, t in creations.items()]
    users = {t.user_id for t in creations.values()}
    ok = (
        len(creations) == n_bots
        and len(users) == n_bots
        and span_s(max(p), min(p)) <= params.alpha_p
        and span_s(max(d), min(d)) <= params.alpha_d
        and all(0 < life <= params.theta for life in lifetimes)
    )
    if not ok:
        raise AssertionError("generated attack violates its own model constraints")


_SENTENCE_OPENERS = (
    "Bugün", "Şimdi", "Gerçekten", "Acaba", "Yine", "Bence", "Herkes", "Sonunda",
)


def _organic_text(
    keyword: Keyword, wordlist: Sequence[str], rng: random.Random, lexicon_style: bool
) -> str:
    words = [rng.choice(wordlist) for _ in range(rng.randint(2, 7))]
    if lexicon_style:
        return _place_keyword(words, keyword, rng)
    opener = rng.choice(_SENTENCE_OPENERS)
    body = " ".join([opener] + words) + rng.choice((".", "!", "?"))
    position = rng.randint(0, 1)
    if position == 0:
        return f"{body} {keyword.raw}"
    return f"{keyword.raw} {body}"


# Engagement rates of organic tweets that are not lexicon-style.
RETWEET_RATE = 0.35
REPLY_RATE = 0.10
MENTION_RATE = 0.15
URL_RATE = 0.15
EXTRA_HASHTAG_RATE = 0.10
# Of all organic tweets, the share with a geo point; and the latest an
# organic deletion comes after its tweet (the earliest is 600 s).
ORGANIC_GEO_RATE = 0.01
ORGANIC_MAX_DELETION_DELAY = 12 * 3600


def gen_organic_trend(
    keyword: Keyword,
    n_users: int,
    span: int,
    rng: random.Random,
    wordlist: Sequence[str],
    t0: int = 0,
    tweet_id_start: int = 1,
    user_id_start: int = 1,
    deletion_rate: float = 0.023,
    lexicon_rate: float = 0.02,
) -> list[TweetEvent]:
    """Uncoordinated discussion: mixed engagement, background-level deletions.

    Each user posts once, spread uniformly over the span; deletions are rare
    and scattered, with no common window.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    events: list[TweetEvent] = []
    hashtags = _keyword_hashtags(keyword)
    for i in range(n_users):
        tweet_id = tweet_id_start + i
        user_id = user_id_start + i
        created = t0 + rng.randint(0, span)
        lexicon_style = rng.random() < lexicon_rate
        is_retweet = not lexicon_style and rng.random() < RETWEET_RATE
        is_reply = not lexicon_style and not is_retweet and rng.random() < REPLY_RATE
        mentions = ()
        if not lexicon_style and rng.random() < MENTION_RATE:
            mentions = (rng.randint(1, 10_000_000),)
        urls = 1 if (not lexicon_style and rng.random() < URL_RATE) else 0
        tags = hashtags
        text = _organic_text(keyword, wordlist, rng, lexicon_style)
        if not lexicon_style and rng.random() < EXTRA_HASHTAG_RATE:
            extra = rng.choice(wordlist)
            text = f"{text} #{extra}"
            tags = hashtags + (extra,)
        if is_retweet:
            text = f"RT @user{rng.randint(1, 99999)}: {text}"
        geo = _random_geo(rng) if rng.random() < ORGANIC_GEO_RATE else None
        events.append(_tweet(geo, tweet_id, user_id, text, created * 1000, tags, mentions, urls,
                             is_retweet, is_reply))
        if rng.random() < deletion_rate:
            delay = rng.randint(600, ORGANIC_MAX_DELETION_DELAY)
            events.append(Deletion(tweet_id, user_id, (created + delay) * 1000))
    return events


_MASK64 = 2**64 - 1


def _mix64(z: int) -> int:
    """The splitmix64 finalizer, a bijection of [0, 2**64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def id_sampler(rate: float, seed: int) -> Callable[[int], bool]:
    """Whether the sample at ``rate`` under ``seed`` keeps a tweet id:
    kept(id) iff mix64((id ^ mix64(seed)) mod 2**64) < int(rate * 2**64)."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    salt = _mix64(seed & _MASK64)
    bound = int(rate * 2**64)

    def kept(tweet_id: int) -> bool:
        return _mix64((tweet_id ^ salt) & _MASK64) < bound

    return kept


def sample_stream(stream: Iterable[TweetEvent], rate: float, seed: int) -> Iterator[TweetEvent]:
    """The events whose tweet id ``id_sampler(rate, seed)`` keeps.

    Like the platform's 1 % sample, the rule is a pure function of the id,
    not a draw in arrival order: a deletion is kept iff its tweet is, in
    any order, and the sample does not depend on how the stream is laid out.
    """
    kept = id_sampler(rate, seed)
    for event in stream:
        if kept(event.id if isinstance(event, Tweet) else event.tweet_id):
            yield event


# ---------------------------------------------------------------------------
# Scenario configuration and stream assembly
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Knobs for one synthetic scenario; the defaults are the standard
    validation scenario: 10 days x (15 organic + 5 attacked) trend-days,
    4 attack waves per attacked trend with 100-600 bots each, 1% sampling.
    """

    n_days: int = 10
    organic_per_day: int = 15
    attacked_per_day: int = 5
    attacks_per_day: int = 20
    failed_attacks_per_day: int = 0
    bots_min: int = 100
    bots_max: int = 600
    sample_rate: float = 0.01
    seed: int = 7
    start_date: date = date(2019, 6, 18)
    tz_offset: int = DEFAULT_TZ_OFFSET
    epoch_seconds: int = 300
    params: AttackParams = field(default_factory=AttackParams)
    attack_creation_span: int = 55
    attack_deletion_lag: int = 5
    attack_deletion_span: int = 55
    organic_tweets_min: int = 500
    organic_tweets_max: int = 2500
    adoption_tweets_min: int = 200
    adoption_tweets_max: int = 1200
    background_per_day: int = 2000
    background_deletion_rate: float = 0.023
    background_lexicon_rate: float = 0.023
    organic_deletion_rate: float = 0.023
    organic_lexicon_rate: float = 0.02
    wordlist_path: Optional[str] = None

    def __post_init__(self):
        for name in ("background_deletion_rate", "background_lexicon_rate",
                     "organic_deletion_rate", "organic_lexicon_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        for name, least in (("epoch_seconds", 1), ("attack_creation_span", 0),
                            ("attack_deletion_span", 0)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for count, least in (("bots", 1), ("organic_tweets", 0), ("adoption_tweets", 0)):
            low, high = getattr(self, f"{count}_min"), getattr(self, f"{count}_max")
            if not least <= low <= high:
                raise ValueError(f"{count}_min and {count}_max must hold "
                                 f"{least} <= {count}_min <= {count}_max, got {low} and {high}")


@dataclass(frozen=True, slots=True)
class AttackRecord:
    """Ground truth for one attack wave."""

    keyword: str  # normalized
    day: date
    t0_ms: int
    n_bots: int
    succeeded: bool  # whether the target was a trending keyword that day


@dataclass(frozen=True, slots=True)
class _Wave:
    t0: int
    n_bots: int
    tweet_id_start: int


@dataclass(frozen=True, slots=True)
class _TrendPlan:
    keyword: Keyword
    day: date
    attacked: bool
    succeeded: bool            # False for planned unsuccessful attacks
    waves: tuple[_Wave, ...]
    organic_start: int
    organic_span: int
    organic_users: int
    organic_tweet_id_start: int


@dataclass(frozen=True, slots=True)
class _DayPlan:
    index: int                 # days since the scenario start
    day_number: int            # local days since 1970
    trends: tuple[_TrendPlan, ...]
    background_id_start: int   # first of the day's background_per_day background ids


# Every planned tweet has a user of its own: the user of tweet id i is
# i + _USER_ID_OFFSET.
_USER_ID_OFFSET = 4_000_000


class LabeledStream:
    """A replayable synthetic stream plus its ground truth."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.wordlist = load_wordlist(config.wordlist_path)
        self._plan = _make_plan(config, self.wordlist)
        self.truth: dict[tuple[date, str], bool] = {}
        self.keywords: dict[str, Keyword] = {}  # by normalized form
        self.truth_bots: set[int] = set()
        self.truth_attacks: list[AttackRecord] = []
        for day in self._plan:
            for plan in day.trends:
                self.keywords[plan.keyword.normalized] = plan.keyword
                if plan.succeeded:
                    self.truth[(plan.day, plan.keyword.normalized)] = plan.attacked
                for wave in plan.waves:
                    self.truth_attacks.append(
                        AttackRecord(
                            keyword=plan.keyword.normalized,
                            day=plan.day,
                            t0_ms=wave.t0 * 1000,
                            n_bots=wave.n_bots,
                            succeeded=plan.succeeded,
                        )
                    )
                    first_bot = wave.tweet_id_start + _USER_ID_OFFSET
                    self.truth_bots.update(range(first_bot, first_bot + wave.n_bots))

    def trend_days(self) -> list[TrendDay]:
        """The scenario's trending trend-days (successful keywords only)."""
        return [TrendDay(date=day, keyword=self.keywords[normalized])
                for day, normalized in self.truth]

    def events(self) -> Iterator[TweetEvent]:
        """Regenerate the identical time-ordered event stream."""
        return _generate_events(self.config, self._plan, self.wordlist)


def build_stream(config: ScenarioConfig) -> LabeledStream:
    return LabeledStream(config)


def _day_start_utc(config: ScenarioConfig, day_number: int) -> int:
    """The UTC second at which local day ``day_number`` (days since 1970) begins."""
    return day_number * 86400 - config.tz_offset


def _make_plan(config: ScenarioConfig, wordlist: Sequence[str]) -> list[_DayPlan]:
    rng = random.Random(f"{config.seed}:plan")
    days: list[_DayPlan] = []
    tweet_id = 1_000_000
    epoch = config.epoch_seconds
    # Deal each day's attack waves round-robin across its attacked trends.
    dealt, extra = divmod(config.attacks_per_day, max(1, config.attacked_per_day))

    for day_index in range(config.n_days):
        day_date = date.fromordinal(config.start_date.toordinal() + day_index)
        day_number = day_date.toordinal() - date(1970, 1, 1).toordinal()
        day_start = _day_start_utc(config, day_number)
        trends: list[_TrendPlan] = []
        # Trend kinds in planning order: "t" attacked and trending, "o"
        # organic, "f" attacked but never trending.
        for kind, count in (("t", config.attacked_per_day), ("o", config.organic_per_day),
                            ("f", config.failed_attacks_per_day)):
            for serial in range(count):
                word = rng.choice(wordlist)
                raw = f"#{word.capitalize()}{kind}{day_index}x{serial}"
                keyword = normalize_keyword(raw, SCENARIO_LOCALE)

                waves: list[_Wave] = []
                if kind != "o":
                    n_waves = max(1, dealt + (serial < extra)) if kind == "t" else rng.randint(1, 2)
                    slots = rng.sample(range(day_start + 8 * 3600, day_start + 23 * 3600, epoch),
                                       n_waves)
                    for slot in sorted(slots):
                        t0 = slot + rng.randint(5, 40)
                        n_bots = rng.randint(config.bots_min, config.bots_max)
                        waves.append(_Wave(t0, n_bots, tweet_id))
                        tweet_id += n_bots

                organic_users = organic_start = organic_span = 0  # none for kind "f"
                if kind == "t":
                    organic_users = rng.randint(config.adoption_tweets_min,
                                                config.adoption_tweets_max)
                    organic_start = min(w.t0 for w in waves) + 1800
                    organic_span = max(3600, day_start + 86400 - 3600 - organic_start)
                elif kind == "o":
                    organic_users = rng.randint(config.organic_tweets_min,
                                                config.organic_tweets_max)
                    organic_start = day_start + rng.randint(6 * 3600, 14 * 3600)
                    organic_span = rng.randint(2 * 3600, 8 * 3600)

                trends.append(
                    _TrendPlan(
                        keyword=keyword,
                        day=day_date,
                        attacked=kind != "o",
                        succeeded=kind != "f",
                        waves=tuple(waves),
                        organic_start=organic_start,
                        organic_span=organic_span,
                        organic_users=organic_users,
                        organic_tweet_id_start=tweet_id,
                    )
                )
                tweet_id += organic_users

        days.append(_DayPlan(day_index, day_number, tuple(trends), tweet_id))
        tweet_id += config.background_per_day

    return days


def _gen_background(
    config: ScenarioConfig,
    day: _DayPlan,
    rng: random.Random,
    wordlist: Sequence[str],
) -> list[TweetEvent]:
    day_start = _day_start_utc(config, day.day_number)
    day_tags = tuple(f"gunluk{day.index}x{j}" for j in range(40))
    events: list[TweetEvent] = []
    for i in range(config.background_per_day):
        tweet_id = day.background_id_start + i
        user_id = tweet_id + _USER_ID_OFFSET
        created = day_start + rng.randint(0, 86400 - 1)
        deleted = rng.random() < config.background_deletion_rate
        lexicon_style = deleted and rng.random() < config.background_lexicon_rate
        words = [rng.choice(wordlist) for _ in range(rng.randint(2, 7))]
        if lexicon_style:
            text = " ".join(words)
            tags: tuple[str, ...] = ()
        else:
            text = rng.choice(_SENTENCE_OPENERS) + " " + " ".join(words) + "."
            if rng.random() < 0.3:
                tag = rng.choice(day_tags)
                text = f"{text} #{tag}"
                tags = (tag,)
            else:
                tags = ()
        events.append(Tweet(tweet_id, user_id, text, created * 1000, tags))
        if deleted:
            delay = rng.randint(300, 6 * 3600)
            events.append(Deletion(tweet_id, user_id, (created + delay) * 1000))
    return events


class _Hour:
    """One local hour's events as columns, in the order they were generated:
    each event's key (ms * 2 for a creation, ms * 2 + 1 for a deletion
    notice), id and user; a creation's text and the tail of its Tweet fields
    after `created_ms` (None for a notice); and each GeoTweet's point by
    position."""

    __slots__ = ("keys", "ids", "users", "texts", "tails", "geo")

    def __init__(self):
        self.keys, self.ids, self.users = array("q"), array("q"), array("q")
        self.texts, self.tails, self.geo = [], [], {}

    def events(self) -> Iterator[TweetEvent]:
        """The events in stream order: time (ms), creations before notices
        at the same instant, then id; each built as it is yielded."""
        keys, ids, users, texts, tails, geo = (
            self.keys, self.ids, self.users, self.texts, self.tails, self.geo)
        order = sorted(range(len(keys)), key=ids.__getitem__)
        order.sort(key=keys.__getitem__)  # stable: ties stay in id order
        for i in order:
            key = keys[i]
            if key & 1:
                yield Deletion(ids[i], users[i], key >> 1)
            elif i in geo:
                yield GeoTweet(ids[i], users[i], texts[i], key >> 1, *tails[i], geo=geo[i])
            else:
                yield Tweet(ids[i], users[i], texts[i], key >> 1, *tails[i])


def _generate_events(
    config: ScenarioConfig, plan: list[_DayPlan], wordlist: Sequence[str]
) -> Iterator[TweetEvent]:
    rng = random.Random(f"{config.seed}:events")
    # Events wait in the buffer of their local hour. No day generates an
    # event before its own start, so the hours of a day are complete once
    # that day is generated; after the last day every hour is.
    hours: dict[int, _Hour] = {}
    shared: dict[tuple, tuple] = {}  # one tail tuple for every equal tail

    def file(events: list[TweetEvent]) -> None:
        for event in events:
            if isinstance(event, Tweet):
                ms = event.created_ms
                key, text, tail = ms * 2, event.text, event[4:]
                tail = shared.setdefault(tail, tail)
            else:
                ms = event.time_ms
                key, text, tail = ms * 2 + 1, None, None
            hour = (ms // 1000 + config.tz_offset) // 3600
            if (buffer := hours.get(hour)) is None:
                buffer = hours[hour] = _Hour()
            if isinstance(event, GeoTweet):
                buffer.geo[len(buffer.keys)] = event.geo
            # A Tweet's and a Deletion's first two fields are the id and the user.
            buffer.keys.append(key)
            buffer.ids.append(event[0])
            buffer.users.append(event[1])
            buffer.texts.append(text)
            buffer.tails.append(tail)

    for day_plan in plan:
        for trend in day_plan.trends:
            for wave in trend.waves:
                file(gen_attack(
                    trend.keyword, config.params, wave.n_bots, wave.t0, rng, wordlist,
                    tweet_id_start=wave.tweet_id_start,
                    user_id_start=wave.tweet_id_start + _USER_ID_OFFSET,
                    creation_span=config.attack_creation_span,
                    deletion_span=config.attack_deletion_span,
                    deletion_lag=config.attack_deletion_lag, geo_rate=0.05,
                ))
            if trend.organic_users:
                file(gen_organic_trend(
                    trend.keyword, trend.organic_users, trend.organic_span, rng, wordlist,
                    t0=trend.organic_start, tweet_id_start=trend.organic_tweet_id_start,
                    user_id_start=trend.organic_tweet_id_start + _USER_ID_OFFSET,
                    deletion_rate=config.organic_deletion_rate,
                    lexicon_rate=config.organic_lexicon_rate,
                ))
        file(_gen_background(config, day_plan, rng, wordlist))
        shared.clear()  # so the interned tails do not grow with the stream

        last = day_plan is plan[-1]
        end = (day_plan.day_number + 1) * 24  # the first hour of the next day
        for hour in sorted(h for h in hours if last or h < end):
            yield from hours.pop(hour).events()


# ---------------------------------------------------------------------------
# Toy trending oracle with the deletion-penalty countermeasure
# ---------------------------------------------------------------------------

class KeywordStream(NamedTuple):
    """One keyword's share of a stream as int columns, in stream order: each
    matched tweet's creation ms and user, and the ms of each of its deletion notices."""

    created_ms: array
    user_ids: array
    deleted_ms: array


def group_stream_by_keyword(
    events: Iterable[TweetEvent],
    keywords: Iterable[Keyword],
    locale: str = DEFAULT_LOCALE,
) -> dict[str, KeywordStream]:
    """Split a stream into one KeywordStream per keyword, keyed by normalized form.

    A tweet joins the stream of every keyword its text contains, once each,
    matched as the trend-day join matches them (keywords that share a
    normalized form share one stream); its later deletion notices follow it.
    """
    streams: dict[str, KeywordStream] = {}
    for _ in tee_by_keyword(events, keywords, streams, locale):
        pass
    return streams


def tee_by_keyword(
    events: Iterable[TweetEvent],
    keywords: Iterable[Keyword],
    streams: dict[str, KeywordStream],
    locale: str = DEFAULT_LOCALE,
) -> Iterator[TweetEvent]:
    """Yield ``events`` unchanged while filing them into ``streams`` as
    group_stream_by_keyword does, so the pass that writes a stream can
    group it too. It keeps ints, never an event.

    Creations are filed as they pass; deletion notices once the events end
    or the tee is closed, so ``streams`` is complete only then.
    """
    keywords = list(keywords)
    contained = _keyword_index(keywords, locale)
    streams.update((k.normalized, KeywordStream(array("q"), array("q"), array("q"))) for k in keywords)
    slot_of: dict[tuple, int] = {}  # each key tuple's slot in `names`
    names: list[tuple[str, ...]] = []  # each slot's names, each name once
    # Each matched tweet's id, stream position and names slot; each notice's
    # id, stream position and ms.
    tweets = tweet_ids, tweet_positions, slots = array("q"), array("q"), array("q")
    notices = notice_ids, notice_positions, notice_ms = array("q"), array("q"), array("q")
    try:
        for position, event in enumerate(events):
            if isinstance(event, Tweet):
                if keys := tuple(contained(event.text)):
                    if (slot := slot_of.get(keys)) is None:
                        slot = slot_of[keys] = len(names)
                        names.append(tuple(dict.fromkeys(name for _, name in keys)))
                    for name in names[slot]:
                        created_ms, user_ids, _ = streams[name]
                        created_ms.append(event.created_ms)
                        user_ids.append(event.user_id)
                    tweet_ids.append(event.id)
                    tweet_positions.append(position)
                    slots.append(slot)
            else:
                notice_ids.append(event.tweet_id)
                notice_positions.append(position)
                notice_ms.append(event.time_ms)
            yield event
    finally:
        _file_notices(streams, names, tweets, notices)


def _file_notices(streams: dict[str, KeywordStream], names: list[tuple[str, ...]],
                  tweets: tuple[array, ...], notices: tuple[array, ...]) -> None:
    """File each notice, in stream order, under the names of the latest
    earlier matched tweet with its id. Only ids that some notice names are
    remembered, as the walk passes their tweets."""
    tweet_ids, tweet_positions, slots = tweets
    named = set(notices[0])
    owner: dict[int, int] = {}  # a named id's latest matched slot so far
    i, n = 0, len(tweet_ids)
    for tweet_id, position, ms in zip(*notices):
        while i < n and tweet_positions[i] < position:
            if tweet_ids[i] in named:
                owner[tweet_ids[i]] = slots[i]
            i += 1
        if (slot := owner.get(tweet_id)) is not None:
            for name in names[slot]:
                streams[name].deleted_ms.append(ms)


# The toy oracle's trailing window (seconds), list length, and the score
# each deletion in the window costs under mitigation.
ORACLE_WINDOW_S = 600
ORACLE_TOP_K = 10
ORACLE_PENALTY_WEIGHT = 2.0


def trend_oracle(
    streams: Mapping[str, KeywordStream],
    mitigation: bool = False,
    epoch_seconds: int = 300,
) -> list[tuple[int, list[str]]]:
    """Rank keywords every epoch by distinct posting users in a trailing
    window of ORACLE_WINDOW_S seconds, each event in the second of its ms.

    With mitigation on, each deletion in the window subtracts
    ORACLE_PENALTY_WEIGHT from the score, so a mass-deleted burst scores
    itself out of the list. Returns (epoch time ms, top ORACLE_TOP_K
    keywords best first) pairs.
    """
    columns = [column for stream in streams.values()
               for column in (stream.created_ms, stream.deleted_ms) if column]
    if not columns:
        return []

    # Epoch bounds from each column's first and last event second.
    first_epoch = (min(map(min, columns)) // 1000 // epoch_seconds + 1) * epoch_seconds
    last_epoch = (max(map(max, columns)) // 1000 // epoch_seconds + 1) * epoch_seconds
    epochs = range(first_epoch, last_epoch + 1, epoch_seconds)
    w = ORACLE_WINDOW_S

    scored: list[list[tuple[float, str]]] = [[] for _ in epochs]
    # One keyword's sorted creations and deletions at a time.
    for key, (created_ms, user_ids, deleted_ms) in streams.items():
        creations = sorted(zip([ms // 1000 for ms in created_ms], user_ids))
        deletions = sorted(ms // 1000 for ms in deleted_ms)
        users: dict[int, int] = {}  # posts per user in the window
        lo = hi = 0  # the window's creations are creations[lo:hi]
        for t, ranked in zip(epochs, scored):
            while hi < len(creations) and creations[hi][0] <= t:
                user = creations[hi][1]
                users[user] = users.get(user, 0) + 1
                hi += 1
            while lo < hi and creations[lo][0] <= t - w:
                user = creations[lo][1]
                users[user] -= 1
                if users[user] == 0:
                    del users[user]
                lo += 1
            score = float(len(users))
            if mitigation:
                score -= ORACLE_PENALTY_WEIGHT * (
                    bisect_right(deletions, t) - bisect_right(deletions, t - w)
                )
            if score > 0:
                ranked.append((-score, key))
    return [(t * 1000, [key for _, key in sorted(ranked)[:ORACLE_TOP_K]])
            for t, ranked in zip(epochs, scored)]


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def score_stream(
    config: DetectorConfig,
    scenario: ScenarioConfig,
    events: Iterable[TweetEvent],
    trend_days: Sequence[TrendDay],
    truth: Mapping[tuple[date, str], bool],
) -> EvalReport:
    """Sample ``events`` by tweet id at the scenario's rate and seed
    (sample_stream), run the full detection pipeline over ``trend_days`` in
    the scenario's locale, and score the verdicts against ``truth``.
    """
    for trend in trend_days:
        if (trend.date, trend.keyword.normalized) not in truth:
            raise TrendGuardError(
                f"trend-day {trend.date.isoformat()},{trend.keyword.raw} has no truth label"
            )
    sampled = sample_stream(events, scenario.sample_rate, scenario.seed)
    instances = build_trend_instances(trend_days, sampled, SCENARIO_LOCALE, scenario.tz_offset,
                                      flags_for_instance(SCENARIO_LOCALE))
    tp = fp = tn = fn = 0
    for key, instance in instances.items():
        verdict = score_instance(instance, config)
        if verdict.attacked and truth[key]:
            tp += 1
        elif verdict.attacked:
            fp += 1
        elif truth[key]:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, tn=tn, fn=fn)


def evaluate(config: DetectorConfig, labeled: LabeledStream) -> EvalReport:
    """Score a detector configuration against a generated stream's truth."""
    return score_stream(
        config, labeled.config, labeled.events(), labeled.trend_days(), labeled.truth
    )


# ---------------------------------------------------------------------------
# Serialization: archive-format JSON lines plus truth sidecars
# ---------------------------------------------------------------------------

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def format_created_at(ms: int) -> str:
    tm = time.gmtime(ms // 1000)
    return (
        f"{_WEEKDAYS[tm.tm_wday]} {_MONTH_NAMES[tm.tm_mon - 1]} {tm.tm_mday:02d} "
        f"{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d} +0000 {tm.tm_year}"
    )


_SOURCE = encode_basestring('<a href="https://twitter.com/download">Twitter for Android</a>')


def write_stream_jsonl(handle, events: Iterable[TweetEvent]) -> None:
    """Write each event as one archive-format JSON line.

    A line is ``json.dumps(record, sort_keys=True, ensure_ascii=False)`` of
    the event's archive record (the oracle is ``tests/oracles.py``), written
    from a fixed template: the keys spelled in sorted order, strings through
    the encoder ``json.dumps`` uses, a GeoTweet's `geo` through ``json.dumps``
    itself, and the optional keys `geo`, `in_reply_to_status_id` and
    `retweeted_status` in their sorted slots. `created_at` is formatted once
    per distinct second.
    """
    write = handle.write
    second = None
    created_at = ""
    for event in events:
        if isinstance(event, Deletion):
            tid, uid = event.tweet_id, event.user_id
            write(f'{{"delete": {{"status": {{"id": {tid}, "id_str": "{tid}", "user_id": {uid}, '
                  f'"user_id_str": "{uid}"}}, "timestamp_ms": "{event.time_ms}"}}}}\n')
            continue
        tid, uid, ms = event.id, event.user_id, event.created_ms
        if ms // 1000 != second:
            second = ms // 1000
            created_at = format_created_at(ms)
        hashtags = ", ".join([f'{{"text": {encode_basestring(tag)}}}' for tag in event.hashtags])
        urls = ", ".join([f'{{"url": "https://t.co/x{i}"}}' for i in range(event.urls)])
        mentions = ", ".join([f'{{"id": {m}, "id_str": "{m}"}}' for m in event.mentions])
        geo = (f'"geo": {{"coordinates": {json.dumps(event.geo)}, "type": "Point"}}, '
               if isinstance(event, GeoTweet) else "")
        reply = f'"in_reply_to_status_id": {tid - 1}, ' if event.is_reply else ""
        retweet = (f'"retweeted_status": {{"id": {tid - 1}}}, '
                   if event.is_retweet and not event.text.startswith("RT @") else "")
        write(f'{{"created_at": "{created_at}", "entities": {{"hashtags": [{hashtags}], '
              f'"urls": [{urls}], "user_mentions": [{mentions}]}}, {geo}"id": {tid}, '
              f'"id_str": "{tid}", {reply}"lang": "tr", {retweet}"source": {_SOURCE}, '
              f'"text": {encode_basestring(event.text)}, "timestamp_ms": "{ms}", '
              f'"user": {{"id": {uid}, "id_str": "{uid}"}}}}\n')


def write_truth_csv(handle, labeled: LabeledStream) -> None:
    rows = csv.writer(handle, lineterminator="\n")
    rows.writerow(("date", "keyword", "attacked"))
    rows.writerows((day.isoformat(), labeled.keywords[normalized].raw, int(attacked))
                   for (day, normalized), attacked in sorted(labeled.truth.items()))


def write_trends_csv(handle, labeled: LabeledStream) -> None:
    rows = csv.writer(handle, lineterminator="\n")
    rows.writerow(("date", "keyword"))
    rows.writerows((day.isoformat(), labeled.keywords[normalized].raw)
                   for day, normalized in sorted(labeled.truth))


def write_bots(handle, labeled: LabeledStream) -> None:
    for user_id in sorted(labeled.truth_bots):
        handle.write(f"{user_id}\n")


def write_epochs_csv(
    handle,
    epochs: Iterable[tuple[int, Sequence[str]]],
    keywords: Mapping[str, Keyword],
) -> None:
    """Serialize toy-oracle output in the trend-epoch CSV format."""
    rows = csv.writer(handle, lineterminator="\n")
    rows.writerow(("captured_at", "location", "rank", "keyword", "volume"))
    for when, ranked in epochs:
        if not ranked:
            continue
        iso = datetime.fromtimestamp(when // 1000, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
        for rank, normalized in enumerate(ranked, start=1):
            raw = keywords[normalized].raw if normalized in keywords else normalized
            rows.writerow((iso, "simulated", rank, raw, ""))


def load_truth_csv(path: str, locale: str = DEFAULT_LOCALE) -> dict[tuple[date, str], bool]:
    """Each trend-day's truth label, as write_truth_csv writes it: `attacked`
    is 0 or 1."""
    def parse(row):
        key = (parse_date(row["date"]), normalize_keyword(row["keyword"], locale).normalized)
        attacked = row["attacked"].strip()
        if attacked not in ("0", "1"):
            raise ValueError(f"attacked must be 0 or 1, got {attacked!r}")
        return key, attacked == "1"

    with _text_input(path) as handle:
        return dict(_csv_rows(handle, ("date", "keyword", "attacked"), parse))


# ---------------------------------------------------------------------------
# Flat key=value scenario files
# ---------------------------------------------------------------------------

# Keys are the ScenarioConfig fields, with the AttackParams fields spelled
# flat in place of `params`; each is read by the parser of its field's type.
_SCENARIO_FIELDS = get_type_hints(ScenarioConfig)
del _SCENARIO_FIELDS["params"]
_PARAM_FIELDS = get_type_hints(AttackParams)
_PARSERS = {
    int: int,
    float: float,
    date: parse_date,
    Optional[str]: str,
}


def save_scenario(config: ScenarioConfig, handle) -> None:
    """Write a scenario to a text handle as flat `key = value` lines
    readable by load_scenario."""
    lines = [
        f"{key} = {getattr(config, key)!r}"
        for kind in (int, float)
        for key in sorted(k for k, t in _SCENARIO_FIELDS.items() if t is kind)
    ]
    lines.append(f"start_date = {config.start_date.isoformat()}")
    lines.extend(f"{key} = {getattr(config.params, key)}" for key in _PARAM_FIELDS)
    if path := config.wordlist_path:
        # load_scenario reads either quote; a path can hold at most one kind.
        quote = "'" if '"' in path else '"'
        if quote in path:
            raise ValueError(f"wordlist_path holds both quote characters: {path}")
        lines.append(f"wordlist_path = {quote}{path}{quote}")
    handle.write("\n".join(lines) + "\n")


# A quoted value ends at the first matching quote that only blanks or a
# comment follow, so a path may hold both `#` and quotes.
_QUOTED_VALUE = re.compile(r"""(["'])(.*?)\1\s*(?:#.*)?""")


def load_scenario(path: str) -> ScenarioConfig:
    """Parse a flat `key = value` scenario file (TOML-style scalars only).

    Recognized keys are the ScenarioConfig field names, the attack
    parameters kappa/alpha_p/alpha_d/theta (seconds), start_date (ISO), and
    wordlist_path. A `#` starts a comment, except inside a quoted value,
    which runs to its closing quote. The file may start with a byte-order
    mark.
    """
    values: dict[str, tuple[int, str]] = {}  # key: (line number, value text)
    with _text_input(path) as handle:
        for lineno, raw_line in enumerate(handle, 1):
            head = raw_line.split("#", 1)[0]
            if "=" not in head:
                if head.strip():
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                continue
            key, _, value = raw_line.partition("=")
            value = value.strip()
            if value[:1] in ('"', "'"):
                quoted = _QUOTED_VALUE.fullmatch(value)
                if quoted is None:
                    raise ValueError(f"{path}:{lineno}: expected one quoted value")
                value = quoted[2]
            else:
                value = value.split("#", 1)[0].strip()
            values[key.strip()] = (lineno, value)

    kwargs = {}
    params = {}
    for key, (lineno, text) in values.items():
        if key in _SCENARIO_FIELDS:
            target, parse = kwargs, _PARSERS[_SCENARIO_FIELDS[key]]
        elif key in _PARAM_FIELDS:
            target, parse = params, _PARSERS[_PARAM_FIELDS[key]]
        else:
            raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
        try:
            target[key] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return ScenarioConfig(params=AttackParams(**params), **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
