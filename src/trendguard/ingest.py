"""
Parsing of archived event-stream files (line-delimited JSON status and
delete-notice records, plain or in gzip or bzip2) and trend snapshot CSVs,
plus the join that associates tweets with trend-days.

A tweet is associated with a trend when it textually contains the keyword
and was posted on the trend's local day or the day before. Deletion notices
are attached by tweet id regardless of where they occur in the stream, so
instance construction is independent of event ordering.
"""

from __future__ import annotations

import calendar
import csv
import io
import json
import re
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timezone
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import (
    DEFAULT_LOCALE,
    DEFAULT_TZ_OFFSET,
    HASHTAG,
    Keyword,
    TrendGuardError,
    fold_case,
    local_day,
    normalize_keyword,
)


class MalformedLine(TrendGuardError):
    """A stream line with broken syntax; counted by read_stream, never fatal."""


class BadRank(TrendGuardError):
    """Trend-epoch ranks are not a contiguous 1..n sequence."""


class BadTimestamp(TrendGuardError):
    """A timestamp field could not be parsed."""


class BadRow(TrendGuardError):
    """An input file lacks a column, or a row lacks a field, that the
    reader needs."""


@dataclass(frozen=True, slots=True)
class Tweet:
    id: int
    user_id: int
    text: str
    created_ms: int
    hashtags: tuple[str, ...] = ()
    mentions: tuple[int, ...] = ()
    urls: int = 0
    is_retweet: bool = False
    is_reply: bool = False


# The old name of a creation event, which is now the Tweet itself; the
# benchmark's tracer still counts creations by this name.
Creation = Tweet


@dataclass(frozen=True, slots=True)
class Deletion:
    tweet_id: int
    user_id: int
    time_ms: int


TweetEvent = Union[Tweet, Deletion]


@dataclass
class ParseStats:
    """Per-read counters; lines_read always equals the sum of the others."""

    lines_read: int = 0
    creations: int = 0
    deletions: int = 0
    malformed_skipped: int = 0
    other_skipped: int = 0
    # Lines a read_stream line predicate rejected without decoding them.
    prefiltered: int = 0

    @property
    def consistent(self) -> bool:
        return self.lines_read == (
            self.creations + self.deletions + self.malformed_skipped + self.other_skipped
            + self.prefiltered
        )

    def add(self, other: "ParseStats") -> None:
        """Add another read's counters to these (merging per-file reads)."""
        for counter in fields(self):
            setattr(self, counter.name, getattr(self, counter.name) + getattr(other, counter.name))


@dataclass(frozen=True, slots=True)
class TrendDay:
    """One unique (date, keyword) pair; trends are counted once per day."""

    date: date
    keyword: Keyword

    def day_number(self) -> int:
        """Days since the epoch of this local calendar day."""
        return self.date.toordinal() - _EPOCH_ORDINAL


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def day_number_to_date(day_number: int) -> date:
    return date.fromordinal(day_number + _EPOCH_ORDINAL)


@dataclass(frozen=True, slots=True)
class TrendEpoch:
    """One snapshot of the ranked trends list at a point in time."""

    captured_ms: int
    location: str
    entries: tuple[tuple[int, Keyword, Optional[int]], ...]  # (rank, keyword, volume)

    def rank_of(self, normalized: str) -> Optional[int]:
        for rank, kw, _ in self.entries:
            if kw.normalized == normalized:
                return rank
        return None


@dataclass
class TrendInstance:
    """A trend-day joined with its associated tweets and their deletion times.

    Only the join (``_InstanceBuilder.build``) makes one; downstream code
    trusts that ``tweets`` holds distinct ids sorted by (created_ms, id) and
    that ``deletions`` maps a tweet id to its earliest deletion notice (ms).
    When that notice precedes the tweet's creation, nothing is attached,
    whatever later notices say, and the tweet counts in ``invalid_deletions``.
    """

    trend: TrendDay
    tweets: list[Tweet] = field(default_factory=list)
    deletions: dict[int, int] = field(default_factory=dict)
    invalid_deletions: int = 0

    @property
    def keyword(self) -> Keyword:
        return self.trend.keyword


# ---------------------------------------------------------------------------
# Stream line parsing
# ---------------------------------------------------------------------------

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)


def _parse_created_at(value: str) -> int:
    """Parse the classic 'Wed Aug 27 13:08:45 +0000 2008' form to epoch seconds."""
    parts = value.split()
    if len(parts) != 6:
        raise BadTimestamp(f"unrecognized created_at: {value!r}")
    try:
        month = _MONTHS[parts[1]]
        day = int(parts[2])
        hh, mm, ss = parts[3].split(":")
        offset_txt = parts[4]
        year = int(parts[5])
        seconds = calendar.timegm((year, month, day, int(hh), int(mm), int(ss), 0, 0, 0))
        sign = -1 if offset_txt.startswith("-") else 1
        offset = sign * (int(offset_txt[1:3]) * 3600 + int(offset_txt[3:5]) * 60)
        return seconds - offset
    except (KeyError, ValueError, IndexError) as exc:
        raise BadTimestamp(f"unrecognized created_at: {value!r}") from exc


def _event_ms(obj: dict) -> int:
    ms = obj.get("timestamp_ms")
    if ms is not None:
        return int(ms)
    created = obj.get("created_at")
    if created is None:
        raise BadTimestamp("record has neither timestamp_ms nor created_at")
    return _parse_created_at(created) * 1000


# A byte of an archive that is not UTF-8, as read_stream decodes it.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


def _holds_escaped_byte(text: str) -> bool:
    try:
        text.encode()  # fast for the common case: no lone surrogate at all
    except UnicodeEncodeError:
        return _ESCAPED_BYTE_RE.search(text) is not None
    return False


def _parse_status(obj: dict) -> Tweet:
    tweet_id = int(obj["id"])
    user = obj.get("user")
    if isinstance(user, dict) and "id" in user:
        user_id = int(user["id"])
    elif "user_id" in obj:
        user_id = int(obj["user_id"])
    else:
        raise MalformedLine(f"status {tweet_id} has no user id")

    extended = obj.get("extended_tweet")
    if isinstance(extended, dict) and extended.get("full_text"):
        text = extended["full_text"]
        entities = extended.get("entities") or obj.get("entities") or {}
    else:
        text = obj.get("text")
        entities = obj.get("entities") or {}
    if not isinstance(text, str):
        raise MalformedLine(f"status {tweet_id} has no text")

    try:
        created_ms = _event_ms(obj)
    except BadTimestamp as exc:
        raise MalformedLine(str(exc)) from exc

    hashtags = tuple(
        h["text"]
        for h in entities.get("hashtags", ())
        if isinstance(h, dict) and isinstance(h.get("text"), str)
    )
    mentions = tuple(
        int(m["id"])
        for m in entities.get("user_mentions", ())
        if isinstance(m, dict) and m.get("id") is not None
    )
    urls = len(entities.get("urls", ()) or ())
    if _holds_escaped_byte(text) or any(map(_holds_escaped_byte, hashtags)):
        raise MalformedLine(f"status {tweet_id} holds a byte that is not UTF-8")

    return Tweet(
        id=tweet_id,
        user_id=user_id,
        text=text,
        created_ms=created_ms,
        hashtags=hashtags,
        mentions=mentions,
        urls=urls,
        is_retweet="retweeted_status" in obj or text.startswith("RT @"),
        is_reply=obj.get("in_reply_to_status_id") is not None
        or obj.get("in_reply_to_user_id") is not None,
    )


def _parse_delete(obj: dict) -> Deletion:
    delete = obj["delete"]
    status = delete["status"]
    tweet_id = int(status["id"])
    user_raw = status.get("user_id", status.get("user_id_str", 0))
    try:
        user_id = int(user_raw)
    except (TypeError, ValueError, OverflowError):
        user_id = 0
    ms = delete.get("timestamp_ms", obj.get("timestamp_ms"))
    if ms is None:
        raise MalformedLine(f"delete notice for {tweet_id} lacks timestamp_ms")
    return Deletion(tweet_id=tweet_id, user_id=user_id, time_ms=int(ms))


# What the record parsers raise on a field of the wrong JSON type or value:
# a missing key, int() of a non-number, null, list or infinity, .get on a
# non-object, iterating a number, indexing a string by key.
_SCHEMA_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def parse_stream_line(line: str) -> Optional[TweetEvent]:
    """Parse one archive line into a Tweet or Deletion; None for a blank
    line or a record of another kind (limit notices, ...).

    Raises MalformedLine on broken syntax, on any record whose fields do
    not fit the schema, and on a status whose text or a hashtag holds an
    escaped byte (see _open_source); callers are expected to count these
    rather than abort. No other exception escapes for any input string.
    """
    stripped = line.strip()
    if not stripped:
        return None
    try:
        obj = json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long int, deep nesting
        raise MalformedLine(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine("line is not a JSON object")
    try:
        if "delete" in obj:
            return _parse_delete(obj)
        if "id" in obj and ("text" in obj or "extended_tweet" in obj):
            return _parse_status(obj)
    except _SCHEMA_ERRORS as exc:
        raise MalformedLine(f"record does not fit the schema: {exc!r}") from exc
    return None


def _codec(magic: bytes):
    """The compression module whose magic bytes start ``magic``, and what
    its first read raises on bytes that are not in its format; (None, ())
    for other bytes. The module is imported only when a file needs it."""
    if magic[:2] == b"\x1f\x8b":
        import gzip
        import zlib
        return gzip, (OSError, EOFError, zlib.error)
    if magic[:3] == b"BZh":
        import bz2
        return bz2, (OSError, EOFError)
    return None, ()


def _open_source(source) -> tuple[Optional[io.TextIOBase], tuple]:
    """Open a binary stream as text, decompressing gzip or bzip2 when the
    magic bytes say so and the first read decompresses. When that read
    fails on bytes not in the codec's format, the stream is plain text that
    happens to start with those bytes, read again from its start; when it
    ends early, the stream is an archive cut inside its first block. A byte
    that is not UTF-8 decodes to its escape (U+DC80-U+DCFF) instead of
    failing the read. Returns the handle and what its codec raises on a
    later block that does not decompress (() for plain text); the handle is
    None for a cut archive, and for plain text in a stream that cannot seek
    back, which the caller counts as one malformed line."""
    if isinstance(source, io.TextIOBase):
        return source, ()
    if not hasattr(source, "peek"):
        source = io.BufferedReader(source)
    codec, not_codec = _codec(source.peek(3)[:3])
    if codec is not None:
        start = source.tell() if source.seekable() else None
        decoded = codec.open(source, "rb")
        try:
            decoded.peek(1)  # stays buffered: no byte is decompressed twice
        except not_codec as exc:
            decoded.close()
            if isinstance(exc, EOFError) or start is None:
                return None, ()
            source.seek(start)
            not_codec = ()
        else:
            source = decoded
    return io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape"), not_codec


def read_stream(
    source,
    *,
    stats: Optional[ParseStats] = None,
    keep: Optional[Callable[[str], bool]] = None,
) -> Iterator[TweetEvent]:
    """Stream TweetEvents from a path or binary stream, one pass, bounded memory.

    Malformed lines are counted in ``stats`` and skipped. A compressed file
    that is cut or corrupt after its first block ends its read there, and
    the rest counts as one malformed line; one cut inside its first block
    is one malformed line. ``keep``, when given, is tested on each raw line
    first: a line it rejects is counted in ``stats.prefiltered`` and never
    decoded, so it must keep every line the caller could use. The stats
    object is complete once the iterator is exhausted.
    """
    if stats is None:
        stats = ParseStats()
    # A path is opened once, so a pipe loses nothing to the codec probe, and
    # closed here, as a codec given an open file leaves it open.
    is_path = isinstance(source, (str, bytes))
    with open(source, "rb") if is_path else nullcontext(source) as binary:
        handle, codec_errors = _open_source(binary)
        if handle is None:
            stats.lines_read += 1
            stats.malformed_skipped += 1
            return
        try:
            for line in handle:
                stats.lines_read += 1
                if keep is not None and not keep(line):
                    stats.prefiltered += 1
                    continue
                try:
                    event = parse_stream_line(line)
                except MalformedLine:
                    stats.malformed_skipped += 1
                    continue
                if event is None:
                    stats.other_skipped += 1
                    continue
                if isinstance(event, Tweet):
                    stats.creations += 1
                else:
                    stats.deletions += 1
                yield event
        except codec_errors:
            stats.lines_read += 1
            stats.malformed_skipped += 1
        finally:
            handle.close()


# ---------------------------------------------------------------------------
# Trend snapshot files
# ---------------------------------------------------------------------------

def _parse_iso_ms(value: str) -> int:
    """An ISO 8601 instant as epoch ms, truncated to the second (UTC when
    it names no offset)."""
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise BadTimestamp(f"unparsable timestamp: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) * 1000


def _text_input(source):
    """A context manager giving a text handle for a path or an open handle;
    it closes only what it opened. A path is read as UTF-8, skipping a
    leading byte-order mark."""
    if isinstance(source, (str, bytes)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    return nullcontext(source)


def _csv_rows(handle, required: Sequence[str], parse: Callable[[dict[str, str]], object]) -> Iterator:
    """``parse`` of each row of a CSV with a header line, each row holding
    every ``required`` column. A header without one, a row too short to fill
    one, or a value ``parse`` rejects raises an error naming the file and
    line: the package's own error keeps its class, any other is a BadRow."""
    name = getattr(handle, "name", "<input>")
    reader = csv.DictReader(handle)
    header = reader.fieldnames
    if header is None:
        return
    for column in required:
        if column not in header:
            raise BadRow(f"{name}:1: no {column!r} column")
    for row in reader:
        for column in required:
            if row[column] is None:
                raise BadRow(f"{name}:{reader.line_num}: row has no {column!r} field")
        try:
            item = parse(row)
        except (TrendGuardError, ValueError) as exc:
            error = type(exc) if isinstance(exc, TrendGuardError) else BadRow
            raise error(f"{name}:{reader.line_num}: {exc}") from exc
        yield item


def load_trend_epochs(source, locale: str = DEFAULT_LOCALE) -> list[TrendEpoch]:
    """Load a `captured_at,location,rank,keyword,volume` CSV into epochs.

    Rows sharing (captured_at, location) form one epoch; ranks must be the
    contiguous sequence 1..n. An empty volume cell means the platform
    reported none.
    """
    def parse(row):
        volume = (row.get("volume") or "").strip()
        key = (_parse_iso_ms(row["captured_at"]), (row.get("location") or "").strip())
        rank = int(row["rank"])
        return key, (rank, normalize_keyword(row["keyword"], locale), int(volume) if volume else None)

    grouped: dict[tuple[int, str], list[tuple[int, Keyword, Optional[int]]]] = {}
    with _text_input(source) as handle:
        for key, entry in _csv_rows(handle, ("captured_at", "rank", "keyword"), parse):
            grouped.setdefault(key, []).append(entry)
    epochs = []
    for key in sorted(grouped):
        entries = sorted(grouped[key], key=lambda e: e[0])
        ranks = [r for r, _, _ in entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise BadRank(f"epoch at {key[0] // 1000} has ranks {ranks}, "
                          f"expected 1..{len(ranks)}")
        if len(entries) > 50:
            raise BadRank(f"epoch at {key[0] // 1000} lists {len(entries)} trends, "
                          f"limit is 50")
        epochs.append(TrendEpoch(captured_ms=key[0], location=key[1], entries=tuple(entries)))
    return epochs


def load_trend_days(source, locale: str = DEFAULT_LOCALE) -> list[TrendDay]:
    """Load a `date,keyword` CSV into unique TrendDays, input order preserved."""
    def parse(row):
        return TrendDay(date.fromisoformat(row["date"].strip()), normalize_keyword(row["keyword"], locale))

    days: dict[tuple[date, str], TrendDay] = {}
    with _text_input(source) as handle:
        for trend in _csv_rows(handle, ("date", "keyword"), parse):
            days.setdefault((trend.date, trend.keyword.normalized), trend)
    return list(days.values())


# ---------------------------------------------------------------------------
# Keyword matching and instance construction
# ---------------------------------------------------------------------------

_EDGE_PUNCT_RE = re.compile(r"^\W+|\W+$", re.UNICODE)


def _clean_token(token: str) -> str:
    return _EDGE_PUNCT_RE.sub("", token)


def extract_hashtags(text: str, locale: str = DEFAULT_LOCALE) -> set[str]:
    """Case-folded hashtag bodies occurring in the text."""
    return {fold_case(tag, locale) for tag in _HASHTAG_RE.findall(text)}


def text_tokens(text: str, locale: str = DEFAULT_LOCALE) -> list[str]:
    """Case-folded whitespace tokens with edge punctuation stripped."""
    folded = fold_case(text, locale)
    return [cleaned for token in folded.split() if (cleaned := _clean_token(token))]


class _InstanceBuilder:
    """Accumulates matched tweets for one trend-day."""

    def __init__(self, trend: TrendDay):
        self.trend = trend
        self.day_number = trend.day_number()
        self.tweets: dict[int, Tweet] = {}

    def offer_tweet(self, tweet: Tweet) -> None:
        self.tweets.setdefault(tweet.id, tweet)

    def build(self, deletions: dict[int, int]) -> TrendInstance:
        instance = TrendInstance(trend=self.trend)
        instance.tweets = sorted(self.tweets.values(), key=lambda t: (t.created_ms, t.id))
        for tweet in instance.tweets:
            when = deletions.get(tweet.id)
            if when is None:
                continue
            if when < tweet.created_ms:
                instance.invalid_deletions += 1
                continue
            instance.deletions[tweet.id] = when
        return instance


def _note_deletion(pending: dict[int, int], tweet_id: int, when: int) -> None:
    prior = pending.get(tweet_id)
    if prior is None or when < prior:
        pending[tweet_id] = when


def _builders(trends: Sequence[TrendDay]) -> dict[tuple[date, str], _InstanceBuilder]:
    """One builder per unique (date, normalized keyword), input order kept."""
    builders: dict[tuple[date, str], _InstanceBuilder] = {}
    for trend in trends:
        key = (trend.date, trend.keyword.normalized)
        if key not in builders:
            builders[key] = _InstanceBuilder(trend)
    return builders


def _keyword_index(
    keywords: Iterable[Keyword], locale: str
) -> Callable[[str], list[tuple[str, str]]]:
    """Maps a tweet text to the (kind, normalized) key of every keyword the
    text contains (an n-gram's key once per occurrence).

    A hashtag keyword matches only the exact hashtag token, case-folded, so
    '#tag' does not match '#tagging'; it is found through the text's
    hashtags. An n-gram keyword matches at token boundaries, never as a
    substring; its tokens are cleaned as text_tokens cleans a text's, and
    it is found through the token runs that start with its first token.
    One with no token left (such as '!!!') matches nothing."""
    hashtags: dict[str, tuple[str, str]] = {}
    ngrams: dict[str, set[tuple[tuple[str, ...], tuple[str, str]]]] = {}
    for k in keywords:
        key = (k.kind, k.normalized)
        if k.kind == HASHTAG:
            hashtags[k.normalized] = key
        elif tokens := tuple(text_tokens(k.normalized, locale)):
            ngrams.setdefault(tokens[0], set()).add((tokens, key))

    def contained(text: str) -> list[tuple[str, str]]:
        found = []
        if hashtags:
            found = [hashtags[tag] for tag in extract_hashtags(text, locale) if tag in hashtags]
        if ngrams:
            tokens = text_tokens(text, locale)
            for i, token in enumerate(tokens):
                for ngram, key in ngrams.get(token, ()):
                    if tuple(tokens[i : i + len(ngram)]) == ngram:
                        found.append(key)
        return found

    return contained


def build_trend_instances(
    trends: Optional[Sequence[TrendDay]],
    events: Iterable[TweetEvent],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> dict[tuple[date, str], TrendInstance]:
    """Join many trend-days against one pass over an event collection.

    Returns a mapping keyed by (date, normalized keyword). Matching goes
    through one keyword index over all trend-days. Deletion notices are
    buffered in a dict by id (memory proportional to deletions in the
    input); callers joining large files should use
    build_instances_from_files, which packs each notice into 16 bytes.

    With ``trends`` None the join discovers its trend-days: a creation goes
    to the instance (its local date, tag) of each tag of extract_hashtags,
    on its own day only, each made on first use with the keyword '#tag'.
    """
    pending: dict[int, int] = {}
    if trends is None:
        builders: dict[tuple[date, str], _InstanceBuilder] = {}
        for event in events:
            if isinstance(event, Tweet):
                day = day_number_to_date(local_day(event.created_ms, tz_offset))
                for tag in extract_hashtags(event.text, locale):
                    builder = builders.get((day, tag))
                    if builder is None:
                        trend = TrendDay(day, Keyword("#" + tag, tag, HASHTAG))
                        builder = builders[day, tag] = _InstanceBuilder(trend)
                    builder.offer_tweet(event)
            elif isinstance(event, Deletion):
                _note_deletion(pending, event.tweet_id, event.time_ms)
        return {key: builder.build(pending) for key, builder in builders.items()}

    builders = _builders(trends)
    # The builders that take a tweet, by keyword and by the tweet's local
    # day: a trend-day on day d takes tweets of days d and d-1.
    by_keyword: dict[tuple[str, str], dict[int, list[_InstanceBuilder]]] = {}
    for builder in builders.values():
        keyword = builder.trend.keyword
        by_day = by_keyword.setdefault((keyword.kind, keyword.normalized), {})
        for day in (builder.day_number, builder.day_number - 1):
            by_day.setdefault(day, []).append(builder)
    contained = _keyword_index((b.trend.keyword for b in builders.values()), locale)

    for event in events:
        if isinstance(event, Tweet):
            day = local_day(event.created_ms, tz_offset)
            for key in contained(event.text):
                for builder in by_keyword[key].get(day, ()):
                    builder.offer_tweet(event)
        elif isinstance(event, Deletion):
            _note_deletion(pending, event.tweet_id, event.time_ms)

    return {key: builder.build(pending) for key, builder in builders.items()}


def _escape_sensitive(token: str) -> bool:
    """True when a text can hold ``token`` while its folded line, free of
    \\u escapes, does not: the token has a character JSON writes as a
    short escape, or a 'σ', which the line can fold to 'ς' after an escape
    (why, see build_instances_from_files)."""
    return any(char in '"\\/σ' or char < " " for char in token)


def _creation_filter(trends: Optional[Sequence[TrendDay]], locale: str) -> Callable[[str], bool]:
    """Keeps every line whose tweet can match one of ``trends``, or hold a
    hashtag when ``trends`` is None (why, see build_instances_from_files)."""
    hashtags = trends is None or any(trend.keyword.kind == HASHTAG for trend in trends)
    ngrams = {tokens for trend in trends or () if trend.keyword.kind != HASHTAG
              if (tokens := tuple(text_tokens(trend.keyword.normalized, locale)))}
    escape = "\\" if any(_escape_sensitive(t) for ngram in ngrams for t in ngram) else "\\u"

    def keep(line: str) -> bool:
        if hashtags and ("#" in line or "\\u0023" in line):
            return True
        if not ngrams:
            return False
        if escape in line:
            return True
        folded = fold_case(line, locale)
        for ngram in ngrams:
            for token in ngram:
                if token not in folded:
                    break
            else:
                return True
        return False

    return keep


def _may_hold_deletion(line: str) -> bool:
    """Keeps every deletion notice (why, see build_instances_from_files)."""
    return '"delete"' in line or "\\u006" in line or "\\u007" in line


# "id" followed by ':' and an integer that ends its value; the group is
# empty when anything else follows.
_ID_VALUE_RE = re.compile(r'"id"(?:[ \t\n\r]*:[ \t\n\r]*(-?[0-9]+)[ \t\n\r]*[,}])?')


def id_line_filter(kept: Callable[[int], bool]) -> Callable[[str], bool]:
    """A read_stream line test that keeps every line whose event has a
    tweet id ``kept`` accepts.

    A line is kept iff it holds \\u0069 or \\u0064, or some occurrence of
    '"id"' is not followed by JSON whitespace, ':', an integer literal
    -?[0-9]+, whitespace and ',' or '}', or ``kept`` accepts one of the
    integers so found. Why no event ``kept`` accepts is lost: the event's
    id is int() of the value of a key "id", the status's own or its delete
    notice's. Without those two escapes, the only ones of 'i' and 'd', the
    key is spelled '"id"' in the line, and JSON puts whitespace and ':'
    between a key and its value. When the value is a JSON integer, that
    literal is the whole value, followed by whitespace and the ',' or '}'
    that ends an object member, and int() gives the integer the line
    spells; any other value (a string, a float, an exponent, true) leaves
    the group empty, which keeps the line. Every occurrence is tested, so
    a duplicated key (the last one wins) and the ids of nested objects are
    covered; a '"id"' that is no key, such as the value of "lang", keeps
    the line or adds an integer, which only keeps more. An integer with
    more digits than int() reads keeps the line, and json.loads fails on
    it as well.
    """
    def keep(line: str) -> bool:
        if "\\u00" in line and ("\\u0069" in line or "\\u0064" in line):
            return True
        try:
            for digits in _ID_VALUE_RE.findall(line):
                if not digits or kept(int(digits)):
                    return True
        except ValueError:
            return True
        return False

    return keep


_INT64 = 2**63


class _Notices:
    """Deletion notices packed as two parallel int64 columns, tweet id and
    time: 16 bytes a notice, several times less than a dict entry. A notice
    with a value outside int64 (the parser accepts any int) goes to
    ``wide``, which keeps each id's earliest time."""

    def __init__(self):
        self.ids = array("q")
        self.times = array("q")
        self.wide: dict[int, int] = {}

    def add(self, tweet_id: int, when: int) -> None:
        if -_INT64 <= tweet_id < _INT64 and -_INT64 <= when < _INT64:
            self.ids.append(tweet_id)
            self.times.append(when)
        else:
            _note_deletion(self.wide, tweet_id, when)

    def note_wanted(self, wanted: set[int], pending: dict[int, int]) -> None:
        """Note in ``pending`` the earliest notice of each wanted tweet id."""
        for tweet_id, when in chain(zip(self.ids, self.times), self.wide.items()):
            if tweet_id in wanted:
                _note_deletion(pending, tweet_id, when)


def _scan_file(job) -> tuple[dict[tuple[date, str], TrendInstance], _Notices, ParseStats]:
    """One read of one file: the file's instance of each trend-day, with no
    deletion attached, every deletion notice, and the file's parse counters."""
    path, trends, locale, tz_offset = job
    may_match = _creation_filter(trends, locale)

    def keep(line: str) -> bool:
        return '"delete"' in line or may_match(line) or _may_hold_deletion(line)

    stats = ParseStats()
    events = read_stream(path, stats=stats, keep=keep)
    notices = _Notices()

    def creations() -> Iterator[Tweet]:
        for event in events:
            if isinstance(event, Tweet):
                yield event
            else:
                notices.add(event.tweet_id, event.time_ms)

    return build_trend_instances(trends, creations(), locale, tz_offset), notices, stats


def build_instances_from_files(
    trends: Optional[Sequence[TrendDay]],
    paths: Sequence[str],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
    stats: Optional[ParseStats] = None,
    map_fn: Callable = map,
) -> dict[tuple[date, str], TrendInstance]:
    """One-pass streaming join over archive files with per-trend memory.

    Each file is read once: its matching tweets are kept, and each of its
    deletion notices is packed into 16 bytes. Once every file is read, the
    earliest notice of each matched tweet is attached, so peak memory is the
    matched tweets plus 16 bytes per notice, not the corpus. The result
    equals ``build_trend_instances(trends, <every file's events>)``, also in
    its discovery case, ``trends`` None, which finds every hashtag-day.

    Only the lines a raw-line test keeps are decoded; the others are
    counted as ``prefiltered``. The test keeps a line in each of these
    cases, which together hold every line that can change the result:

    * the line holds '"delete"', \\u006 or \\u007: the key "delete"
      appears literally or with some letters escaped, and the escapes of
      d, e, l and t all start with \\u006 or \\u007;
    * some trend-day is a hashtag, or the join discovers its trend-days,
      and the line holds '#' or \\u0023: a hashtag match needs a '#' in
      the decoded text, and a JSON string can encode one in only these two
      ways;
    * some trend-day is an n-gram, and the line holds \\u; or it holds a
      backslash while some n-gram token holds '"', '\\', '/', a character
      below U+0020 or 'σ'; or every token of some n-gram occurs in the
      case-folded line. A matched token occurs in the folded text. Without
      \\u, the text differs from its JSON string only at the escapes \\"
      \\\\ \\/ \\b \\f \\n \\r \\t, which decode to '"', '\\', '/' or a
      character below U+0020, each folding to itself; so a token holding
      none of these lies in the fold of a run of the text that the line
      holds verbatim. Folding maps characters one by one, except that
      str.lower makes a capital sigma final when a cased letter precedes it
      and none follows, skipping case-ignorable characters. Beside the run,
      the text has an escape's decoded character or the string's end, and
      the line a backslash, '"' or an escape's last character. None of
      these is cased or case-ignorable, save the letters ending \\b \\f \\n
      \\r and \\t: after one, a sigma can fold to 'ς' in the line and to
      'σ' in the text, and a token covering it holds 'σ'. So in a line
      that neither \\u nor such a backslash keeps, every matched token
      occurs in the folded line.

    ``stats`` receives the read's counters: each archive line once.
    ``map_fn`` runs the per-file reads, in file order; a process pool's
    map parallelizes across files with identical results.
    """
    builders = _builders(trends or ())
    notices: list[_Notices] = []
    for instances, file_notices, file_stats in map_fn(
        _scan_file, [(path, trends, locale, tz_offset) for path in paths]
    ):
        if stats is not None:
            stats.add(file_stats)
        notices.append(file_notices)
        for key, instance in instances.items():
            builder = builders.get(key)
            if builder is None:  # a trend-day the discovery case found
                builder = builders[key] = _InstanceBuilder(instance.trend)
            for tweet in instance.tweets:
                builder.offer_tweet(tweet)

    wanted = {tid for builder in builders.values() for tid in builder.tweets}
    pending: dict[int, int] = {}
    for file_notices in notices:
        file_notices.note_wanted(wanted, pending)
    return {key: builder.build(pending) for key, builder in builders.items()}
