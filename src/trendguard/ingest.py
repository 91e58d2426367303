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

import csv
import io
import json
import re
from array import array
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

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


class Tweet(NamedTuple):
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


class Deletion(NamedTuple):
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


# The deletion ms of a tweet that has no deletion attached: the one int64
# that no parsed id or instant takes (see _int64).
NOT_DELETED = -2**63


class JoinedTweet(NamedTuple):
    """One row of a TrendInstance."""

    id: int
    user_id: int
    created_ms: int
    deleted_ms: int
    flags: Optional[int]


@dataclass
class TrendInstance:
    """A trend-day joined with its tweets, one column per field.

    Only the join makes one: it opens the instance, files its rows, and
    settles it in place (``_instance``). Downstream code trusts that row i
    of every column is one tweet, that the ids are distinct and the rows
    sorted by (created_ms, id), and that ``deleted_ms`` holds each tweet's
    earliest deletion notice (ms), or NOT_DELETED. When that notice
    precedes the tweet's creation, nothing is attached, whatever later
    notices say, and the tweet counts in ``invalid_deletions``. The four
    int columns are int64 arrays.

    ``flags`` holds the flag byte of each row (core.LEXICON,
    SINGLE_ENGAGEMENT and RETWEET bits) as the join's flagger gave it for
    this trend-day's keyword; it is None when the join had no flagger.
    """

    trend: TrendDay
    ids: array = field(default_factory=lambda: array("q"))
    users: array = field(default_factory=lambda: array("q"))
    created_ms: array = field(default_factory=lambda: array("q"))
    deleted_ms: array = field(default_factory=lambda: array("q"))
    flags: Optional[bytearray] = None
    invalid_deletions: int = 0

    @property
    def keyword(self) -> Keyword:
        return self.trend.keyword

    def flag_bytes(self) -> bytearray:
        """``flags``, or a ValueError when the join had no flagger."""
        if self.flags is None:
            raise ValueError(f"trend-day {self.trend.keyword.normalized}@{self.trend.date} was "
                             "joined without a flagger; its tweets have no flags")
        return self.flags

    @property
    def tweets(self) -> list[JoinedTweet]:
        """The rows, in order, built anew on each access; the pipeline
        itself reads the columns."""
        flags = repeat(None) if self.flags is None else self.flags
        return list(map(JoinedTweet, self.ids, self.users, self.created_ms, self.deleted_ms, flags))

    @property
    def deletions(self) -> dict[int, int]:
        """The deletion ms of each deleted tweet, by id, built anew on each
        access."""
        return {tweet_id: when for tweet_id, when in zip(self.ids, self.deleted_ms)
                if when != NOT_DELETED}


# ---------------------------------------------------------------------------
# Stream line parsing
# ---------------------------------------------------------------------------

_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTHS = {name: number for number, name in enumerate(_MONTH_NAMES, 1)}

_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)


# A UTC offset: a sign, then hours and minutes below 60.
_OFFSET_RE = re.compile(r"([+-])([0-9]{2})([0-5][0-9])")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def _parse_created_at(value: str) -> int:
    """Parse the classic 'Wed Aug 27 13:08:45 +0000 2008' form to epoch
    seconds. An instant that no calendar or clock holds (31 February, hour
    25, an offset of a day or more or with no sign) is a BadTimestamp."""
    parts = value.split()
    if len(parts) != 6:
        raise BadTimestamp(f"unrecognized created_at: {value!r}")
    try:
        hh, mm, ss = map(int, parts[3].split(":"))
        offset = _OFFSET_RE.fullmatch(parts[4])
        if offset is None:
            raise ValueError("an offset is a sign and HHMM")
        sign, hours, minutes = offset.groups()
        shift = timedelta(hours=int(hours), minutes=int(minutes))
        zone = timezone(-shift if sign == "-" else shift)
        when = datetime(int(parts[5]), _MONTHS[parts[1]], int(parts[2]), hh, mm, ss, tzinfo=zone)
        return (when - _EPOCH) // _SECOND
    except (KeyError, ValueError, OverflowError) as exc:
        raise BadTimestamp(f"unrecognized created_at: {value!r}") from exc


_INT64 = 2**63


def _int64(value) -> int:
    """An id or instant as the archive writes it, a JSON integer or a string
    of ASCII digits with an optional leading '-', in (-2**63, 2**63). Any
    other value (a bool, a float, a padded or underscored string, a digit
    that is not ASCII) is a ValueError, which fails the line's schema."""
    if type(value) is int:
        number = value
    elif type(value) is str and value.isascii() and value.removeprefix("-").isdigit():
        number = int(value)
    else:
        raise ValueError(f"not an int64 id or instant: {value!r}")
    if -_INT64 < number < _INT64:
        return number
    raise ValueError(f"outside int64: {value!r}")


# A byte of an archive that is not UTF-8, as read_stream decodes it.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")

# The JSON value a string starts with, and the index where it ends.
_decode_json = json.JSONDecoder().raw_decode


# What the decoder raises on a field of the wrong JSON type or value: a
# missing key, a value _int64 rejects, int() of null, a list or infinity,
# .get on a non-object, iterating a number, indexing a string by key.
_SCHEMA_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def parse_stream_line(line: str) -> Optional[TweetEvent]:
    """Parse one archive line into a Tweet or Deletion; None for a blank
    line or a record of another kind (limit notices, ...). Every reader of
    the package decodes through here.

    A status's id, user id and timestamp_ms, and a notice's status id and
    timestamp_ms, are read by _int64, so every one lies in (-2**63, 2**63).
    Raises MalformedLine on broken syntax, on any record whose fields do
    not fit the schema, and on a status whose text or a hashtag holds an
    escaped byte (see _open_source); callers are expected to count these
    rather than abort. No other exception escapes for any input string.
    """
    stripped = line.strip()
    if not stripped:
        return None
    try:
        obj, end = _decode_json(stripped)
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long int, deep nesting
        raise MalformedLine(f"invalid JSON: {exc}") from exc
    if end != len(stripped):  # stripped, so only a value can follow
        raise MalformedLine("invalid JSON: extra data after the value")
    if not isinstance(obj, dict):
        raise MalformedLine("line is not a JSON object")
    try:
        if "delete" in obj:
            delete = obj["delete"]
            status = delete["status"]
            tweet_id = _int64(status["id"])
            user_raw = status.get("user_id", status.get("user_id_str", 0))
            try:
                user_id = int(user_raw)
            except (TypeError, ValueError, OverflowError):
                user_id = 0
            ms = delete.get("timestamp_ms", obj.get("timestamp_ms"))
            if ms is None:
                raise MalformedLine(f"delete notice for {tweet_id} lacks timestamp_ms")
            return Deletion(tweet_id, user_id, _int64(ms))
        if "id" not in obj or "text" not in obj and "extended_tweet" not in obj:
            return None

        tweet_id = _int64(obj["id"])
        user = obj.get("user")
        if isinstance(user, dict) and "id" in user:
            user_id = _int64(user["id"])
        elif "user_id" in obj:
            user_id = _int64(obj["user_id"])
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

        ms = obj.get("timestamp_ms")
        if ms is not None:
            created_ms = _int64(ms)
        else:
            created = obj.get("created_at")
            if created is None:
                raise MalformedLine("record has neither timestamp_ms nor created_at")
            try:
                created_ms = _parse_created_at(created) * 1000
            except BadTimestamp as exc:
                raise MalformedLine(str(exc)) from exc

        # Each list is mostly empty; no other value equals [].
        hashtags = entities.get("hashtags", ())
        hashtags = () if hashtags == [] else tuple(
            h["text"] for h in hashtags if isinstance(h, dict) and isinstance(h.get("text"), str)
        )
        mentions = entities.get("user_mentions", ())
        mentions = () if mentions == [] else tuple(
            int(m["id"]) for m in mentions if isinstance(m, dict) and m.get("id") is not None
        )
        urls = len(entities.get("urls", ()) or ())
        try:
            text.encode()  # fast for the common case: no lone surrogate at all
            for tag in hashtags:
                tag.encode()
        except UnicodeEncodeError:
            if any(map(_ESCAPED_BYTE_RE.search, (text, *hashtags))):
                raise MalformedLine(f"status {tweet_id} holds a byte that is not UTF-8") from None
    except _SCHEMA_ERRORS as exc:
        raise MalformedLine(f"record does not fit the schema: {exc!r}") from exc

    return Tweet(
        tweet_id, user_id, text, created_ms, hashtags, mentions, urls,
        "retweeted_status" in obj or text.startswith("RT @"),
        obj.get("in_reply_to_status_id") is not None or obj.get("in_reply_to_user_id") is not None,
    )


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


def _open_source(source, stack: ExitStack) -> tuple[Optional[io.TextIOBase], tuple]:
    """Open a binary stream as text, decompressing gzip or bzip2 when the
    magic bytes say so and the first read decompresses. When that read
    fails on bytes not in the codec's format, the stream is plain text that
    happens to start with those bytes, read again from its start; when it
    ends early, the stream is an archive cut inside its first block. A byte
    that is not UTF-8 decodes to its escape (U+DC80-U+DCFF) instead of
    failing the read. Returns the handle and what its codec raises on a
    later block that does not decompress (() for plain text); the handle is
    None for a cut archive, and for plain text in a stream that cannot seek
    back, which the caller counts as one malformed line. Each wrapper made
    here is closed or detached as ``stack`` exits, leaving ``source`` open."""
    if isinstance(source, io.TextIOBase):
        return source, ()
    if not hasattr(source, "peek"):
        source = io.BufferedReader(source)
        stack.callback(source.detach)
    codec, not_codec = _codec(source.peek(3)[:3])
    if codec is not None:
        start = source.tell() if source.seekable() else None
        decoded = stack.enter_context(codec.open(source, "rb"))  # its close leaves source open
        try:
            decoded.peek(1)  # stays buffered: no byte is decompressed twice
        except not_codec as exc:
            if isinstance(exc, EOFError) or start is None:
                return None, ()
            source.seek(start)
            not_codec = ()
        else:
            source = decoded
    text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
    stack.callback(text.detach)
    return text, not_codec


def read_stream(
    source,
    *,
    stats: Optional[ParseStats] = None,
    keep: Optional[Callable[[str], bool]] = None,
) -> Iterator[TweetEvent]:
    """The one line loop: stream TweetEvents from a path or binary stream,
    one pass, bounded memory.

    Malformed lines are counted in ``stats`` and skipped. A compressed file
    that is cut or corrupt after its first block ends its read there, and
    the rest counts as one malformed line; one cut inside its first block
    is one malformed line. ``keep``, when given, is tested on each raw line
    first: a line it rejects is counted in ``stats.prefiltered`` and never
    decoded, so it must keep every line the caller could use. The counts are
    added to ``stats`` once the iterator is exhausted or closed, and then a
    path's file is closed; a stream the caller gave is left open. A line
    whose ids or instants are not int64 (see _int64) counts as malformed.
    """
    lines = prefiltered = malformed = other = creations = deletions = 0
    try:
        # A path is opened once, so a pipe loses nothing to the codec probe.
        is_path = isinstance(source, (str, bytes))
        with ExitStack() as stack:
            binary = stack.enter_context(open(source, "rb")) if is_path else source
            handle, codec_errors = _open_source(binary, stack)
            if handle is None:
                lines = malformed = 1
                return
            try:
                for line in handle:
                    lines += 1
                    if keep is not None and not keep(line):
                        prefiltered += 1
                        continue
                    try:
                        event = parse_stream_line(line)
                    except MalformedLine:
                        malformed += 1
                        continue
                    if event is None:
                        other += 1
                        continue
                    if type(event) is Deletion:
                        deletions += 1
                    else:
                        creations += 1
                    yield event
            except codec_errors:
                lines += 1
                malformed += 1
    finally:
        if stats is not None:
            stats.add(ParseStats(lines_read=lines, creations=creations, deletions=deletions,
                                 malformed_skipped=malformed, other_skipped=other,
                                 prefiltered=prefiltered))


# ---------------------------------------------------------------------------
# Trend snapshot files
# ---------------------------------------------------------------------------

# The ISO 8601 forms the package reads. From Python 3.11 on, fromisoformat
# reads more (20190618, 2019-W25-3, +0300, a 1-digit fraction) than 3.10
# does, so each text is matched here first: a date is YYYY-MM-DD, and an
# instant is one 3.10 reads (a 'T' or blank after the date, then hours with
# optional minutes, seconds and a 3- or 6-digit fraction, and an optional
# +HH:MM[:SS[.ffffff]] offset) or that with 'Z' for its offset.
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_ISO_INSTANT_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?"
)
_DIGITS_RE = re.compile(r"[0-9]+")


def parse_date(text: str) -> date:
    """A YYYY-MM-DD date: the one form of a date that every file, record
    and scenario the package reads may hold."""
    if _ISO_DATE_RE.fullmatch(text) is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def _parse_iso_ms(value: str) -> int:
    """An ISO 8601 instant as epoch ms, floored to the whole second (UTC
    when it names no offset)."""
    text = value.strip()
    if _ISO_INSTANT_RE.fullmatch(text) is None:
        raise BadTimestamp(f"unparsable timestamp: {value!r}")
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise BadTimestamp(f"unparsable timestamp: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _SECOND * 1000


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
    contiguous sequence 1..n. A rank and a volume are plain ASCII digits,
    and an empty volume cell means the platform reported none.
    """
    def parse(row):
        volume = (row.get("volume") or "").strip()
        if volume and _DIGITS_RE.fullmatch(volume) is None:
            raise ValueError(f"a volume must be plain digits, got {volume!r}")
        key = (_parse_iso_ms(row["captured_at"]), (row.get("location") or "").strip())
        rank = row["rank"].strip()
        if _DIGITS_RE.fullmatch(rank) is None:
            raise ValueError(f"a rank must be plain digits, got {rank!r}")
        return key, (int(rank), normalize_keyword(row["keyword"], locale),
                     int(volume) if volume else None)

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
        return TrendDay(parse_date(row["date"].strip()), normalize_keyword(row["keyword"], locale))

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


# What a join's caller may give it to flag tweets: for each trend-day's
# keyword, the function giving the flag byte of a tweet joined to it
# (classify.flags_for_instance makes one).
Flagger = Mapping[Keyword, Callable[[Tweet], int]]


# A join's trend-day instances by key, unsettled until _Join.settle.
_Groups = dict[tuple[date, str], TrendInstance]

# The day numbers that a datetime.date holds.
_DATED_DAYS = range(1 - _EPOCH_ORDINAL, date.max.toordinal() + 1 - _EPOCH_ORDINAL)


class _Join:
    """One join's state, built once for all its reads: the trend-days that
    take a status (see build_trend_instances), by keyword and local day,
    and the raw-line test ``keep``. It pickles as its arguments."""

    def __init__(self, trends: Optional[Sequence[TrendDay]], locale: str = DEFAULT_LOCALE,
                 tz_offset: int = DEFAULT_TZ_OFFSET, flagger: Optional[Flagger] = None):
        self.args = trends, locale, tz_offset, flagger
        self.flagger = flagger
        hashtags, ngrams = True, []
        if trends is None:
            def trend_of(key: tuple[date, str]) -> TrendDay:
                return TrendDay(key[0], Keyword("#" + key[1], key[1], HASHTAG))

            def joined(status) -> list:
                day = local_day(status.created_ms, tz_offset)
                if day not in _DATED_DAYS:
                    return []
                when = day_number_to_date(day)
                return [(when, tag) for tag in sorted(extract_hashtags(status.text, locale))]
        else:
            # The first trend-day of each key, in list order.
            self.trends: dict[tuple[date, str], TrendDay] = {}
            targets: dict[tuple[str, str, int], list] = {}
            for trend in trends:
                self.trends.setdefault((trend.date, trend.keyword.normalized), trend)
            for key, trend in self.trends.items():
                day = trend.day_number()
                for taken in (day, day - 1):
                    targets.setdefault((trend.keyword.kind, key[1], taken), []).append(key)
            trend_of = self.trends.__getitem__
            ngrams = [trend.keyword for trend in self.trends.values()
                      if trend.keyword.kind != HASHTAG]
            hashtags = len(ngrams) < len(self.trends)
            contained = _keyword_index(ngrams, locale)

            def joined(status) -> list:
                day = local_day(status.created_ms, tz_offset)
                found = []
                if hashtags:
                    for tag in extract_hashtags(status.text, locale):
                        found += targets.get((HASHTAG, tag, day), ())
                if ngrams:
                    # An n-gram's key comes once per occurrence; file the status once.
                    for kind, name in dict.fromkeys(contained(status.text)):
                        found += targets.get((kind, name, day), ())
                return found
        self.joined = joined
        self.trend_of = trend_of
        self.keep = _line_test(hashtags, ngrams, locale)

    def __reduce__(self):
        return _Join, self.args

    def open_instance(self, trend: TrendDay) -> TrendInstance:
        return TrendInstance(trend, flags=None if self.flagger is None else bytearray())

    def file(self, events: Iterable[TweetEvent]) -> tuple[_Groups, _Notices]:
        """The one filing loop: each Tweet filed, with its flag byte, under
        each trend-day it joins, opened at its first tweet; each Deletion packed."""
        joined, trend_of, flagger = self.joined, self.trend_of, self.flagger
        targets: dict[tuple[date, str], tuple] = {}
        notices = _Notices()
        noted_ids, noted_times = notices.ids.append, notices.times.append
        for event in events:
            if type(event) is Deletion:
                noted_ids(event.tweet_id)
                noted_times(event.time_ms)
                continue
            for key in joined(event):
                try:
                    instance, flag = targets[key]
                except KeyError:
                    trend = trend_of(key)
                    flag = None if flagger is None else flagger[trend.keyword]
                    instance, flag = targets[key] = self.open_instance(trend), flag
                instance.ids.append(event.id)
                instance.users.append(event.user_id)
                instance.created_ms.append(event.created_ms)
                if flag is not None:
                    instance.flags.append(flag(event))
        return {key: instance for key, (instance, _) in targets.items()}, notices

    def scan(self, path) -> tuple[_Groups, _Notices, ParseStats]:
        """file() of the lines of a file that ``keep`` keeps, and its counters."""
        stats = ParseStats()
        return *self.file(read_stream(path, stats=stats, keep=self.keep)), stats

    def settle(self, groups: _Groups, notices: _Notices) -> _Groups:
        """The join's result, from every trend-day filled and every notice.

        The earliest notice of each id is taken from the smaller side: from
        every notice when there are no more of them than matched rows, else
        from the notices of a set of the matched ids. Only matched ids are
        looked up, so both give the same result."""
        if self.args[0] is not None:
            groups = {key: groups[key] if key in groups else self.open_instance(trend)
                      for key, trend in self.trends.items()}
        if len(notices.ids) <= sum(len(instance.ids) for instance in groups.values()):
            deletions = notices.earliest()
        else:
            deletions = notices.earliest({tweet_id for instance in groups.values()
                                          for tweet_id in instance.ids})
        for instance in groups.values():
            _instance(instance, deletions)
        return groups


def _gather(column: array, order: list[int]) -> array:
    return array("q", map(column.__getitem__, order))


def _instance(instance: TrendInstance, deletions: dict[int, int]) -> None:
    """Settle a trend-day's instance in place, given the earliest deletion
    notice (ms) of each tweet id: keep the first row of each id, sort the
    rows by (created ms, id), and fill ``deleted_ms``.

    The join files a repeated id and flags it again, in the order it meets
    it, and only this step drops the repeats: a set of the ids seen would
    cost more a row than the columns do (about 64 B against 25), to save
    work on input that seldom repeats."""
    ids, created = instance.ids, instance.created_ms
    n = len(ids)
    # Each id's last assignment, going backwards, is its first row.
    first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
    order = sorted(first.values(), key=ids.__getitem__)
    order.sort(key=created.__getitem__)  # stable: equal ms stay in id order
    instance.ids = _gather(ids, order)
    instance.users = _gather(instance.users, order)
    instance.created_ms = _gather(created, order)
    if instance.flags is not None:
        instance.flags = bytearray(map(instance.flags.__getitem__, order))
    deleted = instance.deleted_ms
    for tweet_id, created_ms in zip(instance.ids, instance.created_ms):
        when = deletions.get(tweet_id)
        if when is None:
            when = NOT_DELETED
        elif when < created_ms:
            instance.invalid_deletions += 1
            when = NOT_DELETED
        deleted.append(when)


def build_trend_instances(
    trends: Optional[Sequence[TrendDay]],
    events: Iterable[TweetEvent],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
    flagger: Optional[Flagger] = None,
) -> dict[tuple[date, str], TrendInstance]:
    """Join many trend-days against one pass over an event collection.

    Returns a mapping keyed by (date, normalized keyword), in trend-list
    order (the first trend-day of each key, empty ones included). A tweet
    joins a trend-day on day d when its local day is d or d-1 and its text
    holds the keyword: a hashtag as a folded tag, an n-gram as a run of
    tokens. The events go through the file join's filing loop, which files
    whatever is not a Deletion as a Tweet, keeping a matched tweet as four
    ints and, with a ``flagger``, the flag byte it gives for the
    trend-day's keyword, worked out as the tweet is filed; the Tweet itself
    is dropped. Each deletion notice is packed into 16 bytes until the pass
    ends, when the earliest notice of each matched tweet is attached. So
    every id, user id and instant of ``events`` must lie in (-2**63,
    2**63), as the parser's and the simulator's do.

    With ``trends`` None the join discovers its trend-days, in the order it
    meets them (one tweet's by sorted tag): a creation goes to the instance
    (its local date, tag) of each tag of extract_hashtags, on its own day
    only, made on first use with the keyword '#tag'. A creation whose local
    day no datetime.date holds goes to none.
    """
    join = _Join(trends, locale, tz_offset, flagger)
    return join.settle(*join.file(events))


def _escape_sensitive(token: str) -> bool:
    """True when a text can hold ``token`` while its folded line, free of
    \\u escapes, does not: the token has a character JSON writes as a
    short escape, or a 'σ', which the line can fold to 'ς' after an escape
    (why, see build_instances_from_files)."""
    return any(char in '"\\/σ' or char < " " for char in token)


def _line_test(hashtags: bool, ngrams: Sequence[Keyword], locale: str) -> Callable[[str], bool]:
    """Keeps every deletion notice and every line whose tweet can hold a
    hashtag, when ``hashtags``, or match one of the n-gram keywords
    ``ngrams`` (why, see build_instances_from_files): one call a line, the
    substring tests inline."""
    ngrams = {tokens for keyword in ngrams
              if (tokens := tuple(text_tokens(keyword.normalized, locale)))}
    escape = "\\" if any(_escape_sensitive(t) for ngram in ngrams for t in ngram) else "\\u"

    # Each escape the tests look for starts with \u00, which few lines hold.
    if not ngrams:
        def keep(line: str) -> bool:
            return ('"delete"' in line or hashtags and "#" in line
                    or "\\u00" in line and ("\\u006" in line or "\\u007" in line
                                          or hashtags and "\\u0023" in line))
        return keep

    # With an n-gram, every line holding \u (so every escape above) is kept.
    def keep(line: str) -> bool:
        if '"delete"' in line or hashtags and "#" in line or escape in line:
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
    id is _int64 of the value of a key "id", the status's own or its delete
    notice's. Without those two escapes, the only ones of 'i' and 'd', the
    key is spelled '"id"' in the line, and JSON puts whitespace and ':'
    between a key and its value. When the value is a JSON integer, that
    literal is the whole value, followed by whitespace and the ',' or '}'
    that ends an object member, and _int64 gives the integer the line
    spells or fails the line; any other value (a digit string, which
    _int64 reads, or a float, an exponent, true, which fail the line)
    leaves the group empty, which keeps the line. So the filter keeps a
    superset of the lines the parser accepts. Every occurrence is tested, so
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


class _Notices:
    """Deletion notices packed as two parallel int64 columns, tweet id and
    time: 16 bytes a notice, several times less than a dict entry."""

    def __init__(self):
        self.ids = array("q")
        self.times = array("q")

    def extend(self, other: _Notices) -> None:
        self.ids.extend(other.ids)
        self.times.extend(other.times)

    def earliest(self, wanted: Optional[set[int]] = None) -> dict[int, int]:
        """The earliest notice (ms) of each noticed tweet id, or of each
        wanted one."""
        found: dict[int, int] = {}
        for tweet_id, when in zip(self.ids, self.times):
            if wanted is None or tweet_id in wanted:
                found[tweet_id] = min(when, found.get(tweet_id, when))
        return found


def build_instances_from_files(
    trends: Optional[Sequence[TrendDay]],
    paths: Sequence[str],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
    stats: Optional[ParseStats] = None,
    map_fn: Callable = map,
    flagger: Optional[Flagger] = None,
) -> dict[tuple[date, str], TrendInstance]:
    """One-pass streaming join over archive files with per-trend memory.

    Each file is read once, through read_stream, and filed as
    build_trend_instances files events; the earliest notice of each matched
    tweet is attached once every file is read. So peak memory is about 33
    bytes per matched tweet plus 16 per notice, not the corpus, and the
    result equals ``build_trend_instances(trends, <every file's events>,
    ..., flagger)``, also in its discovery case, ``trends`` None.

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
    map parallelizes across files with identical results. Each read gets
    the join's state, whose ``flagger`` must pickle under a pool, as
    classify.flags_for_instance's does (empty: a task makes its functions
    anew), and returns only the trend-days its file filled, their rows as
    int columns, which pickle as raw bytes.
    """
    join = _Join(trends, locale, tz_offset, flagger)
    groups: _Groups = {}
    notices = _Notices()
    for file_groups, file_notices, file_stats in map_fn(join.scan, paths):
        if stats is not None:
            stats.add(file_stats)
        notices.extend(file_notices)
        for key, instance in file_groups.items():
            merged = groups.setdefault(key, instance)  # a trend-day's first rows: kept, not copied
            if merged is not instance:
                merged.ids.extend(instance.ids)
                merged.users.extend(instance.users)
                merged.created_ms.extend(instance.created_ms)
                if flagger is not None:
                    merged.flags += instance.flags
    return join.settle(groups, notices)
