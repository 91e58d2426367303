import bz2
import gzip
import io
import json
import os
import random
import re
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from trendguard import ingest
from trendguard.core import normalize_keyword
from trendguard.ingest import (
    BadRank,
    BadRow,
    BadTimestamp,
    Deletion,
    MalformedLine,
    ParseStats,
    TrendDay,
    Tweet,
    _parse_created_at,
    _parse_iso_ms,
    build_trend_instances,
    load_trend_days,
    load_trend_epochs,
    parse_stream_line,
    read_stream,
)

from trendguard.simulator import format_created_at

from conftest import DAY, DAY_NOON, fifo_of, make_tweet, pipe_payload, read_all
from date_forms import DATES, INSTANTS, check_date, check_instant
from oracles import build_trend_instance, match_keyword

STATUS_LINE = json.dumps(
    {
        "created_at": "Tue Jun 18 09:00:00 +0000 2019",
        "id": 7,
        "id_str": "7",
        "text": "a b #Tag",
        "user": {"id": 3, "id_str": "3"},
        "entities": {
            "hashtags": [{"text": "Tag"}],
            "user_mentions": [{"id": 42}],
            "urls": [{"url": "https://t.co/x"}],
        },
        "lang": "tr",
        "source": '<a href="http://example">Twitter for Android</a>',
        "geo": {"type": "Point", "coordinates": [41.0, 29.0]},
    }
)

DELETE_LINE = '{"delete":{"status":{"id":7,"user_id":3},"timestamp_ms":"1000"}}'


class TestParseStreamLine:
    def test_status_record(self):
        tweet = parse_stream_line(STATUS_LINE)
        assert isinstance(tweet, Tweet)
        assert tweet.id == 7
        assert tweet.user_id == 3
        assert tweet.text == "a b #Tag"
        assert tweet.hashtags == ("Tag",)
        assert tweet.mentions == (42,)
        assert tweet.urls == 1
        assert not tweet.is_retweet and not tweet.is_reply
        assert not hasattr(tweet, "geo")  # the record's geo is not read
        # Tue Jun 18 09:00:00 UTC 2019
        assert tweet.created_ms == 1560848400 * 1000

    def test_delete_notice_millisecond_timestamp(self):
        event = parse_stream_line(DELETE_LINE)
        assert isinstance(event, Deletion)
        assert event.tweet_id == 7
        assert event.user_id == 3
        assert event.time_ms == 1000

    def test_empty_line_skips(self):
        assert parse_stream_line("") is None
        assert parse_stream_line("   \n") is None

    def test_limit_notice_skips(self):
        assert parse_stream_line('{"limit":{"track":5}}') is None

    def test_garbage_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_stream_line("{not json")
        with pytest.raises(MalformedLine):
            parse_stream_line('"just a string"')

    @pytest.mark.parametrize("record", [
        # non-integer user.id, timestamp_ms and mention id
        {"id": 1, "text": "x", "user": {"id": "abc"}, "timestamp_ms": "1000"},
        {"id": 1, "text": "x", "user": {"id": 2}, "timestamp_ms": "soon"},
        {"id": 1, "text": "x", "user": {"id": 2}, "timestamp_ms": "1000",
         "entities": {"user_mentions": [{"id": "abc"}]}},
        # null user.id
        {"id": 1, "text": "x", "user": {"id": None}, "timestamp_ms": "1000"},
        # entities.urls that is not a list
        {"id": 1, "text": "x", "user": {"id": 2}, "timestamp_ms": "1000",
         "entities": {"urls": 5}},
        # non-empty entities that is not a dict
        {"id": 1, "text": "x", "user": {"id": 2}, "timestamp_ms": "1000", "entities": [1]},
        # created_at that is not a string
        {"id": 1, "text": "x", "user": {"id": 2}, "created_at": 5},
        # infinite ids and times (Python's json accepts Infinity)
        {"id": float("inf"), "text": "x", "user": {"id": 2}, "timestamp_ms": "1000"},
        {"delete": {"status": {"id": float("inf")}, "timestamp_ms": "1000"}},
        {"delete": {"status": {"id": 1}, "timestamp_ms": float("inf")}},
    ])
    def test_schema_violations_are_malformed(self, record):
        line = json.dumps(record)
        with pytest.raises(MalformedLine):
            parse_stream_line(line)
        events, stats = read_all(io.BytesIO((line + "\n" + DELETE_LINE).encode()))
        assert len(events) == 1
        assert stats.malformed_skipped == 1
        assert stats.consistent

    @pytest.mark.parametrize("line", ["[" * 100_000, "1" * 5_000])
    def test_undecodable_json_is_malformed(self, line):
        with pytest.raises(MalformedLine):
            parse_stream_line(line)

    def test_status_without_time_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_stream_line('{"id": 1, "text": "x", "user": {"id": 2}}')

    def test_timestamp_ms_preferred(self):
        line = json.dumps(
            {
                "created_at": "Tue Jun 18 09:00:00 +0000 2019",
                "timestamp_ms": "1560848401500",
                "id": 1,
                "text": "x",
                "user": {"id": 2},
            }
        )
        event = parse_stream_line(line)
        assert event.created_ms == 1560848401 * 1000 + 500

    def test_retweet_and_reply_flags(self):
        line = json.dumps(
            {
                "timestamp_ms": "1000",
                "id": 1,
                "text": "RT @x: hi",
                "user": {"id": 2},
                "retweeted_status": {"id": 99},
                "in_reply_to_status_id": 5,
            }
        )
        event = parse_stream_line(line)
        assert event.is_retweet and event.is_reply


class TestReadStream:
    def test_counts_valid_lines(self):
        payload = "\n".join([STATUS_LINE, STATUS_LINE, DELETE_LINE]) + "\n"
        events, stats = read_all(io.BytesIO(payload.encode()))
        assert len(events) == 3
        assert (stats.creations, stats.deletions) == (2, 1)
        assert stats.malformed_skipped == 0
        assert stats.consistent

    def test_garbage_counted_not_fatal(self):
        payload = STATUS_LINE + "\n{broken\n" + STATUS_LINE + "\n"
        events, stats = read_all(io.BytesIO(payload.encode()))
        assert len(events) == 2
        assert stats.malformed_skipped == 1
        assert stats.consistent

    def test_fixture_five_creations_two_deletions(self, tmp_path):
        lines = [STATUS_LINE] * 5 + [DELETE_LINE] * 2 + ["", '{"limit":{}}']
        path = tmp_path / "events.json"
        path.write_text("\n".join(lines) + "\n")
        stats = ParseStats()
        events = list(read_stream(str(path), stats=stats))
        assert len(events) == 7
        assert (stats.creations, stats.deletions) == (5, 2)
        assert stats.other_skipped == 2
        assert stats.lines_read == 9
        assert stats.consistent

    @pytest.mark.parametrize("codec", ["gzip", "bz2"])
    def test_compressed_sources(self, tmp_path, codec):
        payload = (STATUS_LINE + "\n" + DELETE_LINE + "\n").encode()
        if codec == "gzip":
            path = tmp_path / "events.json.gz"
            path.write_bytes(gzip.compress(payload))
        else:
            path = tmp_path / "events.json.bz2"
            path.write_bytes(bz2.compress(payload))
        events, stats = read_all(str(path))
        assert len(events) == 2
        assert stats.consistent

    @pytest.mark.parametrize("codec", ["gzip", "bz2"])
    def test_compressed_true_picks_codec_by_magic(self, tmp_path, codec):
        payload = (STATUS_LINE + "\n" + DELETE_LINE + "\n").encode()
        data = gzip.compress(payload) if codec == "gzip" else bz2.compress(payload)
        path = tmp_path / "events.compressed"
        path.write_bytes(data)
        for source in (str(path), io.BytesIO(data), io.BufferedReader(io.BytesIO(data))):
            events, stats = read_all(source)
            assert [type(e) for e in events] == [Tweet, Deletion]
            assert stats.consistent

    def test_prefiltered_lines_counted_not_decoded(self):
        payload = "\n".join([STATUS_LINE, "{broken", DELETE_LINE]) + "\n"
        stats = ParseStats()
        events = list(read_stream(io.BytesIO(payload.encode()), stats=stats,
                                  keep=lambda line: "delete" in line))
        assert [type(e) for e in events] == [Deletion]
        assert (stats.lines_read, stats.prefiltered, stats.malformed_skipped) == (3, 2, 0)
        assert stats.consistent

    @pytest.mark.parametrize("old, new, kept", [
        (b"a b #Tag", b"a b \xff#Tag", False),  # in the text
        (b'{"text": "Tag"}', b'{"text": "T\xe9ag"}', False),  # in a hashtag
        (b"Twitter for Android", b"Twitter for \xe9Android", True),  # in a field not read
        (STATUS_LINE.encode(), b"\xff\xfe bad bytes", False),  # a line of no JSON
    ])
    @pytest.mark.parametrize("gzipped", [False, True])
    def test_byte_not_utf8(self, old, new, kept, gzipped):
        line = STATUS_LINE.encode().replace(old, new)
        data = b"\n".join([DELETE_LINE.encode(), line, DELETE_LINE.encode()])
        events, stats = read_all(io.BytesIO(gzip.compress(data) if gzipped else data))
        expected = [parse_stream_line(DELETE_LINE)] * 2
        if kept:
            expected.insert(1, parse_stream_line(STATUS_LINE))
        assert events == expected
        assert (stats.lines_read, stats.malformed_skipped) == (3, 0 if kept else 1)
        assert stats.consistent

    @pytest.mark.parametrize("first", [b"BZh not json", b"BZh91AY&SY", b"\x1f\x8b",
                                       b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff junk"])
    def test_plain_archive_starting_with_codec_magic_bytes(self, tmp_path, first):
        data = first + b'\n{"limit":{}}\n' + DELETE_LINE.encode() + b"\n"
        path = tmp_path / "events.jsonl"
        path.write_bytes(data)
        for source in (str(path), io.BytesIO(data), io.BufferedReader(io.BytesIO(data))):
            events, stats = read_all(source)
            assert events == [parse_stream_line(DELETE_LINE)]
            assert (stats.lines_read, stats.malformed_skipped, stats.other_skipped) == (3, 1, 1)

    @pytest.mark.parametrize("archive", ["fuzzed", "gzip", "bz2", "gzip-bad-crc"])
    def test_compressed_archive_cut_after_its_first_block(self, tmp_path, archive):
        """A compressed archive that is cut or corrupt after its first block
        keeps the lines decoded before the fault; the rest is one malformed
        line."""
        payload = "".join(STATUS_LINE.replace('"id": 7', f'"id": {i}') + "\n"
                          for i in range(2000)).encode()
        if archive == "fuzzed":  # a gzip header and a deflate prefix, then the end
            data = bytes.fromhex("1f8b08020000" "0d0a1f8b08005a000a")
        elif archive == "gzip":
            data = gzip.compress(payload)
            data = data[: len(data) // 2]
        elif archive == "bz2":  # two 100 kB blocks, cut inside the second
            data = bz2.compress(payload, compresslevel=1)
            data = data[: len(data) * 3 // 4]
        else:
            data = gzip.compress(payload)[:-8] + bytes(8)
        path = tmp_path / "events.jsonl.cut"
        path.write_bytes(data)
        for source in (str(path), io.BytesIO(data)):
            events, stats = read_all(source)
            assert (stats.malformed_skipped, stats.lines_read) == (1, len(events) + 1)
            assert stats.consistent
            assert [e.id for e in events] == list(range(len(events)))
            if archive == "fuzzed":
                assert events == []
            elif archive == "gzip-bad-crc":  # gzip checks the CRC after the last line
                assert len(events) == 2000
            else:
                assert 0 < len(events) < 2000

    def test_compressed_archive_cut_inside_its_first_block(self, tmp_path):
        """A compressed archive cut before its first block decodes is one
        malformed line, not plain text: a one-block bz2 cut in half, and a
        gzip cut inside its 10-byte header, which reads as empty once its
        first read has failed."""
        payload = "".join(STATUS_LINE.replace('"id": 7', f'"id": {i}') + "\n"
                          for i in range(2000)).encode()
        one_block = bz2.compress(payload, compresslevel=9)
        for data in (one_block[: len(one_block) // 2], gzip.compress(payload, mtime=0)[:5]):
            path = tmp_path / "events.jsonl.cut"
            path.write_bytes(data)
            for source in (str(path), io.BytesIO(data), io.BufferedReader(io.BytesIO(data))):
                events, stats = read_all(source)
                assert events == []
                assert (stats.lines_read, stats.malformed_skipped) == (1, 1)
                assert stats.consistent

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_named_pipe_reads_whole(self, tmp_path, gzipped):
        """A path is opened once, so a pipe loses no byte to the codec probe."""
        data = pipe_payload()
        data = gzip.compress(data) if gzipped else data
        path = tmp_path / "events.jsonl"
        path.write_bytes(data)
        expected = read_all(str(path))
        with fifo_of(tmp_path, data) as fifo:
            assert read_all(fifo) == expected
        assert expected[1].creations == 3200

    def test_unseekable_stream_a_codec_rejects_is_one_malformed_line(self):
        """Plain bytes that start with a codec's magic bytes cannot be read
        again from a stream that cannot seek back: one malformed line."""
        read_end, write_end = os.pipe()
        os.write(write_end, b"BZh not json\n" + DELETE_LINE.encode() + b"\n")
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            events, stats = read_all(pipe)
        assert events == []
        assert (stats.lines_read, stats.malformed_skipped) == (1, 1)

    @pytest.mark.parametrize("codec, wrap", [
        *[pytest.param(codec, wrap, id=f"{codec}-{name}") for codec in (None, "gzip", "bz2")
          for name, wrap in [("BytesIO", io.BytesIO),
                             ("BufferedReader", lambda data: io.BufferedReader(io.BytesIO(data)))]],
        pytest.param(None, lambda data: io.StringIO(data.decode()), id="StringIO"),
    ])
    def test_a_callers_stream_stays_open(self, codec, wrap):
        """read_stream closes only what it opened, after a full read and
        after its iterator is closed early."""
        payload = (STATUS_LINE + "\n" + DELETE_LINE + "\n").encode()
        data = {None: payload, "gzip": gzip.compress(payload), "bz2": bz2.compress(payload)}[codec]
        stream = wrap(data)
        assert [type(e) for e in read_all(stream)[0]] == [Tweet, Deletion]
        assert not stream.closed
        stream = wrap(data)
        events = read_stream(stream)
        assert type(next(events)) is Tweet
        events.close()
        assert not stream.closed
        assert stream.read(0) in (b"", "")

    @pytest.mark.parametrize("codec", [None, "gzip", "bz2"])
    def test_a_paths_file_is_closed(self, tmp_path, monkeypatch, codec):
        payload = (STATUS_LINE + "\n" + DELETE_LINE + "\n").encode()
        path = tmp_path / "events"
        path.write_bytes({None: payload, "gzip": gzip.compress(payload),
                          "bz2": bz2.compress(payload)}[codec])
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]
        monkeypatch.setattr(ingest, "open", recording_open, raising=False)
        assert len(read_all(str(path))[0]) == 2
        events = read_stream(str(path))
        next(events)
        events.close()
        assert len(opened) == 2 and all(handle.closed for handle in opened)

    def test_lone_surrogate_escape_is_not_a_bad_byte(self):
        # Truncated emoji leave a lone \ud83d in real archives; it was text, not a byte.
        line = STATUS_LINE.replace("a b #Tag", "a b #Tag \\ud83d")
        assert parse_stream_line(line).text == "a b #Tag \ud83d"


def _status_line(tweet_id: int, tags) -> str:
    return json.dumps({"id": tweet_id, "user": {"id": tweet_id}, "text": "x",
                       "timestamp_ms": str(1560848400000 + tweet_id),
                       "entities": {"hashtags": [{"text": tag} for tag in tags]}})


class TestSharedHashtags:
    """Statuses that share hashtags: a read yields what each line parses to."""

    TAGS = [["Tag", "b"], ["Tag"], ["Tag", "b"], ["tag"], ["Tag"], [], ["Tag", "b"], []]
    LINES = [_status_line(i, tags) for i, tags in enumerate(TAGS, 1)]

    def test_events_equal_parse_stream_line_alone(self):
        alone = [parse_stream_line(line) for line in self.LINES]
        assert [tweet.hashtags for tweet in alone] == list(map(tuple, self.TAGS))
        assert read_all(io.BytesIO(("\n".join(self.LINES) + "\n").encode()))[0] == alone


def _universal_lines(data: bytes) -> list[bytes]:
    """The lines of ``data`` under universal newlines, terminators dropped."""
    pieces = re.split(rb"\r\n|\r|\n", data)
    return pieces[:-1] if pieces[-1] == b"" else pieces


def _splice(args) -> bytes:
    line, at, junk = args
    at %= len(line) + 1
    return line[:at] + junk + line[at:]


_RECORDS = [STATUS_LINE.encode(), DELETE_LINE.encode(), b'{"limit":{"track":5}}', b""]
_BYTE_LINES = st.one_of(
    st.binary(max_size=30),
    st.tuples(st.sampled_from([b"\x1f\x8b", b"\x1f\x8b\x08", b"BZh", b"BZh9"]),
              st.binary(max_size=30)).map(b"".join),  # a codec's magic bytes, first or not
    st.sampled_from(_RECORDS),
    st.tuples(st.sampled_from(_RECORDS), st.integers(0, 1000),
              st.binary(min_size=1, max_size=3)).map(_splice),
)


def _line_events(raw: bytes) -> list:
    """What one archive line should yield: for UTF-8, what parse_stream_line
    makes of its text; otherwise what it yields read alone, which is at
    most one event, with no escaped byte in a tweet's text or hashtags."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        alone = list(read_stream(io.BytesIO(b"\n" + raw)))  # no magic bytes first
        assert len(alone) <= 1
        for event in alone:
            if isinstance(event, Tweet):
                fields = event.text + "".join(event.hashtags)
                assert not re.search("[\udc80-\udcff]", fields)
        return alone
    try:
        event = parse_stream_line(text)
    except MalformedLine:
        return []
    return [] if event is None else [event]


def _starts_a_compressed_stream(data: bytes) -> bool:
    """Whether ``data`` starts with a codec's magic bytes and the codec's
    first read accepts it or ends early: read_stream then reads it as that
    codec, a cut first block being one malformed line, and a later corrupt
    part ends the read."""
    for magic, codec in ((b"\x1f\x8b", gzip), (b"BZh", bz2)):
        if data.startswith(magic):
            try:
                codec.open(io.BytesIO(data)).peek(1)
            except EOFError:
                return True
            except (OSError, zlib.error):
                return False
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BYTE_LINES, st.sampled_from([b"\n", b"\r", b"\r\n"])), max_size=8),
       st.booleans())
def test_read_stream_of_arbitrary_bytes(lines, last_terminated):
    """Any bytes, gzipped or plain, read without error, one line at a time
    under universal newlines; plain bytes that start with a codec's magic
    bytes count as plain unless the codec's first read accepts them or ends
    early, and then they read as that codec, still without error."""
    data = b"".join(line + end for line, end in lines)
    if lines and not last_terminated:
        data = data[: -len(lines[-1][1])]
    raw_lines = _universal_lines(data)
    expected = [event for raw in raw_lines for event in _line_events(raw)]

    sources = [gzip.compress(data)]
    if _starts_a_compressed_stream(data):
        assert read_all(io.BytesIO(data))[1].consistent
    else:
        sources.append(data)
    for source in sources:
        events, stats = read_all(io.BytesIO(source))
        assert events == expected
        assert stats.lines_read == len(raw_lines)
        assert stats.consistent


EPOCH_CSV = """captured_at,location,rank,keyword,volume
2019-06-18T12:00:00Z,turkey,1,#a,12000
2019-06-18T12:00:00Z,turkey,2,#b,
2019-06-18T12:05:00Z,turkey,1,#b,15000
"""


class TestTrendFiles:
    def test_load_epochs(self):
        epochs = load_trend_epochs(io.StringIO(EPOCH_CSV))
        assert len(epochs) == 2
        first = epochs[0]
        assert first.entries[0][0] == 1
        assert first.entries[0][1].normalized == "a"
        assert first.entries[0][2] == 12000
        assert first.entries[1][2] is None  # volume below reporting floor
        assert epochs[0].captured_ms < epochs[1].captured_ms

    def test_bad_rank(self):
        csv_text = "captured_at,location,rank,keyword,volume\n2019-06-18T12:00:00Z,tr,1,#a,\n2019-06-18T12:00:00Z,tr,3,#b,\n"
        with pytest.raises(BadRank):
            load_trend_epochs(io.StringIO(csv_text))

    @pytest.mark.parametrize("volume", ["-5", "1_000", "+5", "1e3", "٥", "0x10"])
    def test_a_volume_is_plain_digits(self, volume):
        csv_text = f"captured_at,location,rank,keyword,volume\n2019-06-18T12:00:00Z,tr,1,#a,{volume}\n"
        with pytest.raises(BadRow) as raised:
            load_trend_epochs(io.StringIO(csv_text))
        assert str(raised.value).startswith("<input>:2: a volume must be plain digits")

    def test_bad_timestamp(self):
        csv_text = "captured_at,location,rank,keyword,volume\nnot-a-time,tr,1,#a,\n"
        with pytest.raises(BadTimestamp):
            load_trend_epochs(io.StringIO(csv_text))

    def test_epoch_capped_at_fifty(self):
        rows = ["captured_at,location,rank,keyword,volume"]
        rows += [f"2019-06-18T12:00:00Z,tr,{r},#k{r}," for r in range(1, 52)]
        with pytest.raises(BadRank):
            load_trend_epochs(io.StringIO("\n".join(rows) + "\n"))

    def test_load_trend_days_dedups(self):
        csv_text = "date,keyword\n2019-06-18,#Tag\n2019-06-18,#tag\n2019-06-19,#tag\n"
        days = load_trend_days(io.StringIO(csv_text))
        assert len(days) == 2
        assert days[0].keyword.normalized == "tag"


class TestMatchKeyword:
    def test_hashtag_exact_token(self, tag_keyword):
        assert match_keyword("i love #Tag today", tag_keyword)

    def test_hashtag_token_boundary(self, tag_keyword):
        assert not match_keyword("#tagging along", tag_keyword)

    def test_ngram_paper_case(self):
        kw = normalize_keyword("YSK'dan CHP", "tr")
        assert match_keyword("YSK'dan CHP ve İyi Parti Kararı", kw)

    def test_ngram_boundary_not_substring(self):
        kw = normalize_keyword("ara ver", "tr")
        assert not match_keyword("maskara verimli", kw)
        assert match_keyword("lütfen ara ver artık", kw)

    def test_plain_word_is_not_hashtag_match(self, tag_keyword):
        assert not match_keyword("tag without hash", tag_keyword)


def _day_events():
    noon = DAY_NOON
    tweets = [
        make_tweet(1, 10, "selam #tag", noon),
        make_tweet(2, 11, "baska konu", noon + 10),          # no keyword
        make_tweet(3, 12, "dün gece #tag", noon - 86400),    # day before
        make_tweet(4, 13, "çok eski #tag", noon - 2 * 86400),  # two days before
        make_tweet(5, 14, "yarin #tag", noon + 86400),       # day after
    ]
    events = list(tweets)
    events.append(Deletion(tweet_id=1, user_id=10, time_ms=(noon + 60) * 1000))
    events.append(Deletion(tweet_id=99, user_id=1, time_ms=noon * 1000))  # orphan
    return events


def _join(trend, events):
    return build_trend_instances([trend], events)[(trend.date, trend.keyword.normalized)]


class TestBuildTrendInstance:
    def test_day_window_and_matching(self, tag_keyword):
        trend = TrendDay(date=DAY, keyword=tag_keyword)
        instance = _join(trend, _day_events())
        assert [t.id for t in instance.tweets] == [3, 1]
        assert instance.deletions[1] == (DAY_NOON + 60) * 1000

    def test_order_independence(self, tag_keyword):
        trend = TrendDay(date=DAY, keyword=tag_keyword)
        events = _day_events()
        base = _join(trend, events)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = events[:]
            rng.shuffle(shuffled)
            other = _join(trend, shuffled)
            assert [t.id for t in other.tweets] == [t.id for t in base.tweets]
            assert other.deletions == base.deletions

    def test_negative_lifetime_rejected_and_counted(self, tag_keyword):
        trend = TrendDay(date=DAY, keyword=tag_keyword)
        events = [
            make_tweet(1, 10, "selam #tag", DAY_NOON),
            Deletion(tweet_id=1, user_id=10, time_ms=(DAY_NOON - 5) * 1000),
        ]
        instance = _join(trend, events)
        assert instance.deletions == {}
        assert instance.invalid_deletions == 1

    def test_earliest_notice_before_creation_attaches_nothing(self, tag_keyword):
        """The earliest notice decides: 1 ms before the creation, it leaves
        the tweet undeleted although a later notice follows the creation."""
        trend = TrendDay(date=DAY, keyword=tag_keyword)
        events = [
            make_tweet(1, 10, "selam #tag", DAY_NOON),
            Deletion(tweet_id=1, user_id=10, time_ms=DAY_NOON * 1000 - 1),
            Deletion(tweet_id=1, user_id=10, time_ms=(DAY_NOON + 5) * 1000),
        ]
        for ordered in (events, events[::-1]):
            instance = _join(trend, ordered)
            assert instance.deletions == {}
            assert instance.invalid_deletions == 1

    def test_earliest_deletion_wins(self, tag_keyword):
        trend = TrendDay(date=DAY, keyword=tag_keyword)
        events = [
            make_tweet(1, 10, "selam #tag", DAY_NOON),
            Deletion(tweet_id=1, user_id=10, time_ms=(DAY_NOON + 100) * 1000),
            Deletion(tweet_id=1, user_id=10, time_ms=(DAY_NOON + 50) * 1000),
        ]
        instance = _join(trend, events)
        assert instance.deletions[1] == (DAY_NOON + 50) * 1000

    def test_multi_trend_join_matches_single(self, tag_keyword):
        trends = [
            TrendDay(date=DAY, keyword=tag_keyword),
            TrendDay(date=DAY, keyword=normalize_keyword("baska konu", "tr")),
        ]
        events = _day_events()
        combined = build_trend_instances(trends, events)
        for trend in trends:
            single = build_trend_instance(trend, events)
            multi = combined[(trend.date, trend.keyword.normalized)]
            assert [t.id for t in multi.tweets] == [t.id for t in single.tweets]
            assert multi.deletions == single.deletions


@pytest.mark.parametrize("value, ms", [
    ("2019-06-18T09:00:00Z", 1560848400000),
    ("2019-06-18T12:00:00+03:00", 1560848400000),
    ("2019-06-18T09:00:00", 1560848400000),              # no offset: UTC
    ("2019-06-18T09:00:00.999Z", 1560848400000),
    ("1970-01-01T00:00:00Z", 0),
    ("1969-12-31T23:59:59.500Z", -1000),                 # floored, not truncated toward 0
    ("1969-12-31T23:59:59Z", -1000),
    ("9999-12-31T23:59:59.999999Z", 253402300799000),    # past a float's precision
    ("0001-01-01T00:00:00Z", -62135596800000),
])
def test_iso_instant_is_its_whole_second_exactly(value, ms):
    """A trend snapshot's time reads as its second, in integers throughout."""
    assert _parse_iso_ms(value) == ms


@pytest.mark.parametrize("text, expected", DATES.items())
def test_a_date_means_the_same_on_every_python(text, expected):
    check_date(text, expected)


@pytest.mark.parametrize("text, expected", INSTANTS.items())
def test_a_captured_at_means_the_same_on_every_python(text, expected):
    check_instant(text, expected)


class TestCreatedAt:
    @pytest.mark.parametrize("value, seconds", [
        ("Wed Aug 27 13:08:45 +0000 2008", 1219842525),
        ("Wed Aug 27 13:08:45 -0130 2008", 1219842525 + 5400),   # west of UTC: later
        ("Wed Aug 27 13:08:45 +0130 2008", 1219842525 - 5400),
        ("Wed Aug 27 13:08:45 +2359 2008", 1219842525 - 86340),
        ("Thu Feb 29 00:00:00 +0000 2024", 1709164800),           # a leap day
        ("Thu Jan 01 00:00:00 +0000 1970", 0),
    ])
    def test_valid_instant(self, value, seconds):
        assert _parse_created_at(value) == seconds

    @pytest.mark.parametrize("value", [
        "Wed Feb 31 13:08:45 +0000 2019",   # no 31 February
        "Fri Feb 29 13:08:45 +0000 2019",   # not a leap year
        "Wed Aug 00 13:08:45 +0000 2019",   # day 0
        "Wed Aug 27 25:08:45 +0000 2019",   # hour 25
        "Wed Aug 27 13:61:45 +0000 2019",   # minute 61
        "Wed Aug 27 13:08:61 +0000 2019",   # second 61
        "Wed Aug 27 13:08:45 +9999 2019",   # offset beyond a day, minutes beyond 59
        "Wed Aug 27 13:08:45 +0060 2019",   # offset minute 60
        "Wed Aug 27 13:08:45 +2400 2019",   # an offset of a whole day
        "Wed Aug 27 13:08:45 0000 2019",    # no sign
        "Wed Aug 27 13:08:45 +000 2019",    # three digits
        "Wed Aug 27 13:08:45 +00:00 2019",
        "Wed Aug 27 13:08 +0000 2019",
        "Wed Aug 27 13:08:45 +0000 0",      # year 0
        "Wed Aug 27 13:08:45 +0000 10000",
        "Wed Aug 27 13:08:45 +0000 99999999999999999999999",
        "Wed Sep 31 13:08:45 +0000 2019",
        "Wed Aut 27 13:08:45 +0000 2019",
    ])
    def test_impossible_instant_is_a_bad_timestamp(self, value):
        with pytest.raises(BadTimestamp):
            _parse_created_at(value)

    def test_read_stream_counts_it_malformed(self):
        line = json.dumps({"id": 1, "text": "x", "user": {"id": 2},
                           "created_at": "Wed Feb 31 13:08:45 +0000 2019"})
        events, stats = read_all(io.StringIO(line + "\n"))
        assert events == [] and stats.malformed_skipped == 1 and stats.consistent

    @settings(max_examples=500, deadline=None)
    @given(ms=st.integers(-62135596800000, 253402300799999))
    def test_round_trip_with_the_simulator_writer(self, ms):
        """Every instant of years 1-9999 that the simulator writes reads back
        as its whole second."""
        assert _parse_created_at(format_created_at(ms)) == ms // 1000
