"""The join's raw-line prefilters keep every line that can change its result.

Property tests run the line predicates against the parser and the keyword
matcher on generated records; differential tests compare the prefiltered
file join, serial and pooled, with the unfiltered join of the same events.
"""

import bz2
import gzip
import io
import json
import random
from datetime import date, timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trendguard import detector, ingest, simulator as sim_mod
from trendguard.cli import _build_instances, main
from trendguard.core import DEFAULT_TZ_OFFSET, normalize_keyword
from trendguard.detector import DetectorConfig
from trendguard.ingest import (
    Deletion,
    MalformedLine,
    ParseStats,
    TrendDay,
    Tweet,
    _creation_filter,
    _may_hold_deletion,
    build_instances_from_files,
    build_trend_instances,
    parse_stream_line,
    read_stream,
    text_tokens,
)

from conftest import DAY, DAY_NOON
from oracles import match_keyword, scan_candidates as scan_oracle
from test_acceptance import _write_big_archive


def escape_strings(encoded: str, rng: random.Random, rate: float) -> str:
    """Rewrite random characters inside the JSON strings of ``encoded`` as
    \\uXXXX escapes (surrogate pairs beyond the BMP), hex in random case."""
    out = []
    i = 0
    in_string = False
    while i < len(encoded):
        char = encoded[i]
        if char == '"':
            in_string = not in_string
        elif in_string and char == "\\":
            width = 6 if encoded[i + 1] == "u" else 2
            out.append(encoded[i:i + width])
            i += width
            continue
        elif in_string and rng.random() < rate:
            data = char.encode("utf-16-be")
            for k in range(0, len(data), 2):
                unit = f"{int.from_bytes(data[k:k + 2], 'big'):04x}"
                out.append("\\u" + (unit.upper() if rng.random() < 0.5 else unit))
            i += 1
            continue
        out.append(char)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Predicates against the parser and matcher
# ---------------------------------------------------------------------------

TREND_KEYWORDS = ["#konu", "#İzmir", "#ısı", "IŞIK", "ΟΔΟΣ", "tepel sobar", "İzmir ıspanak",
                  "a/b", "Σ"]
# Lists drawn as often as the mixed ones above: with 'a/b' in a list, the
# filter keeps every line with a backslash, which hides how it treats 'Σ'.
SIGMA_KEYWORDS = ["Σ", "#konu", "IŞIK"]
# Spellings of the keywords' tokens in several cases, and characters whose
# folding or JSON encoding is special.
KEYWORD_WORDS = ["#konu", "#KONU", "#İzmir", "#IZMIR", "#ısı", "#ISI", "IŞIK", "Işık", "işik",
                 "ΟΔΟΣ", "οδος", "tepel", "TEPEL", "sobar", "(Sobar)", "İzmir", "IZMIR",
                 "ıspanak", "ISPANAK", "a/b"]
ODD_WORDS = ["#", "İ", "I", "ı", "Σ", "ς", "/", '"', "\\", "x"]
# A 'Σ' right after a short control escape: the line folds it to 'ς', since
# the escape's letter is cased, while the text keeps 'σ'.
SIGMA_WORDS = [control + "Σ" for control in "\n\t\r\b\f"] + ["aΣ\nΣ"]
text_strategy = st.lists(
    st.sampled_from(KEYWORD_WORDS) | st.sampled_from(ODD_WORDS) | st.sampled_from(SIGMA_WORDS)
    | st.text(max_size=3),
    max_size=5,
).map(lambda words: " ".join(words))
ids = st.integers(min_value=0, max_value=2**62)
millis = st.integers(min_value=0, max_value=2**41).map(str)


@st.composite
def creation_records(draw):
    record = {"id": draw(ids), "text": draw(text_strategy), "user": {"id": draw(ids)},
              "timestamp_ms": draw(millis)}
    if draw(st.booleans()):
        record["extended_tweet"] = {"full_text": draw(text_strategy)}
    if draw(st.booleans()):
        record["entities"] = {"hashtags": [{"text": draw(text_strategy)}]}
    return record


@st.composite
def deletion_records(draw):
    return {"delete": {"status": {"id": draw(ids), "user_id": draw(ids)},
                       "timestamp_ms": draw(millis)}}


@st.composite
def encoded_lines(draw):
    record = draw(st.one_of(creation_records(), deletion_records()))
    encoded = json.dumps(record, ensure_ascii=draw(st.booleans()))
    rng = random.Random(draw(st.integers()))
    line = escape_strings(encoded, rng, draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0])))
    return line + draw(st.sampled_from(["\n", "\r\n", ""]))


@st.composite
def unescaped_creation_lines(draw):
    """Status lines as the archive writes them, with ensure_ascii=False
    and no \\u escape added. The filter keeps any line with a \\u escape,
    so only lines like these show whether it keeps a 'Σ' that the folded
    line spells 'ς' after a short escape."""
    record = {"id": draw(ids), "text": draw(text_strategy), "user": {"id": draw(ids)},
              "timestamp_ms": draw(millis)}
    return json.dumps(record, ensure_ascii=False)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    line=encoded_lines() | unescaped_creation_lines(),
    keywords=st.lists(st.sampled_from(TREND_KEYWORDS), min_size=1, unique=True)
    | st.lists(st.sampled_from(SIGMA_KEYWORDS), min_size=1, unique=True),
    locale=st.sampled_from(["tr", "en"]),
)
def test_predicates_keep_every_line_that_can_matter(line, keywords, locale):
    try:
        event = parse_stream_line(line)
    except MalformedLine:
        return
    if isinstance(event, Deletion):
        assert _may_hold_deletion(line)
    if isinstance(event, Tweet):
        trends = [TrendDay(DAY, normalize_keyword(raw, locale)) for raw in keywords]
        if any(match_keyword(event.text, t.keyword, locale) for t in trends):
            assert _creation_filter(trends, locale)(line)


@pytest.mark.parametrize("key", ["\\u0064elete", "d\\u0065lete", "de\\u006cete", "de\\u006Cete",
                                 "dele\\u0074e", "\\u0064\\u0065\\u006C\\u0065\\u0074\\u0065"])
def test_deletion_with_escaped_key_is_kept(key):
    line = f'{{"{key}":{{"status":{{"id":1,"user_id":2}},"timestamp_ms":"5"}}}}'
    assert isinstance(parse_stream_line(line), Deletion)
    assert _may_hold_deletion(line)


@pytest.mark.parametrize("raw, text, locale", [
    ("#konu", "a \\u0023Konu", "tr"),          # escaped '#'
    ("ışık tepel", "IŞIK Tepel", "tr"),          # dotless I without escapes
    ("İzmir", "İZMİR", "tr"),
    ("İzmir", "İzmir", "en"),                  # 'İ' lowers to two characters
    ("ΟΔΟΣ", "ΟΔΟΣ", "tr"),                    # final sigma at the closing quote
    ("tepel sobar", "(tepel), SOBAR!", "tr"),  # edge punctuation around tokens
    ("a/b", "x a\\/b", "tr"),                  # '/' written as an escape
    ("tepel sobar", "\\u0074epel SOBAR", "tr"),  # a \u-escaped token letter
    ("Σ", "a\\nΣ", "en"),                      # the line folds it to 'ς' after \n
])
def test_matching_line_is_kept(raw, text, locale):
    line = f'{{"id":1,"text":"{text}","user":{{"id":2}},"timestamp_ms":"5"}}'
    trend = TrendDay(DAY, normalize_keyword(raw, locale))
    assert match_keyword(parse_stream_line(line).text, trend.keyword, locale)
    assert _creation_filter([trend], locale)(line)


def test_status_line_with_escaped_source_is_dropped():
    # Every real status line has \" in its source; it hides no token.
    line = ('{"id":1,"text":"sadece bir tweet","source":"<a href=\\"http://x\\">app</a>",'
            '"user":{"id":2},"timestamp_ms":"5"}')
    trend = TrendDay(DAY, normalize_keyword("devam etmiyor"))
    assert parse_stream_line(line).text == "sadece bir tweet"
    assert not _creation_filter([trend], "tr")(line)


# ---------------------------------------------------------------------------
# Fuzzing the parser: malformed lines are counted, never fatal
# ---------------------------------------------------------------------------

SCHEMA_KEYS = ["id", "text", "user", "user_id", "timestamp_ms", "created_at", "entities",
               "hashtags", "user_mentions", "urls", "extended_tweet", "full_text", "delete",
               "status", "geo", "coordinates", "retweeted_status", "in_reply_to_status_id",
               "in_reply_to_user_id", "source", "lang"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1000", "Tue Jun 18 09:00:00 +0000 2019", "Aug 32"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)
fuzz_lines = st.one_of(
    st.text(),
    json_values.map(json.dumps),
    st.dictionaries(st.sampled_from(SCHEMA_KEYS), json_values, max_size=8).map(json.dumps),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(fuzz_lines, max_size=8),
       keep=st.sampled_from([None, _may_hold_deletion,
                             ingest.id_line_filter(sim_mod.id_sampler(0.5, 1)),
                             _creation_filter([TrendDay(DAY, normalize_keyword("#konu")),
                                               TrendDay(DAY, normalize_keyword("a b"))], "tr")]))
def test_read_stream_never_raises(lines, keep):
    stats = ParseStats()
    for event in read_stream(io.StringIO("\n".join(lines)), stats=stats, keep=keep):
        assert isinstance(event, (Tweet, Deletion))
    assert stats.consistent


# ---------------------------------------------------------------------------
# Prefiltered file join == unfiltered join of the same events
# ---------------------------------------------------------------------------

def _archive_lines() -> list[str]:
    """A small simulator archive plus lines the simulator never writes:
    escaped keys and hashtags, a notice before its tweet's creation, a
    later duplicate notice, and a tweet id repeated with another text."""
    config = sim_mod.ScenarioConfig(
        n_days=1, organic_per_day=2, attacked_per_day=1, attacks_per_day=3,
        background_per_day=300, organic_tweets_min=40, organic_tweets_max=60,
        adoption_tweets_min=20, adoption_tweets_max=30, bots_min=20, bots_max=40, seed=5,
    )
    buffer = io.StringIO()
    sim_mod.write_stream_jsonl(buffer, sim_mod.build_stream(config).events())
    lines = buffer.getvalue().splitlines()
    rng = random.Random(1)
    lines = [escape_strings(line, rng, 0.3) if i % 5 == 0 else line
             for i, line in enumerate(lines)]
    extra = [
        {"id": 1, "text": "erken silinen #Konu tepel sobar", "user": {"id": 9},
         "timestamp_ms": str(DAY_NOON * 1000)},
        {"id": 1, "text": "ikinci kopya #başka", "user": {"id": 9},
         "timestamp_ms": str(DAY_NOON * 1000)},
        {"delete": {"status": {"id": 1, "user_id": 9}, "timestamp_ms": str(DAY_NOON * 1000 - 5)}},
        {"id": 2, "text": "ΟΔΟΣ TEPEL Sobar", "user": {"id": 8},
         "timestamp_ms": str(DAY_NOON * 1000)},
        {"delete": {"status": {"id": 2, "user_id": 8}, "timestamp_ms": str(DAY_NOON * 1000 + 9000)}},
        {"delete": {"status": {"id": 2, "user_id": 8}, "timestamp_ms": str(DAY_NOON * 1000 + 7000)}},
    ]
    lines += [escape_strings(json.dumps(r, ensure_ascii=False), rng, rate)
              for r in extra for rate in (0.0, 0.5)]
    rng.shuffle(lines)
    return lines


def _trends(lines: list[str]) -> list[TrendDay]:
    """Hashtag trend-days from the archive's hashtags, n-gram trend-days
    from the first two words of some of its texts, and one that never
    matches."""
    tags, ngrams = set(), set()
    for line in lines:
        event = parse_stream_line(line)
        if isinstance(event, Tweet):
            tags.update(event.hashtags)
            tokens = text_tokens(event.text)
            if len(tokens) >= 2 and not tokens[0].startswith("#") and len(ngrams) < 4:
                ngrams.add(" ".join(tokens[:2]))
    raws = sorted(f"#{tag}" for tag in tags)[:6] + sorted(ngrams) + [
        "#konu", "tepel sobar", "οδος tepel", "devam etmiyor"]
    days = [DAY, date.fromordinal(DAY.toordinal() + 1)]
    return [TrendDay(day, normalize_keyword(raw)) for raw in raws for day in days]


def _as_comparable(instances):
    return {key: (inst.tweets, inst.deletions, inst.invalid_deletions)
            for key, inst in instances.items()}


def _shards(tmp_path, lines: list[str]) -> list[str]:
    """The lines dealt into a gzip, a bzip2 and a plain shard. Each shard
    also holds a notice for tweet 2; the earliest is in the first."""
    shards = []
    for index, codec in enumerate((gzip, bz2, None)):
        shard = tmp_path / f"shard{index}.jsonl"
        notice = json.dumps({"delete": {"status": {"id": 2, "user_id": 8},
                                        "timestamp_ms": str(DAY_NOON * 1000 + 6000 + index)}})
        data = "".join(line + "\n" for line in lines[index::3] + [notice]).encode("utf-8")
        shard.write_bytes(codec.compress(data) if codec else data)
        shards.append(str(shard))
    return shards


def test_prefiltered_join_equals_unfiltered_join(tmp_path):
    lines = _archive_lines()
    trends = _trends(lines)
    plain = tmp_path / "archive.jsonl"
    plain.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reference = _as_comparable(build_trend_instances(trends, read_stream(str(plain))))
    assert any(tweets for tweets, _, _ in reference.values())
    assert any(deletions for _, deletions, _ in reference.values())
    assert any(invalid for _, _, invalid in reference.values())

    crlf = tmp_path / "archive-crlf.jsonl"
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    zipped = tmp_path / "archive.jsonl.gz"
    zipped.write_bytes(gzip.compress(plain.read_bytes()))
    bzipped = tmp_path / "archive.jsonl.bz2"
    bzipped.write_bytes(bz2.compress(crlf.read_bytes()))
    for path in (plain, crlf, zipped, bzipped):
        stats = ParseStats()
        joined = build_instances_from_files(trends, [str(path)], stats=stats)
        assert _as_comparable(joined) == reference
        assert stats.lines_read == len(lines) and stats.prefiltered > 0 and stats.consistent

    shards = _shards(tmp_path, lines)
    unfiltered = (event for shard in shards for event in read_stream(shard))
    expected = _as_comparable(build_trend_instances(trends, unfiltered))
    for jobs in (1, 2):
        pooled = _build_instances(shards, trends, "tr", DEFAULT_TZ_OFFSET, jobs)
        assert _as_comparable(pooled) == expected


def test_each_file_is_read_once(tmp_path, monkeypatch):
    lines = _archive_lines()
    shards = _shards(tmp_path, lines)
    reads = []
    real_read_stream = ingest.read_stream

    def counting_read_stream(source, **kwargs):
        reads.append(source)
        return real_read_stream(source, **kwargs)

    monkeypatch.setattr(ingest, "read_stream", counting_read_stream)
    build_instances_from_files(_trends(lines), shards)
    assert sorted(reads) == sorted(shards)


def test_values_outside_int64_attach_as_in_the_event_join(tmp_path):
    """The file join packs notices into int64 columns; an id or a time
    outside int64 must still attach, or be rejected, as unpacked."""
    created = DAY_NOON * 1000
    events = [
        {"id": 2**63, "text": "#konu büyük", "user": {"id": 1}, "timestamp_ms": str(created)},
        {"id": 7, "text": "#konu eski", "user": {"id": 1}, "timestamp_ms": str(created)},
        {"id": 8, "text": "#konu karışık", "user": {"id": 1}, "timestamp_ms": str(created)},
        {"delete": {"status": {"id": 2**63, "user_id": 1}, "timestamp_ms": str(created + 5000)}},
        {"delete": {"status": {"id": 7, "user_id": 1}, "timestamp_ms": str(-2**63 - 1)}},
        {"delete": {"status": {"id": 7, "user_id": 1}, "timestamp_ms": str(created + 1000)}},
        {"delete": {"status": {"id": 8, "user_id": 1}, "timestamp_ms": str(2**63)}},
        {"delete": {"status": {"id": 8, "user_id": 1}, "timestamp_ms": str(created + 3000)}},
    ]
    shards = []
    for index, part in enumerate((events[:3], events[3:])):
        shard = tmp_path / f"shard{index}.jsonl"
        shard.write_text("".join(json.dumps(r) + "\n" for r in part), encoding="utf-8")
        shards.append(str(shard))
    trends = [TrendDay(DAY, normalize_keyword("#konu"))]
    unfiltered = (event for shard in shards for event in read_stream(shard))
    expected = _as_comparable(build_trend_instances(trends, unfiltered))
    tweets, deletions, invalid = expected[(DAY, "konu")]
    assert [t.id for t in tweets] == [7, 8, 2**63]
    assert deletions == {2**63: created + 5000, 8: created + 3000} and invalid == 1
    assert _as_comparable(build_instances_from_files(trends, shards)) == expected
    assert _as_comparable(_build_instances(shards, trends, "tr", DEFAULT_TZ_OFFSET, 2)) == expected


# ---------------------------------------------------------------------------
# The sample's id test: every line whose tweet id the sample keeps is decoded
# ---------------------------------------------------------------------------

_WS = st.sampled_from(["", " ", "  ", "\t", "\r\n", "\n "])
# Mostly unescaped: an escaped key keeps its line whatever follows.
_ID_KEYS = st.sampled_from(['"id"'] * 6 + ['"\\u0069d"', '"i\\u0064"', '"\\u0069\\u0064"'])
_ID_VALUES = st.one_of(
    st.integers().map(str),                                          # any size, negative
    st.integers(2**63 - 5, 2**80).map(str),                          # beyond int64
    st.integers(-2**64, 2**64).map(lambda n: f'"{n}"'),             # a string
    st.integers(-10**6, 10**6).map(lambda n: f"{n}.0"),             # a float
    st.tuples(st.integers(0, 999), st.integers(0, 3)).map(lambda p: f"{p[0]}e{p[1]}"),
    st.sampled_from(["true", "null", "0", "-0", "007"]),
)
_TEXTS = st.sampled_from(["bir iki", 'dedi ki \\"id\\": 7,', 'x\\"id\\"}', "id", ""])


@st.composite
def _id_member(draw, keys=_ID_KEYS):
    return (f"{draw(_WS)}{draw(keys)}{draw(_WS)}:{draw(_WS)}{draw(_ID_VALUES)}{draw(_WS)}")


@st.composite
def _json_object(draw, members):
    return "{" + ",".join(draw(st.permutations(members))) + draw(_WS) + "}"


@st.composite
def _id_lines(draw):
    """Status and deletion records written by hand, so that the key "id" and
    its value take every spelling JSON allows: duplicated, escaped, padded,
    nested, and beside a string "id"."""
    ids = draw(st.lists(_id_member(), min_size=1, max_size=3))
    if draw(st.booleans()):
        status = draw(_json_object([*ids, ' "user_id": 3']))
        delete = draw(_json_object([f' "status": {status}', ' "timestamp_ms": "5"']))
        return "{" + draw(_WS) + f'"delete": {delete}' + draw(_WS) + "}"
    user = draw(st.one_of(st.just(' "user_id": 3'),
                          _json_object([draw(_id_member())]).map(' "user": {}'.format)))
    members = [*ids, f' "text": "{draw(_TEXTS)}"', ' "timestamp_ms": "5"', user]
    if draw(st.booleans()):
        mention = draw(_json_object([draw(_id_member())]))
        members.append(f' "entities": {{"user_mentions": [{mention}]}}')
    if draw(st.booleans()):
        members.append(f' "retweeted_status": {draw(_json_object([draw(_id_member())]))}')
    if draw(st.booleans()):
        members.append(draw(st.sampled_from([' "lang": "id"', ' "lang":"id"'])))
    return draw(_json_object(members))


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(line=_id_lines(), rate=st.sampled_from([0.01, 0.5, 0.5, 1.0]),
       seed=st.integers(-2**65, 2**65))
def test_id_filter_keeps_every_line_the_sample_keeps(line, rate, seed):
    kept = sim_mod.id_sampler(rate, seed)
    try:
        event = parse_stream_line(line)
    except MalformedLine:
        return
    if event is None:
        return
    tweet_id = event.id if isinstance(event, Tweet) else event.tweet_id
    if kept(tweet_id):
        assert ingest.id_line_filter(kept)(line)


@pytest.mark.parametrize("value", ["5e2", "5E+2", "500.0", '"500"', '" 500"', "true"])
def test_id_filter_keeps_a_value_that_is_no_integer_literal(value):
    line = f'{{"id": {value}, "text": "x", "user_id": 3, "timestamp_ms": "5"}}'
    tweet_id = parse_stream_line(line).id
    assert ingest.id_line_filter({tweet_id}.__contains__)(line)


def test_id_filter_drops_a_line_whose_ids_are_not_kept():
    keep = ingest.id_line_filter({7}.__contains__)
    line = '{"id": 5, "text": "x", "user": {"id": 6}, "timestamp_ms": "5"}'
    assert not keep(line)
    assert keep(line.replace('"id": 6', '"id": 7'))
    assert keep(line.replace('"text"', '"lang": "id", "text"'))


def test_id_filter_keeps_an_id_too_long_for_int():
    line = '{"id": ' + "9" * 5000 + ', "text": "x", "user": {"id": 1}, "timestamp_ms": "5"}'
    assert ingest.id_line_filter(lambda tweet_id: False)(line)
    with pytest.raises(MalformedLine):
        parse_stream_line(line)


def _simulator_lines() -> list[str]:
    config = sim_mod.ScenarioConfig(n_days=1, organic_per_day=3, attacked_per_day=2,
                                    attacks_per_day=6, background_per_day=300, seed=5)
    buffer = io.StringIO()
    sim_mod.write_stream_jsonl(buffer, sim_mod.build_stream(config).events())
    return buffer.getvalue().splitlines()


@pytest.mark.parametrize("source", ["simulator", "escaped"])
@pytest.mark.parametrize("gzipped", [False, True])
def test_id_filtered_read_samples_as_the_full_read(tmp_path, source, gzipped):
    lines = _simulator_lines() if source == "simulator" else _archive_lines()
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    path = tmp_path / "stream.jsonl"
    path.write_bytes(gzip.compress(data) if gzipped else data)
    rate, seed = 0.05, 5
    stats = ParseStats()
    keep = ingest.id_line_filter(sim_mod.id_sampler(rate, seed))
    filtered = list(sim_mod.sample_stream(read_stream(str(path), stats=stats, keep=keep),
                                          rate, seed))
    full = list(sim_mod.sample_stream(read_stream(str(path)), rate, seed))
    assert filtered == full
    assert {type(event) for event in full} == {Tweet, Deletion}
    assert stats.lines_read == len(lines) and stats.consistent
    if source == "simulator":  # two to four ids a line, 5 % of them kept
        assert stats.prefiltered > 0.75 * len(lines)


def _acceptance_lines(tmp_path) -> list[str]:
    path = tmp_path / "acceptance.jsonl"
    _write_big_archive(path, 20_000, [f"konu{i}" for i in range(5)], 18065 * 86400 - 10800)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("source", ["simulator", "acceptance", "escaped"])
def test_scan_through_the_join_equals_the_scan_oracle(tmp_path, source):
    """scan reads through the file join's discovery case: the same verdicts
    as the one-loop reference over every event, for one file or three, plain
    or bzip2, and the CLI writes them."""
    lines = {"simulator": _simulator_lines, "escaped": _archive_lines,
             "acceptance": lambda: _acceptance_lines(tmp_path)}[source]()
    events = [event for line in lines if (event := parse_stream_line(line)) is not None]
    config = DetectorConfig()
    unfiltered = scan_oracle(events, set(), config)
    assert any(v.attacked for v in unfiltered)
    # The known-trend filter: one hashtag trended the next day, one that day.
    first, second = unfiltered[0].trend, unfiltered[1].trend
    known = {(first.date + timedelta(days=1), first.keyword.normalized),
             (second.date, second.keyword.normalized)}
    reference = scan_oracle(events, known, config)
    assert len(reference) == len(unfiltered) - 2

    for codec in (None, bz2):
        for n_files in (1, 3):
            paths = []
            for index in range(n_files):
                data = "".join(line + "\n" for line in lines[index::n_files]).encode("utf-8")
                path = tmp_path / f"{codec is not None}-{n_files}-{index}.jsonl"
                path.write_bytes(codec.compress(data) if codec else data)
                paths.append(str(path))
            stats = ParseStats()
            instances = build_instances_from_files(None, paths, stats=stats)
            assert detector.scan_candidates(instances, known, config) == reference
            assert stats.lines_read == len(lines) and stats.prefiltered > 0 and stats.consistent

    trends = tmp_path / "known.csv"
    trends.write_text("date,keyword\n" + "".join(f"{day},#{tag}\n" for day, tag in sorted(known)),
                      encoding="utf-8")
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--stream", *paths, "--trends", str(trends), "--out", str(out)]) == 0
    expected = io.StringIO()
    detector.write_verdicts_jsonl(expected, reference)
    assert out.read_text(encoding="utf-8") == expected.getvalue()
