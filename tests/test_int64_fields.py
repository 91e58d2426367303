"""The parser reads the five fields the join stores or attaches by (a
status's id, user id and timestamp_ms, a notice's status id and
timestamp_ms) as the archive's Int64: a JSON integer or a digit string,
strictly inside int64's range. Any other value makes its line malformed,
counted in every read and join, so the joined columns are always int64
arrays and no notice can land on NOT_DELETED."""

import json
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.classify import flags_for_instance
from trendguard.cli import _build_instances, main
from trendguard.core import DEFAULT_TZ_OFFSET, normalize_keyword
from trendguard.ingest import (
    Deletion,
    MalformedLine,
    ParseStats,
    TrendDay,
    Tweet,
    build_instances_from_files,
    build_trend_instances,
    load_trend_days,
    parse_stream_line,
    read_stream,
)

from conftest import DAY, DAY_NOON
from oracles import int64_field
from test_golden import SCENARIO

TRENDS = [TrendDay(DAY, normalize_keyword("#konu"))]
FLAGGER = flags_for_instance("tr")
CREATED = DAY_NOON * 1000

BOUNDARIES = [2**63, -2**63, 2**63 - 1, -2**63 + 1, 0]
# Values a bare int() accepts or converts, and other values no archive
# writes in these fields.
SPELLINGS = [True, False, 5.9, "1_560_848_400_001", "７", " 3 ", "+5", "-", "", "5 ",
             "0x10", "1e3", None, [5]]
GOOD_IDS = st.integers(1, 30)
GOOD_MS = st.integers(CREATED, CREATED + 5000)
BAD = (st.sampled_from(BOUNDARIES) | st.sampled_from(BOUNDARIES).map(str)
       | st.sampled_from(SPELLINGS))


def _field(good):
    return good | good.map(str) | BAD


@st.composite
def records(draw):
    """A status or a notice whose five fields are each good or not."""
    if draw(st.booleans()):
        return {"delete": {"status": {"id": draw(_field(GOOD_IDS)), "user_id": 1},
                           "timestamp_ms": draw(_field(GOOD_MS))}}
    record = {"id": draw(_field(GOOD_IDS)), "text": "#konu " + draw(st.sampled_from("ab")),
              "timestamp_ms": draw(_field(GOOD_MS))}
    if draw(st.booleans()):
        record["user"] = {"id": draw(_field(GOOD_IDS))}
    else:
        record["user_id"] = draw(_field(GOOD_IDS))
    return record


def expected_values(record):
    """The (id, user id, ms) or (status id, ms) the oracle reads, or None."""
    if "delete" in record:
        fields = (record["delete"]["status"]["id"], record["delete"]["timestamp_ms"])
    else:
        user = record["user"]["id"] if "user" in record else record["user_id"]
        fields = (record["id"], user, record["timestamp_ms"])
    values = tuple(map(int64_field, fields))
    return None if None in values else values


def parsed_values(event):
    if isinstance(event, Deletion):
        return event.tweet_id, event.time_ms
    return event.id, event.user_id, event.created_ms


def comparable(instances):
    """Each trend-day's rows, deletions and rejects, with the typecodes of
    its four int columns."""
    return {key: (inst.tweets, inst.deletions, inst.invalid_deletions,
                  [column.typecode for column in (inst.ids, inst.users, inst.created_ms,
                                                  inst.deleted_ms)])
            for key, inst in instances.items()}


def write_shards(directory, lines, split):
    paths = []
    for index, part in enumerate((lines[:split], lines[split:])):
        path = Path(directory) / f"shard{index}.jsonl"
        path.write_text("".join(line + "\n" for line in part), encoding="utf-8")
        paths.append(str(path))
    return paths


@settings(max_examples=60, deadline=None)
@given(records=st.lists(records(), min_size=1, max_size=8), split=st.integers(0, 8))
def test_ids_and_instants_read_as_the_int64_oracle(records, split):
    lines = [json.dumps(record) for record in records]
    events, rejected = [], 0
    for record, line in zip(records, lines):
        expected = expected_values(record)
        try:
            event = parse_stream_line(line)
        except MalformedLine:
            assert expected is None, line
            rejected += 1
            continue
        assert isinstance(event, (Tweet, Deletion))
        assert parsed_values(event) == expected, line
        assert all(-2**63 < value < 2**63 for value in expected)
        events.append(event)

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_shards(tmp, lines, split)
        stats = ParseStats()
        assert [event for path in paths for event in read_stream(path, stats=stats)] == events
        assert (stats.malformed_skipped, stats.lines_read) == (rejected, len(lines))
        assert stats.consistent
        reference = comparable(build_trend_instances(TRENDS, events, flagger=FLAGGER))
        stats = ParseStats()
        joined = build_instances_from_files(TRENDS, paths, stats=stats, flagger=FLAGGER)
        assert comparable(joined) == reference
        assert stats.malformed_skipped == rejected and stats.consistent
        pooled = _build_instances(paths, TRENDS, "tr", DEFAULT_TZ_OFFSET, 2)
        assert comparable(pooled) == reference
    assert all(codes == ["q"] * 4 for *_, codes in reference.values())


# Lines the int64 reader rejects: values a bare int() accepts or converts,
# and values outside the range, the sentinel NOT_DELETED among them.
def _status(tweet_id=9, user=None, ms=None, **fields):
    return json.dumps({"id": tweet_id, "text": "#konu", "timestamp_ms": ms or str(CREATED),
                       "user": {"id": 3 if user is None else user}, **fields})


def _notice(tweet_id=7, ms=None):
    return json.dumps({"delete": {"status": {"id": tweet_id, "user_id": 3},
                                  "timestamp_ms": ms or str(CREATED + 1000)}})


REJECTED = [
    _status(True, False, True),
    _status(5.9),
    _status(ms="1_560_848_400_001"),
    _status("７"),
    _status(user=" 3 "),
    json.dumps({"id": 9, "text": "#konu", "user_id": " 3", "timestamp_ms": str(CREATED)}),
    _status(2**63),
    _status(user=-2**63),
    _status(ms=str(2**63)),
    _notice(ms=str(-2**63)),
    _notice(ms=-2**63 - 1),
    _notice(tweet_id=str(2**63)),
    _notice(tweet_id=1.0),
]
ACCEPTED = [_status(7, ms=CREATED), _status("8", user="4"), _notice(), _notice("8", CREATED + 3000)]


@pytest.mark.parametrize("line", REJECTED)
def test_a_value_that_is_no_int64_fails_its_line(line):
    with pytest.raises(MalformedLine):
        parse_stream_line(line)


def test_every_read_and_join_counts_the_rejected_lines(tmp_path):
    lines = [line for pair in zip(ACCEPTED * 4, REJECTED) for line in pair]
    paths = write_shards(tmp_path, lines, len(lines) // 2)
    n_rejected = len(REJECTED)

    stats = ParseStats()
    events = [event for path in paths for event in read_stream(path, stats=stats)]
    assert (stats.malformed_skipped, stats.creations + stats.deletions) == (
        n_rejected, len(lines) - n_rejected)
    assert stats.consistent
    expected = comparable(build_trend_instances(TRENDS, events, flagger=FLAGGER))
    (tweets, deletions, invalid, codes), = expected.values()
    assert [tweet.id for tweet in tweets] == [7, 8]
    assert deletions == {7: CREATED + 1000, 8: CREATED + 3000} and invalid == 0
    assert codes == ["q"] * 4

    serial, pooled = ParseStats(), ParseStats()
    assert comparable(build_instances_from_files(TRENDS, paths, stats=serial,
                                                 flagger=FLAGGER)) == expected
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert comparable(build_instances_from_files(TRENDS, paths, stats=pooled,
                                                     map_fn=pool.map, flagger=FLAGGER)) == expected
    for counted in (serial, pooled):
        assert counted.malformed_skipped == n_rejected and counted.consistent


def test_the_golden_scenarios_columns_are_int64_arrays(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(SCENARIO)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    lines = (tmp_path / "sim" / "stream.jsonl").read_text(encoding="utf-8").splitlines()
    paths = write_shards(tmp_path, lines, len(lines) // 2)
    trends = load_trend_days(str(tmp_path / "sim" / "trends.csv"))
    for jobs in (1, 2):
        instances = _build_instances(paths, trends, "tr", DEFAULT_TZ_OFFSET, jobs)
        assert sum(len(instance.ids) for instance in instances.values()) > 100
        for instance in instances.values():
            for column in (instance.ids, instance.users, instance.created_ms, instance.deleted_ms):
                assert column.typecode == "q"
