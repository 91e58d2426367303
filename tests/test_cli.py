import bz2
import csv
import gzip
import json
import shutil
import subprocess
import sys

import pytest

from trendguard.cli import build_parser, main

from conftest import fifo_of, pipe_payload

SCENARIO = """
n_days = 1
organic_per_day = 2
attacked_per_day = 1
attacks_per_day = 2
background_per_day = 150
organic_tweets_min = 60
organic_tweets_max = 90
adoption_tweets_min = 20
adoption_tweets_max = 40
seed = 11
"""


NOON = 1560848400  # 2019-06-18 09:00:00Z, local noon


def write_archive(path, tweets):
    """An archive of (tweet id, user id, text, created s, deleted s or None)."""
    lines = []
    for tid, user, text, created, deleted in tweets:
        lines.append({"id": tid, "text": text, "user": {"id": user},
                      "timestamp_ms": str(created * 1000)})
        if deleted is not None:
            lines.append({"delete": {"status": {"id": tid, "user_id": user},
                                     "timestamp_ms": str(deleted * 1000)}})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    config = root / "scenario.cfg"
    config.write_text(SCENARIO)
    out = root / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert {"stream.jsonl", "truth.csv", "trends.csv", "bots.txt", "scenario.cfg"} <= names

    def test_truth_matches_scenario_shape(self, sim_dir):
        rows = list(csv.DictReader(open(sim_dir / "truth.csv")))
        assert len(rows) == 3
        assert sum(int(r["attacked"]) for r in rows) == 1

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        config = sim_dir.parent / "scenario.cfg"
        again = tmp_path / "again"
        assert main(["simulate", "--config", str(config), "--out", str(again)]) == 0
        assert (again / "stream.jsonl").read_bytes() == (sim_dir / "stream.jsonl").read_bytes()
        assert (again / "truth.csv").read_bytes() == (sim_dir / "truth.csv").read_bytes()

    def test_gzip_output_deterministic(self, sim_dir, tmp_path):
        config = sim_dir.parent / "scenario.cfg"
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--gzip", "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--gzip", "--out", str(b)]) == 0
        assert (a / "stream.jsonl.gz").read_bytes() == (b / "stream.jsonl.gz").read_bytes()
        from conftest import read_all

        events, stats = read_all(str(a / "stream.jsonl.gz"))
        assert stats.creations > 0 and stats.malformed_skipped == 0

    def test_seed_flag_equals_the_config_seed(self, sim_dir, tmp_path):
        config = tmp_path / "seed12.cfg"
        config.write_text(SCENARIO.replace("seed = 11", "seed = 12"))
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        assert main(["simulate", "--config", str(sim_dir.parent / "scenario.cfg"),
                     "--seed", "12", "--out", str(flagged)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(configured)]) == 0
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (flagged, configured)]
        assert files[0] == files[1]
        assert files[0]["stream.jsonl"] != (sim_dir / "stream.jsonl").read_bytes()

    def test_epochs_generate_the_stream_once(self, sim_dir, tmp_path, monkeypatch):
        from trendguard.simulator import LabeledStream

        calls = []
        events = LabeledStream.events

        def counted(self):
            calls.append(1)
            return events(self)

        monkeypatch.setattr(LabeledStream, "events", counted)
        config = sim_dir.parent / "scenario.cfg"
        assert main(["simulate", "--config", str(config), "--epochs",
                     "--out", str(tmp_path / "sim")]) == 0
        assert len(calls) == 1
        assert (tmp_path / "sim" / "epochs.csv").read_text().count("\n") > 1


class TestIngest:
    def test_stats_json(self, sim_dir, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["ingest", "--stream", str(sim_dir / "stream.jsonl"),
                     "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["consistent"]
        assert stats["creations"] > 0
        assert stats["deletions"] > 0
        assert stats["lines_read"] == stats["creations"] + stats["deletions"]

    def test_requires_out_or_stdout(self, sim_dir):
        with pytest.raises(SystemExit) as err:
            main(["ingest", "--stream", str(sim_dir / "stream.jsonl")])
        assert err.value.code == 2

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_named_pipe_gives_the_stats_of_the_file(self, tmp_path, capsys, gzipped):
        data = pipe_payload()
        data = gzip.compress(data) if gzipped else data
        path = tmp_path / "stream.jsonl"
        path.write_bytes(data)
        assert main(["ingest", "--stream", str(path), "--stdout"]) == 0
        expected = capsys.readouterr().out
        with fifo_of(tmp_path, data) as fifo:
            assert main(["ingest", "--stream", fifo, "--stdout"]) == 0
        assert capsys.readouterr().out == expected
        assert json.loads(expected)["creations"] == 3200

    def test_archive_cut_inside_its_first_block(self, sim_dir, tmp_path, capsys):
        """One malformed line, not the compressed bytes read as plain text."""
        data = (sim_dir / "stream.jsonl").read_bytes()
        one_block = bz2.compress(data, compresslevel=9)
        for cut in (one_block[: len(one_block) // 2], gzip.compress(data, mtime=0)[:5]):
            path = tmp_path / "cut.jsonl"
            path.write_bytes(cut)
            assert main(["ingest", "--stream", str(path), "--stdout"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert (stats["lines_read"], stats["malformed_skipped"], stats["creations"]) == (1, 1, 0)
            assert stats["consistent"]


class TestBytesNotUtf8:
    """A line holding a byte that is not UTF-8 is counted, never fatal."""

    STATUS = json.dumps({"id": 1, "user": {"id": 7}, "text": "#Tag bir iki",
                         "timestamp_ms": "1560848400000",
                         "entities": {"hashtags": [{"text": "Tag"}]}})

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_three_line_archive(self, tmp_path, capsys, gzipped):
        data = (self.STATUS + "\n").encode() + b"\xff\xfe bad bytes\n" \
            + (self.STATUS.replace('"id": 1', '"id": 2') + "\n").encode()
        stream = tmp_path / ("stream.jsonl.gz" if gzipped else "stream.jsonl")
        stream.write_bytes(gzip.compress(data) if gzipped else data)
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#tag\n")

        assert main(["ingest", "--stream", str(stream), "--stdout"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["lines_read"], stats["creations"], stats["malformed_skipped"]) == (3, 2, 1)
        assert stats["consistent"]
        assert main(["detect", "--stream", str(stream), "--trends", str(trends), "--stdout"]) == 0
        assert json.loads(capsys.readouterr().out)["features"]["n_tweets"] == 2


@pytest.mark.parametrize("first", [b"BZh not json", b"\x1f\x8b not json"])
def test_plain_archive_starting_with_codec_magic_bytes(tmp_path, capsys, first):
    stream = tmp_path / "stream.jsonl"
    stream.write_bytes(first + b'\n{"limit":{}}\n')
    assert main(["ingest", "--stream", str(stream), "--stdout"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["lines_read"], stats["malformed_skipped"], stats["other_skipped"]) == (2, 1, 1)
    assert stats["consistent"]


def test_compressed_shard_cut_after_its_first_block(sim_dir, tmp_path, capsys):
    """A cut shard is counted, not fatal: ingest and detect exit 0."""
    data = gzip.compress((sim_dir / "stream.jsonl").read_bytes())
    cut = tmp_path / "cut.jsonl.gz"
    cut.write_bytes(data[: len(data) // 2])
    assert main(["ingest", "--stream", str(cut), "--stdout"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["creations"] > 0 and stats["malformed_skipped"] == 1 and stats["consistent"]
    assert main(["detect", "--stream", str(sim_dir / "stream.jsonl"), str(cut),
                 "--trends", str(sim_dir / "trends.csv"), "--jobs", "1",
                 "--out", str(tmp_path / "verdicts.jsonl")]) == 0


class TestDetect:
    def test_verdicts_match_truth(self, sim_dir, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        bots_out = tmp_path / "bots.txt"
        code = main([
            "detect",
            "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--preset", "lexicon-tree",
            "--out", str(out),
            "--bots-out", str(bots_out),
        ])
        assert code == 0
        truth = {}
        for row in csv.DictReader(open(sim_dir / "truth.csv")):
            truth[(row["date"], row["keyword"].lstrip("#").lower())] = bool(int(row["attacked"]))
        verdicts = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(verdicts) == len(truth)
        for verdict in verdicts:
            assert verdict["attacked"] == truth[(verdict["date"], verdict["keyword"])]

        labeled_bots = {int(line) for line in bots_out.read_text().split()}
        truth_bots = {int(line) for line in (sim_dir / "bots.txt").read_text().split()}
        assert truth_bots <= labeled_bots
        assert len(labeled_bots - truth_bots) <= 2

    def test_stdout_mode(self, sim_dir, capsys):
        code = main([
            "detect",
            "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--stdout",
        ])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 3

    def test_byte_identical_reruns(self, sim_dir, tmp_path):
        args = lambda p: [
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"), "--out", str(p),
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trends_file_with_a_byte_order_mark(self, sim_dir, tmp_path):
        bom_trends = tmp_path / "trends.csv"
        bom_trends.write_bytes(b"\xef\xbb\xbf" + (sim_dir / "trends.csv").read_bytes())
        outputs = []
        for trends in (sim_dir / "trends.csv", bom_trends):
            out = tmp_path / f"verdicts-{len(outputs)}.jsonl"
            assert main(["detect", "--stream", str(sim_dir / "stream.jsonl"),
                         "--trends", str(trends), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_events_out(self, sim_dir, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        events_out = tmp_path / "events.jsonl"
        code = main([
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--out", str(out), "--events-out", str(events_out),
        ])
        assert code == 0
        events = [json.loads(l) for l in events_out.read_text().splitlines()]
        assert len(events) >= 2  # two attack waves
        for event in events:
            assert len(event["tweet_ids"]) >= 4
            assert event["creation_window_s"] <= 300
            assert event["deletion_window_s"] <= 300
            assert event["max_lifetime_s"] <= 600

    def test_missing_stream_exits_1(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "nope" / "verdicts.jsonl"
        code = main([
            "detect", "--stream", str(sim_dir / "missing.jsonl"),
            "--trends", str(sim_dir / "trends.csv"), "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert "trendguard detect" in capsys.readouterr().err

    def test_error_after_an_output_is_open_removes_it(self, sim_dir, tmp_path, capsys):
        not_a_dir = tmp_path / "a-file"
        not_a_dir.write_text("")
        out = tmp_path / "v.jsonl"
        code = main([
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"), "--out", str(out),
            "--bots-out", str(not_a_dir / "bots.txt"),
        ])
        assert code == 1
        assert not out.exists()
        assert "trendguard detect" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, clusters", [
        ([], [[1, 2, 3]]),
        (["--alpha-p", "60"], [[1, 2], [2, 3]]),
        (["--alpha-d", "60"], [[1, 2], [2, 3]]),
        (["--alpha-p", "60", "--merge-events"], [[1, 2, 3]]),
    ])
    def test_window_flags(self, tmp_path, flags, clusters):
        """Three attack tweets 50 s apart, each deleted 100 s after it was
        created: a 60 s window holds only neighbours, and merging joins the
        two overlapping clusters again."""
        stream = write_archive(tmp_path / "stream.jsonl", [
            (i, 100 + i, "#Dalga bir iki", NOON + 50 * i, NOON + 50 * i + 100)
            for i in (1, 2, 3)
        ])
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#Dalga\n")
        events_out = tmp_path / "events.jsonl"
        assert main(["detect", "--stream", stream, "--trends", str(trends), "--kappa", "2",
                     *flags, "--out", str(tmp_path / "v.jsonl"),
                     "--events-out", str(events_out)]) == 0
        events = [json.loads(line) for line in events_out.read_text().splitlines()]
        assert [event["tweet_ids"] for event in events] == clusters


class TestFeaturesCmd:
    def test_csv_columns(self, sim_dir, tmp_path):
        out = tmp_path / "features.csv"
        code = main([
            "features", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"), "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 3
        attacked_rows = [r for r in rows if int(r["n_deleted_lexicon"]) >= 4]
        assert len(attacked_rows) == 1


class TestScan:
    def test_failed_attacks_found(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SCENARIO + "failed_attacks_per_day = 2\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        verdicts_path = tmp_path / "scan.jsonl"
        code = main([
            "scan", "--stream", str(out_dir / "stream.jsonl"),
            "--trends", str(out_dir / "trends.csv"),
            "--out", str(verdicts_path),
        ])
        assert code == 0
        verdicts = [json.loads(l) for l in verdicts_path.read_text().splitlines()]
        positive = {v["keyword"] for v in verdicts if v["attacked"]}
        assert len(positive) == 2
        assert all("f0x" in kw for kw in positive)

    @pytest.mark.parametrize("min_tweets, found", [("5", ["tek"]), ("6", [])])
    def test_min_tweets(self, tmp_path, capsys, min_tweets, found):
        stream = write_archive(tmp_path / "stream.jsonl", [
            (i, 100 + i, "#Tek bir iki", NOON + i, None) for i in range(5)
        ])
        assert main(["scan", "--stream", stream, "--min-tweets", min_tweets, "--stdout"]) == 0
        verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [verdict["keyword"] for verdict in verdicts] == found


class TestEvaluateCmd:
    def test_sim_dir_report(self, sim_dir, capsys):
        code = main(["evaluate", "--sim", str(sim_dir), "--preset", "lexicon-tree"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"precision", "recall", "f1", "tp", "fp", "tn", "fn"}
        assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 3

    def test_matches_in_memory_evaluation(self, sim_dir, capsys):
        assert main(["evaluate", "--sim", str(sim_dir)]) == 0
        from_files = json.loads(capsys.readouterr().out)

        assert main(["evaluate", "--config", str(sim_dir / "scenario.cfg")]) == 0
        in_memory = json.loads(capsys.readouterr().out)
        assert from_files == in_memory

    def test_gzip_sim_dir_gives_the_same_report(self, sim_dir, tmp_path, capsys):
        gzipped = tmp_path / "gz"
        assert main(["simulate", "--config", str(sim_dir.parent / "scenario.cfg"), "--gzip",
                     "--out", str(gzipped)]) == 0
        assert not (gzipped / "stream.jsonl").exists()
        reports = []
        for directory in (sim_dir, gzipped):
            assert main(["evaluate", "--sim", str(directory)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_needs_sim_or_config(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate"])
        assert err.value.code == 2
        assert "--sim" in capsys.readouterr().err

    def test_trend_day_missing_from_truth_exits_1(self, sim_dir, tmp_path, capsys):
        copy = tmp_path / "sim"
        shutil.copytree(sim_dir, copy)
        with open(copy / "trends.csv", "a", encoding="utf-8") as handle:
            handle.write("2019-06-18,#NotInTruth\n")
        assert main(["evaluate", "--sim", str(copy)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("trendguard evaluate: ")
        assert "2019-06-18,#NotInTruth" in captured.err


class TestScenarioLocale:
    """simulate and evaluate fold case as the scenario does, whatever
    TRENDGUARD_LOCALE says: under `en` an i-initial keyword such as
    `#Ilik...` folds to `ilik...`, under the scenario's `tr` to `ılik...`."""

    WORDS = ["ilik", "irmak", "ince", "iğne", "ipek", "insan", "ileri", "isim", "iklim", "izin",
             "bahar", "deniz", "kitap", "orman", "yol"]

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("locale")
        wordlist = root / "words.txt"
        wordlist.write_text("\n".join(self.WORDS) + "\n", encoding="utf-8")
        config = root / "scenario.cfg"
        config.write_text(SCENARIO.replace("organic_per_day = 2", "organic_per_day = 4")
                          + f'sample_rate = 1.0\nwordlist_path = "{wordlist}"\n')
        return config

    def test_simulate_epochs_ignore_the_environment(self, config, tmp_path, monkeypatch):
        assert main(["simulate", "--config", str(config), "--epochs",
                     "--out", str(tmp_path / "tr")]) == 0
        monkeypatch.setenv("TRENDGUARD_LOCALE", "en")
        assert main(["simulate", "--config", str(config), "--epochs",
                     "--out", str(tmp_path / "en")]) == 0
        epochs = (tmp_path / "tr" / "epochs.csv").read_text(encoding="utf-8")
        assert "#I" in epochs
        assert (tmp_path / "en" / "epochs.csv").read_text(encoding="utf-8") == epochs

    def test_evaluate_config_agrees_with_sim(self, config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRENDGUARD_LOCALE", "en")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        assert "#I" in (tmp_path / "sim" / "truth.csv").read_text(encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--sim", str(tmp_path / "sim")]) == 0
        from_files = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out) == from_files
        assert from_files["recall"] == 1.0


@pytest.fixture(scope="module")
def sim_with_epochs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim_epochs")
    config = root / "scenario.cfg"
    config.write_text(SCENARIO)
    out = root / "out"
    assert main(["simulate", "--config", str(config), "--epochs", "--out", str(out)]) == 0
    return out


class TestMetricsCmd:
    def test_outputs_written(self, sim_with_epochs, tmp_path):
        verdicts = tmp_path / "verdicts.jsonl"
        assert main([
            "detect", "--stream", str(sim_with_epochs / "stream.jsonl"),
            "--trends", str(sim_with_epochs / "trends.csv"), "--out", str(verdicts),
        ]) == 0
        out_dir = tmp_path / "metrics"
        code = main([
            "metrics", "--stream", str(sim_with_epochs / "stream.jsonl"),
            "--trends", str(sim_with_epochs / "trends.csv"),
            "--epochs", str(sim_with_epochs / "epochs.csv"),
            "--verdicts", str(verdicts),
            "--out", str(out_dir),
        ])
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"lifecycles.csv", "speed.csv", "prevalence.csv",
                         "entry_hours.csv", "volume.csv"}
        prevalence_rows = list(csv.DictReader(open(out_dir / "prevalence.csv")))
        assert prevalence_rows
        for row in prevalence_rows:
            assert 0.0 <= float(row["attacked_fraction"]) <= 1.0
        hours = list(csv.DictReader(open(out_dir / "entry_hours.csv")))
        assert len(hours) == 24

    def test_verdicts_file_with_a_byte_order_mark(self, sim_with_epochs, tmp_path):
        sim = sim_with_epochs
        inputs = ["--stream", str(sim / "stream.jsonl"), "--trends", str(sim / "trends.csv")]
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["detect", *inputs, "--out", str(verdicts)]) == 0
        bom_verdicts = tmp_path / "bom-verdicts.jsonl"
        bom_verdicts.write_bytes(b"\xef\xbb\xbf" + verdicts.read_bytes())
        outputs = []
        for path in (verdicts, bom_verdicts):
            out_dir = tmp_path / f"metrics-{len(outputs)}"
            assert main(["metrics", *inputs, "--epochs", str(sim / "epochs.csv"),
                         "--verdicts", str(path), "--out", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert outputs[0] == outputs[1]

    def test_recurring_keyword_gets_a_lifecycle_per_day(self, tmp_path):
        """#konu trends on two days: each row takes the entry on its own day."""
        day_one, day_two = 1560816000, 1560902400  # 2019-06-18/19 00:00Z
        created = [day_one + 11 * 3600, day_one + 11 * 3600 + 1800,
                   day_two + 8 * 3600, day_two + 8 * 3600 + 1200]
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(
            json.dumps({"id": 100 + i, "text": f"selam #konu {i}", "user": {"id": 200 + i},
                        "timestamp_ms": str(t * 1000)}) + "\n"
            for i, t in enumerate(created)
        ))
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#konu\n2019-06-19,#konu\n")
        epochs = tmp_path / "epochs.csv"
        listed = {"2019-06-18T12:00:00Z": True, "2019-06-18T12:05:00Z": True,
                  "2019-06-18T12:10:00Z": False, "2019-06-19T09:00:00Z": True,
                  "2019-06-19T09:05:00Z": False}
        epochs.write_text("captured_at,location,rank,keyword,volume\n" + "".join(
            f"{when},tr,1,#baska,\n" + (f"{when},tr,2,#konu,\n" if on else "")
            for when, on in listed.items()
        ))
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text("".join(
            json.dumps({"date": d, "keyword": "konu", "attacked": False}) + "\n"
            for d in ("2019-06-18", "2019-06-19")
        ))
        out_dir = tmp_path / "metrics"
        assert main(["metrics", "--stream", str(stream), "--trends", str(trends),
                     "--epochs", str(epochs), "--verdicts", str(verdicts),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "lifecycles.csv").read_text().splitlines() == [
            "keyword,first_entry_s,first_exit_s,initial_rank,best_rank",
            "konu,1560859200,1560859800,2,2",
            "konu,1560934800,1560935100,2,2",
        ]
        # Day two's instance holds the tweets of both days (a trend-day takes
        # its day and the day before); all four precede its 09:00Z entry.
        assert (out_dir / "speed.csv").read_text().splitlines() == [
            "date,keyword,speed_s,pre_entry_deletion_ratio",
            "2019-06-18,konu,2700,0.0",
            "2019-06-19,konu,40500,0.0",
        ]

    def test_speed_csv_quotes_a_keyword_with_a_comma(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        stream.write_text("")
        trends = tmp_path / "trends.csv"
        trends.write_text('date,keyword\n2019-06-18,"foo, bar"\n')
        epochs = tmp_path / "epochs.csv"
        epochs.write_text('captured_at,location,rank,keyword,volume\n'
                          '2019-06-18T12:00:00Z,tr,1,"foo, bar",\n')
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(json.dumps({"date": "2019-06-18", "keyword": "foo, bar",
                                        "attacked": False}) + "\n")
        out_dir = tmp_path / "metrics"
        assert main(["metrics", "--stream", str(stream), "--trends", str(trends),
                     "--epochs", str(epochs), "--verdicts", str(verdicts),
                     "--out", str(out_dir)]) == 0
        with open(out_dir / "speed.csv", newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["date", "keyword", "speed_s", "pre_entry_deletion_ratio"],
                ["2019-06-18", "foo, bar", "", "0.0"],
            ]

    @pytest.mark.parametrize("top_k, fraction", [("2", "0.5"), ("1", "0.0")])
    def test_top_k(self, tmp_path, top_k, fraction):
        """#konu, attacked, is listed second: it counts only in a top 2."""
        stream = tmp_path / "stream.jsonl"
        stream.write_text("")
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#konu\n")
        epochs = tmp_path / "epochs.csv"
        epochs.write_text("captured_at,location,rank,keyword,volume\n"
                          "2019-06-18T12:00:00Z,tr,1,#baska,\n2019-06-18T12:00:00Z,tr,2,#konu,\n")
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(json.dumps({"date": "2019-06-18", "keyword": "konu",
                                        "attacked": True}) + "\n")
        out_dir = tmp_path / "metrics"
        assert main(["metrics", "--stream", str(stream), "--trends", str(trends),
                     "--epochs", str(epochs), "--verdicts", str(verdicts),
                     "--top-k", top_k, "--out", str(out_dir)]) == 0
        assert (out_dir / "prevalence.csv").read_text().splitlines() == [
            "date,attacked_fraction", f"2019-06-18,{fraction}",
        ]


class TestTimeRule:
    """A span is a difference of whole seconds; ordering uses milliseconds."""

    S = 1560848400  # 2019-06-18 09:00:00Z, local noon

    @pytest.fixture
    def archive(self, tmp_path):
        s = self.S
        # (tweet id, hashtag, created ms, deleted ms or None)
        tweets = [
            (1, "SureA", s * 1000 + 100, (s + 60) * 1000 + 900),
            (2, "SureB", (s + 1000) * 1000 + 900, (s + 1060) * 1000 + 100),
            # Same second: tweet 4 is created first by milliseconds.
            (3, "Sira", (s + 2000) * 1000 + 900, None),
            (4, "Sira", (s + 2000) * 1000 + 100, (s + 2100) * 1000),
            # The notice comes 1 ms before the tweet it deletes.
            (5, "Erken", (s + 3000) * 1000 + 500, (s + 3000) * 1000 + 499),
        ]
        lines = []
        for tid, tag, created, deleted in tweets:
            lines.append({"id": tid, "text": f"#{tag} bir iki", "user": {"id": 100 + tid},
                          "timestamp_ms": str(created)})
            if deleted is not None:
                lines.append({"delete": {"status": {"id": tid, "user_id": 100 + tid},
                                         "timestamp_ms": str(deleted)}})
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(json.dumps(line) + "\n" for line in lines))
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n" + "".join(
            f"2019-06-18,#{tag}\n" for tag in ("SureA", "SureB", "Sira", "Erken")))
        return ["--stream", str(stream), "--trends", str(trends), "--jobs", "1"]

    def test_detect_lifetime_counts_whole_seconds(self, archive, tmp_path):
        # 60.8 s of milliseconds is a lifetime of 60, within --theta 60.
        events_out = tmp_path / "events.jsonl"
        assert main(["detect", *archive, "--kappa", "1", "--theta", "60",
                     "--out", str(tmp_path / "v.jsonl"), "--events-out", str(events_out)]) == 0
        events = {e["keyword"]: e for e in map(json.loads, events_out.read_text().splitlines())}
        assert events["surea"]["tweet_ids"] == [1]
        assert events["surea"]["max_lifetime_s"] == 60
        assert events["sureb"]["max_lifetime_s"] == 60

    def test_features_time_rule(self, archive, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["features", *archive, "--out", str(out)]) == 0
        rows = {r["keyword"]: r for r in csv.DictReader(open(out))}
        # 59.2 s of milliseconds is a lifetime of 60.
        assert float(rows["sureb"]["lifetime_median_s"]) == 60
        assert float(rows["surea"]["lifetime_median_s"]) == 60
        # Tweet 4 (deleted) precedes tweet 3 (kept) by milliseconds, not by id.
        assert rows["sira"]["initial_deletions"] == "1"
        # A notice before its tweet's creation is not attached.
        assert rows["erken"]["n_deleted"] == "0"
        assert rows["erken"]["n_tweets"] == "1"


class TestGraphCmd:
    def test_astrobot_network(self, sim_dir, tmp_path):
        out_dir = tmp_path / "graph"
        code = main([
            "graph", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--predicate", "deleted-lexicon", "--louvain", "--seed", "3",
            "--out", str(out_dir),
        ])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_trends"] == 1  # only the attacked trend has deleted lexicon tweets
        assert summary["n_users"] > 0
        assert "modularity" in summary
        edges = list(csv.DictReader(open(out_dir / "edges.csv")))
        assert len(edges) == summary["n_edges"]
        partition = list(csv.DictReader(open(out_dir / "partition.csv")))
        assert len(partition) == summary["n_nodes"]
        communities = list(csv.DictReader(open(out_dir / "communities.csv")))
        assert len(communities) == summary["n_communities"]

    def test_kcore_filters(self, sim_dir, tmp_path):
        out_dir = tmp_path / "graph"
        code = main([
            "graph", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--predicate", "undeleted", "--kcore", "4",
            "--out", str(out_dir),
        ])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        # Users tweet once each, so a 4-core of the bipartite graph keeps
        # nothing in this small scenario.
        assert summary["n_users"] == 0

    def test_single_attack_keeps_users_of_two_trends(self, tmp_path):
        stream = write_archive(tmp_path / "stream.jsonl", [
            (1, 7, "#a bir", NOON, None),
            (2, 7, "#b bir", NOON + 1, None),
            (3, 8, "#a iki", NOON + 2, None),
            (4, 9, "#c uc", NOON + 3, None),
        ])
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#a\n2019-06-18,#b\n2019-06-18,#c\n")
        out_dir = tmp_path / "graph"
        assert main(["graph", "--stream", stream, "--trends", str(trends),
                     "--single-attack", "--out", str(out_dir)]) == 0
        assert (out_dir / "edges.csv").read_text().splitlines() == [
            "source,target,weight,source_kind,target_kind",
            "a@2019-06-18,7,1,trend,user",
            "b@2019-06-18,7,1,trend,user",
        ]

    @pytest.mark.parametrize("days, dormant", [("2", 1), ("3", 0)])
    def test_dormancy_days(self, tmp_path, days, dormant):
        """User 7 attacks #a, deleting a lexicon tweet, and posts in #b
        three days later: dormant under a threshold of 2 days, not 3."""
        stream = write_archive(tmp_path / "stream.jsonl", [
            (1, 7, "#a bir iki", NOON, NOON + 60),
            (2, 7, "#b Merhaba dunya.", NOON + 3 * 86400, None),
        ])
        trends = tmp_path / "trends.csv"
        trends.write_text("date,keyword\n2019-06-18,#a\n2019-06-21,#b\n")
        out_dir = tmp_path / "graph"
        assert main(["graph", "--stream", stream, "--trends", str(trends), "--louvain",
                     "--dormancy-days", days, "--out", str(out_dir)]) == 0
        assert (out_dir / "communities.csv").read_text().splitlines() == [
            "community,n_users,n_trends,first_seen_s,last_seen_s,n_dormant",
            f"0,1,1,{NOON},{NOON},{dormant}",
        ]


class TestParallelJobs:
    def test_multi_file_jobs_identical(self, sim_dir, tmp_path):
        lines = (sim_dir / "stream.jsonl").read_text().splitlines(keepends=True)
        half = len(lines) // 2
        part1 = tmp_path / "part1.jsonl"
        part2 = tmp_path / "part2.jsonl"
        part1.write_text("".join(lines[:half]))
        part2.write_text("".join(lines[half:]))

        def run(jobs, out_name):
            out = tmp_path / out_name
            assert main([
                "detect", "--stream", str(part1), str(part2),
                "--trends", str(sim_dir / "trends.csv"),
                "--jobs", str(jobs), "--out", str(out),
            ]) == 0
            return out.read_bytes()

        sequential = run(1, "seq.jsonl")
        parallel = run(2, "par.jsonl")
        whole = tmp_path / "whole.jsonl"
        assert main([
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--jobs", "1", "--out", str(whole),
        ]) == 0
        assert sequential == parallel == whole.read_bytes()

    def test_parallel_ingest_stats(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "stream.jsonl").read_text().splitlines(keepends=True)
        part1 = tmp_path / "p1.jsonl"
        part2 = tmp_path / "p2.jsonl"
        part1.write_text("".join(lines[: len(lines) // 2]))
        part2.write_text("".join(lines[len(lines) // 2:]))
        assert main(["ingest", "--stream", str(part1), str(part2),
                     "--jobs", "2", "--stdout"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["lines_read"] == len(lines)
        assert stats["consistent"]


class TestThresholdOverride:
    def test_stricter_ratio_still_detects_clean_attack(self, sim_dir, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        code = main([
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--threshold", "9=0.68", "--threshold", "8=5",
            "--out", str(out),
        ])
        assert code == 0
        verdicts = [json.loads(l) for l in out.read_text().splitlines()]
        attacked = [v for v in verdicts if v["attacked"]]
        assert len(attacked) == 1
        fired = {r["rule"]: r for r in attacked[0]["fired_rules"]}
        assert fired["8"]["threshold"] == 5
        assert fired["9"]["threshold"] == 0.68

    def test_malformed_threshold_is_runtime_error(self, sim_dir, tmp_path, capsys):
        code = main([
            "detect", "--stream", str(sim_dir / "stream.jsonl"),
            "--trends", str(sim_dir / "trends.csv"),
            "--threshold", "bogus", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 1
        assert "RULE=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("rule, message", [
        ("99", "undefined rule id: '99'"),
        ("1", "rule 1 is not in preset 'lexicon-tree'"),
    ])
    @pytest.mark.parametrize("command", ["detect", "scan", "evaluate"])
    def test_threshold_that_changes_nothing_exits_1(self, sim_dir, tmp_path, capsys,
                                                     command, rule, message):
        out = tmp_path / "out.json"
        inputs = {
            "detect": ["--stream", str(sim_dir / "stream.jsonl"),
                       "--trends", str(sim_dir / "trends.csv")],
            "scan": ["--stream", str(sim_dir / "stream.jsonl")],
            "evaluate": ["--sim", str(sim_dir)],
        }[command]
        code = main([command, *inputs, "--threshold", f"{rule}=0.5", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trendguard {command}: {message}\n"
        assert not out.exists()


class TestMalformedInputFiles:
    """A malformed input file exits 1 with its path and line, not a traceback."""

    @pytest.mark.parametrize("name, text, command, line", [
        ("trends.csv", "keyword\n#a\n", "detect", 1),
        ("trends.csv", "date,keyword\n2019-06-18,#a\n2019-06-18\n", "detect", 3),
        ("epochs.csv", "location,rank,keyword,volume\nsim,1,#a,\n", "metrics", 1),
        ("verdicts.jsonl", '{"date": "2019-06-18", "attacked": true}\n', "metrics", 1),
        ("truth.csv", "date,keyword\n2019-06-18,#a\n", "evaluate", 1),
        # A malformed value, not just a missing field, names its line too.
        ("trends.csv", "date,keyword\n2019-13-01,#a\n", "detect", 2),
        ("epochs.csv", "captured_at,location,rank,keyword,volume\n"
                       "2019-06-18T12:00:00Z,sim,1,#a,12k\n", "metrics", 2),
        ("epochs.csv", "captured_at,location,rank,keyword,volume\n"
                       "yesterday,sim,1,#a,\n", "metrics", 2),
        ("epochs.csv", "captured_at,location,rank,keyword,volume\n"
                       "2019-06-18T12:00:00Z,sim,first,#a,\n", "metrics", 2),
        ("truth.csv", "date,keyword,attacked\n2019-06-18,#a,yes\n", "evaluate", 2),
        ("verdicts.jsonl", '{"attacked": false, "date": "2019-06-18", "keyword": "x"}\n'
                           "not json\n", "metrics", 2),
        ("verdicts.jsonl", '{"attacked": true, "date": "2019-06-18", "keyword": ["x"]}\n',
         "metrics", 1),
        # Only a JSON boolean says whether a trend-day was attacked.
        ("verdicts.jsonl", '{"attacked": "false", "date": "2019-06-18", "keyword": "x"}\n',
         "metrics", 1),
        ("verdicts.jsonl", '{"attacked": false, "date": "2019-06-18", "keyword": "x"}\n'
                           '{"attacked": 1, "date": "2019-06-18", "keyword": "x"}\n',
         "metrics", 2),
    ])
    def test_exits_1_naming_path_and_line(self, sim_with_epochs, tmp_path, capsys,
                                          name, text, command, line):
        sim = tmp_path / "sim"
        shutil.copytree(sim_with_epochs, sim)
        (sim / "verdicts.jsonl").write_text(
            '{"attacked": false, "date": "2019-06-18", "keyword": "x"}\n')
        (sim / name).write_text(text)
        out = tmp_path / "out"
        inputs = ["--stream", str(sim / "stream.jsonl"), "--trends", str(sim / "trends.csv")]
        argv = {
            "detect": ["detect", *inputs, "--out", str(out)],
            "metrics": ["metrics", *inputs, "--epochs", str(sim / "epochs.csv"),
                        "--verdicts", str(sim / "verdicts.jsonl"), "--out", str(out)],
            "evaluate": ["evaluate", "--sim", str(sim)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"trendguard {command}: {sim / name}:{line}: ")
        assert not out.exists()


class TestParserDefaults:
    def test_env_locale_override(self, monkeypatch):
        monkeypatch.setenv("TRENDGUARD_LOCALE", "en")
        parser = build_parser()
        args = parser.parse_args(["features", "--stream", "x", "--trends", "y", "--stdout"])
        assert args.locale == "en"

    def test_bad_preset_usage_error(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["detect", "--stream", "x", "--trends", "y",
                                       "--preset", "nope", "--out", "z"])
        assert err.value.code == 2


    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    @pytest.mark.parametrize("flag", [["--jobs", "1"], ["--tz-offset", "0"], ["--locale", "tr"]])
    def test_simulate_and_evaluate_reject_pool_and_timezone_flags(self, command, flag):
        # Neither command uses a pool, and the scenario carries its own offset
        # and locale.
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, "--out", "x", *flag])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        # ingest only counts lines: it folds no case and computes no day.
        ["ingest", "--stream", "x", "--stdout", "--locale", "tr"],
        ["ingest", "--stream", "x", "--stdout", "--tz-offset", "0"],
        # scan reads its files serially.
        ["scan", "--stream", "x", "--stdout", "--jobs", "1"],
        # --out and --stdout are one choice.
        ["ingest", "--stream", "x", "--out", "z", "--stdout"],
        ["features", "--stream", "x", "--trends", "y", "--out", "z", "--stdout"],
        ["detect", "--stream", "x", "--trends", "y", "--out", "z", "--stdout"],
        ["scan", "--stream", "x", "--out", "z", "--stdout"],
        # evaluate reads a simulate directory or regenerates a scenario, not both.
        ["evaluate", "--sim", "a", "--config", "b"],
    ], ids=["ingest-locale", "ingest-tz-offset", "scan-jobs", "ingest-out-stdout",
            "features-out-stdout", "detect-out-stdout", "scan-out-stdout",
            "evaluate-sim-config"])
    def test_flags_a_command_cannot_honor_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["detect", "--stream", "x", "--trends", "y", "--out", "z"],
        ["scan", "--stream", "x", "--out", "z"],
        ["evaluate", "--sim", "x"],
    ])
    def test_custom_preset_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([*argv, "--preset", "custom"])
        assert err.value.code == 2


class TestModuleEntry:
    def test_help_via_python_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "trendguard", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for name in ("ingest", "detect", "simulate", "evaluate"):
            assert name in proc.stdout
