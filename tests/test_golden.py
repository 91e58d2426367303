"""Golden-hash guard over the CLI outputs of one small fixed scenario.

Every output of `simulate` (plain and `--gzip`), `ingest`, `features`,
`detect`, `scan`, `metrics`, both `graph` predicates (plain and each with a
filter) and `evaluate --sim` must stay byte-identical: a refactor or
optimization that changes any of them fails here. Each hash was recorded
before the code it covers was refactored; re-record them only for a
deliberate, documented output change.
"""

import hashlib

import pytest

from trendguard.cli import main

SCENARIO = """
n_days = 1
organic_per_day = 3
attacked_per_day = 2
attacks_per_day = 6
background_per_day = 300
seed = 5
"""

GOLDEN = {
    "out/bots.txt":
        "ca5c136fcde40f8713181fba558ed58195ef8d124288433688e7cc630a588cdc",
    "out/events.jsonl":
        "0dcf6a2e5c92a299d862f050a4becc18e6ad7c6825d5a79f238091aa82d15d9c",
    "out/graph-deleted-lexicon/communities.csv":
        "1270438410deb37c939e2fcccfd90beaad63d1d71c664c3e299e407aa41263c7",
    "out/graph-deleted-lexicon/edges.csv":
        "2e448bf32fa69c53399090c7d77d3447bd432ab77de66b94157a02d0dd118a51",
    "out/graph-deleted-lexicon/partition.csv":
        "75c0f076bee76586f4df0d6a0c99059242b432113662c501fc6f015eeb9de947",
    "out/graph-deleted-lexicon/summary.json":
        "8aaa55c4cf3f211e42b91ea2073513f243d1a56b5d3be1f5acf694efd08f5389",
    "out/graph-undeleted/communities.csv":
        "aa6f5d61e1c94e8825260946e3d25e05fd03a0039a7bfcaac373368a5b048c4c",
    "out/graph-undeleted/edges.csv":
        "ee2c1238adb2ee9040fb34370e6ebdbae1f24654edb8a59e98c4e3b58764b4b6",
    "out/graph-undeleted/partition.csv":
        "cbcbdf41e25dd7b6b77f29f3b4d834152a75ea0a3d8c9fa471d4af2445dbf423",
    "out/graph-undeleted/summary.json":
        "75498f2800910a678c70edb8492c4a31016619b3227451e241d0b6d1801e6504",
    "out/metrics/entry_hours.csv":
        "4ced746dbe8acf5e115687cb0ed4138082c6c4d743c1bd17608a6cb0b72914dd",
    "out/metrics/lifecycles.csv":
        "96df34c8cb3b20071469d58c29c50af90ca6a8ce9f00e3bad8191cf6b625a37b",
    "out/metrics/prevalence.csv":
        "de61970186ac3e9dd7cd681a9aad9b30405e70d657797c642b5ac373c27dfbdf",
    "out/metrics/speed.csv":
        "f302ebfe465c6330d15d56f3d7adceb27a4616e10162954c2a14855a7afd3f53",
    "out/metrics/volume.csv":
        "f2a582f934db22f7c3485183321960b4f3eca01e93b3d843e52931b884ccf18d",
    "out/verdicts.jsonl":
        "0a654d60b03df499e5f509ffa0b71940bed70a07cef0ce6397caa2ed3eb78e71",
    "sim/bots.txt":
        "1b5e532b80e81b038c4b18ceab8d00c9f3dbc342ce678e3006019fa6fcaca961",
    "sim/epochs.csv":
        "470e0a2fb7531087600a2e138d9ef72c1c74c27bffcb4b4e3ce26a66c18bff62",
    "sim/scenario.cfg":
        "0c03e7d387b74947768cb72a5617fb1321597bed462842f4a18a298fc781e94a",
    "sim/stream.jsonl":
        "f10bc86677e07d820a11a64e7589c865eee432fc87e5d5fc33017d0f51eff503",
    "sim/trends.csv":
        "bf57eb7307d5b4c4d53d1cf5c38722c271cf3cde8bf0561166454b956e8ba028",
    "sim/truth.csv":
        "8cf68ce52e3f94f690bc1c5e8d46767edfd96d90e4cc9bfd934cbd8c92386eb9",
    # Added later, recorded on the commit before the keyword index, the
    # evaluation scorer and the CLI output sink were merged.
    "out/evaluate.json":
        "d7d20c549fb3212de644fd71f25eea6f165ca1dd65964e09e0ed54f0cf6701ff",
    "out/features.csv":
        "9f12a51f256d8f3a3ff499886649756d6a12d0f2d3ebdfe226043af7f451d8e9",
    "out/ingest.json":
        "5a645d5398d321be875323e3754e911d56f2c5676076b06ea9830c00d3b3a604",
    "out/scan.jsonl":
        "7cf04250660b70af2a85628a65dbadd2f623eddf6d66633fe9831fecfdaaaa03",
    "simgz/bots.txt":
        "1b5e532b80e81b038c4b18ceab8d00c9f3dbc342ce678e3006019fa6fcaca961",
    "simgz/scenario.cfg":
        "0c03e7d387b74947768cb72a5617fb1321597bed462842f4a18a298fc781e94a",
    "simgz/stream.jsonl.gz":
        "efae4696efb142fd88b519bd16dc94b116e1fdbd9a22ed04b0e1d06268ec0fb4",
    "simgz/trends.csv":
        "bf57eb7307d5b4c4d53d1cf5c38722c271cf3cde8bf0561166454b956e8ba028",
    "simgz/truth.csv":
        "8cf68ce52e3f94f690bc1c5e8d46767edfd96d90e4cc9bfd934cbd8c92386eb9",
    # Added later, recorded on the commit before the graph became one CSR
    # structure. On this scenario no user posts in two trends: the 1-core
    # is the whole undeleted graph (2 is the first k that empties it), and
    # the single-attack filter leaves the deleted-lexicon graph empty.
    "out/graph-deleted-lexicon-single-attack/edges.csv":
        "9f73af193e71be66f86583aa820074cd9771186454daccf2e32cc4c4615f2161",
    "out/graph-deleted-lexicon-single-attack/summary.json":
        "b4810fc9baac1cb50991af476eb36681b9fec3e621c275438366a8a7ebeb36d6",
    "out/graph-undeleted-kcore/communities.csv":
        "aa6f5d61e1c94e8825260946e3d25e05fd03a0039a7bfcaac373368a5b048c4c",
    "out/graph-undeleted-kcore/edges.csv":
        "ee2c1238adb2ee9040fb34370e6ebdbae1f24654edb8a59e98c4e3b58764b4b6",
    "out/graph-undeleted-kcore/partition.csv":
        "cbcbdf41e25dd7b6b77f29f3b4d834152a75ea0a3d8c9fa471d4af2445dbf423",
    "out/graph-undeleted-kcore/summary.json":
        "75498f2800910a678c70edb8492c4a31016619b3227451e241d0b6d1801e6504",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "scenario.cfg"
    config.write_text(SCENARIO)
    sim = root / "sim"
    out = root / "out"
    inputs = ["--stream", str(sim / "stream.jsonl"), "--trends", str(sim / "trends.csv")]
    stream = [*inputs, "--jobs", "1"]
    runs = [
        ["simulate", "--config", str(config), "--epochs", "--out", str(sim)],
        ["simulate", "--config", str(config), "--gzip", "--out", str(root / "simgz")],
        ["ingest", "--stream", str(sim / "stream.jsonl"), "--out", str(out / "ingest.json"),
         "--jobs", "1"],
        ["features", *stream, "--out", str(out / "features.csv")],
        ["scan", *inputs, "--out", str(out / "scan.jsonl")],
        ["evaluate", "--sim", str(sim), "--out", str(out / "evaluate.json")],
        ["detect", *stream, "--out", str(out / "verdicts.jsonl"),
         "--events-out", str(out / "events.jsonl"), "--bots-out", str(out / "bots.txt")],
        ["metrics", *stream, "--epochs", str(sim / "epochs.csv"),
         "--verdicts", str(out / "verdicts.jsonl"), "--out", str(out / "metrics")],
        ["graph", *stream, "--louvain", "--predicate", "undeleted",
         "--out", str(out / "graph-undeleted")],
        ["graph", *stream, "--louvain", "--predicate", "deleted-lexicon",
         "--out", str(out / "graph-deleted-lexicon")],
        ["graph", *stream, "--louvain", "--predicate", "deleted-lexicon", "--single-attack",
         "--out", str(out / "graph-deleted-lexicon-single-attack")],
        ["graph", *stream, "--louvain", "--predicate", "undeleted", "--kcore", "1",
         "--out", str(out / "graph-undeleted-kcore")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return {
        path.relative_to(root).as_posix(): _sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != config
    }


def test_output_set_is_complete(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_hash(outputs, name):
    assert outputs[name] == GOLDEN[name]
