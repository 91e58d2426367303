"""
Acceptance criteria, one test per criterion. Each prints a single
[ACCEPTANCE n] PASS line (visible with pytest -s); a failing assertion is
the corresponding FAIL.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trendguard.classify import _lexicon_test
from trendguard.detector import AttackParams, DetectorConfig, detect_attack_windows
from trendguard.features import initial_deletions, minute_entropy
from trendguard.graph import k_core, louvain, modularity
from trendguard.simulator import (
    ScenarioConfig,
    build_stream,
    evaluate,
    gen_lexicon_text,
    group_stream_by_keyword,
    load_wordlist,
    trend_oracle,
)

from test_detector import _random_detector_instance, oracle_clusters
from test_features import entropy_oracle, prefix_oracle, random_instance
from test_graph import clique_pair, peel_oracle, random_bipartite


@pytest.fixture(scope="module")
def default_stream():
    return build_stream(ScenarioConfig())


def test_acceptance_1_detector_fidelity(default_stream):
    """Lexicon-tree on the default scenario: precision 1.00, recall >= 0.95."""
    scenario = default_stream.config
    assert scenario.n_days * scenario.organic_per_day == 150
    assert scenario.n_days * scenario.attacked_per_day == 50
    assert (scenario.bots_min, scenario.bots_max) == (100, 600)
    assert scenario.sample_rate == 0.01

    started = time.monotonic()
    report = evaluate(DetectorConfig(preset="lexicon-tree"), default_stream)
    elapsed = time.monotonic() - started

    assert report.tp + report.fp + report.tn + report.fn == 200
    assert report.precision == 1.0, f"precision {report.precision} != 1.0"
    assert report.recall >= 0.95, f"recall {report.recall} < 0.95"
    assert elapsed < 30.0, f"evaluation took {elapsed:.1f}s"
    print(f"\n[ACCEPTANCE 1] PASS detector fidelity: precision={report.precision:.3f} "
          f"recall={report.recall:.3f} f1={report.f1:.3f} in {elapsed:.1f}s")


NEGATIVE_FIXTURE = [
    # Sentences with punctuation.
    "Easy come easy go.",
    "Bugün hava çok güzel, değil mi?",
    "Hadi gel; birlikte yürüyelim.",
    "Sonunda bitti!",
    "Bu bir cümledir.",
    "Gerçekten mi? Emin misin?",
    "Olur mu öyle şey...",
    "Fiyatı 100,50 TL oldu.",
    "E-posta adresimi aldın mı?",
    "Saat 19:30 gibi buluşalım.",
    # Uppercase starts.
    "Merhaba dünya nasılsın bugün",
    "Ankara hem başkent hem büyük",
    "Deneme metni burada duruyor",
    "İstanbul boğazında vapur keyfi",
    "Selam verip geçti gitti",
    "Türkiye gündemi yine yoğun",
    "Pazartesi sendromu erken başladı",
    "Kahve olmadan sabah olmaz",
    "Yine mi aynı konu",
    "Ders çalışmak gerek şimdi",
    # Single token.
    "kelime",
    "selam",
    "deneme",
    "gündem",
    "başlık",
    "tekrar",
    "sessizlik",
    "yalnız",
    "kahve",
    "uzak",
    # Ten or more tokens.
    "bir iki üç dört beş altı yedi sekiz dokuz on",
    "kelime " * 10,
    "uzun metin burada devam ediyor hiç durmadan akıyor gidiyor sonunda bitiyor",
    "a b c d e f g h i j",
    "yarım gün tam gün az gün çok gün hep gün hiç",
    "su taş yol kuş dal kar yaz kış güz bahar",
    "el ele kol kola baş başa göz göze diz dize",
    "ev iş okul yol park bahçe sokak cadde köprü meydan",
    "al ver git gel koş dur bak gör duy söyle hayır",
    "ak kara saz söz dağ ova ırmak deniz rüzgar yağmur",
    # Digits, urls, symbols.
    "şifre 1234 hemen kazan",
    "indirim %50 sadece bugün",
    "takip et @hesap hemen",
    "linke tıkla https://t.co/abc123 hemen",
    "kazanmak için #etiket yaz",
    "3 kere tekrarla",
    "1000 takipçi hediye",
    "x2 bonus fırsatı",
    "7/24 hizmet veriyoruz",
    "50+ kişi katıldı",
]


def test_acceptance_2_lexicon_round_trip():
    """Generated lexicon tweets all classify positive; curated negatives all negative."""
    wordlist = load_wordlist()
    rng = random.Random(2025)
    started = time.monotonic()
    is_lexicon = _lexicon_test(None, "tr")  # the paper's rule on bare text
    positives = sum(is_lexicon(gen_lexicon_text(wordlist, rng)) for _ in range(10_000))
    assert positives == 10_000, f"only {positives}/10000 classified lexicon"

    fixture = NEGATIVE_FIXTURE
    assert len(fixture) == 50
    negatives = sum(not is_lexicon(text) for text in fixture)
    assert negatives == 50, f"only {negatives}/50 classified non-lexicon"
    elapsed = time.monotonic() - started
    print(f"\n[ACCEPTANCE 2] PASS lexicon round trip: 10000/10000 positive, "
          f"50/50 negative in {elapsed:.2f}s")


def test_acceptance_3_attack_model_conformance():
    """Every emitted AttackEvent satisfies the four quantitative conditions;
    small instances match the exhaustive subset oracle exactly."""
    rng = random.Random(42)
    params = AttackParams()
    total_events = 0
    oracle_checked = 0
    for i in range(1000):
        instance = _random_detector_instance(rng, max_tweets=12 if i % 2 == 0 else 20)
        events = detect_attack_windows(instance, params)
        for event in events:
            total_events += 1
            assert len(event.tweet_ids) >= params.kappa
            assert event.creation_window_s <= params.alpha_p
            assert event.deletion_window_s <= params.alpha_d
            assert event.max_lifetime_s <= params.theta
            assert len(event.users) == len(event.tweet_ids)
        if len(instance.tweets) <= 12:
            expected = oracle_clusters(instance, params)
            assert {e.tweet_ids for e in events} == expected
            oracle_checked += 1
    assert oracle_checked >= 300
    print(f"\n[ACCEPTANCE 3] PASS attack-model conformance: {total_events} events over "
          f"1000 instances, oracle equality on {oracle_checked} small instances")


def test_acceptance_4_feature_oracles():
    """minute_entropy and initial_deletions match their brute-force oracles."""
    rng = random.Random(7)
    for _ in range(1000):
        stamps = [rng.randint(0, 7200) * 1000 for _ in range(rng.randint(0, 120))]
        assert minute_entropy(stamps) == pytest.approx(entropy_oracle(stamps), abs=1e-9)

    for _ in range(1000):
        instance = random_instance(rng)
        assert initial_deletions(instance) == prefix_oracle(instance)

    burst = [(360_000 + i) * 1000 for i in range(50)]
    assert minute_entropy(burst) == 0.0
    print("\n[ACCEPTANCE 4] PASS feature oracles: entropy (1000 inputs, 1e-9), "
          "initial deletions (1000 instances), 50-tweet burst entropy == 0")


def test_acceptance_5_graph_algorithms():
    """k-core equals the peel oracle; Louvain recovers planted cliques and its
    modularity matches the standalone formula within 1e-9."""
    rng = random.Random(90)
    for i in range(100):
        graph, oracle = random_bipartite(rng, n_users=25, n_trends=25,
                                         p=rng.uniform(0.04, 0.25))
        assert graph.n_nodes == 50
        for k in (2, 4):
            assert set(k_core(graph, k).labels) == peel_oracle(oracle, k)

    pair = clique_pair()
    partition = louvain(pair, seed=0)
    from trendguard.graph import TREND, USER

    left = {partition.assignment[(USER, u)] for u in range(3)}
    left |= {partition.assignment[(TREND, f"t{t}")] for t in range(3)}
    right = {partition.assignment[(USER, u)] for u in range(3, 6)}
    right |= {partition.assignment[(TREND, f"t{t}")] for t in range(3, 6)}
    assert len(left) == 1 and len(right) == 1 and left != right

    checked = 0
    for seed in range(20):
        graph, _ = random_bipartite(rng, n_users=25, n_trends=25, p=0.1)
        if graph.total_weight == 0:
            continue
        part = louvain(graph, seed=seed)
        assert part.modularity == pytest.approx(modularity(graph, part.communities), abs=1e-9)
        checked += 1
    assert partition.modularity == pytest.approx(
        modularity(pair, partition.communities), abs=1e-9
    )
    print(f"\n[ACCEPTANCE 5] PASS graph algorithms: k-core == peel oracle on 100 graphs, "
          f"planted cliques recovered (Q={partition.modularity:.3f}), "
          f"modularity formula cross-checked on {checked + 1} runs")


def test_acceptance_6_countermeasure(default_stream):
    """Deletion penalty keeps attacks out of the toy top-10 without displacing
    organic trends."""
    labeled = default_stream
    streams = group_stream_by_keyword(labeled.events(), labeled.keywords.values())
    epochs_off = trend_oracle(streams, mitigation=False)
    epochs_on = trend_oracle(streams, mitigation=True)

    def entered_within(epochs, keyword, start, horizon=600):
        return any(
            start < ts // 1000 <= start + horizon and keyword in top for ts, top in epochs
        )

    waves = labeled.truth_attacks
    off_rate = sum(
        entered_within(epochs_off, w.keyword, w.t0_ms // 1000) for w in waves
    ) / len(waves)
    on_rate = sum(
        entered_within(epochs_on, w.keyword, w.t0_ms // 1000) for w in waves
    ) / len(waves)
    assert off_rate >= 0.95, f"only {off_rate:.1%} of attacks trend without mitigation"
    assert on_rate <= 0.05, f"{on_rate:.1%} of attacks still trend with mitigation"

    organic = {kw for (day, kw), attacked in labeled.truth.items() if not attacked}
    off_entered = {kw for kw in organic if any(kw in top for _, top in epochs_off)}
    on_entered = {kw for kw in off_entered if any(kw in top for _, top in epochs_on)}
    persistence = len(on_entered) / len(off_entered) if off_entered else 1.0
    assert persistence >= 0.95, f"only {persistence:.1%} of organic trends persisted"
    print(f"\n[ACCEPTANCE 6] PASS countermeasure: attacks enter {off_rate:.0%} off / "
          f"{on_rate:.0%} on; organic persistence {persistence:.0%}")


def _write_big_archive(path: Path, n_lines: int, keywords, day_seconds: int) -> None:
    rng = random.Random(1234)
    lex = "kama tepel sobar"
    with open(path, "w", encoding="utf-8") as handle:
        deletable = []
        for i in range(n_lines):
            if deletable and rng.random() < 0.18:
                tid, uid, created = deletable.pop()
                ms = (created + rng.randint(30, 400)) * 1000
                handle.write(
                    f'{{"delete":{{"status":{{"id":{tid},"user_id":{uid}}},'
                    f'"timestamp_ms":"{ms}"}}}}\n'
                )
                continue
            tid = 10_000_000 + i
            uid = 20_000_000 + i
            created = day_seconds + rng.randint(0, 86_000)
            if rng.random() < 0.02:
                kw = keywords[rng.randrange(len(keywords))]
                text = f"{lex} #{kw}"
                deletable.append((tid, uid, created))
            else:
                text = "Arka plan sohbeti devam ediyor burada."
                if rng.random() < 0.1:
                    deletable.append((tid, uid, created))
            handle.write(
                f'{{"id":{tid},"text":"{text}","user":{{"id":{uid}}},'
                f'"timestamp_ms":"{created * 1000}"}}\n'
            )


def test_acceptance_7_scale_and_determinism(tmp_path):
    """1M-line archive: end-to-end detect under 60s, bounded memory,
    byte-identical repeated runs."""
    keywords = [f"konu{i}" for i in range(5)]
    day = "2019-06-18"
    day_seconds = 18065 * 86400 - 10800
    archive = tmp_path / "big.jsonl"
    _write_big_archive(archive, 1_000_000, keywords, day_seconds)

    trends = tmp_path / "trends.csv"
    trends.write_text(
        "date,keyword\n" + "".join(f"{day},#{kw}\n" for kw in keywords), encoding="utf-8"
    )

    # Per-run peak RSS is read by a slim intermediate process: measuring the
    # child from this (large) test process would inherit fork-time pages.
    wrapper = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps({'rc': proc.returncode, 'peak_kb': peak}))\n"
    )

    def run(out_path):
        cmd = [
            sys.executable, "-c", wrapper,
            sys.executable, "-m", "trendguard", "detect",
            "--stream", str(archive), "--trends", str(trends),
            "--preset", "lexicon-tree", "--jobs", "1",
            "--out", str(out_path),
        ]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        elapsed = time.monotonic() - started
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["rc"] == 0
        return elapsed, result["peak_kb"]

    first = tmp_path / "verdicts_a.jsonl"
    second = tmp_path / "verdicts_b.jsonl"
    elapsed, peak_kb = run(first)
    run(second)

    assert elapsed < 60.0, f"ingest+detect took {elapsed:.1f}s"
    assert first.read_bytes() == second.read_bytes()
    # Golden hash of the verdicts on this corpus, as tests/test_golden.py
    # pins the outputs on a simulator corpus.
    assert hashlib.sha256(first.read_bytes()).hexdigest() == (
        "c480b1a974e2294eeed1df31b4dd3fac188f94fc4878d69f897eb3fcea2e4ef8")
    verdicts = [json.loads(line) for line in first.read_text().splitlines()]
    assert len(verdicts) == 5
    assert all(v["features"]["n_tweets"] > 0 for v in verdicts)
    # Streaming one-pass join: memory tracks matched trend content plus 16
    # bytes per deletion notice, not the hundred-megabyte corpus.
    assert peak_kb < 250_000, f"detect peak RSS {peak_kb} kB"
    print(f"\n[ACCEPTANCE 7] PASS scale and determinism: 1M lines end-to-end in "
          f"{elapsed:.1f}s, peak RSS {peak_kb / 1024:.0f} MB, reruns byte-identical")
