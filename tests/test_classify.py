import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.core import (
    DEFAULT_LOCALE,
    LEXICON,
    RETWEET,
    SINGLE_ENGAGEMENT,
    fold_case,
    normalize_keyword,
)
from trendguard.ingest import _keyword_index
from trendguard.classify import TURKISH_ALPHABET, _lexicon_test, _stripper, flags_for_instance

from conftest import make_tweet
import oracles
from oracles import match_keyword


class TestStripKeywordAndEmoji:
    def test_hashtag_removed(self):
        kw = normalize_keyword("#DonaldTrump", "tr")
        out = _stripper(kw, "tr")("apple to cycle #DonaldTrump trigonometry")
        assert out == ["apple", "to", "cycle", "trigonometry"]

    def test_keyword_only_becomes_empty(self, tag_keyword):
        assert _stripper(tag_keyword, "tr")("#tag") == []

    def test_emoji_removed(self, tag_keyword):
        strip = _stripper(tag_keyword, "tr")
        assert strip("ok \U0001F600 ok") == ["ok", "ok"]
        assert strip("fire\U0001F525works") == ["fire", "works"]

    def test_ngram_sequence_removed(self):
        kw = normalize_keyword("YSK'dan CHP", "tr")
        assert _stripper(kw, "tr")("karar YSK'dan CHP hakkında") == ["karar", "hakkında"]

    def test_case_folded_occurrences(self, tag_keyword):
        assert _stripper(tag_keyword, "tr")("x #TAG y #Tag z") == ["x", "y", "z"]

    @pytest.mark.parametrize("keyword, text, left", [
        ("foo, bar", "foo bar baz", "baz"),
        ("foo bar", "baz qux foo bar!", "baz qux"),
        ("tepel sobar", "tepel - sobar kama", "kama"),
    ])
    def test_ngram_stripped_where_the_join_matches(self, keyword, text, left):
        kw = normalize_keyword(keyword, "tr")
        assert match_keyword(text, kw, "tr")
        assert _stripper(kw, "tr")(text) == left.split()


    def test_emoji_inside_a_token_keeps_an_ngram_the_join_does_not_match(self):
        kw = normalize_keyword("foo bar", "tr")
        text = "xx foo\U0001F525bar yy"
        assert _keyword_index([kw], "tr")(text) == []
        assert _stripper(kw, "tr")(text) == ["xx", "foo", "bar", "yy"]

    def test_emoji_after_a_hashtag_still_strips(self, tag_keyword):
        assert _keyword_index([tag_keyword], "tr")("x #tag\U0001F525 y")
        assert _stripper(tag_keyword, "tr")("x #tag\U0001F525 y") == ["x", "y"]


# Tokens of the generated texts: the keywords' words, other words, emoji
# alone, emoji glued to a word, and punctuation.
NGRAM_WORDS = ["foo", "FOO", "bar", "Bar!", "(foo", "baz", "foo\U0001F525bar", "foo\U0001F525",
               "\U0001F525bar", "\U0001F525", "\u2764\ufe0f", "-", "foo,", "\u00e7ay"]
NGRAM_KEYWORDS = ["foo bar", "bar foo", "foo", "foo, bar", "bar baz foo", "çay foo"]


@settings(max_examples=500, deadline=None)
@given(words=st.lists(st.sampled_from(NGRAM_WORDS), max_size=8),
       separator=st.sampled_from([" ", "  ", "\t"]),
       raw_keyword=st.sampled_from(NGRAM_KEYWORDS), locale=st.sampled_from(["tr", "en"]))
def test_ngram_strip_drops_a_run_iff_the_join_matches(words, separator, raw_keyword, locale):
    text = separator.join(words)
    keyword = normalize_keyword(raw_keyword, locale)
    matched = bool(_keyword_index([keyword], locale)(text))
    dropped = _stripper(keyword, locale)(text) != _stripper(None, locale)(text)
    assert matched == dropped


# The lexicon rule on bare text, with no keyword to strip.
is_lexicon = _lexicon_test(None, DEFAULT_LOCALE)


class TestIsLexiconTweet:
    def test_paper_frequent_lexicon_tweet(self):
        assert is_lexicon("tenkidi kaynaştırabilme siperisaika")

    def test_uppercase_and_punctuation_rejected(self):
        assert not is_lexicon("Easy come easy go.")

    def test_single_token_rejected(self):
        assert not is_lexicon("kelime")

    def test_ten_tokens_rejected(self):
        assert not is_lexicon(" ".join(["kelime"] * 10))

    def test_nine_tokens_accepted(self):
        assert is_lexicon(" ".join(["kelime"] * 9))

    def test_two_tokens_accepted(self):
        assert is_lexicon("yarım gün")

    def test_parentheses_allowed(self):
        assert is_lexicon("elma (meyve) dolaşmak")

    def test_digits_rejected(self):
        assert not is_lexicon("kelime 123 kelime")

    def test_keyword_excluded_before_counting(self, tag_keyword):
        # Keyword adds a token and a '#'; both must be ignored.
        assert _lexicon_test(tag_keyword, "tr")("yarım gün #tag")

    def test_whitespace_invariance(self):
        rng = random.Random(2)
        text = "tenkidi kaynaştırabilme siperisaika"
        for _ in range(20):
            padded = " " * rng.randint(0, 3) + text + " " * rng.randint(0, 3)
            assert is_lexicon(padded)

    def test_emoji_do_not_count_as_tokens(self):
        assert is_lexicon("yarım gün \U0001F600")
        assert not is_lexicon("kelime \U0001F600")  # one real token


class TestIsSingleEngagement:
    @pytest.fixture
    def single(self, tag_keyword):
        """Whether the #tag flag function gives a tweet the SINGLE_ENGAGEMENT bit."""
        flag = flags_for_instance("tr")[tag_keyword]
        return lambda tweet: bool(flag(tweet) & SINGLE_ENGAGEMENT)

    def test_plain_lexicon_tweet_with_target(self, single):
        assert single(make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"]))

    def test_mention_breaks_it(self, single):
        assert not single(make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], mentions=[5]))

    def test_retweet_breaks_it(self, single):
        tweet = make_tweet(1, 1, "RT @x: yarım gün #tag", 0, hashtags=["tag"], is_retweet=True)
        assert not single(tweet)

    def test_url_and_reply_break_it(self, single):
        assert not single(make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], urls=1))
        assert not single(make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], is_reply=True))

    def test_foreign_hashtag_breaks_it(self, single):
        assert not single(make_tweet(1, 1, "yarım gün #tag #other", 0, hashtags=["tag", "other"]))

    def test_ngram_keyword_admits_no_hashtags(self):
        flag = flags_for_instance("tr")[normalize_keyword("ysk'dan chp", "tr")]
        clean = make_tweet(1, 1, "ysk'dan chp karar", 0, hashtags=[])
        tagged = make_tweet(2, 1, "ysk'dan chp karar #x", 0, hashtags=["x"])
        assert flag(clean) & SINGLE_ENGAGEMENT
        assert not flag(tagged) & SINGLE_ENGAGEMENT

    def test_monotone_under_added_engagement(self, single):
        rng = random.Random(7)
        for _ in range(50):
            base = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"])
            assert single(base)
            spoiled = [
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], mentions=[rng.randint(1, 9)]),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], urls=1),
                make_tweet(1, 1, base.text + " #z", 0, hashtags=["tag", "z"]),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], is_retweet=True),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], is_reply=True),
            ]
            assert not any(map(single, spoiled))


class TestFlagsAndStats:
    def test_tweet_flags(self, tag_keyword):
        flag = flags_for_instance("tr")[tag_keyword]
        tweet = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"])
        assert flag(tweet) == LEXICON | SINGLE_ENGAGEMENT
        retweet = make_tweet(2, 1, "RT @a: yarım gün #tag", 0, hashtags=["tag"], is_retweet=True)
        assert flag(retweet) == RETWEET

    def test_a_flagger_makes_one_function_per_keyword_and_pickles(self, tag_keyword):
        """The join looks a trend-day's flag function up by keyword; a pool's
        jobs carry the flagger, which must pickle with what it has made."""
        flagger = flags_for_instance("tr")
        assert len(flagger) == 0
        flag = flagger[tag_keyword]
        assert flagger[tag_keyword] is flag and len(flagger) == 1
        tweets = [make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"]),
                  make_tweet(2, 2, "Yarım gün #tag", 5, hashtags=["tag"], mentions=[7])]
        copy = pickle.loads(pickle.dumps(flagger))
        assert copy.locale == "tr"
        other = normalize_keyword("#öteki", "tr")
        for flags in (flagger, copy):
            assert [flags[tag_keyword](t) for t in tweets] == \
                [oracles.tweet_flags(t, tag_keyword, "tr") for t in tweets] == \
                [LEXICON | SINGLE_ENGAGEMENT, 0]
            assert flags[other](tweets[0]) == oracles.tweet_flags(tweets[0], other, "tr")


def reference_is_lexicon(text, keyword, locale, alphabet=TURKISH_ALPHABET):
    """The lexicon rule as written before flags stripped each text once."""
    stripped = " ".join(_stripper(keyword, locale)(text))
    if not stripped:
        return False
    allowed = set(alphabet)
    allowed.update(" ()")
    for ch in stripped:
        if ch not in allowed:
            return False
    if stripped[0].isupper():
        return False
    return 2 <= len(stripped.split()) <= 9


# Words the lexicon rule accepts once keyword and emoji are stripped, and
# words that break it (digits, punctuation, keycaps, capitals, mentions).
LEXICON_WORDS = ["tepel", "sobar", "ılık", "çok", "iğdır", "istanbul", "(iki)", "(", ")",
                 "Sobar", "İstanbul", "ISTANBUL", "Iğdır", "#tepel", "#Tepel", "#TEPEL",
                 "#İzmir", "#izmir", "#IZMIR", "#ızmır", "\U0001F600", "\U0001F525ateş",
                 "\u2764\ufe0f", "\U0001F468\u200d\U0001F469", "\u200d"]
OTHER_WORDS = ["x2", "2019", "1\ufe0f\u20e3", "#\u20e3", "#diğer", "a.b", "@kişi", "-",
               "\u00a0", "SOBAR!"]
SEPARATORS = [" ", "  ", "\t", "\u3000"]
FLAG_KEYWORDS = ["#tepel", "#TEPEL", "#İzmir", "#IZMIR", "tepel sobar", "Tepel SOBAR",
                 "İstanbul ılık", "(iki) çok", "2019"]


@st.composite
def flag_texts(draw):
    words = draw(st.lists(st.sampled_from(LEXICON_WORDS), max_size=11))
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.sampled_from(OTHER_WORDS) | st.text(max_size=3))
        words.insert(draw(st.integers(0, len(words))), other)
    return draw(st.sampled_from(SEPARATORS)).join(words)


@settings(max_examples=400, deadline=None)
@given(text=flag_texts(), raw_keyword=st.sampled_from(FLAG_KEYWORDS),
       locale=st.sampled_from(["tr", "en"]), mentions=st.booleans(),
       extra_tag=st.sampled_from([None, "tepel", "izmir", "diğer"]))
def test_tweet_flags_equals_the_three_classifiers(text, raw_keyword, locale, mentions,
                                                   extra_tag):
    keyword = normalize_keyword(raw_keyword, locale)
    hashtags = [w.lstrip("#") for w in text.split() if w.startswith("#")]
    if extra_tag:
        hashtags.append(extra_tag)
    tweet = make_tweet(1, 1, text, 0, hashtags=hashtags, mentions=(7,) if mentions else ())
    flags = flags_for_instance(locale)[keyword](tweet)
    assert flags == oracles.tweet_flags(tweet, keyword, locale)
    assert bool(flags & LEXICON) == reference_is_lexicon(text, keyword, locale)
    assert _lexicon_test(None, locale)(text) == reference_is_lexicon(text, None, locale)


def test_folding_makes_no_whitespace_and_whitespace_ends_a_final_sigma():
    """Every code point: its fold holds whitespace iff it is whitespace, and
    a whitespace character folds to itself. No whitespace character is
    cased or case-ignorable: a capital sigma after a cased letter stays
    final before it and is not final after it. So a text's folded tokens
    are its tokens' folds, which classify._stripper relies on."""
    spaces = []
    for code_point in range(sys.maxunicode + 1):
        char = chr(code_point)
        for locale in ("tr", "en"):
            folded = fold_case(char, locale)
            if char.isspace():
                assert folded == char, hex(code_point)
            else:
                assert not any(c.isspace() for c in folded), hex(code_point)
        if char.isspace():
            spaces.append(char)
    assert len(spaces) > 20
    for space in spaces:
        assert ("AΣ" + space + "B").lower() == "aς" + space + "b", hex(ord(space))
        assert ("A" + space + "Σ").lower() == "a" + space + "σ", hex(ord(space))


# Words whose folds depend on the locale or on their neighbours: the
# capital sigma (final or not), and dotted and dotless I.
FOLD_WORDS = ["Σ", "ΑΣ", "ΑΣΑ", "σ", "ς", "İ", "I", "ı", "i", "İSTANBUL", "ISIK", "#İZMİR",
              "#IZMIR", "#ızmır", "#izmir", "#ΣΑΣ", "#σας", "ΣΑΣ!", "'Σ'", "ÁΣ", "\U0001F525Σ"]
FOLD_SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c",
                   "\u0085", " \t\u00a0 "]


@settings(max_examples=500, deadline=None)
@given(words=st.lists(st.sampled_from(FOLD_WORDS + LEXICON_WORDS[:8]), max_size=8),
       separators=st.lists(st.sampled_from(FOLD_SEPARATORS), min_size=9, max_size=9),
       raw_keyword=st.sampled_from(["#izmir", "#İZMİR", "#ΣΑΣ", "#σας", "ısık", "ΑΣ ΑΣΑ",
                                    "İstanbul ılık", "Σ"]) | st.none(),
       locale=st.sampled_from(["tr", "en"]))
def test_folding_the_text_once_equals_folding_each_token(words, separators, raw_keyword,
                                                         locale):
    text = "".join(s + w for s, w in zip(separators, words)) + separators[-1]
    keyword = None if raw_keyword is None else normalize_keyword(raw_keyword, locale)
    assert " ".join(_stripper(keyword, locale)(text)) == \
        oracles.strip_keyword_and_emoji(text, keyword, locale)


# Words around a hashtag keyword: its forms in any case, letters,
# parentheses, ASCII punctuation and digits (some of them inside the
# keyword), emoji, keycaps and non-ASCII letters and marks.
REJECT_WORDS = ["#tag_2019", "#TAG_2019", "tag_2019", "#tag", "tag", "yarım", "gün", "(iki)",
                "Sobar", "a.b", "x2", "2019", "_", "#", "##tag_2019", "#tag_2019!", "@kişi",
                "1\ufe0f\u20e3", "#\u20e3", "\U0001F600", "\U0001F525ateş", "ılık", "İ",
                "tag_2019\U0001F600", "\u00e9t\u00e9", "\u0301", "\u2014"]
REJECT_KEYWORDS = ["#tag_2019", "#TAG_2019", "#tag", "#2019", "#yarım", "#a.b", "#İzmir"]


@settings(max_examples=600, deadline=None)
@given(words=st.lists(st.sampled_from(REJECT_WORDS) | st.text(max_size=3), max_size=10),
       separator=st.sampled_from(SEPARATORS + ["\n", "\x1c"]),
       raw_keyword=st.sampled_from(REJECT_KEYWORDS), locale=st.sampled_from(["tr", "en"]))
def test_early_reject_equals_stripping_first(words, separator, raw_keyword, locale):
    """The lexicon test rejects a hashtag keyword's text that holds a
    foreign ASCII character before stripping it; the rule as it was, which
    always strips first (tests/oracles.py), gives the same answer."""
    text = separator.join(words)
    keyword = normalize_keyword(raw_keyword, locale)
    assert _lexicon_test(keyword, locale)(text) == oracles.is_lexicon_tweet(text, keyword, locale)
