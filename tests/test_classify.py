import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.core import (
    LEXICON,
    RETWEET,
    SINGLE_ENGAGEMENT,
    fold_case,
    normalize_keyword,
)
from trendguard.ingest import _keyword_index
from trendguard.classify import (
    TURKISH_ALPHABET,
    flags_for_instance,
    is_lexicon_tweet,
    is_single_engagement,
    strip_keyword_and_emoji,
    tweet_flags,
)

from conftest import make_tweet
import oracles
from oracles import match_keyword


class TestStripKeywordAndEmoji:
    def test_hashtag_removed(self):
        kw = normalize_keyword("#DonaldTrump", "tr")
        out = strip_keyword_and_emoji("apple to cycle #DonaldTrump trigonometry", kw)
        assert out == "apple to cycle trigonometry"

    def test_keyword_only_becomes_empty(self, tag_keyword):
        assert strip_keyword_and_emoji("#tag", tag_keyword) == ""

    def test_emoji_removed(self, tag_keyword):
        assert strip_keyword_and_emoji("ok \U0001F600 ok", tag_keyword) == "ok ok"
        assert strip_keyword_and_emoji("fire\U0001F525works", tag_keyword) == "fire works"

    def test_ngram_sequence_removed(self):
        kw = normalize_keyword("YSK'dan CHP", "tr")
        out = strip_keyword_and_emoji("karar YSK'dan CHP hakkında", kw)
        assert out == "karar hakkında"

    def test_case_folded_occurrences(self, tag_keyword):
        assert strip_keyword_and_emoji("x #TAG y #Tag z", tag_keyword) == "x y z"

    @pytest.mark.parametrize("keyword, text, left", [
        ("foo, bar", "foo bar baz", "baz"),
        ("foo bar", "baz qux foo bar!", "baz qux"),
        ("tepel sobar", "tepel - sobar kama", "kama"),
    ])
    def test_ngram_stripped_where_the_join_matches(self, keyword, text, left):
        kw = normalize_keyword(keyword, "tr")
        assert match_keyword(text, kw, "tr")
        assert strip_keyword_and_emoji(text, kw, "tr") == left


    def test_emoji_inside_a_token_keeps_an_ngram_the_join_does_not_match(self):
        kw = normalize_keyword("foo bar", "tr")
        text = "xx foo\U0001F525bar yy"
        assert _keyword_index([kw], "tr")(text) == []
        assert strip_keyword_and_emoji(text, kw, "tr") == "xx foo bar yy"

    def test_emoji_after_a_hashtag_still_strips(self, tag_keyword):
        assert _keyword_index([tag_keyword], "tr")("x #tag\U0001F525 y")
        assert strip_keyword_and_emoji("x #tag\U0001F525 y", tag_keyword) == "x y"


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
    dropped = strip_keyword_and_emoji(text, keyword, locale) != strip_keyword_and_emoji(
        text, None, locale)
    assert matched == dropped


class TestIsLexiconTweet:
    def test_paper_frequent_lexicon_tweet(self):
        assert is_lexicon_tweet("tenkidi kaynaştırabilme siperisaika")

    def test_uppercase_and_punctuation_rejected(self):
        assert not is_lexicon_tweet("Easy come easy go.")

    def test_single_token_rejected(self):
        assert not is_lexicon_tweet("kelime")

    def test_ten_tokens_rejected(self):
        assert not is_lexicon_tweet(" ".join(["kelime"] * 10))

    def test_nine_tokens_accepted(self):
        assert is_lexicon_tweet(" ".join(["kelime"] * 9))

    def test_two_tokens_accepted(self):
        assert is_lexicon_tweet("yarım gün")

    def test_parentheses_allowed(self):
        assert is_lexicon_tweet("elma (meyve) dolaşmak")

    def test_digits_rejected(self):
        assert not is_lexicon_tweet("kelime 123 kelime")

    def test_keyword_excluded_before_counting(self, tag_keyword):
        # Keyword adds a token and a '#'; both must be ignored.
        assert is_lexicon_tweet("yarım gün #tag", tag_keyword)

    def test_whitespace_invariance(self):
        rng = random.Random(2)
        text = "tenkidi kaynaştırabilme siperisaika"
        for _ in range(20):
            padded = " " * rng.randint(0, 3) + text + " " * rng.randint(0, 3)
            assert is_lexicon_tweet(padded)

    def test_emoji_do_not_count_as_tokens(self):
        assert is_lexicon_tweet("yarım gün \U0001F600")
        assert not is_lexicon_tweet("kelime \U0001F600")  # one real token


class TestIsSingleEngagement:
    def test_plain_lexicon_tweet_with_target(self, tag_keyword):
        tweet = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"])
        assert is_single_engagement(tweet, tag_keyword)

    def test_mention_breaks_it(self, tag_keyword):
        tweet = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], mentions=[5])
        assert not is_single_engagement(tweet, tag_keyword)

    def test_retweet_breaks_it(self, tag_keyword):
        tweet = make_tweet(1, 1, "RT @x: yarım gün #tag", 0, hashtags=["tag"], is_retweet=True)
        assert not is_single_engagement(tweet, tag_keyword)

    def test_url_and_reply_break_it(self, tag_keyword):
        assert not is_single_engagement(
            make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], urls=1), tag_keyword
        )
        assert not is_single_engagement(
            make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"], is_reply=True), tag_keyword
        )

    def test_foreign_hashtag_breaks_it(self, tag_keyword):
        tweet = make_tweet(1, 1, "yarım gün #tag #other", 0, hashtags=["tag", "other"])
        assert not is_single_engagement(tweet, tag_keyword)

    def test_ngram_keyword_admits_no_hashtags(self):
        kw = normalize_keyword("ysk'dan chp", "tr")
        clean = make_tweet(1, 1, "ysk'dan chp karar", 0, hashtags=[])
        tagged = make_tweet(2, 1, "ysk'dan chp karar #x", 0, hashtags=["x"])
        assert is_single_engagement(clean, kw)
        assert not is_single_engagement(tagged, kw)

    def test_monotone_under_added_engagement(self, tag_keyword):
        rng = random.Random(7)
        for _ in range(50):
            base = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"])
            assert is_single_engagement(base, tag_keyword)
            spoiled = [
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], mentions=[rng.randint(1, 9)]),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], urls=1),
                make_tweet(1, 1, base.text + " #z", 0, hashtags=["tag", "z"]),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], is_retweet=True),
                make_tweet(1, 1, base.text, 0, hashtags=["tag"], is_reply=True),
            ]
            assert not any(is_single_engagement(s, tag_keyword) for s in spoiled)


class TestFlagsAndStats:
    def test_tweet_flags(self, tag_keyword):
        tweet = make_tweet(1, 1, "yarım gün #tag", 0, hashtags=["tag"])
        assert tweet_flags(tweet, tag_keyword) == LEXICON | SINGLE_ENGAGEMENT
        retweet = make_tweet(2, 1, "RT @a: yarım gün #tag", 0, hashtags=["tag"], is_retweet=True)
        assert tweet_flags(retweet, tag_keyword) == RETWEET

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
                [tweet_flags(t, tag_keyword, "tr") for t in tweets] == [LEXICON | SINGLE_ENGAGEMENT, 0]
            assert flags[other](tweets[0]) == tweet_flags(tweets[0], other, "tr")


def reference_is_lexicon(text, keyword, locale, alphabet=TURKISH_ALPHABET):
    """The lexicon rule as written before flags stripped each text once."""
    stripped = strip_keyword_and_emoji(text, keyword, locale)
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
    flags = tweet_flags(tweet, keyword, locale)
    assert flags == ((LEXICON if is_lexicon_tweet(text, keyword, locale) else 0)
                     | (SINGLE_ENGAGEMENT if is_single_engagement(tweet, keyword, locale) else 0))
    assert bool(flags & LEXICON) == reference_is_lexicon(text, keyword, locale)
    assert is_lexicon_tweet(text, None, locale) == reference_is_lexicon(text, None, locale)


def test_folding_makes_no_whitespace_and_whitespace_ends_a_final_sigma():
    """Every code point: its fold holds whitespace iff it is whitespace, and
    a whitespace character folds to itself. No whitespace character is
    cased or case-ignorable: a capital sigma after a cased letter stays
    final before it and is not final after it. So a text's folded tokens
    are its tokens' folds, which strip_keyword_and_emoji relies on."""
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
    assert strip_keyword_and_emoji(text, keyword, locale) == \
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
    """is_lexicon_tweet rejects a hashtag keyword's text that holds a
    foreign ASCII character before stripping it; the rule as it was, which
    always strips first (tests/oracles.py), gives the same answer."""
    text = separator.join(words)
    keyword = normalize_keyword(raw_keyword, locale)
    assert is_lexicon_tweet(text, keyword, locale) == oracles.is_lexicon_tweet(text, keyword, locale)
