"""
Per-tweet content classifiers: generated "lexicon" tweets and
single-engagement tweets, plus the corpus-level lexicon statistics table.

A lexicon tweet is recognized purely from its text once the target keyword
and emoji are stripped: only alphabetic characters (plus spaces and
disambiguation parentheses), a non-uppercase start, and 2-9 tokens.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import DEFAULT_LOCALE, HASHTAG, Keyword, TrendGuardError, fold_case
from .ingest import TrendInstance, Tweet

# Letters accepted by the lexicon rule: ASCII plus the Turkish alphabet
# (including circumflexed vowels seen in loanwords).
TURKISH_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "çğıöşüÇĞİÖŞÜâîûÂÎÛ"
)
_LEXICON_CHARS = frozenset(TURKISH_ALPHABET + " ()")

_EMOJI_RE = re.compile(
    "["
    "\U0001F000-\U0001FAFF"  # pictographs, emoticons, transport, symbols
    "☀-➿"          # misc symbols and dingbats
    "⬀-⯿"          # arrows and geometric shapes used as emoji
    "︀-️"          # variation selectors
    "‍"                 # zero-width joiner
    "⃣"                 # combining enclosing keycap
    "]+"
)


class EmptyCorpus(TrendGuardError):
    """lexicon_stats was called with no tweets at all."""


@dataclass(frozen=True, slots=True)
class TweetFlags:
    """Deterministic per-tweet classification flags for a given keyword."""

    is_lexicon: bool
    is_single_engagement: bool
    token_count: int


def _keyword_token_forms(keyword: Keyword) -> set[str]:
    if keyword.kind == HASHTAG:
        return {keyword.normalized, "#" + keyword.normalized}
    return set()


def strip_keyword_and_emoji(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> str:
    """Remove every occurrence of the keyword token and all emoji; collapse whitespace."""
    cleaned = _EMOJI_RE.sub(" ", text)
    tokens = cleaned.split()
    if keyword is None:
        return " ".join(tokens)

    if keyword.kind == HASHTAG:
        forms = _keyword_token_forms(keyword)
        kept = [t for t in tokens if fold_case(t, locale) not in forms]
        return " ".join(kept)

    ngram = keyword.normalized.split()
    n = len(ngram)
    folded = [fold_case(t, locale) for t in tokens]
    kept = []
    i = 0
    while i < len(tokens):
        if folded[i] == ngram[0] and folded[i : i + n] == ngram:
            i += n
            continue
        kept.append(tokens[i])
        i += 1
    return " ".join(kept)


def _lexicon_and_tokens(
    text: str, keyword: Optional[Keyword], locale: str, allowed: frozenset[str] = _LEXICON_CHARS
) -> tuple[bool, int]:
    """(is lexicon, token count) of the text from one strip of keyword and emoji."""
    stripped = strip_keyword_and_emoji(text, keyword, locale)
    n_tokens = len(stripped.split())
    lexicon = 2 <= n_tokens <= 9 and not stripped[0].isupper() and allowed.issuperset(stripped)
    return lexicon, n_tokens


def is_lexicon_tweet(
    text: str,
    keyword: Optional[Keyword] = None,
    locale: str = DEFAULT_LOCALE,
    alphabet: str = TURKISH_ALPHABET,
) -> bool:
    """True when the text, keyword and emoji removed, looks generated:

    every character alphabetic (or space / parenthesis), first character not
    uppercase, and 2-9 whitespace tokens.
    """
    return _lexicon_and_tokens(text, keyword, locale, frozenset(alphabet + " ()"))[0]


def lexicon_token_count(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> int:
    return _lexicon_and_tokens(text, keyword, locale)[1]


def is_single_engagement(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> bool:
    """True when the tweet engages nothing but the target keyword.

    No retweet, no reply, no mentions, no urls, and no hashtag other than
    the target (n-gram targets admit no hashtags at all).
    """
    if tweet.is_retweet or tweet.is_reply or tweet.mentions or tweet.urls:
        return False
    tags = {fold_case(tag, locale) for tag in tweet.hashtags}
    if keyword.kind == HASHTAG:
        return tags <= {keyword.normalized}
    return not tags


def compute_flags(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> TweetFlags:
    lexicon, n_tokens = _lexicon_and_tokens(tweet.text, keyword, locale)
    return TweetFlags(
        is_lexicon=lexicon,
        is_single_engagement=is_single_engagement(tweet, keyword, locale),
        token_count=n_tokens,
    )


def flags_for_instance(
    instance: TrendInstance,
    locale: str = DEFAULT_LOCALE,
    tweets: Optional[Iterable[Tweet]] = None,
) -> dict[int, TweetFlags]:
    """Flags keyed by tweet id for ``tweets`` of the instance (default: all of them)."""
    keyword = instance.keyword
    if tweets is None:
        tweets = instance.tweets
    return {t.id: compute_flags(t, keyword, locale) for t in tweets}


# ---------------------------------------------------------------------------
# Corpus-level lexicon statistics
# ---------------------------------------------------------------------------

STATS_ROWS = (
    "all_tweets",
    "deleted_tweets",
    "deleted_lexicon_tweets",
    "all_lexicon_tweets",
    "deleted_lex_over_all_lex",
    "deleted_lex_over_all_deleted",
)


@dataclass
class StatsTable:
    """Counts and deletion/lexicon ratios, trend-associated vs other tweets."""

    trend_all: int = 0
    trend_deleted: int = 0
    trend_deleted_lexicon: int = 0
    trend_lexicon: int = 0
    other_all: int = 0
    other_deleted: int = 0
    other_deleted_lexicon: int = 0
    other_lexicon: int = 0

    @staticmethod
    def _ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            ("all_tweets", self.trend_all, self.other_all),
            ("deleted_tweets", self.trend_deleted, self.other_deleted),
            ("deleted_lexicon_tweets", self.trend_deleted_lexicon, self.other_deleted_lexicon),
            ("all_lexicon_tweets", self.trend_lexicon, self.other_lexicon),
            (
                "deleted_lex_over_all_lex",
                self._ratio(self.trend_deleted_lexicon, self.trend_lexicon),
                self._ratio(self.other_deleted_lexicon, self.other_lexicon),
            ),
            (
                "deleted_lex_over_all_deleted",
                self._ratio(self.trend_deleted_lexicon, self.trend_deleted),
                self._ratio(self.other_deleted_lexicon, self.other_deleted),
            ),
        ]

    def write_csv(self, handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["statistic", "trend_tweets", "other_tweets"])
        for label, trend_value, other_value in self.rows():
            writer.writerow([label, trend_value, other_value])


def lexicon_stats(
    instances: Iterable[TrendInstance],
    background: Iterable[tuple[Tweet, bool]] = (),
    locale: str = DEFAULT_LOCALE,
) -> StatsTable:
    """Tabulate lexicon/deletion counts for trend-associated vs other tweets.

    ``background`` supplies (tweet, deleted) pairs with no associated trend;
    their lexicon flag is computed with only emoji stripped.
    """
    table = StatsTable()
    saw_any = False
    for instance in instances:
        keyword = instance.keyword
        for tweet in instance.tweets:
            saw_any = True
            deleted = tweet.id in instance.deletions
            lexicon = is_lexicon_tweet(tweet.text, keyword, locale)
            table.trend_all += 1
            table.trend_deleted += deleted
            table.trend_lexicon += lexicon
            table.trend_deleted_lexicon += deleted and lexicon
    for tweet, deleted in background:
        saw_any = True
        lexicon = is_lexicon_tweet(tweet.text, None, locale)
        table.other_all += 1
        table.other_deleted += deleted
        table.other_lexicon += lexicon
        table.other_deleted_lexicon += deleted and lexicon
    if not saw_any:
        raise EmptyCorpus("no tweets in either collection")
    return table
