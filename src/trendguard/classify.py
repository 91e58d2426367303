"""
Per-tweet content classifiers: generated "lexicon" tweets and
single-engagement tweets.

A lexicon tweet is recognized purely from its text once the target keyword
and emoji are stripped: only alphabetic characters (plus spaces and
disambiguation parentheses), a non-uppercase start, and 2-9 tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import DEFAULT_LOCALE, HASHTAG, Keyword, fold_case
from .ingest import TrendInstance, Tweet, _clean_token, text_tokens

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


@dataclass(frozen=True, slots=True)
class TweetFlags:
    """Deterministic per-tweet classification flags for a given keyword."""

    is_lexicon: bool
    is_single_engagement: bool


def strip_keyword_and_emoji(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> str:
    """Remove all emoji and every occurrence of the keyword that the join
    matches; collapse whitespace. A hashtag goes after the emoji, as the
    join reads '#foo' followed by an emoji as '#foo'; an n-gram goes before
    them, as the join reads 'foo', an emoji and 'bar' written together as
    one token: it goes as a run of the text's whitespace tokens, cleaned as
    text_tokens cleans them, with any punctuation-only tokens inside.

    The text is folded once and split, not token by token: folding makes
    and removes no whitespace, and whitespace is neither cased nor
    case-ignorable, so it ends a final sigma's context as a token's edge
    does. The folded text's tokens are thus the folds of its tokens."""
    if keyword is None or keyword.kind == HASHTAG:
        text = _EMOJI_RE.sub(" ", text)
        tokens = text.split()
        if keyword is None:
            return " ".join(tokens)
        forms = {keyword.normalized, "#" + keyword.normalized}
        kept = [t for t, folded in zip(tokens, fold_case(text, locale).split())
                if folded not in forms]
        return " ".join(kept)

    tokens = text.split()
    ngram = text_tokens(keyword.normalized, locale)
    n = len(ngram)
    words = [(i, w) for i, folded in enumerate(fold_case(text, locale).split())
             if (w := _clean_token(folded))]
    dropped: set[int] = set()
    k = 0
    while n and k + n <= len(words):
        if [w for _, w in words[k : k + n]] == ngram:
            dropped.update(range(words[k][0], words[k + n - 1][0] + 1))
            k += n
        else:
            k += 1
    kept = " ".join(t for i, t in enumerate(tokens) if i not in dropped)
    return " ".join(_EMOJI_RE.sub(" ", kept).split())


def is_lexicon_tweet(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> bool:
    """True when the text, keyword and emoji removed, looks generated:

    every character alphabetic (or space / parenthesis), first character not
    uppercase, and 2-9 whitespace tokens.
    """
    stripped = strip_keyword_and_emoji(text, keyword, locale)
    return (2 <= len(stripped.split()) <= 9 and not stripped[0].isupper()
            and _LEXICON_CHARS.issuperset(stripped))


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


# The four flag values, built once and shared by every tweet that has them.
_FLAGS = {(lexicon, single): TweetFlags(lexicon, single)
          for lexicon in (False, True) for single in (False, True)}


def compute_flags(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> TweetFlags:
    return _FLAGS[is_lexicon_tweet(tweet.text, keyword, locale),
                  is_single_engagement(tweet, keyword, locale)]


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

