"""
Per-tweet content classifiers: generated "lexicon" tweets and
single-engagement tweets, and the flag byte the join stores for each
(tweet, trend-day) pair.

A lexicon tweet is recognized purely from its text once the target keyword
and emoji are stripped: only alphabetic characters (plus spaces and
disambiguation parentheses), a non-uppercase start, and 2-9 tokens.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Optional

from .core import (
    DEFAULT_LOCALE,
    HASHTAG,
    LEXICON,
    RETWEET,
    SINGLE_ENGAGEMENT,
    Keyword,
    fold_case,
)
from .ingest import Tweet, _clean_token, text_tokens

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


# An ASCII character that is no letter, digit, '_', parenthesis, whitespace
# or '#'. A hashtag keyword seldom holds one: hashtags are letters, digits
# and '_'.
_FOREIGN_ASCII = re.compile(
    "[" + "".join(f"\\x{i:02x}" for i in range(128)
                  if not (chr(i).isalnum() or chr(i) in "_()#" or chr(i).isspace())) + "]"
).search


def is_lexicon_tweet(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> bool:
    """True when the text, keyword and emoji removed, looks generated:

    every character alphabetic (or space / parenthesis), first character not
    uppercase, and 2-9 whitespace tokens.

    For a hashtag keyword whose normalized form holds no _FOREIGN_ASCII
    character, a text holding one is rejected before anything is stripped.
    Such a character c survives stripping: the emoji class holds no ASCII
    character, and a token goes only when its fold is the keyword or
    '#' + the keyword, while folding maps c to itself (it is no letter),
    so the fold of a token holding c holds c. Neither form holds c, as c is
    not '#' and the keyword holds no _FOREIGN_ASCII character. The stripped
    text keeps that token, and c is not among the allowed characters, as
    whitespace never survives the split. N-gram keywords skip this test,
    because the runs they remove can hold punctuation.
    """
    if (keyword is not None and keyword.kind == HASHTAG and _FOREIGN_ASCII(text)
            and not _FOREIGN_ASCII(keyword.normalized)):
        return False
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


def tweet_flags(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> int:
    """The flag byte of a tweet joined to a trend-day of ``keyword``: the
    core.LEXICON, SINGLE_ENGAGEMENT and RETWEET bits."""
    return ((LEXICON if is_lexicon_tweet(tweet.text, keyword, locale) else 0)
            | (SINGLE_ENGAGEMENT if is_single_engagement(tweet, keyword, locale) else 0)
            | (RETWEET if tweet.is_retweet else 0))


class _Flagger(dict):
    """tweet_flags for each keyword looked up, made on first use; it
    pickles with its locale, so a pool's jobs can carry it."""

    def __init__(self, locale: str):
        super().__init__()
        self.locale = locale

    def __missing__(self, keyword: Keyword) -> Callable[[Tweet], int]:
        flag = self[keyword] = partial(tweet_flags, keyword=keyword, locale=self.locale)
        return flag


def flags_for_instance(locale: str = DEFAULT_LOCALE) -> dict[Keyword, Callable[[Tweet], int]]:
    """The flagger a join takes (``ingest.build_trend_instances`` and
    ``build_instances_from_files``): it maps each trend-day's keyword to the
    function giving the flag byte of a tweet joined to it."""
    return _Flagger(locale)
