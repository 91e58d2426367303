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


def _stripper(keyword: Optional[Keyword], locale: str) -> Callable[[str], list[str]]:
    """The whitespace tokens a text keeps once all emoji and every
    occurrence of ``keyword`` that the join matches are removed, the
    keyword's forms worked out once; with ``keyword`` None, only the emoji
    go. A hashtag goes after the emoji, as the join reads '#foo' followed
    by an emoji as '#foo'; an n-gram goes before them, as the join reads
    'foo', an emoji and 'bar' written together as one token: it goes as a
    run of the text's whitespace tokens, cleaned as text_tokens cleans
    them, with any punctuation-only tokens inside.

    The text is folded once and split, not token by token: folding makes
    and removes no whitespace, and whitespace is neither cased nor
    case-ignorable, so it ends a final sigma's context as a token's edge
    does. The folded text's tokens are thus the folds of its tokens."""
    if keyword is None:
        return lambda text: _EMOJI_RE.sub(" ", text).split()
    if keyword.kind == HASHTAG:
        forms = {keyword.normalized, "#" + keyword.normalized}

        def strip_hashtag(text: str) -> list[str]:
            text = _EMOJI_RE.sub(" ", text)
            return [t for t, folded in zip(text.split(), fold_case(text, locale).split())
                    if folded not in forms]
        return strip_hashtag

    ngram = text_tokens(keyword.normalized, locale)
    n = len(ngram)

    def strip_ngram(text: str) -> list[str]:
        tokens = text.split()
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
        return _EMOJI_RE.sub(" ", kept).split()
    return strip_ngram


# An ASCII character that is no letter, digit, '_', parenthesis, whitespace
# or '#'. A hashtag keyword seldom holds one: hashtags are letters, digits
# and '_'.
_FOREIGN_ASCII = re.compile(
    "[" + "".join(f"\\x{i:02x}" for i in range(128)
                  if not (chr(i).isalnum() or chr(i) in "_()#" or chr(i).isspace())) + "]"
).search


def _lexicon_test(keyword: Optional[Keyword], locale: str) -> Callable[[str], bool]:
    """Whether a text joined to ``keyword`` (or, None, bare text) looks
    generated once the keyword and emoji are stripped: every character
    alphabetic (or space / parenthesis), first character not uppercase, and
    2-9 whitespace tokens. The stripper, and whether texts take the early
    reject, are worked out once.

    For a hashtag keyword whose normalized form holds no _FOREIGN_ASCII
    character, a text holding one is rejected before anything is stripped.
    Such a character c survives stripping: the emoji class holds no ASCII
    character, and a token goes only when its fold is the keyword or
    '#' + the keyword, while folding maps c to itself (it is no letter),
    so the fold of a token holding c holds c. Neither form holds c, as c is
    not '#' and the keyword holds no _FOREIGN_ASCII character. The stripped
    text keeps that token, and c is not among the allowed characters, as
    whitespace never survives the split. N-gram keywords skip this test,
    because the runs they remove can hold punctuation."""
    strip = _stripper(keyword, locale)
    early = (keyword is not None and keyword.kind == HASHTAG
             and not _FOREIGN_ASCII(keyword.normalized))

    def is_lexicon(text: str) -> bool:
        if early and _FOREIGN_ASCII(text):
            return False
        tokens = strip(text)
        return (2 <= len(tokens) <= 9 and not tokens[0][0].isupper()
                and _LEXICON_CHARS.issuperset("".join(tokens)))
    return is_lexicon


def _flag_function(keyword: Keyword, locale: str) -> Callable[[Tweet], int]:
    """The flag byte of a tweet joined to a trend-day of ``keyword``, its
    lexicon test worked out once: the core.LEXICON, SINGLE_ENGAGEMENT and
    RETWEET bits.

    A single-engagement tweet engages nothing but the target keyword: no
    retweet, no reply, no mentions, no urls, and no hashtag other than the
    target (n-gram targets admit no hashtags at all)."""
    is_lexicon = _lexicon_test(keyword, locale)
    normalized = keyword.normalized
    hashtag = keyword.kind == HASHTAG

    def flag(tweet) -> int:
        bits = LEXICON if is_lexicon(tweet.text) else 0
        if tweet.is_retweet:
            return bits | RETWEET
        if tweet.is_reply or tweet.mentions or tweet.urls:
            return bits
        # Single engagement: no hashtag but the keyword (none for an n-gram).
        for tag in tweet.hashtags:
            if not hashtag or fold_case(tag, locale) != normalized:
                return bits
        return bits | SINGLE_ENGAGEMENT
    return flag


class _Flagger(dict):
    """The flag function of each keyword looked up, made on first use. It
    pickles as its locale alone, as its functions are closures: a pool's
    job gets an empty flagger, which makes them anew."""

    def __init__(self, locale: str):
        super().__init__()
        self.locale = locale

    def __missing__(self, keyword: Keyword) -> Callable[[Tweet], int]:
        flag = self[keyword] = _flag_function(keyword, self.locale)
        return flag

    def __reduce__(self):
        return _Flagger, (self.locale,)


def flags_for_instance(locale: str = DEFAULT_LOCALE) -> dict[Keyword, Callable[[Tweet], int]]:
    """The flagger a join takes (``ingest.build_trend_instances`` and
    ``build_instances_from_files``): it maps each trend-day's keyword to the
    function giving the flag byte of a tweet joined to it, made when the
    keyword is first looked up. It is empty when returned, and pickles,
    empty, into a process pool's jobs."""
    return _Flagger(locale)
