"""
Shared primitives used across the pipeline: the time helpers and
normalized keywords.

An instant is an int of epoch milliseconds (names end in ``_ms``); a span
is an int of whole seconds (names end in ``_s``), computed by ``span_s``.
Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

# Reporting timezone offset in seconds (UTC+3, Turkey time). Day boundaries
# and hour-of-day statistics default to this unless overridden.
DEFAULT_TZ_OFFSET = 3 * 3600

DEFAULT_LOCALE = "tr"

# Names the CLI offers as choices before it loads the layers that use them:
# detector.PRESET_FORMULAS is keyed by PRESETS, in this order, and
# graph.build_graph takes one of the EDGE_PREDICATES.
PRESETS = ("lexicon-tree", "lexicon-tree-strict", "lexicon-agnostic-tree", "ratio-only")
UNDELETED = "undeleted"
DELETED_LEXICON = "deleted-lexicon"
EDGE_PREDICATES = (UNDELETED, DELETED_LEXICON)


class TrendGuardError(Exception):
    """Base class for all errors raised by this package."""


class EmptyKeyword(TrendGuardError):
    """Raised when a keyword is empty after trimming."""


def span_s(later_ms: int, earlier_ms: int) -> int:
    """The whole seconds from one instant to another: the difference of their
    whole seconds, so 10.900 to 70.100 is 60 s, as is 10.100 to 70.900.

    Every duration the pipeline reports or tests (lifetimes, windows, gaps)
    is such a span; milliseconds only order instants and break ties.
    """
    return later_ms // 1000 - earlier_ms // 1000


def local_day(ms: int, tz_offset: int = DEFAULT_TZ_OFFSET) -> int:
    """Days since the epoch of the local calendar day containing the instant."""
    return (ms // 1000 + tz_offset) // 86400


def local_hour(ms: int, tz_offset: int = DEFAULT_TZ_OFFSET) -> int:
    return ((ms // 1000 + tz_offset) // 3600) % 24


HASHTAG = "hashtag"
NGRAM = "ngram"

# The bits of a joined tweet's flag byte (see classify.flags_for_instance).
LEXICON = 1
SINGLE_ENGAGEMENT = 2
RETWEET = 4


@dataclass(frozen=True, slots=True)
class Keyword:
    """A target keyword: raw form, locale-folded normalized form, and kind.

    Hashtag keywords keep the leading '#' in ``raw`` but not in
    ``normalized``. Normalization is idempotent.
    """

    raw: str
    normalized: str
    kind: str  # HASHTAG or NGRAM


def fold_case(text: str, locale: str = DEFAULT_LOCALE) -> str:
    """Lowercase ``text`` using locale rules.

    For Turkish, dotted and dotless I are folded per the locale ('I' -> 'ı',
    'İ' -> 'i'); everything else uses the default Unicode lowering.
    """
    if locale == "tr":
        text = text.replace("İ", "i").replace("I", "ı")
    return text.lower()


def normalize_keyword(raw: str, locale: str = DEFAULT_LOCALE) -> Keyword:
    """Build a Keyword from raw text: trim, strip a leading '#', case-fold.

    Raises EmptyKeyword when the input is empty after trimming.
    """
    trimmed = raw.strip()
    if not trimmed:
        raise EmptyKeyword(f"keyword is empty after trimming: {raw!r}")
    if trimmed.startswith("#"):
        body = trimmed.lstrip("#")
        if not body:
            raise EmptyKeyword(f"hashtag has no body: {raw!r}")
        return Keyword(raw=trimmed, normalized=fold_case(body, locale), kind=HASHTAG)
    return Keyword(raw=trimmed, normalized=fold_case(trimmed, locale), kind=NGRAM)

