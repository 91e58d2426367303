"""The date and instant forms that the package reads, and the ones it
refuses, each meaning the same on every supported Python (3.10 on), though
date.fromisoformat and datetime.fromisoformat read more forms from 3.11 on.

tests/test_ingest.py runs these cases under pytest. On an interpreter
without pytest, run them as a script from the repository root:

    PYTHONPATH=src python tests/date_forms.py
"""

import io
import sys
from datetime import date

from trendguard.ingest import BadRow, BadTimestamp, _parse_iso_ms, load_trend_days, parse_date

# A date's text and the date it names, or None where it is refused.
DATES = {
    "2019-06-18": date(2019, 6, 18),
    "0001-01-01": date(1, 1, 1),
    "20190618": None,            # read by 3.11+ only
    "2019-W25-3": None,          # read by 3.11+ only
    "2019-W25": None,
    "2019-6-18": None,
    "2019-06-18T00:00": None,
    "２０１９-06-18": None,       # digits beyond ASCII
    "2019-02-30": None,
    "": None,
}

# A trend snapshot's captured_at and its epoch ms, or None where it is refused.
INSTANTS = {
    "2019-06-18T09:00:00Z": 1560848400000,
    "2019-06-18 09:00:00Z": 1560848400000,
    "2019-06-18T09:00Z": 1560848400000,
    "2019-06-18T09Z": 1560848400000,
    "2019-06-18T09:00:00": 1560848400000,
    "2019-06-18": 1560816000000,
    "2019-06-18T12:00:00+03:00": 1560848400000,
    "2019-06-18T09:00:00.123Z": 1560848400000,
    "2019-06-18T09:00:00.999999Z": 1560848400000,
    "2019-06-18T12:00:30+03:00:30": 1560848400000,
    "2019-06-18T12:00:30+03:00:30.000001": 1560848399000,
    "20190618T090000Z": None,    # read by 3.11+ only
    "2019-W25-3T09:00Z": None,   # read by 3.11+ only
    "2019-06-18T0900Z": None,    # read by 3.11+ only
    "2019-06-18T09:00:00+0300": None,
    "2019-06-18T09:00:00+03": None,
    "2019-06-18T09:00:00.5Z": None,
    "2019-06-18T09:00:00.1234Z": None,
    "2019-06-18T09:00:00,123Z": None,
    "2019-06-18x09:00Z": None,   # fromisoformat takes any separator
    "2019-06-18Z": None,
    "2019-06-18T24:00Z": None,
    "not-a-time": None,
}


def check_date(text: str, expected) -> None:
    """parse_date and load_trend_days read ``text`` as ``expected``, or
    both refuse it, load_trend_days naming the file and line."""
    rows = io.StringIO(f"date,keyword\n{text},#tag\n")
    if expected is not None:
        assert parse_date(text) == expected
        assert load_trend_days(rows)[0].date == expected
        return
    try:
        parse_date(text)
    except ValueError:
        pass
    else:
        raise AssertionError(f"parse_date read {text!r}")
    try:
        load_trend_days(rows)
    except BadRow as exc:
        assert str(exc).startswith("<input>:2: "), exc
    else:
        raise AssertionError(f"load_trend_days read {text!r}")


def check_instant(text: str, expected) -> None:
    """_parse_iso_ms reads ``text`` as ``expected`` ms, or refuses it as a
    BadTimestamp."""
    if expected is not None:
        assert _parse_iso_ms(text) == expected, (text, _parse_iso_ms(text))
        return
    try:
        _parse_iso_ms(text)
    except BadTimestamp:
        pass
    else:
        raise AssertionError(f"_parse_iso_ms read {text!r}")


if __name__ == "__main__":
    for text, expected in DATES.items():
        check_date(text, expected)
    for text, expected in INSTANTS.items():
        check_instant(text, expected)
    print(f"Python {sys.version.split()[0]}: {len(DATES)} dates and "
          f"{len(INSTANTS)} instants read as expected")
