import random

import pytest

from trendguard.core import EmptyKeyword, fold_case, normalize_keyword


class TestKeyword:
    def test_ascii_hashtag(self):
        kw = normalize_keyword("#TAG", "tr")
        assert kw.normalized == "tag"
        assert kw.kind == "hashtag"
        assert kw.raw == "#TAG"

    def test_turkish_dotted_i(self):
        assert normalize_keyword("#İstanbul", "tr").normalized == "istanbul"
        assert normalize_keyword("Irmak", "tr").normalized == "ırmak"

    def test_ngram(self):
        kw = normalize_keyword("YSK'dan CHP", "tr")
        assert kw.normalized == "ysk'dan chp"
        assert kw.kind == "ngram"

    def test_empty_raises(self):
        with pytest.raises(EmptyKeyword):
            normalize_keyword("   ", "tr")
        with pytest.raises(EmptyKeyword):
            normalize_keyword("#", "tr")

    def test_idempotent(self):
        rng = random.Random(5)
        samples = ["#TAG", "#İstanbul", "YSK'dan CHP", "Başarı HİKAYESİ", "#çılgın"]
        for _ in range(50):
            samples.append("".join(rng.choice("abcČİIıŞğü#") for _ in range(6)) or "x")
        for raw in samples:
            try:
                kw = normalize_keyword(raw, "tr")
            except EmptyKeyword:
                continue
            again = normalize_keyword(kw.normalized, "tr")
            assert again.normalized == kw.normalized

    def test_fold_case_locales(self):
        assert fold_case("II", "tr") == "ıı"
        assert fold_case("II", "en") == "ii"

