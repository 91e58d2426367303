import math
import random

import pytest

from trendguard.core import (
    EmptyKeyword,
    GeoPoint,
    fold_case,
    haversine_km,
    normalize_keyword,
)


def oracle_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Independent check via the spherical law of cosines."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    cos_angle = (
        math.sin(lat1) * math.sin(lat2)
        + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    )
    return 6371.0 * math.acos(max(-1.0, min(1.0, cos_angle)))


class TestHaversine:
    def test_identical_points(self):
        p = GeoPoint(41.01, 28.98)
        assert haversine_km(p, p) == 0.0

    def test_antipodal_equator(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
            math.pi * 6371.0, abs=0.1
        )

    def test_istanbul_ankara(self):
        ist = GeoPoint(41.01, 28.98)
        ank = GeoPoint(39.93, 32.86)
        assert haversine_km(ist, ank) == pytest.approx(oracle_distance_km(ist, ank), abs=0.5)
        assert haversine_km(ist, ank) == pytest.approx(351, abs=5)

    def test_symmetry_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_km(a, b) == haversine_km(b, a)
            assert haversine_km(a, b) == pytest.approx(oracle_distance_km(a, b), abs=0.5)
            assert haversine_km(a, b) >= 0.0

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(91, 0)
        with pytest.raises(ValueError):
            GeoPoint(0, -181)


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

