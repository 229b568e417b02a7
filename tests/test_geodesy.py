import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qiblanav import (
    EARTH_RADIUS_KM,
    KAABA,
    AzimuthDeg,
    DistanceKm,
    GeoCoordinate,
    angular_separation,
    haversine_distance,
    initial_bearing,
    qibla_azimuth,
    slc_distance,
)
from qiblanav.errors import AntipodalPoints, DegeneratePoints, InvalidAngle, InvalidCoordinate

from oracles import circular_abs_diff, vector_angle_distance_km, walk_bearing

BANDUNG = GeoCoordinate(-6.9147, 107.6098)

# Frozen from the small-step great-circle walk oracle (tests/oracles.py).
BANDUNG_QIBLA_ORACLE = 295.1688328852769
BEARING_50N30W_TO_40N60E_ORACLE = 61.659225580244936

# Frozen from the acos-of-dot-product oracle.
KAABA_BANDUNG_KM_ORACLE = 8029.907430997966


class TestNormalizeAzimuth:
    """AzimuthDeg wraps any finite angle into [0, 360)."""

    @pytest.mark.parametrize("raw,expected", [(-90.0, 270.0), (360.0, 0.0), (725.0, 5.0)])
    def test_examples(self, raw, expected):
        assert float(AzimuthDeg(raw)) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidAngle):
            AzimuthDeg(bad)

    def test_tiny_negative_does_not_round_to_360(self):
        # -1e-18 % 360.0 evaluates to 360.0 in floating point
        assert 0.0 <= float(AzimuthDeg(-1e-18)) < 360.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_closure_and_congruence(self, raw):
        result = float(AzimuthDeg(raw))
        assert 0.0 <= result < 360.0
        remainder = (result - raw) % 360.0
        assert min(remainder, 360.0 - remainder) < 1e-9


class TestDomainTypes:
    def test_azimuth_constructor_normalizes(self):
        assert AzimuthDeg(-90.0) == 270.0
        assert AzimuthDeg(720.0) == 0.0

    def test_distance_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceKm(-1.0)
        with pytest.raises(ValueError):
            DistanceKm(float("nan"))

    def test_earth_model_default_radius(self):
        assert EARTH_RADIUS_KM == 6371.0

    @pytest.mark.parametrize("lat", [-90.0001, 95.0, 200.0])
    def test_latitude_out_of_range_rejected(self, lat):
        with pytest.raises(InvalidCoordinate):
            GeoCoordinate(lat, 0.0)

    @pytest.mark.parametrize(
        "lon,canonical",
        [(190.0, -170.0), (-180.0, 180.0), (180.0, 180.0), (540.0, 180.0), (360.0, 0.0),
         (-1e-300, 0.0)],
    )
    def test_longitude_canonicalized(self, lon, canonical):
        assert GeoCoordinate(0.0, lon).longitude_deg == canonical

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(InvalidCoordinate):
            GeoCoordinate(float("nan"), 0.0)

    def test_kaaba_constant(self):
        assert (KAABA.latitude_deg, KAABA.longitude_deg) == (21.4225, 39.8262)


class TestAngularSeparation:
    def test_coincident_is_exactly_zero(self):
        p = GeoCoordinate(12.34, 56.78)
        assert angular_separation(p, p) == 0.0

    def test_antipodal_is_exactly_180(self):
        assert angular_separation(GeoCoordinate(0, 0), GeoCoordinate(0, 180)) == 180.0

    def test_quarter_arc(self):
        assert angular_separation(GeoCoordinate(0, 0), GeoCoordinate(0, 90)) == pytest.approx(90.0, abs=1e-12)


class TestInitialBearing:
    def test_due_east_along_equator(self):
        assert float(initial_bearing(GeoCoordinate(0, 0), GeoCoordinate(0, 10))) == 90.0

    def test_due_north_along_meridian(self):
        assert float(initial_bearing(GeoCoordinate(0, 0), GeoCoordinate(10, 0))) == 0.0

    def test_frozen_oracle_case(self):
        b = float(initial_bearing(GeoCoordinate(50, -30), GeoCoordinate(40, 60)))
        assert circular_abs_diff(b, BEARING_50N30W_TO_40N60E_ORACLE) < 1e-6

    def test_identical_points_raise(self):
        p = GeoCoordinate(10, 20)
        with pytest.raises(DegeneratePoints):
            initial_bearing(p, p)

    def test_antipodal_points_raise(self):
        with pytest.raises(AntipodalPoints):
            initial_bearing(GeoCoordinate(10, 20), GeoCoordinate(-10, -160))

    def test_matches_walk_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        n = 2000
        lat1 = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        lon1 = rng.uniform(-180, 180, n)
        lat2 = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        lon2 = rng.uniform(-180, 180, n)
        expected = walk_bearing(lat1, lon1, lat2, lon2)
        for i in range(n):
            a = GeoCoordinate(lat1[i], lon1[i])
            b = GeoCoordinate(lat2[i], lon2[i])
            sep = angular_separation(a, b)
            if not 0.1 <= sep <= 179.9:
                continue
            got = float(initial_bearing(a, b))
            assert circular_abs_diff(got, expected[i]) < 1e-6

    def test_longitude_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lat1, lat2 = rng.uniform(-80, 80, 2)
            lon1, lon2 = rng.uniform(-180, 180, 2)
            shift = rng.uniform(-720, 720)
            base = float(initial_bearing(GeoCoordinate(lat1, lon1), GeoCoordinate(lat2, lon2)))
            shifted = float(initial_bearing(
                GeoCoordinate(lat1, lon1 + shift), GeoCoordinate(lat2, lon2 + shift)))
            assert circular_abs_diff(base, shifted) < 1e-9

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lat1, lat2 = rng.uniform(-80, 80, 2)
            d = rng.uniform(0.1, 179.0)
            plus = float(initial_bearing(GeoCoordinate(lat1, 0), GeoCoordinate(lat2, d)))
            minus = float(initial_bearing(GeoCoordinate(lat1, 0), GeoCoordinate(lat2, -d)))
            assert circular_abs_diff(minus, (360.0 - plus) % 360.0) < 1e-9


class TestQiblaAzimuth:
    def test_due_north_on_kaaba_meridian(self):
        assert float(qibla_azimuth(GeoCoordinate(0.0, 39.8262))) == 0.0

    def test_due_south_north_of_kaaba(self):
        assert float(qibla_azimuth(GeoCoordinate(45.0, 39.8262))) == 180.0

    def test_bandung_matches_oracle(self):
        b = float(qibla_azimuth(BANDUNG))
        assert 270.0 < b < 315.0
        assert circular_abs_diff(b, BANDUNG_QIBLA_ORACLE) < 1e-6

    def test_equals_initial_bearing_to_kaaba(self):
        assert qibla_azimuth(BANDUNG) == initial_bearing(BANDUNG, KAABA)

    def test_meridian_exactness_sampled(self):
        for lat in np.linspace(-90.0, 21.42, 40):
            assert float(qibla_azimuth(GeoCoordinate(float(lat), 39.8262))) == 0.0
        for lat in np.linspace(21.43, 90.0, 40):
            assert float(qibla_azimuth(GeoCoordinate(float(lat), 39.8262))) == 180.0

    def test_degenerate_at_kaaba(self):
        with pytest.raises(DegeneratePoints):
            qibla_azimuth(KAABA)

    def test_degenerate_within_epsilon_of_kaaba(self):
        with pytest.raises(DegeneratePoints):
            qibla_azimuth(GeoCoordinate(21.4225 + 4e-10, 39.8262))

    def test_antipodal_to_kaaba(self):
        with pytest.raises(AntipodalPoints):
            qibla_azimuth(GeoCoordinate(-21.4225, -140.1738))

    def test_antipodal_within_epsilon(self):
        with pytest.raises(AntipodalPoints):
            qibla_azimuth(GeoCoordinate(-21.4225 + 4e-10, -140.1738))


class TestDistances:
    def test_coincident_is_zero(self):
        assert float(haversine_distance(KAABA, KAABA)) == 0.0
        assert float(slc_distance(KAABA, KAABA)) == 0.0

    def test_antipodal_half_circumference(self):
        d = float(haversine_distance(GeoCoordinate(0, 0), GeoCoordinate(0, 180)))
        assert d == pytest.approx(math.pi * 6371.0, rel=1e-15)

    def test_quarter_circumference_slc(self):
        d = float(slc_distance(GeoCoordinate(0, 0), GeoCoordinate(0, 90)))
        assert d == pytest.approx(math.pi / 2 * 6371.0, rel=1e-12)

    def test_kaaba_bandung_matches_vector_oracle(self):
        d = float(haversine_distance(KAABA, BANDUNG))
        assert d == pytest.approx(KAABA_BANDUNG_KM_ORACLE, rel=1e-9)
        fresh = vector_angle_distance_km(
            KAABA.latitude_deg, KAABA.longitude_deg, BANDUNG.latitude_deg, BANDUNG.longitude_deg)
        assert d == pytest.approx(fresh, rel=1e-9)

    def test_symmetry(self):
        assert haversine_distance(KAABA, BANDUNG) == haversine_distance(BANDUNG, KAABA)
        assert slc_distance(KAABA, BANDUNG) == slc_distance(BANDUNG, KAABA)

    def test_haversine_slc_crosscheck(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 2000:
            lat1, lat2 = np.degrees(np.arcsin(rng.uniform(-1, 1, 2)))
            lon1, lon2 = rng.uniform(-180, 180, 2)
            a = GeoCoordinate(float(lat1), float(lon1))
            b = GeoCoordinate(float(lat2), float(lon2))
            h = float(haversine_distance(a, b))
            if h < 1.0:
                continue
            s = float(slc_distance(a, b))
            assert abs(h - s) / h < 1e-6
            checked += 1

    def test_never_exceeds_half_circumference(self):
        rng = np.random.default_rng(12)
        bound = math.pi * EARTH_RADIUS_KM
        for _ in range(500):
            lat1, lat2 = np.degrees(np.arcsin(rng.uniform(-1, 1, 2)))
            lon1, lon2 = rng.uniform(-180, 180, 2)
            a = GeoCoordinate(float(lat1), float(lon1))
            b = GeoCoordinate(float(lat2), float(lon2))
            assert 0.0 <= float(haversine_distance(a, b)) <= bound

    def test_equator_antipode_is_half_circumference(self):
        d = float(haversine_distance(GeoCoordinate(0, 0), GeoCoordinate(0, 180)))
        assert d == math.pi * EARTH_RADIUS_KM
