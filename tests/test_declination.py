import pytest
from hypothesis import given, strategies as st

from qiblanav import (
    AzimuthDeg,
    DeclinationDeg,
    DeclinationGrid,
    GeoCoordinate,
    declination_at,
    load_grid,
    parse_grid,
    to_true_heading,
)
from qiblanav.errors import InvalidAngle, OutOfCoverage, ParseError

# 2x2-cell grid, lat 0..2 step 1, lon 10..12 step 1.
GRID = DeclinationGrid(
    lat_min=0.0, lat_max=2.0, lat_step=1.0,
    lon_min=10.0, lon_max=12.0, lon_step=1.0,
    values=(
        (1.0, 2.0, 3.0),
        (3.0, 4.0, 5.0),
        (5.0, 6.0, 7.0),
    ),
)

# Hand-evaluated bilinear value at offsets (u, v) = (0.25, 0.75) in the cell
# with corners c00=2, c01=4, c10=1, c11=3:
#   0.75*(0.25*2 + 0.75*4) + 0.25*(0.25*1 + 0.75*3) = 3.25
HAND_GRID = DeclinationGrid(
    lat_min=0.0, lat_max=1.0, lat_step=1.0,
    lon_min=0.0, lon_max=1.0, lon_step=1.0,
    values=((2.0, 4.0), (1.0, 3.0)),
)
HAND_BILINEAR_VALUE = 3.25


class TestDeclinationAt:
    def test_node_identity(self):
        for i, lat in enumerate((0.0, 1.0, 2.0)):
            for j, lon in enumerate((10.0, 11.0, 12.0)):
                got = declination_at(GRID, GeoCoordinate(lat, lon))
                assert float(got) == GRID.values[i][j]

    def test_cell_center_is_corner_mean(self):
        got = declination_at(GRID, GeoCoordinate(0.5, 10.5))
        assert float(got) == pytest.approx((1.0 + 2.0 + 3.0 + 4.0) / 4.0, abs=1e-12)

    def test_hand_evaluated_fractional_offsets(self):
        got = declination_at(HAND_GRID, GeoCoordinate(0.25, 0.75))
        assert float(got) == pytest.approx(HAND_BILINEAR_VALUE, abs=1e-12)

    def test_out_of_coverage(self):
        with pytest.raises(OutOfCoverage):
            declination_at(GRID, GeoCoordinate(-0.1, 11.0))
        with pytest.raises(OutOfCoverage):
            declination_at(GRID, GeoCoordinate(1.0, 12.5))

    def test_bounded_by_surrounding_corners(self):
        import random

        rnd = random.Random(5)
        for _ in range(500):
            lat = rnd.uniform(0.0, 2.0)
            lon = rnd.uniform(10.0, 12.0)
            got = float(declination_at(GRID, GeoCoordinate(lat, lon)))
            i = min(int(lat - 0.0), 1)
            j = min(int(lon - 10.0), 1)
            corners = [GRID.values[i][j], GRID.values[i][j + 1],
                       GRID.values[i + 1][j], GRID.values[i + 1][j + 1]]
            assert min(corners) - 1e-12 <= got <= max(corners) + 1e-12

    def test_continuity(self):
        a = float(declination_at(GRID, GeoCoordinate(0.7, 11.3)))
        b = float(declination_at(GRID, GeoCoordinate(0.7 + 1e-9, 11.3 + 1e-9)))
        assert abs(a - b) < 1e-6


class TestAntimeridian:
    # lon 170..190 in steps of 10: the middle column sits on the antimeridian.
    GRID = parse_grid("declgrid v1 0 1 1 170 190 10\n1 2 3\n4 5 6\n")

    @pytest.mark.parametrize("lon,expected", [(175.0, 1.5), (180.0, 2.0), (-175.0, 2.5)])
    def test_inside(self, lon, expected):
        assert float(declination_at(self.GRID, GeoCoordinate(0.0, lon))) == pytest.approx(expected)

    def test_outside(self):
        with pytest.raises(OutOfCoverage):
            declination_at(self.GRID, GeoCoordinate(0.0, 195.0))


class TestToTrueHeading:
    @pytest.mark.parametrize(
        "magnetic,decl,expected",
        [(100.0, 1.5, 101.5), (359.5, 1.0, 0.5), (42.0, 0.0, 42.0)],
    )
    def test_examples(self, magnetic, decl, expected):
        got = to_true_heading(AzimuthDeg(magnetic), DeclinationDeg(decl))
        assert float(got) == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=359.999999, allow_nan=False),
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    )
    def test_round_trip(self, heading, decl):
        h = AzimuthDeg(heading)
        d = DeclinationDeg(decl)
        back = to_true_heading(to_true_heading(h, d), DeclinationDeg(-float(d)))
        diff = abs(float(back) - float(h)) % 360.0
        assert min(diff, 360.0 - diff) < 1e-12


class TestDeclinationDeg:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidAngle):
            DeclinationDeg(90.5)
        with pytest.raises(InvalidAngle):
            DeclinationDeg(float("nan"))


class TestGridParsing:
    def test_happy_path(self):
        text = "declgrid v1 0 2 1 10 12 1\n1 2 3\n3 4 5\n5 6 7\n"
        grid = parse_grid(text)
        assert grid.values == GRID.values
        assert grid.n_lat == 3 and grid.n_lon == 3

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("declination 0 2 1 10 12 1\n1 2 3\n")
        assert exc.value.line == 1

    def test_non_numeric_value_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("declgrid v1 0 2 1 10 12 1\n1 2 3\n3 x 5\n5 6 7\n")
        assert exc.value.line == 3

    def test_wrong_row_length_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("declgrid v1 0 2 1 10 12 1\n1 2 3\n3 4\n5 6 7\n")
        assert exc.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_grid("declgrid v1 0 2 1 10 12 1\n1 2 3\n3 4 5\n")

    def test_value_out_of_range_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("declgrid v1 0 2 1 10 12 1\n1 2 3\n3 95 5\n5 6 7\n")
        assert exc.value.line == 3

    def test_grid_invariants_direct_construction(self):
        with pytest.raises(ValueError):
            DeclinationGrid(0, 2, 0.0, 10, 12, 1, GRID.values)
        with pytest.raises(ValueError):
            DeclinationGrid(0, 2, 1, 10, 12, 1, GRID.values[:2])
        for row in ((1.0, 2.0), (1.0, float("nan"), 3.0), (1.0, 91.0, 3.0)):
            with pytest.raises(ValueError, match="row 2"):
                DeclinationGrid(0, 2, 1, 10, 12, 1, (*GRID.values[:2], row))

    def test_load_checked_in_grid(self, data_dir):
        grid = load_grid(str(data_dir / "declination_grid.txt"))
        bandung = GeoCoordinate(-6.9147, 107.6098)
        value = float(declination_at(grid, bandung))
        assert -90.0 <= value <= 90.0
        # Node check against the file contents: lat -15, lon 90 stores 0.2.
        assert float(declination_at(grid, GeoCoordinate(-15.0, 90.0))) == 0.2
