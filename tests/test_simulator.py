import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qiblanav import (
    G,
    MagneticField,
    Scenario,
    TraceFile,
    TruthRecord,
    generate,
    load_scenario,
    parse_scenario,
    truth_heading_at,
    write_trace,
)
from qiblanav.errors import OutOfSpan, ScenarioError

from oracles import circular_abs_diff, rotation_matrix
from scenarios import acceptance_scenario, tumbled_sweep


def constant_scenario(heading=0.0, pitch=0.0, roll=0.0, *, field=MagneticField(40.0),
                      duration_ms=200.0, rate=50.0, **kwargs) -> Scenario:
    return Scenario(
        duration_ms=duration_ms,
        sample_rate_hz=rate,
        heading_deg=((0.0, heading),),
        pitch_deg=((0.0, pitch),),
        roll_deg=((0.0, roll),),
        field=field,
        **kwargs,
    )


class TestGenerate:
    def test_identity_orientation(self):
        samples, truth = generate(constant_scenario())
        for s in samples:
            assert s.mag == pytest.approx((40.0, 0.0, 0.0), abs=1e-12)
            assert s.accel == pytest.approx((0.0, 0.0, -G), abs=1e-12)
        assert all(r.true_heading_deg == 0.0 for r in truth)

    def test_pure_yaw_90(self):
        samples, _ = generate(constant_scenario(heading=90.0))
        for s in samples:
            assert s.mag == pytest.approx((0.0, -40.0, 0.0), abs=1e-9)

    def test_matches_independent_matrix_product(self):
        rng = np.random.default_rng(3)
        field = MagneticField(38.5, inclination_deg=-25.0, declination_deg=1.2)
        m_level = np.array([
            38.5 * np.cos(np.radians(1.2)),
            38.5 * np.sin(np.radians(1.2)),
            38.5 * np.tan(np.radians(-25.0)),
        ])
        f_level = np.array([0.0, 0.0, -G])
        for _ in range(50):
            yaw = rng.uniform(0, 360)
            pitch = rng.uniform(-80, 80)
            roll = rng.uniform(-80, 80)
            samples, _ = generate(constant_scenario(yaw, pitch, roll, field=field,
                                                    duration_ms=20.0))
            r = rotation_matrix(yaw, pitch, roll)
            assert samples[0].accel == pytest.approx(tuple(r.T @ f_level), abs=1e-9)
            assert samples[0].mag == pytest.approx(tuple(r.T @ m_level), abs=1e-9)

    def test_hard_iron_adds_after_rotation(self):
        samples, _ = generate(constant_scenario(hard_iron_ut=(10.0, -5.0, 3.0)))
        assert samples[0].mag == pytest.approx((50.0, -5.0, 3.0), abs=1e-12)

    def test_sample_count_and_spacing(self):
        scenario = constant_scenario(duration_ms=60000.0, rate=50.0)
        samples, truth = generate(scenario)
        assert len(samples) == 3000
        assert len(truth) == 3000
        assert samples[1].t_ms - samples[0].t_ms == 20.0
        assert samples[0].t_ms == 0.0
        assert [s.t_ms for s in samples] == [r.t_ms for r in truth]

    def test_determinism_bit_identical(self, tmp_path):
        scenario = acceptance_scenario(seed=9)
        a_path = tmp_path / "a.txt"
        b_path = tmp_path / "b.txt"
        for path in (a_path, b_path):
            samples, truth = generate(scenario)
            write_trace(TraceFile(tuple(samples), tuple(truth)), str(path))
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_noise_statistics(self):
        sigma = 2.0
        noisy = constant_scenario(duration_ms=240000.0, rate=50.0,
                                  noise_sigma_mag_ut=sigma, rng_seed=77)
        clean = constant_scenario(duration_ms=240000.0, rate=50.0)
        noisy_samples, _ = generate(noisy)
        clean_samples, _ = generate(clean)
        n = len(noisy_samples)
        assert n >= 10000
        residual = np.array([s.mag for s in noisy_samples]) - np.array(
            [s.mag for s in clean_samples])
        assert np.all(np.abs(residual.mean(axis=0)) < 5 * sigma / np.sqrt(n))
        assert np.all(np.abs(residual.std(axis=0) - sigma) < 0.1 * sigma)

    def test_heading_knot_interpolation_shortest_arc(self):
        scenario = Scenario(
            duration_ms=1000.0,
            sample_rate_hz=10.0,
            heading_deg=((0.0, 350.0), (1000.0, 10.0)),
            field=MagneticField(40.0),
        )
        _, truth = generate(scenario)
        # knots 350 -> 10 cross zero; midpoint of the span is 0
        assert truth[5].true_heading_deg == pytest.approx(0.0, abs=1e-9)

    def test_heading_knots_too_far_apart_to_subtract(self):
        # 1e308 - -1e308 overflows; the knots' residues mod 360 do not
        huge = Scenario(duration_ms=1000.0, sample_rate_hz=50.0,
                        heading_deg=((0.0, 1e308), (1000.0, -1e308)))
        samples, truth = generate(huge)
        assert len(samples) == 50
        assert all(0.0 <= r.true_heading_deg < 360.0 for r in truth)
        residues = Scenario(duration_ms=1000.0, sample_rate_hz=50.0,
                            heading_deg=((0.0, 1e308 % 360.0), (1000.0, -1e308 % 360.0)))
        assert (samples, truth) == generate(residues)

    @pytest.mark.parametrize("knots,expected", [
        # residues 344 and 5: a 21 degree turn through north
        (((0.0, 100000000000000064.0), (1000.0, 5.0)), [344.0, 348.2, 352.4, 356.6, 0.8]),
        # residues 240 and 40: a 160 degree turn through north
        (((0.0, 3.3e20), (1000.0, -7.7e19)), [240.0, 272.0, 304.0, 336.0, 8.0]),
    ])
    def test_heading_knots_beyond_float_precision_turn_by_their_residues(self, knots, expected):
        scenario = Scenario(duration_ms=1000.0, sample_rate_hz=5.0, heading_deg=knots)
        _, truth = generate(scenario)
        assert [r.true_heading_deg for r in truth] == pytest.approx(expected, abs=1e-9)

    @settings(deadline=None)
    @given(steps=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           values=st.lists(st.floats(-1e300, 1e300), min_size=7, max_size=7))
    def test_heading_at_each_knot_time_is_its_value_mod_360(self, steps, values):
        # knots on the 20 ms sample grid, so every knot time is a sample time
        times = [20.0 * sum(steps[:i]) for i in range(len(steps) + 1)]
        knots = tuple(zip(times, values))
        scenario = Scenario(duration_ms=times[-1] + 20.0, sample_rate_hz=50.0, heading_deg=knots)
        _, truth = generate(scenario)
        heading_at = {r.t_ms: r.true_heading_deg for r in truth}
        for t, value in knots:
            assert circular_abs_diff(heading_at[t], value % 360.0) < 1e-9, (t, value)

    @pytest.mark.parametrize("changes", [
        {"field": MagneticField(1e308, inclination_deg=89.0)},
        {"noise_sigma_mag_ut": 1e308},
        {"field": MagneticField(1e308), "hard_iron_ut": (1e308, 0.0, 0.0)},
        {"noise_sigma_accel_ms2": 1e308},
        {"pitch_deg": ((0.0, 1e308), (1000.0, -1e308))},
    ], ids=["steep-field", "mag-noise", "hard-iron", "accel-noise", "pitch-knots"])
    def test_overflowing_readings_refused(self, changes):
        scenario = Scenario(duration_ms=1000.0, sample_rate_hz=50.0, heading_deg=((0.0, 0.0),), **changes)
        with pytest.raises(ScenarioError, match="readings overflow"):
            generate(scenario)


class TestScenarioValidation:
    def test_rate_must_be_positive(self):
        with pytest.raises(ScenarioError, match="sample_rate_hz"):
            Scenario(duration_ms=100.0, sample_rate_hz=0.0, heading_deg=((0.0, 0.0),))

    def test_duration_must_be_positive(self):
        with pytest.raises(ScenarioError, match="duration_ms"):
            Scenario(duration_ms=0.0, sample_rate_hz=50.0, heading_deg=((0.0, 0.0),))

    @pytest.mark.parametrize("duration_ms", [1.0, 10.0])
    def test_duration_must_give_a_sample(self, duration_ms):
        # 0.05 and 0.5 samples both round to none
        with pytest.raises(ScenarioError, match="duration_ms gives 0 samples"):
            Scenario(duration_ms=duration_ms, sample_rate_hz=50.0, heading_deg=((0.0, 0.0),))

    def test_knots_strictly_increasing(self):
        with pytest.raises(ScenarioError, match="heading_deg"):
            Scenario(duration_ms=100.0, sample_rate_hz=50.0,
                     heading_deg=((0.0, 0.0), (0.0, 10.0)))

    def test_horizontal_intensity_positive(self):
        with pytest.raises(ScenarioError, match="field_horizontal_ut"):
            Scenario(duration_ms=100.0, sample_rate_hz=50.0,
                     heading_deg=((0.0, 0.0),), field=MagneticField(0.0))

    @pytest.mark.parametrize("name", ["noise_sigma_mag_ut", "noise_sigma_accel_ms2"])
    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_noise_sigmas_finite_nonnegative(self, name, sigma):
        with pytest.raises(ScenarioError, match=name):
            Scenario(duration_ms=100.0, sample_rate_hz=50.0, heading_deg=((0.0, 0.0),),
                     **{name: sigma})

    def test_inclination_open_interval(self):
        with pytest.raises(ScenarioError, match="field_inclination_deg"):
            Scenario(duration_ms=100.0, sample_rate_hz=50.0, heading_deg=((0.0, 0.0),),
                     field=MagneticField(40.0, inclination_deg=90.0))


class TestTruthHeadingAt:
    TRUTH = [
        TruthRecord(0.0, 350.0, 0.0, 0.0),
        TruthRecord(1000.0, 10.0, 0.0, 0.0),
        TruthRecord(2000.0, 40.0, 0.0, 0.0),
        TruthRecord(3000.0, 100.0, 0.0, 0.0),
    ]

    def test_knot_exact(self):
        assert truth_heading_at(self.TRUTH, 1000.0) == 10.0

    def test_wraparound_midpoint(self):
        assert truth_heading_at(self.TRUTH, 500.0) == pytest.approx(0.0, abs=1e-12)

    def test_plain_midpoint(self):
        assert truth_heading_at(self.TRUTH, 2500.0) == pytest.approx(70.0, abs=1e-12)

    def test_heading_just_below_360_wraps_to_0(self):
        truth = [TruthRecord(0.0, 0.0, 0.0, 0.0), TruthRecord(1.0, 359.9999999, 0.0, 0.0)]
        assert truth_heading_at(truth, 1e-12) == 0.0

    # Bounded so no difference of two values overflows to infinity.
    @given(times=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
           headings=st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6),
           where=st.floats(0.0, 1.0))
    def test_heading_is_a_bearing(self, times, headings, where):
        times.sort()
        truth = [TruthRecord(t, h, 0.0, 0.0) for t, h in zip(times, headings)]
        t = min(max(times[0] + where * (times[-1] - times[0]), times[0]), times[-1])
        assert 0.0 <= truth_heading_at(truth, t) < 360.0

    def test_out_of_span(self):
        with pytest.raises(OutOfSpan):
            truth_heading_at(self.TRUTH, -1.0)
        with pytest.raises(OutOfSpan):
            truth_heading_at(self.TRUTH, 3000.1)


class TestScenarioFile:
    def test_checked_in_example_parses(self, data_dir):
        scenario = load_scenario(str(data_dir / "scenario_example.txt"))
        assert scenario == acceptance_scenario(seed=1)

    def test_constant_and_knot_forms(self):
        scenario = parse_scenario(
            "scenario v1\nduration_ms 100\nsample_rate_hz 50\n"
            "heading_deg 0:0 50:90\npitch_deg 10\nfield_horizontal_ut 40\n"
        )
        assert scenario.heading_deg == ((0.0, 0.0), (50.0, 90.0))
        assert scenario.pitch_deg == ((0.0, 10.0),)
        assert scenario.roll_deg == ((0.0, 0.0),)

    def test_missing_required_field_named(self):
        with pytest.raises(ScenarioError, match="field_horizontal_ut"):
            parse_scenario("scenario v1\nduration_ms 100\nsample_rate_hz 50\nheading_deg 0\n")

    def test_unknown_field_named(self):
        with pytest.raises(ScenarioError, match="wobble"):
            parse_scenario(
                "scenario v1\nduration_ms 100\nsample_rate_hz 50\nheading_deg 0\n"
                "field_horizontal_ut 40\nwobble 3\n")

    def test_bad_number_named(self):
        # 1e300 overflows numpy's array size; 1e12 asks for 5e10 samples
        for duration in ("abc", "1e300", "1e12"):
            with pytest.raises(ScenarioError, match="duration_ms"):
                parse_scenario(f"scenario v1\nduration_ms {duration}\nsample_rate_hz 50\n"
                               "heading_deg 0\nfield_horizontal_ut 40\n")

    def test_refused_value_names_its_key_and_line(self):
        with pytest.raises(ScenarioError, match="^line 6: pitch_deg timestamps") as exc:
            parse_scenario("scenario v1\nduration_ms 100\nsample_rate_hz 50\nheading_deg 0\n"
                           "field_horizontal_ut 40\npitch_deg 0:0 0:10\n")
        assert exc.value.key == "pitch_deg"

    def test_bad_values_are_reported_in_file_order(self):
        with pytest.raises(ScenarioError, match="^line 2: noise_sigma_mag_ut"):
            parse_scenario("scenario v1\nnoise_sigma_mag_ut x\nduration_ms y\nsample_rate_hz 50\n"
                           "heading_deg 0\nfield_horizontal_ut 40\n")

    def test_bad_header(self):
        with pytest.raises(ScenarioError):
            parse_scenario("scenario v2\nduration_ms 100\n")

    def test_duplicate_field(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("scenario v1\nduration_ms 100\nduration_ms 200\n"
                           "sample_rate_hz 50\nheading_deg 0\nfield_horizontal_ut 40\n")


class TestSweepScenarios:
    def test_tumbled_sweep_is_static_throughout(self):
        samples, _ = generate(tumbled_sweep(seed=0))
        assert all(s.usable_for_tilt for s in samples)
