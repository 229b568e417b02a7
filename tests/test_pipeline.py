import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qiblanav import (
    KAABA,
    AzimuthDeg,
    DeclinationDeg,
    CalibrationState,
    FilterState,
    GeoCoordinate,
    Guidance,
    MagneticField,
    PointerSettings,
    QiblaPointerState,
    Scenario,
    SensorSample,
    TraceFile,
    calibrate,
    circular_diff,
    filter_heading,
    generate,
    guidance,
    process,
    qibla_azimuth,
    read_trace,
    run_trace,
    simulate,
    tilt_compensated_heading,
    to_true_heading,
    write_trace,
)
from qiblanav.errors import (
    AntipodalPoints,
    DegeneratePoints,
    DegenerateSweep,
    DynamicSample,
    InsufficientData,
    InvalidAngle,
)

from qiblanav.pipeline import MAX_FIT_CONDITION, _condition, run_block

from oracles import circular_abs_diff
from scenarios import FIELD, flat_sweep, tumbled_sweep

BANDUNG = GeoCoordinate(-6.9147, 107.6098)


@st.composite
def point_clouds(draw):
    """10 to 60 points about an offset, on a random scale, squashed toward a
    plane of random tilt: not at all, by a factor down to 1e-9, or onto it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 60))
    points = rng.normal(size=(n, 3)) * draw(st.floats(0.1, 100.0)) + rng.normal(0.0, 50.0, 3)
    basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    local = points @ basis
    local[:, 2] *= draw(st.sampled_from([1.0, 0.0]) | st.floats(1e-9, 1.0))
    return local @ basis.T


def one_sample(heading=0.0, pitch=0.0, roll=0.0, *, field=FIELD, hard_iron=(0.0, 0.0, 0.0)):
    scenario = Scenario(
        duration_ms=20.0,
        sample_rate_hz=50.0,
        heading_deg=((0.0, heading),),
        pitch_deg=((0.0, pitch),),
        roll_deg=((0.0, roll),),
        field=field,
        hard_iron_ut=hard_iron,
    )
    samples, truth = generate(scenario)
    return samples[0], truth[0]


class TestSensorSample:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SensorSample(0.0, (0.0, float("nan"), -9.81), (40.0, 0.0, 0.0))

    def test_static_band(self):
        assert SensorSample(0.0, (0.0, 0.0, -9.81), (40.0, 0.0, 0.0)).usable_for_tilt
        assert not SensorSample(0.0, (0.0, 0.0, -3.0), (40.0, 0.0, 0.0)).usable_for_tilt
        assert not SensorSample(0.0, (0.0, 0.0, -20.0), (40.0, 0.0, 0.0)).usable_for_tilt


class TestCircularDiff:
    @pytest.mark.parametrize(
        "target,current,expected",
        [(295.0, 295.0, 0.0), (295.0, 280.0, 15.0), (10.0, 350.0, 20.0),
         (350.0, 10.0, -20.0), (180.0, 0.0, 180.0), (0.0, 180.0, 180.0)],
    )
    def test_examples(self, target, current, expected):
        assert circular_diff(target, current) == expected

    @given(st.floats(min_value=0, max_value=360, exclude_max=True),
           st.floats(min_value=0, max_value=360, exclude_max=True))
    def test_reconstruction_and_involution(self, a, b):
        d = circular_diff(a, b)
        assert -180.0 < d <= 180.0
        assert ((b + d) - a) % 360.0 == pytest.approx(0.0, abs=1e-9) or \
               ((b + d) - a) % 360.0 == pytest.approx(360.0, abs=1e-9)
        back = circular_diff(b, a)
        if abs(d) == 180.0:
            assert back == 180.0
        else:
            assert back == pytest.approx(-d, abs=1e-9)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_pair_gives_a_deviation(self, a, b):
        assert -180.0 < circular_diff(a, b) <= 180.0

    @pytest.mark.parametrize("target,current", [(1e308, -1e308), (-1e308, 1e308),
                                                (1.7976931348623157e308, -1.7976931348623157e308)])
    def test_overflowing_difference(self, target, current):
        d = circular_diff(target, current)
        assert -180.0 < d <= 180.0
        assert (current % 360.0 + d - target % 360.0) % 360.0 == 0.0

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, angle):
        with pytest.raises(InvalidAngle):
            circular_diff(angle, 0.0)
        with pytest.raises(InvalidAngle):
            circular_diff(0.0, angle)


class TestGuidance:
    @pytest.mark.parametrize(
        "deviation,expected",
        [(0.0, Guidance.ALIGNED), (2.0, Guidance.ALIGNED), (-2.0, Guidance.ALIGNED),
         (15.0, Guidance.TURN_RIGHT), (-15.0, Guidance.TURN_LEFT)],
    )
    def test_examples(self, deviation, expected):
        assert guidance(deviation) is expected
        assert guidance(deviation, settings=PointerSettings(threshold_deg=2.0)) is expected

    def test_the_settings_threshold_classifies_every_path(self):
        """guidance, process, run_block and run_trace each classify by the
        threshold of the settings they are given."""
        sample, _ = one_sample(heading=float(qibla_azimuth(BANDUNG)) - 10.0)
        cal, filt = CalibrationState(), FilterState()
        deviation = process(sample, BANDUNG, cal, filt)[1].deviation_deg
        assert 5.0 < deviation < 15.0
        for threshold, expected in ((deviation - 1.0, Guidance.TURN_RIGHT), (deviation + 1.0, Guidance.ALIGNED)):
            settings = PointerSettings(threshold_deg=threshold)
            assert guidance(deviation, settings=settings) is expected
            assert process(sample, BANDUNG, cal, filt, settings=settings)[1].guidance is expected
            assert run_block([sample], BANDUNG, cal, filt, settings=settings)[1][0][1].guidance is expected
            assert run_trace([sample], BANDUNG, cal, settings=settings)[0][1].guidance is expected

    @pytest.mark.parametrize("deviation", [math.nan, math.inf, -math.inf])
    def test_non_finite_deviation_refused(self, deviation):
        with pytest.raises(InvalidAngle, match=f"deviation must be finite, got {deviation!r}"):
            guidance(deviation)

    @pytest.mark.parametrize("deviation", [-300.0, 500.0, -180.0, 180.5, 1e300])
    def test_a_deviation_out_of_range_is_refused(self, deviation):
        """Refused as a state refuses it, not classified: -300 degrees lies
        60 clockwise, so it may not read as TURN_LEFT."""
        message = re.escape(f"deviation must lie in (-180, 180], got {deviation!r}")
        with pytest.raises(InvalidAngle, match=f"^{message}$"):
            guidance(deviation)
        with pytest.raises(InvalidAngle, match=f"^{message}$"):
            QiblaPointerState(1.0, 2.0, 3.0, deviation, Guidance.ALIGNED, True)

    def test_the_range_edges(self):
        assert guidance(180.0) is Guidance.TURN_RIGHT
        assert guidance(math.nextafter(-180.0, 0.0)) is Guidance.TURN_LEFT


class TestQiblaPointerState:
    """A state a caller builds is held to the rule of every state the
    pipeline builds."""

    def test_headings_are_wrapped_azimuths(self):
        state = QiblaPointerState(400.0, -0.0, 720.0, 1.0, Guidance.ALIGNED, True)
        assert (state.magnetic_heading, state.true_heading, state.qibla) == (40.0, 0.0, 0.0)
        assert state.magnetic_heading == AzimuthDeg(40.0) and type(state.magnetic_heading) is AzimuthDeg
        assert math.copysign(1.0, state.true_heading) == 1.0

    def test_deviation_keeps_its_bits(self):
        """Not re-wrapped: wrap_signed would turn -1e-20 into 0.0."""
        state = QiblaPointerState(1.0, 2.0, 3.0, -1e-20, Guidance.ALIGNED, True)
        assert state.deviation_deg.hex() == (-1e-20).hex()

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_a_heading_that_is_not_finite_raises_invalid_angle(self, heading):
        for at in range(3):
            headings = [1.0, 2.0, 3.0]
            headings[at] = heading
            with pytest.raises(InvalidAngle, match=f"azimuth must be finite, got {heading!r}"):
                QiblaPointerState(*headings, 1.0, Guidance.ALIGNED, True)

    @pytest.mark.parametrize("deviation", [math.nan, math.inf, -math.inf])
    def test_a_deviation_that_is_not_finite_raises_invalid_angle(self, deviation):
        with pytest.raises(InvalidAngle, match=f"deviation must be finite, got {deviation!r}"):
            QiblaPointerState(1.0, 2.0, 3.0, deviation, Guidance.ALIGNED, True)

    @pytest.mark.parametrize("deviation", [180.0, -179.99999999999997, 5e-324, -0.0])
    def test_a_deviation_in_range_is_kept(self, deviation):
        state = QiblaPointerState(1.0, 2.0, 3.0, deviation, Guidance.ALIGNED, True)
        assert state.deviation_deg.hex() == deviation.hex()

    @pytest.mark.parametrize("deviation", [-180.0, 180.00000000000003, 500.0, -1e300])
    def test_a_deviation_out_of_range_raises_invalid_angle(self, deviation):
        """Not wrapped: (-180, 180] is what wrap_signed gives, so nothing the
        pipeline builds lies outside it."""
        with pytest.raises(InvalidAngle) as refused:
            QiblaPointerState(1.0, 2.0, 3.0, deviation, Guidance.ALIGNED, True)
        assert str(refused.value) == f"deviation must lie in (-180, 180], got {deviation!r}"

    @pytest.mark.parametrize("flags", [("no", False), (True, 0), (1, True), (None, False), (True, np.bool_(False))])
    def test_a_flag_that_is_not_a_bool_raises_value_error(self, flags):
        with pytest.raises(ValueError) as refused:
            QiblaPointerState(1.0, 2.0, 3.0, 1.0, Guidance.ALIGNED, *flags)
        assert str(refused.value) == f"calibrated and dynamic must be bools, got {flags[0]!r} and {flags[1]!r}"


class TestTiltCompensatedHeading:
    def test_flat_facing_magnetic_north(self):
        sample = SensorSample(0.0, (0.0, 0.0, -9.81), (30.0, 0.0, 20.0))
        got = tilt_compensated_heading(sample, CalibrationState())
        assert float(got) == 0.0

    def test_flat_rotated_90(self):
        sample, _ = one_sample(heading=90.0, field=MagneticField(40.0))
        got = tilt_compensated_heading(sample, CalibrationState())
        assert circular_abs_diff(float(got), 90.0) < 1e-9

    def test_tilted_recovers_simulator_heading(self):
        field = MagneticField(40.0, inclination_deg=-30.0)
        sample, _ = one_sample(heading=237.0, pitch=20.0, roll=-15.0, field=field)
        got = tilt_compensated_heading(sample, CalibrationState())
        assert circular_abs_diff(float(got), 237.0) < 1e-6

    def test_dynamic_sample_raises(self):
        sample = SensorSample(0.0, (0.0, 0.0, -3.0), (40.0, 0.0, 0.0))
        with pytest.raises(DynamicSample):
            tilt_compensated_heading(sample, CalibrationState())

    def test_round_trip_1000_random_attitudes(self):
        rng = np.random.default_rng(2024)
        cal = CalibrationState()
        field = MagneticField(40.0, inclination_deg=-30.0, declination_deg=0.0)
        for _ in range(1000):
            yaw = float(rng.uniform(0.0, 360.0))
            pitch = float(rng.uniform(-60.0, 60.0))
            roll = float(rng.uniform(-60.0, 60.0))
            sample, truth = one_sample(yaw, pitch, roll, field=field)
            got = tilt_compensated_heading(sample, cal)
            assert circular_abs_diff(float(got), truth.true_heading_deg) < 1e-6

    def test_yaw_additivity(self):
        field = MagneticField(40.0, inclination_deg=-30.0)
        cal = CalibrationState()
        base_sample, _ = one_sample(75.0, 25.0, -35.0, field=field)
        base = float(tilt_compensated_heading(base_sample, cal))
        for delta in (10.0, 93.5, 181.25, 270.0):
            sample, _ = one_sample(75.0 + delta, 25.0, -35.0, field=field)
            rotated = float(tilt_compensated_heading(sample, cal))
            assert circular_abs_diff(rotated, (base + delta) % 360.0) < 1e-6


OFFSETS = st.floats(min_value=-100.0, max_value=100.0)


class TestCalibrate:
    def test_zero_offset_noiseless(self):
        samples, _ = generate(tumbled_sweep(seed=0))
        cal = calibrate(list(samples))
        assert cal.hard_iron == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
        assert cal.converged
        assert cal.samples_used == 400
        assert cal.coverage_deg > 350.0

    def test_injected_offset_noiseless(self):
        samples, _ = generate(tumbled_sweep(seed=0, hard_iron=(10.0, -5.0, 3.0)))
        cal = calibrate(list(samples))
        assert cal.hard_iron == pytest.approx((10.0, -5.0, 3.0), abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(b=st.tuples(OFFSETS, OFFSETS, OFFSETS))
    def test_hard_iron_shift_moves_center_by_same_vector(self, b):
        base = tumbled_sweep(seed=3, hard_iron=(25.0, -18.0, 9.0), noise_mag=2.0, noise_accel=0.05)
        shifted = tumbled_sweep(seed=3, hard_iron=tuple(h + d for h, d in zip(base.hard_iron_ut, b)), noise_mag=2.0,
                                noise_accel=0.05)
        before = calibrate(generate(base)[0]).hard_iron
        after = calibrate(generate(shifted)[0]).hard_iron
        assert [a - c for a, c in zip(after, before)] == pytest.approx(list(b), abs=1e-9)

    def test_injected_offset_noisy_statistical(self):
        samples, _ = generate(tumbled_sweep(
            seed=1, hard_iron=(10.0, -5.0, 3.0), noise_mag=2.0, noise_accel=0.05))
        cal = calibrate(list(samples))
        assert cal.hard_iron == pytest.approx((10.0, -5.0, 3.0), abs=0.5)

    def test_insufficient_data(self):
        samples, _ = generate(tumbled_sweep(seed=0))
        with pytest.raises(InsufficientData):
            calibrate(list(samples[:9]))

    def test_dynamic_samples_do_not_count(self):
        samples, _ = generate(tumbled_sweep(seed=0))
        moving = [SensorSample(s.t_ms, (0.0, 0.0, -30.0), s.mag) for s in samples[:395]]
        with pytest.raises(InsufficientData):
            calibrate(moving + list(samples[:9]))

    def test_constant_attitude_sweep_degenerate(self):
        samples, _ = generate(flat_sweep(seed=0, hard_iron=(10.0, -5.0, 3.0)))
        with pytest.raises(DegenerateSweep):
            calibrate(list(samples))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rng=st.randoms(use_true_random=False))
    def test_the_fit_depends_only_on_the_set_of_samples(self, seed, rng):
        # exactly rounded sums: no order of the samples, and no container of them, moves a bit
        samples = simulate(tumbled_sweep(seed=seed, hard_iron=(25.0, -18.0, 9.0), noise_mag=2.0,
                                         noise_accel=0.05)).samples
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert calibrate(shuffled) == calibrate(list(samples)) == calibrate(samples)

    def test_a_flat_cloud_is_degenerate(self):
        # magnetometer points spread over a tilted plane, not a sphere: no center to find
        rng = np.random.default_rng(4)
        u, v = rng.uniform(-40.0, 40.0, (2, 400))
        mags = zip(25.0 + u, -18.0 + 0.5 * u + v, 9.0 - v)
        samples = [SensorSample(20.0 * i, (0.0, 0.0, -9.81), m) for i, m in enumerate(mags)]
        with pytest.raises(DegenerateSweep, match="condition"):
            calibrate(samples)

    @settings(max_examples=200, deadline=None)
    @given(points=point_clouds())
    def test_fit_condition_agrees_with_lapack(self, points):
        """`_condition`, cyclic Jacobi on floats, against `np.linalg.cond`
        (an SVD) on the normal equations of random, near-flat and flat
        clouds: within 4 eps cond relative, the rounding an SVD's smallest
        singular value carries, which is 0.09% at the 1e12 gate. Past 1e14
        neither value means more than that the fit is degenerate."""
        q = points - points.mean(axis=0)
        design = np.hstack([2.0 * q, np.ones((len(q), 1))])
        normal = (design.T @ design).tolist()
        with np.errstate(divide="ignore"):
            lapack = float(np.linalg.cond(normal))
        ours = _condition(normal)
        if lapack <= 1e14:
            assert abs(ours - lapack) <= (4.0 * 2.0**-52 * lapack + 1e-12) * lapack
        else:
            assert ours > 10.0 * MAX_FIT_CONDITION

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_a_sweep_whose_sums_overflow_is_degenerate(self, scale):
        samples = simulate(tumbled_sweep(seed=0)).samples
        huge = [SensorSample(s.t_ms, s.accel, tuple(scale * m for m in s.mag)) for s in samples]
        with pytest.raises(DegenerateSweep):
            calibrate(huge)

    def test_quarter_sweep_not_converged(self):
        samples, _ = generate(tumbled_sweep(seed=0, yaw_span_deg=90.0,
                                            hard_iron=(10.0, -5.0, 3.0)))
        cal = calibrate(list(samples))
        assert not cal.converged
        assert cal.coverage_deg < 180.0
        assert cal.hard_iron == pytest.approx((10.0, -5.0, 3.0), abs=1e-6)

    def test_half_sweep_converges(self):
        samples, _ = generate(tumbled_sweep(seed=0, yaw_span_deg=185.0))
        cal = calibrate(list(samples))
        assert cal.coverage_deg >= 180.0
        assert cal.converged

    def test_equal_headings_cover_zero_degrees(self):
        # A tumble at one heading whose usable headings all come out equal,
        # so rounding makes their one gap a hair over 360 degrees.
        samples = simulate(tumbled_sweep(duration_ms=1000.0, yaw_span_deg=0.0, yaw_offset_deg=309.9631899071969,
                                         hard_iron=(1.0, 2.0, 3.0))).samples
        assert 0.0 <= calibrate(samples).coverage_deg < 1e-9

    def test_converged_flag_requires_thresholds(self):
        assert not CalibrationState().converged
        assert not CalibrationState(samples_used=199, coverage_deg=360.0).converged
        assert not CalibrationState(samples_used=400, coverage_deg=179.9).converged
        assert CalibrationState(samples_used=200, coverage_deg=180.0).converged

    def test_hard_iron_cancellation_in_heading(self):
        offset_samples, _ = generate(tumbled_sweep(seed=0, hard_iron=(30.0, -12.0, 18.0)))
        cal = calibrate(list(offset_samples))
        assert cal.converged
        field = FIELD
        clean, _ = one_sample(141.0, 18.0, -27.0, field=field)
        offset, _ = one_sample(141.0, 18.0, -27.0, field=field, hard_iron=(30.0, -12.0, 18.0))
        clean_heading = float(tilt_compensated_heading(clean, CalibrationState()))
        corrected = float(tilt_compensated_heading(offset, cal))
        assert circular_abs_diff(corrected, clean_heading) < 1e-6


class TestFilterHeading:
    def test_first_sample_passes_through(self):
        state, out = filter_heading(FilterState(), 123.456)
        assert float(out) == 123.456

    def test_fixed_point(self):
        state = FilterState()
        for _ in range(100):
            state, out = filter_heading(state, 77.25)
        assert circular_abs_diff(float(out), 77.25) < 1e-9

    def test_state_vector_stays_unit_length(self):
        state, settings = FilterState(), PointerSettings(alpha=0.3)
        for h in (10.0, 200.0, 350.0, 90.0, 180.0):
            state, _ = filter_heading(state, h, settings=settings)
            assert math.hypot(state.c, state.s) == pytest.approx(1.0, abs=1e-15)

    def test_alpha_one_passthrough_exact(self):
        state = FilterState()
        for h in (0.0, 10.0, 123.456789, 359.999, 271.5):
            state, out = filter_heading(state, h, settings=PointerSettings(alpha=1.0))
            assert float(out) == h

    def test_step_response_matches_literal_recursion(self):
        alpha = 0.3
        settings = PointerSettings(alpha=alpha)
        state, _ = filter_heading(FilterState(), 0.0, settings=settings)
        c, s = 1.0, 0.0  # unit vector at 0 deg
        target = math.radians(90.0)
        for _ in range(50):
            state, out = filter_heading(state, 90.0, settings=settings)
            c = (1 - alpha) * c + alpha * math.cos(target)
            s = (1 - alpha) * s + alpha * math.sin(target)
            norm = math.hypot(c, s)
            c, s = c / norm, s / norm
            expected = math.degrees(math.atan2(s, c)) % 360.0
            assert float(out) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("start", [20.0, 45.0, 90.0])
    def test_contraction_bound(self, start):
        alpha = 0.3
        settings = PointerSettings(alpha=alpha)
        bound = math.ceil(math.log(1e-8) / math.log(1.0 - alpha))
        state, _ = filter_heading(FilterState(), start, settings=settings)
        prev = start
        steps = 0
        while circular_abs_diff(prev, 0.0) > 1e-6:
            state, out = filter_heading(state, 0.0, settings=settings)
            dist = circular_abs_diff(float(out), 0.0)
            assert dist < circular_abs_diff(prev, 0.0)  # monotone decrease
            prev = float(out)
            steps += 1
            assert steps <= bound

    def test_wrap_safe_step_350_to_10(self):
        state, _ = filter_heading(FilterState(), 350.0)
        for _ in range(200):
            state, out = filter_heading(state, 10.0)
            # stays on the short arc between 350 and 10, never near 180
            assert circular_abs_diff(float(out), 10.0) <= 20.0
        assert circular_abs_diff(float(out), 10.0) < 1e-6

    @pytest.mark.parametrize("h", [0.0, 30.0, 123.456])
    def test_exactly_antipodal_update_restarts_at_the_input(self, h):
        uc, us = math.cos(math.radians(h)), math.sin(math.radians(h))
        state, out = filter_heading(FilterState(-uc, -us), h, settings=PointerSettings(alpha=0.5))
        assert (state.c, state.s) == (uc, us)
        assert float(out) == pytest.approx(h, abs=1e-12)

    def test_exactly_antipodal_update_restarts_on_the_block_path(self):
        sample, _ = one_sample(heading=123.456, pitch=10.0, roll=-5.0)
        cal = CalibrationState()
        h = math.radians(tilt_compensated_heading(sample, cal))
        filt, settings = FilterState(-math.cos(h), -math.sin(h)), PointerSettings(alpha=0.5)
        want = process(sample, BANDUNG, cal, filt, settings=settings)
        assert want[0] == FilterState(math.cos(h), math.sin(h))
        state, entries = run_block([sample], BANDUNG, cal, filt, settings=settings)
        assert (state, list(entries)) == (want[0], [(sample.t_ms, want[1])])

    def test_half_set_vector_refused(self):
        for half in ({"c": 1.0}, {"s": 0.0}):
            with pytest.raises(ValueError, match="together"):
                FilterState(**half)
        assert FilterState(c=1.0, s=0.0).c == 1.0


class TestProcess:
    def make_aligned_sample(self, decl=0.0):
        field = MagneticField(40.0, inclination_deg=-30.0, declination_deg=decl)
        qibla = float(qibla_azimuth(BANDUNG))
        sample, _ = one_sample(heading=qibla, field=field)
        return sample, qibla

    def test_aligned_scenario(self):
        sample, _ = self.make_aligned_sample()
        filt, state = process(sample, BANDUNG, CalibrationState(), FilterState())
        assert state.qibla == qibla_azimuth(BANDUNG)
        assert state.deviation_deg == pytest.approx(0.0, abs=1e-9)
        assert state.guidance is Guidance.ALIGNED
        assert not state.dynamic

    def test_fifteen_degrees_left_of_qibla(self):
        field = MagneticField(40.0, inclination_deg=-30.0)
        qibla = float(qibla_azimuth(BANDUNG))
        sample, _ = one_sample(heading=(qibla - 15.0) % 360.0, field=field)
        _, state = process(sample, BANDUNG, CalibrationState(), FilterState())
        assert state.deviation_deg == pytest.approx(15.0, abs=1e-6)
        assert state.guidance is Guidance.TURN_RIGHT

    def test_declination_applied(self):
        decl = 5.5
        sample, qibla = self.make_aligned_sample(decl=decl)
        _, state = process(sample, BANDUNG, CalibrationState(), FilterState(),
                           DeclinationDeg(decl))
        # magnetic heading is qibla - decl; true heading recovers the qibla
        assert circular_abs_diff(float(state.true_heading), qibla) < 1e-9
        assert state.deviation_deg == pytest.approx(0.0, abs=1e-9)

    def test_purity(self):
        sample, _ = self.make_aligned_sample()
        args = (sample, BANDUNG, CalibrationState(), FilterState())
        assert process(*args) == process(*args)

    def test_first_sample_dynamic_propagates(self):
        bad = SensorSample(0.0, (0.0, 0.0, -30.0), (40.0, 0.0, 0.0))
        with pytest.raises(DynamicSample):
            process(bad, BANDUNG, CalibrationState(), FilterState())

    def test_dynamic_sample_freezes_filter(self):
        sample, _ = self.make_aligned_sample()
        filt, first = process(sample, BANDUNG, CalibrationState(), FilterState())
        bad = SensorSample(20.0, (0.0, 0.0, -30.0), (999.0, 999.0, 999.0))
        filt2, state = process(bad, BANDUNG, CalibrationState(), filt)
        assert filt2 == filt
        assert state.dynamic
        assert float(state.true_heading) == float(first.true_heading)

    def test_calibrated_flag_reflects_convergence(self):
        sample, _ = self.make_aligned_sample()
        cal = CalibrationState((0.0, 0.0, 0.0), samples_used=400, coverage_deg=359.0)
        _, state = process(sample, BANDUNG, cal, FilterState())
        assert state.calibrated

    def test_run_trace_threads_state(self):
        field = MagneticField(40.0, inclination_deg=-30.0)
        scenario = Scenario(
            duration_ms=400.0, sample_rate_hz=50.0,
            heading_deg=((0.0, 100.0),), field=field,
        )
        samples, _ = generate(scenario)
        entries = run_trace(list(samples), BANDUNG, CalibrationState())
        assert len(entries) == len(samples)
        assert [t for t, _ in entries] == [s.t_ms for s in samples]
        for _, state in entries:
            assert circular_abs_diff(float(state.true_heading), 100.0) < 1e-6

    def test_run_trace_refuses_kaaba_and_antipode(self):
        # the bearing is computed once up front, even for an empty trace
        with pytest.raises(DegeneratePoints):
            run_trace([], KAABA, CalibrationState())
        with pytest.raises(AntipodalPoints):
            run_trace([], GeoCoordinate(-KAABA.latitude_deg, KAABA.longitude_deg - 180.0),
                      CalibrationState())

    @settings(max_examples=25, deadline=None)
    @given(delta=st.floats(min_value=-720.0, max_value=720.0))
    def test_heading_knot_offset_shifts_true_headings(self, delta):
        base = tumbled_sweep(seed=0, hard_iron=(25.0, -18.0, 9.0))
        shifted = tumbled_sweep(seed=0, hard_iron=(25.0, -18.0, 9.0), yaw_offset_deg=delta)
        runs = []
        for scenario in (base, shifted):
            samples, _ = generate(scenario)
            runs.append(run_trace(samples, BANDUNG, calibrate(samples), DeclinationDeg(0.8)))
        assert len(runs[0]) == len(runs[1])
        for (_, a), (_, b) in zip(*runs):
            assert circular_abs_diff(float(b.true_heading), (float(a.true_heading) + delta) % 360.0) < 1e-9


STATIC_ACCEL = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.just(-9.81))
DYNAMIC_ACCEL = st.sampled_from([(0.0, 0.0, -30.0), (0.0, 0.0, -2.0), (15.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
MAG = st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))


def as_samples(readings):
    return [SensorSample(20.0 * i, accel, mag) for i, (accel, mag) in enumerate(readings)]


# A fold's start state: the empty filter, any vector FilterState holds (a
# finite, nonzero one of finite length, not necessarily a unit), or, with
# alpha 0.5, the antipode of the first static sample's unit, which the
# first update cancels exactly, so the filter restarts there.
VECTOR = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False))
START = st.none() | VECTOR.filter(lambda v: 0.0 < math.hypot(*v) < math.inf) | st.just("antipode")

FOLD_CASES = dict(
    lead=st.lists(st.tuples(DYNAMIC_ACCEL, MAG), max_size=4),
    rest=st.lists(st.tuples(st.one_of(STATIC_ACCEL, DYNAMIC_ACCEL), MAG), max_size=30),
    hard_iron=st.tuples(OFFSETS, OFFSETS, OFFSETS),
    decl=st.floats(-30.0, 30.0),
    alpha=st.floats(0.01, 1.0) | st.just(1.0),
    threshold=st.floats(0.1, 20.0),
    cuts=st.lists(st.integers(0, 34), max_size=5),
    start=START,
)


@given(**FOLD_CASES)
def test_run_trace_equals_process_fold(lead, rest, hard_iron, decl, alpha, threshold, cuts, start):
    """run_trace, and run_block over the trace cut into blocks, give exactly
    what process gives sample by sample, skipping the samples that raise
    DynamicSample."""
    check_fold(as_samples(lead + rest), hard_iron, decl, alpha, threshold, cuts, start)


@given(**FOLD_CASES)
def test_run_trace_on_read_trace_columns_equals_process_fold(tmp_path_factory, lead, rest, hard_iron, decl,
                                                             alpha, threshold, cuts, start):
    """The same folds, given the column-backed samples of a trace file read
    back."""
    path = tmp_path_factory.mktemp("fold") / "trace.txt"
    write_trace(TraceFile(as_samples(lead + rest)), str(path))
    check_fold(read_trace(str(path)).samples, hard_iron, decl, alpha, threshold, cuts, start)


def check_fold(samples, hard_iron, decl, alpha, threshold, cuts, start):
    """Fold process over the samples from the start state, and compare
    run_block over the cuts from that state, and run_trace from the empty
    one."""
    cal = CalibrationState(hard_iron)
    if start == "antipode":
        first = next((sample for sample in samples if sample.usable_for_tilt), None)
        h = math.radians(tilt_compensated_heading(first, cal)) if first else 0.0
        alpha, start = 0.5, (-math.cos(h), -math.sin(h))
    settings = PointerSettings(alpha, threshold)
    filt = begin = FilterState(*(start or (None, None)))
    expected = []
    for sample in samples:
        try:
            filt, state = process(sample, BANDUNG, cal, filt, DeclinationDeg(decl), settings=settings)
        except DynamicSample:
            continue
        expected.append((sample.t_ms, state))
    chunked, state = [], begin
    bounds = [0, *sorted(cuts), len(samples)]
    for a, b in zip(bounds, bounds[1:]):  # blocks, empty ones among them
        state, entries = run_block(samples[a:b], BANDUNG, cal, state, DeclinationDeg(decl), settings=settings)
        chunked += entries
    assert state == filt
    assert chunked == expected
    if start is None:
        assert run_trace(samples, BANDUNG, cal, DeclinationDeg(decl), settings=settings) == expected


@pytest.mark.filterwarnings("error")
def test_a_heading_that_is_not_finite_raises_invalid_angle():
    """A hard iron whose subtraction overflows levels to no heading: one
    sample, a block and a whole trace each raise InvalidAngle, and no
    warning."""
    cal = CalibrationState((-1e308,) * 3)
    sample = SensorSample(0.0, (0.0, 0.0, -9.81), (1e308,) * 3)
    with pytest.raises(InvalidAngle, match="azimuth must be finite, got nan"):
        process(sample, BANDUNG, cal, FilterState())
    with pytest.raises(InvalidAngle, match="azimuth must be finite, got nan"):
        run_block([sample], BANDUNG, cal, FilterState())
    with pytest.raises(InvalidAngle, match="azimuth must be finite, got nan"):
        run_trace([sample], BANDUNG, cal)


def test_a_heading_that_is_not_finite_raises_before_a_filter_state_is_built(monkeypatch):
    """A heading that is not finite raises InvalidAngle before the step
    builds its filter state, whose check would refuse the nan vector with
    FilterState's ValueError, which names no heading."""
    built = []

    def recording(*fields):
        built.append(fields)
        return FilterState(*fields)

    starts = (FilterState(), FilterState(1.0, 0.0))
    monkeypatch.setattr("qiblanav.pipeline.FilterState", recording)
    cal = CalibrationState((-1e308,) * 3)
    sample = SensorSample(0.0, (0.0, 0.0, -9.81), (1e308,) * 3)
    for start in starts:
        with pytest.raises(InvalidAngle):
            process(sample, BANDUNG, cal, start)
        with pytest.raises(InvalidAngle):
            run_block([sample], BANDUNG, cal, start)
        with pytest.raises(InvalidAngle):
            filter_heading(start, math.nan)
    assert built == []


@pytest.mark.parametrize("decl", [100.0, 500.0, -90.5, math.nan, math.inf])
def test_a_declination_out_of_range_is_refused(decl):
    """A float declination is held to DeclinationDeg's rule: one sample, a
    block, an empty block, a whole trace and `to_true_heading` each raise
    InvalidAngle naming the declination, where a float used to shift the
    true heading as given."""
    sample, cal = SensorSample(0.0, (0.0, 0.0, -9.81), (20.0, 0.0, 40.0)), CalibrationState()
    runs = (lambda: process(sample, BANDUNG, cal, FilterState(), decl),
            lambda: run_block([sample], BANDUNG, cal, FilterState(), decl),
            lambda: run_block([], BANDUNG, cal, FilterState(), decl),
            lambda: run_trace([sample], BANDUNG, cal, decl),
            lambda: to_true_heading(AzimuthDeg(10.0), decl))
    for run in runs:
        with pytest.raises(InvalidAngle, match=r"^declination must be finite with \|value\| <= 90, got "):
            run()


@given(readings=st.lists(st.tuples(st.one_of(STATIC_ACCEL, DYNAMIC_ACCEL), MAG), max_size=12),
       decl=st.floats(-90.0, 90.0))
def test_a_float_declination_runs_as_its_declination_deg(readings, decl):
    """A float in range gives the entries and the filter state its
    DeclinationDeg gives, from process, run_block and run_trace."""
    samples, cal = as_samples(readings), CalibrationState()
    by_float, by_value = FilterState(), FilterState()
    for sample in samples:
        try:
            by_float, state = process(sample, BANDUNG, cal, by_float, decl)
        except DynamicSample:
            with pytest.raises(DynamicSample):
                process(sample, BANDUNG, cal, by_value, DeclinationDeg(decl))
            continue
        by_value, expected = process(sample, BANDUNG, cal, by_value, DeclinationDeg(decl))
        assert (by_float, state) == (by_value, expected)
    block = run_block(samples, BANDUNG, cal, FilterState(), decl)
    assert block == run_block(samples, BANDUNG, cal, FilterState(), DeclinationDeg(decl))
    assert block[0] == by_float
    assert run_trace(samples, BANDUNG, cal, decl) == run_trace(samples, BANDUNG, cal, DeclinationDeg(decl))


@given(readings=st.lists(st.tuples(st.one_of(STATIC_ACCEL, DYNAMIC_ACCEL), MAG), max_size=12),
       hard_iron=st.tuples(OFFSETS, OFFSETS, OFFSETS), alpha=st.floats(0.01, 1.0) | st.just(1.0),
       start=st.none() | VECTOR.filter(lambda v: 0.0 < math.hypot(*v) < math.inf))
def test_process_returns_a_state_that_filter_state_accepts(readings, hard_iron, alpha, start):
    """Each filter state process returns passes FilterState's checks, which
    it is built through, and equals the FilterState its fields construct."""
    filt, settings = FilterState(*(start or (None, None))), PointerSettings(alpha)
    for sample in as_samples(readings):
        try:
            filt, _ = process(sample, BANDUNG, CalibrationState(hard_iron), filt, settings=settings)
        except DynamicSample:
            continue
        assert filt == FilterState(filt.c, filt.s)


@given(lat=st.sampled_from([0.0, -0.0]) | st.floats(-90.0, 90.0),
       lon=st.sampled_from([0.0, -0.0]) | st.floats(-360.0, 360.0))
def test_cached_bearing_has_the_bits_of_a_direct_call(lat, lon):
    """process and run_block compute the bearing once per place; a place
    equal to one seen before, if only by the sign of a zero, gets the bits
    qibla_azimuth gives it."""
    user = GeoCoordinate(lat, lon)
    twin = GeoCoordinate(-lat if lat == 0.0 else lat, -lon if lon == 0.0 else lon)
    try:
        direct = qibla_azimuth(user).hex()
    except (DegeneratePoints, AntipodalPoints):  # no bearing to cache
        return
    sample = SensorSample(0.0, (0.0, 0.0, -9.81), (20.0, 0.0, 40.0))
    process(sample, twin, CalibrationState(), FilterState())
    assert process(sample, user, CalibrationState(), FilterState())[1].qibla.hex() == direct
    assert run_block([sample], user, CalibrationState(), FilterState())[1][0][1].qibla.hex() == direct
