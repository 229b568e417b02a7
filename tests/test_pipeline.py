import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qiblanav import (
    KAABA,
    DeclinationDeg,
    CalibrationState,
    FilterState,
    GeoCoordinate,
    Guidance,
    MagneticField,
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
    tilt_compensated_heading,
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

from oracles import circular_abs_diff
from scenarios import FIELD, flat_sweep, tumbled_sweep

BANDUNG = GeoCoordinate(-6.9147, 107.6098)


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
        assert guidance(deviation, 2.0) is expected

    def test_threshold_must_be_positive(self):
        for threshold in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                guidance(0.0, threshold)


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
        shifted = dataclasses.replace(base, hard_iron_ut=tuple(h + d for h, d in zip(base.hard_iron_ut, b)))
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
        state, out = filter_heading(FilterState(alpha=0.15), 123.456)
        assert float(out) == 123.456

    def test_fixed_point(self):
        state = FilterState(alpha=0.15)
        for _ in range(100):
            state, out = filter_heading(state, 77.25)
        assert circular_abs_diff(float(out), 77.25) < 1e-9

    def test_state_vector_stays_unit_length(self):
        state = FilterState(alpha=0.3)
        for h in (10.0, 200.0, 350.0, 90.0, 180.0):
            state, _ = filter_heading(state, h)
            assert math.hypot(state.c, state.s) == pytest.approx(1.0, abs=1e-15)

    def test_alpha_one_passthrough_exact(self):
        state = FilterState(alpha=1.0)
        for h in (0.0, 10.0, 123.456789, 359.999, 271.5):
            state, out = filter_heading(state, h)
            assert float(out) == h

    def test_step_response_matches_literal_recursion(self):
        alpha = 0.15
        state, _ = filter_heading(FilterState(alpha=alpha), 0.0)
        c, s = 1.0, 0.0  # unit vector at 0 deg
        target = math.radians(90.0)
        for _ in range(50):
            state, out = filter_heading(state, 90.0)
            c = (1 - alpha) * c + alpha * math.cos(target)
            s = (1 - alpha) * s + alpha * math.sin(target)
            norm = math.hypot(c, s)
            c, s = c / norm, s / norm
            expected = math.degrees(math.atan2(s, c)) % 360.0
            assert float(out) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("start", [20.0, 45.0, 90.0])
    def test_contraction_bound(self, start):
        alpha = 0.15
        bound = math.ceil(math.log(1e-8) / math.log(1.0 - alpha))
        state, _ = filter_heading(FilterState(alpha=alpha), start)
        prev = start
        steps = 0
        while circular_abs_diff(prev, 0.0) > 1e-6:
            state, out = filter_heading(state, 0.0)
            dist = circular_abs_diff(float(out), 0.0)
            assert dist < circular_abs_diff(prev, 0.0)  # monotone decrease
            prev = float(out)
            steps += 1
            assert steps <= bound

    def test_wrap_safe_step_350_to_10(self):
        state, _ = filter_heading(FilterState(alpha=0.15), 350.0)
        for _ in range(200):
            state, out = filter_heading(state, 10.0)
            # stays on the short arc between 350 and 10, never near 180
            assert circular_abs_diff(float(out), 10.0) <= 20.0
        assert circular_abs_diff(float(out), 10.0) < 1e-6

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FilterState(alpha=0.0)
        with pytest.raises(ValueError):
            FilterState(alpha=1.5)

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
        shifted = dataclasses.replace(
            base, heading_deg=tuple((t, v + delta) for t, v in base.heading_deg))
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


FOLD_CASES = dict(
    lead=st.lists(st.tuples(DYNAMIC_ACCEL, MAG), max_size=4),
    rest=st.lists(st.tuples(st.one_of(STATIC_ACCEL, DYNAMIC_ACCEL), MAG), max_size=30),
    hard_iron=st.tuples(OFFSETS, OFFSETS, OFFSETS),
    decl=st.floats(-30.0, 30.0),
    alpha=st.floats(0.01, 1.0),
    threshold=st.floats(0.1, 20.0),
)


@given(**FOLD_CASES)
def test_run_trace_equals_process_fold(lead, rest, hard_iron, decl, alpha, threshold):
    """run_trace gives exactly what process gives sample by sample, skipping
    the samples that raise DynamicSample."""
    check_fold(as_samples(lead + rest), hard_iron, decl, alpha, threshold)


@given(**FOLD_CASES)
def test_run_trace_on_read_trace_columns_equals_process_fold(tmp_path_factory, lead, rest, hard_iron, decl,
                                                             alpha, threshold):
    """The same fold, run_trace given the column-backed samples of a trace
    file read back."""
    path = tmp_path_factory.mktemp("fold") / "trace.txt"
    write_trace(TraceFile(as_samples(lead + rest)), str(path))
    check_fold(read_trace(str(path)).samples, hard_iron, decl, alpha, threshold)


def check_fold(samples, hard_iron, decl, alpha, threshold):
    cal = CalibrationState(hard_iron)
    filt = FilterState(alpha=alpha)
    expected = []
    for sample in samples:
        try:
            filt, state = process(sample, BANDUNG, cal, filt, DeclinationDeg(decl), threshold_deg=threshold)
        except DynamicSample:
            continue
        expected.append((sample.t_ms, state))
    got = run_trace(samples, BANDUNG, cal, DeclinationDeg(decl), alpha=alpha, threshold_deg=threshold)
    assert len(got) == len(expected)
    for entry, reference in zip(got, expected):
        assert entry == reference
