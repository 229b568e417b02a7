"""Shared scenario builders for pipeline and acceptance tests."""

from __future__ import annotations

from qiblanav import MagneticField, Scenario

# Field values in the ballpark of equatorial southeast Asia.
FIELD = MagneticField(horizontal_ut=40.0, inclination_deg=-30.0, declination_deg=0.8)

HARD_IRON = (25.0, -18.0, 9.0)
NOISE_MAG = 2.0
NOISE_ACCEL = 0.05

SWEEP_MS = 12000.0
ACCEPTANCE_DURATION_MS = 42000.0
HOLD_HEADING_DEG = 200.0
HOLD_PITCH_DEG = 15.0
HOLD_ROLL_DEG = -10.0


def tri_knots(t0: float, t1: float, amp: float, cycles: int,
              start_v: float, end_v: float) -> tuple[tuple[float, float], ...]:
    """Triangle-wave knots spanning [t0, t1] with peaks at +-amp."""
    pts = [(t0, start_v)]
    seg = (t1 - t0) / (2 * cycles)
    v = amp
    for k in range(1, 2 * cycles):
        pts.append((t0 + k * seg, v))
        v = -v
    pts.append((t1, end_v))
    return tuple(pts)


def tumbled_sweep(
    seed: int = 0,
    *,
    duration_ms: float = 8000.0,
    yaw_span_deg: float = 360.0,
    amp: float = 60.0,
    hard_iron: tuple[float, float, float] = (0.0, 0.0, 0.0),
    noise_mag: float = 0.0,
    noise_accel: float = 0.0,
    field: MagneticField = FIELD,
) -> Scenario:
    """A calibration sweep: yaw covers yaw_span while pitch/roll tumble.

    The tumbling keeps the magnetometer point cloud off a single plane, so
    the sphere fit is well posed (a constant-attitude sweep is not).
    """
    t = duration_ms
    heading = ((0.0, 0.0), (t / 3, yaw_span_deg / 3),
               (2 * t / 3, 2 * yaw_span_deg / 3), (t, yaw_span_deg))
    return Scenario(
        duration_ms=duration_ms,
        sample_rate_hz=50.0,
        heading_deg=heading,
        pitch_deg=tri_knots(0.0, t, amp, 4, 0.0, 0.0),
        roll_deg=tri_knots(0.0, t, amp, 7, -amp, -amp),
        field=field,
        hard_iron_ut=hard_iron,
        noise_sigma_mag_ut=noise_mag,
        noise_sigma_accel_ms2=noise_accel,
        rng_seed=seed,
    )


def flat_sweep(seed: int = 0, *, hard_iron=(0.0, 0.0, 0.0)) -> Scenario:
    """Constant-attitude yaw sweep: the mag cloud is a plane circle."""
    return Scenario(
        duration_ms=8000.0,
        sample_rate_hz=50.0,
        heading_deg=((0.0, 0.0), (4000.0, 180.0), (8000.0, 360.0)),
        field=FIELD,
        hard_iron_ut=hard_iron,
        rng_seed=seed,
    )


def acceptance_scenario(seed: int) -> Scenario:
    """Calibration sweep then 30 s at constant heading/attitude.

    Matches data/scenario_example.txt apart from the seed: full yaw circle
    with +-50 deg tumbling tilts over the first 12 s, a 1 s turn, then
    heading 200 at pitch 15 / roll -10 until 42 s.
    """
    sweep_pitch = tri_knots(0.0, SWEEP_MS, 50.0, 3, 0.0, HOLD_PITCH_DEG)
    sweep_roll = tri_knots(0.0, SWEEP_MS, 50.0, 5, -50.0, HOLD_ROLL_DEG)
    return Scenario(
        duration_ms=ACCEPTANCE_DURATION_MS,
        sample_rate_hz=50.0,
        heading_deg=(
            (0.0, 0.0), (4000.0, 120.0), (8000.0, 240.0), (SWEEP_MS, 360.0),
            (13000.0, HOLD_HEADING_DEG), (ACCEPTANCE_DURATION_MS, HOLD_HEADING_DEG),
        ),
        pitch_deg=sweep_pitch + ((13000.0, HOLD_PITCH_DEG),
                                   (ACCEPTANCE_DURATION_MS, HOLD_PITCH_DEG)),
        roll_deg=sweep_roll + ((13000.0, HOLD_ROLL_DEG),
                                 (ACCEPTANCE_DURATION_MS, HOLD_ROLL_DEG)),
        field=FIELD,
        hard_iron_ut=HARD_IRON,
        noise_sigma_mag_ut=NOISE_MAG,
        noise_sigma_accel_ms2=NOISE_ACCEL,
        rng_seed=seed,
    )
