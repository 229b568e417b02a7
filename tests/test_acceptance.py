"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import json
import math
import time

import numpy as np

from qiblanav import (
    CalibrationState,
    DeclinationDeg,
    FilterState,
    GeoCoordinate,
    MagneticField,
    PointerSettings,
    Scenario,
    TraceFile,
    calibrate,
    circular_diff,
    filter_heading,
    generate,
    haversine_distance,
    initial_bearing,
    qibla_azimuth,
    read_trace,
    run_trace,
    slc_distance,
    tilt_compensated_heading,
    write_trace,
)

from cli_checks import run_cli
from conftest import DATA_DIR, GOLDEN_DIR
from oracles import circular_abs_diff, unit_vectors, walk_bearing
from scenarios import HARD_IRON, SWEEP_MS, acceptance_scenario, tumbled_sweep

BANDUNG = GeoCoordinate(-6.9147, 107.6098)


def _random_pairs(rng, n, min_sep_deg, max_sep_deg):
    """Uniform sphere pairs with angular separation inside [min, max] deg."""
    lat1 = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    lon1 = rng.uniform(-180.0, 180.0, n)
    lat2 = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    lon2 = rng.uniform(-180.0, 180.0, n)
    while True:
        u1 = unit_vectors(lat1, lon1)
        u2 = unit_vectors(lat2, lon2)
        sep = np.degrees(np.arctan2(
            np.linalg.norm(np.cross(u1, u2), axis=-1), (u1 * u2).sum(axis=-1)))
        bad = (sep < min_sep_deg) | (sep > max_sep_deg)
        if not bad.any():
            return lat1, lon1, lat2, lon2
        k = int(bad.sum())
        lat2[bad] = np.degrees(np.arcsin(rng.uniform(-1, 1, k)))
        lon2[bad] = rng.uniform(-180.0, 180.0, k)


def test_criterion_1_bearing_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    lat1, lon1, lat2, lon2 = _random_pairs(rng, 10000, 0.1, 179.9)
    expected = walk_bearing(lat1, lon1, lat2, lon2)
    worst = 0.0
    for i in range(10000):
        got = float(initial_bearing(GeoCoordinate(lat1[i], lon1[i]),
                                    GeoCoordinate(lat2[i], lon2[i])))
        worst = max(worst, float(circular_abs_diff(got, expected[i])))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst circular difference {worst} deg"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 1 (bearing oracle equivalence, worst {worst:.2e} deg, "
          f"{elapsed:.2f} s): PASS")


def test_criterion_2_qibla_meridian_exactness():
    south = np.linspace(-90.0, 21.42, 50)
    north = np.linspace(21.43, 90.0, 50)
    for lat in south:
        q = float(qibla_azimuth(GeoCoordinate(float(lat), 39.8262)))
        assert min(q, 360.0 - q) <= 1e-9
    for lat in north:
        q = float(qibla_azimuth(GeoCoordinate(float(lat), 39.8262)))
        assert abs(q - 180.0) <= 1e-9
    print("\nACCEPTANCE 2 (qibla meridian exactness, 100 points): PASS")


def test_criterion_3_distance_crosscheck():
    rng = np.random.default_rng(33)
    lat1, lon1, lat2, lon2 = _random_pairs(rng, 10000, 0.009, 180.0)  # >= 1 km
    worst_rel = 0.0
    for i in range(10000):
        a = GeoCoordinate(lat1[i], lon1[i])
        b = GeoCoordinate(lat2[i], lon2[i])
        h = float(haversine_distance(a, b))
        s = float(slc_distance(a, b))
        worst_rel = max(worst_rel, abs(h - s) / h)
    assert worst_rel < 1e-6, f"worst relative disagreement {worst_rel}"
    half = math.pi * 6371.0
    for a, b in [
        (GeoCoordinate(0, 0), GeoCoordinate(0, 180)),
        (GeoCoordinate(90, 10), GeoCoordinate(-90, 60)),
        (GeoCoordinate(0, -90), GeoCoordinate(0, 90)),
    ]:
        d = float(haversine_distance(a, b))
        assert abs(d - half) / half < 1e-9
    print(f"\nACCEPTANCE 3 (distance cross-check, worst rel {worst_rel:.2e}): PASS")


def test_criterion_4_tilt_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    field = MagneticField(40.0, inclination_deg=-30.0)
    cal = CalibrationState()
    worst = 0.0
    for _ in range(1000):
        yaw = float(rng.uniform(0.0, 360.0))
        pitch = float(rng.uniform(-60.0, 60.0))
        roll = float(rng.uniform(-60.0, 60.0))
        scenario = Scenario(
            duration_ms=20.0, sample_rate_hz=50.0,
            heading_deg=((0.0, yaw),), pitch_deg=((0.0, pitch),),
            roll_deg=((0.0, roll),), field=field,
        )
        samples, truth = generate(scenario)
        got = float(tilt_compensated_heading(samples[0], cal))
        worst = max(worst, float(circular_abs_diff(got, truth[0].true_heading_deg)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst recovery error {worst} deg"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 4 (tilt round trip, worst {worst:.2e} deg, {elapsed:.2f} s): PASS")


def test_criterion_5_sub_degree_accuracy_claim():
    start = time.perf_counter()
    decl = DeclinationDeg(0.8)
    results = []
    for seed in (1, 2, 3, 4, 5):
        samples, truth = generate(acceptance_scenario(seed))
        sweep = [s for s in samples if s.t_ms <= SWEEP_MS]
        cal = calibrate(sweep)
        assert cal.converged
        entries = run_trace(list(samples), BANDUNG, cal, decl)
        truth_heading = {r.t_ms: r.true_heading_deg for r in truth}
        t_end = entries[-1][0]
        head_errs = []
        dev_errs = []
        for t, state in entries:
            if t < t_end - 10000.0:
                continue
            true_h = truth_heading[t]
            head_errs.append(abs(circular_diff(state.true_heading, true_h)))
            true_dev = circular_diff(state.qibla, true_h)
            dev_errs.append(abs(circular_diff(state.deviation_deg, true_dev)))
        mean_head = sum(head_errs) / len(head_errs)
        mean_dev = sum(dev_errs) / len(dev_errs)
        assert mean_head < 1.0, f"seed {seed}: heading error {mean_head:.3f} deg"
        assert mean_dev < 1.0, f"seed {seed}: deviation error {mean_dev:.3f} deg"
        results.append((seed, mean_head))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    detail = ", ".join(f"seed {s}: {e:.3f}" for s, e in results)
    print(f"\nACCEPTANCE 5 (sub-degree accuracy over final 10 s; {detail}; "
          f"{elapsed:.2f} s): PASS")


def test_criterion_6_calibration_recovery_under_noise():
    samples, _ = generate(tumbled_sweep(
        seed=1, hard_iron=HARD_IRON, noise_mag=2.0, noise_accel=0.05))
    assert len(samples) == 400
    cal = calibrate(list(samples))
    errors = [abs(cal.hard_iron[i] - HARD_IRON[i]) for i in range(3)]
    assert max(errors) < 0.5, f"per-axis errors {errors}"
    print(f"\nACCEPTANCE 6 (hard-iron recovery, max axis error "
          f"{max(errors):.3f} uT): PASS")


def test_criterion_7_filter_properties():
    # fixed point: constant input converges to itself
    state = FilterState()
    out = None
    for _ in range(150):
        state, out = filter_heading(state, 210.5)
    assert circular_abs_diff(float(out), 210.5) < 1e-9

    # passthrough at alpha = 1
    state = FilterState()
    for h in (0.0, 359.999, 123.456, 42.0):
        state, out = filter_heading(state, h, settings=PointerSettings(alpha=1.0))
        assert float(out) == h

    # wrap-safe step: 350 -> 10 converges without transiting 180
    state, _ = filter_heading(FilterState(), 350.0)
    prev_dist = circular_abs_diff(350.0, 10.0)
    for _ in range(300):
        state, out = filter_heading(state, 10.0)
        dist = circular_abs_diff(float(out), 10.0)
        assert dist <= prev_dist
        assert dist <= 20.0  # never leaves the short arc
        prev_dist = dist
    assert prev_dist < 1e-6
    print("\nACCEPTANCE 7 (filter fixed point, passthrough, wrap-safe step): PASS")


def test_criterion_8_serialization_identity(tmp_path):
    samples, truth = generate(acceptance_scenario(seed=2))
    decl = DeclinationDeg(0.8)

    def full_run(sample_list):
        cal = calibrate([s for s in sample_list if s.t_ms <= SWEEP_MS])
        return run_trace(list(sample_list), BANDUNG, cal, decl)

    direct = full_run(samples)

    path = tmp_path / "trace.txt"
    write_trace(TraceFile(tuple(samples), tuple(truth)), str(path))
    loaded = read_trace(str(path))
    assert loaded.samples == tuple(samples)
    assert loaded.truth == tuple(truth)
    replayed = full_run(list(loaded.samples))

    assert len(direct) == len(replayed)
    for (t1, s1), (t2, s2) in zip(direct, replayed):
        assert t1 == t2
        assert s1 == s2  # dataclass equality: bit-for-bit on every float
    print("\nACCEPTANCE 8 (serialization round trip, bit-identical pipeline): PASS")


def test_criterion_9_cli_contract(tmp_path, monkeypatch):
    cities = str(DATA_DIR / "cities.csv")
    scenario = str(DATA_DIR / "scenario_example.txt")

    def golden(name):
        return (GOLDEN_DIR / name).read_text(encoding="utf-8")

    # golden structured outputs per subcommand
    code, out, _ = run_cli(["qibla", "--lat", "-6.9147", "--lon", "107.6098",
                            "--decl", "0.8", "--format", "json"])
    assert code == 0 and out == golden("qibla.json")

    code, out, _ = run_cli(["distance", "--from-lat", "0", "--from-lon", "0",
                            "--to-lat", "0", "--to-lon", "180", "--format", "json"])
    assert code == 0 and out == golden("distance.json")

    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["simulate", "--scenario", scenario, "--out", "trace.txt",
                            "--format", "json"])
    assert code == 0 and out == golden("simulate.json")

    code, out, _ = run_cli(["pipeline", "--trace", "trace.txt", "--city", "Bandung",
                            "--cities", cities, "--decl", "0.8", "--sweep-ms", "12000",
                            "--out", "report.json", "--format", "json"])
    assert code == 0 and out == golden("pipeline.json")
    assert json.loads(out)["summary"]["steady_state_error_deg"] < 1.0

    code, out, _ = run_cli(["calibrate", "--trace", "trace.txt", "--format", "json"])
    assert code == 0 and out == golden("calibrate.json")

    # exit-code table: 2 domain, 3 insufficiency, 64 usage
    assert run_cli(["qibla", "--lat", "21.4225", "--lon", "39.8262"])[0] == 2
    assert run_cli(["qibla", "--city", "Nowhere", "--cities", cities])[0] == 2
    assert run_cli(["qibla", "--lat", "1"])[0] == 64
    assert run_cli(["distance", "--from-lat", "0"])[0] == 64
    bad_scenario = tmp_path / "bad.txt"
    bad_scenario.write_text("scenario v1\nduration_ms -5\nsample_rate_hz 50\n"
                            "heading_deg 0\nfield_horizontal_ut 40\n")
    assert run_cli(["simulate", "--scenario", str(bad_scenario), "--out", "x.txt"])[0] == 2

    tiny, _ = generate(tumbled_sweep(seed=0, duration_ms=100.0))
    write_trace(TraceFile(tuple(tiny)), "tiny.txt")
    assert run_cli(["pipeline", "--trace", "tiny.txt", "--lat", "0", "--lon", "0",
                    "--out", "r.json"])[0] == 3
    print("\nACCEPTANCE 9 (CLI golden outputs and exit-code table): PASS")
