"""Seeded inputs for the three workloads.

Every input comes from the workload seed through `random.Random`, whose
output for a given seed is fixed across Python versions, so one seed gives
one set of files and values. The program receives only these files and
values, never the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

RATE_HZ = 50.0
SWEEP_MS = 12000.0
FIX_EVERY = 50           # 1 Hz GPS fixes against a 50 Hz IMU
METERS_PER_DEG = 111195.0
WALK_SPEED_MS = 1.4      # m/s, a walking user
NOISE_LINES = "noise_sigma_mag_ut 2.0\nnoise_sigma_accel_ms2 0.05\n"

# Input sizes. "full" is the benchmark; "probe" is how the traced run sizes
# the workloads other than the selected one; "tiny" is for the smoke test.
#   batch: trace samples per job        stream: samples in the replayed stream
#   queries: distinct CLI queries
#   setup_repeats: set-ups timed before measuring
#   setup_every_s: seconds between the further set-ups timed during the run
#   stream_fed: samples per traced-run pass
#   start_up_repeats: bare-interpreter and import probes per traced run
#   rounds: untraced/traced pass pairs for the tracing overhead
SIZES = {
    "full": {"batch": 20000, "stream": 15000, "queries": 64, "setup_repeats": 3, "setup_every_s": 2.0,
             "stream_fed": 10000, "start_up_repeats": 5, "rounds": 3},
    "probe": {"batch": 2000, "stream": 3000, "queries": 20, "setup_repeats": 0, "setup_every_s": 0.0,
              "stream_fed": 3000, "start_up_repeats": 3, "rounds": 0},
    "tiny": {"batch": 1500, "stream": 2000, "queries": 20, "setup_repeats": 2, "setup_every_s": 0.5,
             "stream_fed": 1000, "start_up_repeats": 2, "rounds": 2},
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _place(rng: random.Random, lat_range, lon_range) -> tuple[float, float]:
    """A point in the box whose qibla bearing is well defined (2 to 170 deg
    from the Kaaba: neither coincident nor near-antipodal)."""
    while True:
        lat = round(rng.uniform(*lat_range), 4)
        lon = round(rng.uniform(*lon_range), 4)
        if 2.0 <= oracle.separation_deg(lat, lon, *oracle.KAABA) <= 170.0:
            return lat, lon


def _sweep_knots(offset: float, end_pitch: float, end_roll: float) -> tuple[str, str, str]:
    """The 12 s tumbling calibration sweep of data/scenario_example.txt,
    starting at a seeded heading and ending at the hold attitude."""
    heading = " ".join(f"{t}:{offset + d:.1f}" for t, d in ((0, 0), (4000, 120), (8000, 240), (12000, 360)))
    pitch = "0:0 2000:50 4000:-50 6000:50 8000:-50 10000:50 " + f"12000:{end_pitch:.1f}"
    roll = ("0:-50 1200:50 2400:-50 3600:50 4800:-50 6000:50 7200:-50 8400:50 9600:-50 10800:50 "
            + f"12000:{end_roll:.1f}")
    return heading, pitch, roll


def _scenario_text(duration_ms: float, heading: str, pitch: str, roll: str, *, inclination: float,
                   declination: float, hard_iron, rng_seed: int) -> str:
    return (
        "scenario v1\n"
        f"duration_ms {duration_ms!r}\n"
        f"sample_rate_hz {RATE_HZ!r}\n"
        f"heading_deg {heading}\n"
        f"pitch_deg {pitch}\n"
        f"roll_deg {roll}\n"
        "field_horizontal_ut 40.0\n"
        f"field_inclination_deg {inclination!r}\n"
        f"field_declination_deg {declination!r}\n"
        f"hard_iron_ut {hard_iron[0]!r} {hard_iron[1]!r} {hard_iron[2]!r}\n"
        + NOISE_LINES
        + f"rng_seed {rng_seed}\n"
    )


# ---------------------------------------------------------------- batch-trace

@dataclass(frozen=True)
class BatchInputs:
    scenario_text: str
    n_samples: int
    lat: float
    lon: float
    declination: float
    hold_heading: float


def batch_inputs(seed: int, n_samples: int) -> BatchInputs:
    """The offline job: sweep, a one-second turn, then a long seeded hold."""
    rng = _rng("batch-trace", seed)
    hold = round(rng.uniform(0.0, 360.0), 1)
    pitch, roll = round(rng.uniform(-20, 20), 1), round(rng.uniform(-20, 20), 1)
    heading_k, pitch_k, roll_k = _sweep_knots(round(rng.uniform(0, 360), 1), pitch, roll)
    duration = n_samples * 1000.0 / RATE_HZ
    end = max(duration, 14000.0)
    lat, lon = _place(rng, (-45.0, 60.0), (-120.0, 150.0))
    decl = round(rng.uniform(-5.0, 5.0), 2)
    text = _scenario_text(
        duration,
        f"{heading_k} 13000:{hold} {end!r}:{hold}",
        f"{pitch_k} 13000:{pitch} {end!r}:{pitch}",
        f"{roll_k} 13000:{roll} {end!r}:{roll}",
        inclination=round(rng.uniform(-50, 50), 1),
        declination=decl,
        hard_iron=tuple(round(rng.uniform(-30, 30), 1) for _ in range(3)),
        rng_seed=rng.randrange(2**31),
    )
    return BatchInputs(text, n_samples, lat, lon, decl, hold)


# ---------------------------------------------------------------- stream-live

@dataclass(frozen=True)
class StreamInputs:
    sweep_text: str
    stream_text: str
    bursts: list[tuple[int, int, float]]   # (first index, length, accel scale)
    path: list[tuple[float, float]]        # one GPS fix per FIX_EVERY samples
    n_samples: int


def stream_inputs(seed: int, n_samples: int, grid: oracle.Grid) -> StreamInputs:
    """A handheld walk: seeded turns and holds, motion bursts, a GPS path.

    The stream's last heading knot equals its first, so replaying it from
    the start continues smoothly. The field declination is the grid's value
    at the walk's start; the walk covers too little ground for that to
    change by a measurable amount.
    """
    rng = _rng("stream-live", seed)
    duration = n_samples * 1000.0 / RATE_HZ
    start = rng.uniform(0.0, 360.0)
    knots = [(0.0, start)]
    t, h = 0.0, start
    while True:
        t += rng.uniform(4000.0, 12000.0)           # hold
        turn = rng.uniform(500.0, 2500.0)
        if t + turn + 4000.0 >= duration:
            break
        knots.append((t, h))
        h = (h + rng.uniform(-120.0, 120.0)) % 360.0
        t += turn
        knots.append((t, h))
    knots.append((min(t, duration - 2500.0), h))
    knots.append((duration, start))
    heading = " ".join(f"{kt!r}:{kv:.3f}" for kt, kv in knots)
    pitch, roll = round(rng.uniform(10, 35), 1), round(rng.uniform(-10, 10), 1)
    inclination = round(rng.uniform(-50, 50), 1)
    hard_iron = tuple(round(rng.uniform(-30, 30), 1) for _ in range(3))

    lat = rng.uniform(grid.lat_min + 3.0, grid.lat_max - 3.0)
    lon = rng.uniform(grid.lon_min + 3.0, grid.lon_max - 3.0)
    direction = rng.uniform(0.0, 2.0 * math.pi)
    path = []
    for _ in range(-(-n_samples // FIX_EVERY)):
        path.append((lat, lon))
        direction += rng.gauss(0.0, math.radians(20.0))
        step = WALK_SPEED_MS * FIX_EVERY / RATE_HZ / METERS_PER_DEG
        lat += step * math.cos(direction)
        lon += step * math.sin(direction) / math.cos(math.radians(lat))
    decl = grid.at(*path[0])

    common = dict(inclination=inclination, declination=decl, hard_iron=hard_iron)
    sweep_h, sweep_p, sweep_r = _sweep_knots(round(rng.uniform(0, 360), 1), pitch, roll)
    sweep_text = _scenario_text(SWEEP_MS, sweep_h, sweep_p, sweep_r,
                                rng_seed=rng.randrange(2**31), **common)
    stream_text = _scenario_text(duration, heading, str(pitch), str(roll),
                                 rng_seed=rng.randrange(2**31), **common)

    # About 10% of samples sit in bursts of 5-25; half the seeds open with one.
    bursts = []
    i = 0 if rng.random() < 0.5 else rng.randint(50, 220)
    while True:
        length = rng.randint(5, 25)
        if i + length >= n_samples:
            break
        bursts.append((i, length, rng.uniform(1.6, 2.4)))
        i += length + rng.randint(50, 220)
    return StreamInputs(sweep_text, stream_text, bursts, path, n_samples)


# ------------------------------------------------------------------ cli-query

@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]
    expect_code: int
    report_tag: str = ""
    qibla: float | None = None
    distance: float = math.nan
    declination: float | None = None
    points: tuple[tuple[float, float], ...] = ()   # the coordinates the query names


GRID_FILE = "grid.txt"
CITIES_FILE = "cities.csv"
GRID_LAT = (-50.0, 60.0, 10.0)
GRID_LON = (-60.0, 150.0, 15.0)


def _grid_text(rng: random.Random) -> str:
    n_lat = int((GRID_LAT[1] - GRID_LAT[0]) / GRID_LAT[2]) + 1
    n_lon = int((GRID_LON[1] - GRID_LON[0]) / GRID_LON[2]) + 1
    rows = [" ".join(f"{rng.uniform(-15, 15):.1f}" for _ in range(n_lon)) for _ in range(n_lat)]
    head = "declgrid v1 " + " ".join(f"{v:g}" for v in (*GRID_LAT, *GRID_LON))
    return "\n".join([head, *rows]) + "\n"


def cli_inputs(seed: int, workdir: Path, n_queries: int) -> list[Query]:
    """Write the city and grid files into workdir; return the query mix.

    One query in ten must fail with exit 2: the Kaaba itself, or a city off
    the grid. Of the rest, 30% ask qibla by coordinates, 30% qibla by city
    with a grid declination and 40% a distance, half of them by the law of
    cosines.
    """
    rng = _rng("cli-query", seed)
    grid_text = _grid_text(rng)
    (workdir / GRID_FILE).write_text(grid_text, encoding="utf-8")
    grid = oracle.Grid(grid_text)

    inside = [_place(rng, (-48.0, 58.0), (-58.0, 148.0)) for _ in range(32)]
    outside = [_place(rng, (61.0, 75.0), (-170.0, -65.0)) for _ in range(8)]
    cities = [(f"Inside{i:02d}", *p) for i, p in enumerate(inside)]
    cities += [(f"Outside{i:02d}", *p) for i, p in enumerate(outside)]
    lines = ["name,latitude_deg,longitude_deg"] + [f"{n},{la!r},{lo!r}" for n, la, lo in cities]
    (workdir / CITIES_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")

    n_err = max(2, round(0.1 * n_queries))
    n_rest = n_queries - n_err
    kinds = (["qibla-coords"] * (n_rest * 3 // 10) + ["qibla-city"] * (n_rest * 3 // 10)
             + ["distance-slc"] * (n_rest * 2 // 10))
    kinds += ["distance-haversine"] * (n_rest - len(kinds))
    kinds += ["error-kaaba"] * (n_err // 2) + ["error-off-grid"] * (n_err - n_err // 2)
    rng.shuffle(kinds)

    cities_path, grid_path = str(workdir / CITIES_FILE), str(workdir / GRID_FILE)
    queries = []
    for kind in kinds:
        fmt = ("--format", "json")
        if kind == "qibla-coords":
            lat, lon = _place(rng, (-60.0, 70.0), (-180.0, 180.0))
            decl = round(rng.uniform(-20.0, 20.0), 2)
            queries.append(Query(kind, ("qibla", "--lat", repr(lat), "--lon", repr(lon), "--decl", repr(decl), *fmt),
                                 0, "qibla-query v1", oracle.qibla_deg(lat, lon),
                                 oracle.distance_km(lat, lon, *oracle.KAABA), decl, ((lat, lon),)))
        elif kind == "qibla-city":
            name, lat, lon = cities[rng.randrange(len(inside))]
            queries.append(Query(kind, ("qibla", "--city", name, "--cities", cities_path,
                                        "--decl-grid", grid_path, *fmt),
                                 0, "qibla-query v1", oracle.qibla_deg(lat, lon),
                                 oracle.distance_km(lat, lon, *oracle.KAABA), grid.at(lat, lon), ((lat, lon),)))
        elif kind.startswith("distance"):
            method = kind.split("-", 1)[1]
            a = _place(rng, (-70.0, 70.0), (-180.0, 180.0))
            while True:
                b = _place(rng, (-70.0, 70.0), (-180.0, 180.0))
                if 2.0 <= oracle.separation_deg(*a, *b) <= 170.0:
                    break
            queries.append(Query(kind, ("distance", "--from-lat", repr(a[0]), "--from-lon", repr(a[1]),
                                        "--to-lat", repr(b[0]), "--to-lon", repr(b[1]),
                                        "--method", method, *fmt),
                                 0, "distance-query v1", None, oracle.distance_km(*a, *b), None, (a, b)))
        elif kind == "error-kaaba":
            lat, lon = oracle.KAABA
            queries.append(Query(kind, ("qibla", "--lat", repr(lat), "--lon", repr(lon), "--decl", "0", *fmt), 2))
        else:
            name = cities[len(inside) + rng.randrange(len(outside))][0]
            queries.append(Query(kind, ("qibla", "--city", name, "--cities", cities_path,
                                        "--decl-grid", grid_path, *fmt), 2))
    return queries
