"""stream-live: the embedded-app use, one `pipeline.process` call per sample.

The device calibrates on its own sweep, then samples arrive one at a time
at 50 Hz while the user walks. Each new GPS fix (every 50 samples) is
turned into a coordinate and a fresh declination lookup. Samples inside
seeded motion bursts carry an out-of-band accelerometer vector, so the
pipeline takes its DynamicSample carry-forward path on them. The stream is
replayed from its start until the run's time is used up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import inputs
import oracle
from harness import ROOT, Outcome, Tracer, caller, median, percentile, self_maxrss_mb

GRID_PATH = ROOT / "data" / "declination_grid.txt"
CHUNK = 5000          # samples per measurement window
SETTLE = 50           # samples after a turn or burst before accuracy is scored


@dataclass
class Stream:
    samples: list
    is_burst: bytearray
    is_hold: bytearray
    truth_heading: list[float]
    path: list[tuple[float, float]]
    qibla_ref: list[float]
    grid: object
    cal: object
    cal_offered: int
    n: int
    # running state, threaded through successive feed() calls
    pos: int = 0
    filt: object = None
    where: object = None
    decl: object = None
    hold_err_sum: float = 0.0
    hold_count: int = 0
    emitted: int = 0
    dynamic: int = 0
    # One summary per CHUNK-sample window: (busy ns, p50 ns, p99 ns). Only
    # summaries are kept, so the benchmark's own memory does not grow with
    # the call count and peak RSS stays a measure of the program.
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    loop_total_ns: int = 0

    def reset_timings(self) -> None:
        self.windows.clear()
        self.loop_total_ns = 0


def prepare(seed: int, n_samples: int, tr: Tracer | None = None, run_id: str = "") -> Stream:
    """Build the stream. With a tracer, the grid load, the calibration and
    the stream's own parse and generate are spans under run_id."""
    from qiblanav import declination, pipeline, simulator

    call = caller(tr)
    grid_text = GRID_PATH.read_text(encoding="utf-8")
    spec = inputs.stream_inputs(seed, n_samples, oracle.Grid(grid_text))
    grid = call("declination.load_grid", run_id, declination.load_grid, str(GRID_PATH))

    sweep, _ = simulator.generate(simulator.parse_scenario(spec.sweep_text))
    cal = call("pipeline.calibrate", run_id, pipeline.calibrate, sweep)

    scn = call("simulator.parse_scenario", run_id, simulator.parse_scenario, spec.stream_text)
    samples, truth = call("simulator.generate", run_id, simulator.generate, scn)
    is_burst = bytearray(n_samples)
    for first, length, scale in spec.bursts:
        for j in range(first, first + length):
            s = samples[j]
            samples[j] = pipeline.SensorSample(s.t_ms, tuple(scale * a for a in s.accel), s.mag)
            is_burst[j] = 1

    heading = [r.true_heading_deg for r in truth]
    is_hold = bytearray(n_samples)
    settled_from = SETTLE
    for j in range(n_samples):
        if is_burst[j] or (j and heading[j] != heading[j - 1]):
            settled_from = j + SETTLE
        elif j >= settled_from:
            is_hold[j] = 1
    return Stream(samples, is_burst, is_hold, heading, spec.path,
                  [oracle.qibla_deg(lat, lon) for lat, lon in spec.path], grid, cal, len(sweep),
                  n_samples, filt=pipeline.FilterState())


def feed(st: Stream, out: Outcome, *, count: int = 0, deadline: float = 0.0,
         tr: Tracer | None = None, run_id: str = "") -> None:
    """Push samples through `process` until `count` are done or `deadline`
    (perf_counter seconds) passes, gating every output.

    Only the fix update and the process call are timed; the gate runs
    outside the timed region. With a tracer, each call becomes a span and
    the qibla bearing of each new fix is also timed as one extra direct call.
    """
    from qiblanav import declination, geodesy, pipeline
    from qiblanav.errors import DynamicSample

    process, declination_at, geo = pipeline.process, declination.declination_at, geodesy.GeoCoordinate
    clock = time.perf_counter_ns
    samples, n = st.samples, st.n
    filt, where, decl, cal, grid = st.filt, st.where, st.decl, st.cal, st.grid
    latencies: list[int] = []
    chunk_ns = total_ns = 0
    done = 0
    while (done < count) if count else (time.perf_counter() < deadline or done < 2 * CHUNK):
        j = st.pos % n
        fix = j // inputs.FIX_EVERY
        t0 = clock()
        if tr is None:
            if j % inputs.FIX_EVERY == 0:
                where = geo(*st.path[fix])
                decl = declination_at(grid, where)
            t1 = clock()
            try:
                filt, state = process(samples[j], where, cal, filt, decl)
            except DynamicSample:
                state = None
        else:
            with tr.span("op.sample", run_id):
                if j % inputs.FIX_EVERY == 0:
                    where = geo(*st.path[fix])
                    decl = tr.call("declination.declination_at", run_id, declination_at, grid, where)
                t1 = clock()
                try:
                    filt, state = tr.call("pipeline.process", run_id, process, samples[j], where, cal, filt, decl)
                except DynamicSample:
                    state = None
        t2 = clock()
        latencies.append(t2 - t1)
        chunk_ns += t2 - t0
        st.pos += 1
        done += 1
        if done % CHUNK == 0:
            st.windows.append((chunk_ns, percentile(latencies, 50.0), percentile(latencies, 99.0)))
            latencies.clear()
            total_ns += chunk_ns
            chunk_ns = 0
        if tr is not None and j % inputs.FIX_EVERY == 0:
            tr.call("geodesy.qibla_azimuth", run_id, geodesy.qibla_azimuth, where,
                    note="extra direct call, untimed by the loop; process makes one per sample")

        burst = st.is_burst[j]
        if state is None:
            # Only a burst before the first usable sample may raise.
            out.record([] if burst and filt.c is None else [f"sample {j}: unexpected DynamicSample"])
            continue
        dev = state.deviation_deg
        if (state.dynamic != bool(burst) or dev != oracle.circ(state.qibla, state.true_heading)
                or state.guidance.value != oracle.expected_guidance(dev)
                or abs(oracle.circ(state.qibla, st.qibla_ref[fix])) > oracle.GEO_TOL
                or not state.calibrated):
            out.record([f"sample {j}: dynamic={state.dynamic} burst={burst} qibla={state.qibla} "
                        f"ref={st.qibla_ref[fix]} dev={dev} guidance={state.guidance.value}"])
            continue
        out.record([])
        st.emitted += 1
        st.dynamic += burst
        if st.is_hold[j]:
            st.hold_err_sum += abs(oracle.circ(state.true_heading, st.truth_heading[j]))
            st.hold_count += 1
    st.filt, st.where, st.decl = filt, where, decl
    st.loop_total_ns += total_ns + chunk_ns


def hold_error_problems(st: Stream) -> list[str]:
    if st.hold_count == 0:
        return ["no hold samples were scored"]
    mean = st.hold_err_sum / st.hold_count
    return [] if mean < oracle.ACCURACY_DEG else [f"mean hold error {mean:.3f} deg"]


def measure(st: Stream, seconds: float, out: Outcome) -> list[str]:
    """The end-to-end run; returns run-level problems (the hold accuracy).
    Each timing figure is the median over the run's CHUNK-sample windows."""
    feed(st, Outcome(), count=CHUNK)  # warm-up
    st.reset_timings()
    st.hold_err_sum, st.hold_count = 0.0, 0
    calls_before = st.pos
    feed(st, out, deadline=time.perf_counter() + seconds)
    out.metrics["throughput_per_s"] = median(CHUNK * 1e9 / w[0] for w in st.windows)
    out.metrics["latency_ms_p50"] = median(w[1] for w in st.windows) / 1e6
    out.metrics["latency_ms_tail"] = median(w[2] for w in st.windows) / 1e6
    out.metrics["peak_rss_mb"] = self_maxrss_mb()
    out.counts["pipeline.process_calls"] = st.pos - calls_before
    return hold_error_problems(st)
