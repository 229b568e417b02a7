"""batch-trace: the offline job, `qiblanav simulate` then `qiblanav pipeline`.

One operation is one job: both commands, each in its own interpreter, so
start-up and imports count. The traced run makes the same calls in-process
that `cmd_simulate` and `cmd_pipeline` make.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import inputs
import oracle
from harness import Outcome, SetupTimer, Tracer, caller, median, op_span, run_cli

SCENARIO = "scenario.txt"
TRACE = "trace.txt"
REPORT = "report.json"


def prepare(seed: int, n_samples: int, workdir: Path) -> inputs.BatchInputs:
    spec = inputs.batch_inputs(seed, n_samples)
    (workdir / SCENARIO).write_text(spec.scenario_text, encoding="utf-8")
    return spec


def _pipeline_argv(spec: inputs.BatchInputs) -> list[str]:
    return ["pipeline", "--trace", TRACE, "--lat", repr(spec.lat), "--lon", repr(spec.lon),
            "--decl", repr(spec.declination), "--sweep-ms", repr(inputs.SWEEP_MS),
            "--format", "json", "--out", REPORT]


def _job(spec: inputs.BatchInputs, workdir: Path) -> tuple[float, float, float, list[str]]:
    """Run one job; (simulate seconds, pipeline seconds, pipeline peak RSS MB, problems)."""
    sim = run_cli(["simulate", "--scenario", SCENARIO, "--out", TRACE, "--format", "json"], workdir)
    if sim.code != 0:
        return sim.wall_s, 0.0, 0.0, [f"simulate exit {sim.code}: {sim.stderr.strip()[-200:]}"]
    problems = oracle.simulate_problems(sim.stdout, spec.n_samples)
    if (workdir / TRACE).read_bytes().count(b"\ns ") != spec.n_samples:
        problems.append("trace file sample count differs")
    pipe = run_cli(_pipeline_argv(spec), workdir)
    if pipe.code != 0:
        return (sim.wall_s, pipe.wall_s, pipe.maxrss_mb,
                problems + [f"pipeline exit {pipe.code}: {pipe.stderr.strip()[-200:]}"])
    return (sim.wall_s, pipe.wall_s, pipe.maxrss_mb,
            problems + oracle.check_report_file(workdir / REPORT, **_expected(spec)))


def _expected(spec: inputs.BatchInputs) -> dict:
    return dict(n_samples=spec.n_samples, lat=spec.lat, lon=spec.lon, hold_heading=spec.hold_heading)


def measure(setup: SetupTimer, workdir: Path, seconds: float, out: Outcome) -> None:
    """Run jobs until their summed wall time reaches `seconds`. The gates and
    the set-up samples run between jobs and are not part of that time.

    `throughput_per_s` counts both commands of a job. The two commands'
    own rates are kept on the run's info line (`stage_samples_per_s`)."""
    spec = setup.built
    sim_s, pipe_s, rss = [], [], []
    while sum(sim_s) + sum(pipe_s) < seconds or len(sim_s) < 3:
        sim, pipe, peak, problems = _job(spec, workdir)
        out.record(problems)
        sim_s.append(sim)
        pipe_s.append(pipe)
        rss.append(peak)
        setup.between_ops()
    walls = [a + b for a, b in zip(sim_s, pipe_s)]
    out.set_latencies_ms([w * 1e3 for w in walls], tail_q=100.0)
    out.metrics["throughput_per_s"] = spec.n_samples * len(walls) / sum(walls)
    out.metrics["peak_rss_mb"] = median(rss)
    out.info["stage_samples_per_s"] = {"simulate": spec.n_samples / median(sim_s),
                                       "pipeline": spec.n_samples / median(pipe_s)}
    out.counts["dataio.trace_bytes"] = os.path.getsize(workdir / TRACE)
    out.counts["dataio.report_bytes"] = os.path.getsize(workdir / REPORT)


def traced_job(spec: inputs.BatchInputs, workdir: Path, out: Outcome, tr: Tracer | None,
               run_id: str) -> tuple[float, dict]:
    """The in-process call sequence of `qiblanav simulate` + `qiblanav pipeline`.

    With tr=None nothing is recorded: this is the untraced baseline for the
    tracing overhead. Returns the sequence's seconds and its exact counts;
    the extra direct calls made after it are not part of those seconds.
    """
    from qiblanav import dataio, declination, geodesy, pipeline, simulator

    call = caller(tr)
    trace_path, report_path = str(workdir / TRACE), str(workdir / REPORT)
    t0 = time.perf_counter()
    with op_span(tr, "op.job", run_id):
        scenario = call("simulator.parse_scenario", run_id, simulator.parse_scenario,
                        (workdir / SCENARIO).read_text(encoding="utf-8"))
        samples, truth = call("simulator.generate", run_id, simulator.generate, scenario)
        call("dataio.write_trace", run_id, dataio.write_trace,
             dataio.TraceFile(samples=tuple(samples), truth=tuple(truth)), trace_path)
        trace = call("dataio.read_trace", run_id, dataio.read_trace, trace_path)
        sweep = [s for s in trace.samples if s.t_ms <= inputs.SWEEP_MS]
        cal = call("pipeline.calibrate", run_id, pipeline.calibrate, sweep)
        where = geodesy.GeoCoordinate(spec.lat, spec.lon)
        entries = call("pipeline.run_trace", run_id, pipeline.run_trace, list(trace.samples), where, cal,
                       declination.DeclinationDeg(spec.declination))
        call("dataio.write_report", run_id, dataio.write_report, entries, report_path,
             fmt="json", truth=list(trace.truth), meta={})
    seconds = time.perf_counter() - t0
    if tr is not None:
        tr.call("dataio.summarize", run_id, dataio.summarize, entries, list(trace.truth),
                note="extra direct call; write_report already summarizes")
        tr.call("geodesy.qibla_azimuth", run_id, geodesy.qibla_azimuth, where,
                note="extra direct call; run_trace makes one per sample")
    out.record(oracle.check_report_file(report_path, **_expected(spec)))
    return seconds, {
        "pipeline.process_calls": len(trace.samples),
        "pipeline.emitted": len(entries),
        "pipeline.dynamic": sum(1 for _, s in entries if s.dynamic),
        "pipeline.calibrate_used": cal.samples_used,
        "pipeline.calibrate_offered": len(sweep),
        "dataio.trace_bytes": os.path.getsize(trace_path),
        "dataio.report_bytes": os.path.getsize(report_path),
    }
