"""The traced run: per-layer numbers for one workload.

Spans are recorded from the benchmark's side of each call into a layer's
public functions; nothing inside `src/` is instrumented. The selected
workload runs its in-process call sequence at full size, alternately
without and with spans, and the difference is the tracing overhead. The
other two workloads' sequences then run once, traced, at probe size, so
that every layer reports a figure on every workload: a metric the selected
workload produces itself always wins over a probe's.
"""

from __future__ import annotations

from pathlib import Path

import batch
import cliquery
import inputs
import stream
from harness import Outcome, Tracer, median, percentile

LAYERS = ("simulator", "dataio", "pipeline", "geodesy", "declination", "cli")
MICRO = {"geodesy.qibla_azimuth", "geodesy.haversine_distance", "geodesy.slc_distance",
         "declination.declination_at"}

# (name, unit); the name's first component is the layer.
PER_LAYER = (
    [("simulator.parse_scenario_ms", "ms"), ("simulator.generate_ms", "ms"),
     ("dataio.write_trace_ms", "ms"), ("dataio.read_trace_ms", "ms"), ("dataio.summarize_ms", "ms"),
     ("dataio.write_report_ms", "ms"), ("dataio.load_cities_ms", "ms"),
     ("dataio.trace_bytes", "bytes"), ("dataio.report_bytes", "bytes"),
     ("pipeline.calibrate_ms", "ms"), ("pipeline.calibrate_usable_ratio", "ratio"),
     ("pipeline.run_trace_ms", "ms"), ("pipeline.run_trace_us_per_sample", "us"),
     ("pipeline.process_us_p50", "us"), ("pipeline.process_us_p99", "us"),
     ("pipeline.process_calls", "count"), ("pipeline.emitted_ratio", "ratio"),
     ("pipeline.dynamic_ratio", "ratio"),
     ("geodesy.qibla_azimuth_us", "us"), ("geodesy.haversine_distance_us", "us"),
     ("geodesy.slc_distance_us", "us"),
     ("declination.load_grid_ms", "ms"), ("declination.declination_at_us", "us"),
     ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("tracing.overhead_pct", "%")]
)


def span_metrics(tr: Tracer, run_id: str) -> dict[str, float]:
    """Median duration of each named call made under run_id."""
    by_name: dict[str, list[float]] = {}
    for s in tr.spans:
        if s.run_id == run_id:
            by_name.setdefault(s.name, []).append((s.end_ns - s.start_ns) / 1e3)
    metrics = {}
    for name, us in by_name.items():
        if name == "pipeline.process":
            metrics["pipeline.process_us_p50"] = percentile(us, 50.0)
            metrics["pipeline.process_us_p99"] = percentile(us, 99.0)
        elif name in MICRO:
            metrics[f"{name}_us"] = median(us)
        else:
            metrics[f"{name}_ms"] = median(us) / 1e3
    return metrics


def _passes(rounds: int, untraced, traced) -> float | None:
    """Run `rounds` pairs of an untraced and a traced pass of the same calls,
    alternating which goes first, so a drift in host speed does not always
    favour one side. Each pass returns its seconds. Returns the median over
    pairs of the traced pass's extra time as a percentage of the untraced
    one; with no rounds, runs one traced pass and returns None."""
    if not rounds:
        traced()
        return None
    pcts = []
    for r in range(rounds):
        if r % 2:
            t, u = traced(), untraced()
        else:
            u, t = untraced(), traced()
        pcts.append(100.0 * (t / u - 1.0))
    return median(pcts)


def _count_metrics(counts: dict) -> dict[str, float]:
    calls, emitted = counts["pipeline.process_calls"], counts["pipeline.emitted"]
    metrics = {
        "pipeline.process_calls": calls,
        "pipeline.emitted_ratio": emitted / calls,
        "pipeline.dynamic_ratio": counts["pipeline.dynamic"] / emitted,
        "pipeline.calibrate_usable_ratio": counts["pipeline.calibrate_used"] / counts["pipeline.calibrate_offered"],
    }
    for key in ("dataio.trace_bytes", "dataio.report_bytes"):
        if key in counts:
            metrics[key] = counts[key]
    return metrics


def trace_batch(seed: int, size: dict, workdir: Path, tr: Tracer, run_id: str, out: Outcome) -> dict:
    spec = batch.prepare(seed, size["batch"], workdir)
    counts = {}

    def traced() -> float:
        seconds, job_counts = batch.traced_job(spec, workdir, out, tr, run_id)
        counts.update(job_counts)
        return seconds

    overhead = _passes(size["rounds"], lambda: batch.traced_job(spec, workdir, out, None, run_id)[0], traced)
    metrics = span_metrics(tr, run_id)
    metrics.update(_count_metrics(counts))
    metrics["pipeline.run_trace_us_per_sample"] = (
        1e3 * metrics["pipeline.run_trace_ms"] / counts["pipeline.process_calls"])
    if overhead is not None:
        metrics["tracing.overhead_pct"] = overhead
    return metrics


def trace_stream(seed: int, size: dict, workdir: Path, tr: Tracer, run_id: str, out: Outcome) -> dict:
    del workdir
    st = stream.prepare(seed, size["stream"], tr, run_id)
    stream.feed(st, out, count=stream.CHUNK)  # warm-up

    def one_pass(traced: bool) -> float:
        st.reset_timings()
        stream.feed(st, out, count=size["stream_fed"], tr=tr if traced else None, run_id=run_id)
        return st.loop_total_ns / 1e9

    overhead = _passes(size["rounds"], lambda: one_pass(False), lambda: one_pass(True))
    out.record(stream.hold_error_problems(st))
    metrics = span_metrics(tr, run_id)
    metrics.update(_count_metrics({
        "pipeline.process_calls": st.pos, "pipeline.emitted": st.emitted, "pipeline.dynamic": st.dynamic,
        "pipeline.calibrate_used": st.cal.samples_used, "pipeline.calibrate_offered": st.cal_offered,
    }))
    if overhead is not None:
        metrics["tracing.overhead_pct"] = overhead
    return metrics


def trace_cli(seed: int, size: dict, workdir: Path, tr: Tracer, run_id: str, out: Outcome) -> dict:
    queries = inputs.cli_inputs(seed, workdir, size["queries"])
    overhead = _passes(size["rounds"], lambda: sum(cliquery.main_in_process(queries, out, None, run_id)),
                       lambda: sum(cliquery.main_in_process(queries, out, tr, run_id)))
    cliquery.direct_calls(queries, tr, run_id)
    import_ms = cliquery.start_up_probes(workdir, size["start_up_repeats"], tr, run_id)
    metrics = span_metrics(tr, run_id)
    metrics["cli.import_ms"] = median(import_ms)
    if overhead is not None:
        metrics["tracing.overhead_pct"] = overhead
    return metrics


SEQUENCES = {"batch-trace": trace_batch, "stream-live": trace_stream, "cli-query": trace_cli}


def traced_run(workload: str, seed: int, size_name: str, workdir: Path, out: Outcome) -> Tracer:
    """Fill out.metrics with every per-layer metric; returns the spans."""
    tr = Tracer()
    metrics = SEQUENCES[workload](seed, inputs.SIZES[size_name], workdir, tr, workload, out)
    probe = dict(inputs.SIZES["tiny" if size_name == "tiny" else "probe"], rounds=0)
    for other, sequence in SEQUENCES.items():
        if other != workload:
            for key, value in sequence(seed, probe, workdir, tr, f"probe:{other}", out).items():
                metrics.setdefault(key, value)
    self_ms = tr.layer_self_ms()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    out.metrics.update(metrics)
    return tr
