"""cli-query: scripted or interactive lookups, one `qiblanav` process each.

Interpreter start-up and imports dominate these invocations; the query
itself takes microseconds. The traced run splits one invocation into its
parts: the bare interpreter, the import of `qiblanav.cli` in a fresh
interpreter, and a warm in-process `cli.main(argv)`, plus one extra direct
call of each library function the query kind uses.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import inputs
import oracle
from harness import Outcome, SetupTimer, Tracer, median, run_child, run_cli, timed_import_s

MIN_INVOCATIONS = 50  # so that ten invocations lie beyond the p80


def measure(setup: SetupTimer, workdir: Path, seconds: float, out: Outcome) -> None:
    """Run invocations until their summed wall time reaches `seconds`; the
    gates and the set-up samples run between invocations."""
    queries = setup.built
    for q in queries[:3]:  # warm-up: byte-compiles the package
        run_cli(list(q.argv), workdir)
    latencies, rss = [], []
    i = 0
    while sum(latencies) < 1e3 * seconds or i < MIN_INVOCATIONS:
        q = queries[i % len(queries)]
        res = run_cli(list(q.argv), workdir)
        out.record(oracle.check_query(q, res.code, res.stdout))
        latencies.append(res.wall_s * 1e3)
        rss.append(res.maxrss_mb)
        i += 1
        setup.between_ops()
    out.set_latencies_ms(latencies, tail_q=80.0)
    out.metrics["throughput_per_s"] = 1e3 * len(latencies) / sum(latencies)
    out.metrics["peak_rss_mb"] = median(rss)


def main_in_process(queries: list[inputs.Query], out: Outcome, tr: Tracer | None, run_id: str) -> list[float]:
    """Run every query through a warm `cli.main`; returns per-query seconds."""
    from qiblanav import cli

    seconds = []
    for q in queries:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                if tr is None:
                    code = cli.main(list(q.argv))
                else:
                    code = tr.call("cli.main", run_id, cli.main, list(q.argv), note=q.kind)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            seconds.append(time.perf_counter() - t0)
        out.record(oracle.check_query(q, code, stdout.getvalue()))
    return seconds


def direct_calls(queries: list[inputs.Query], tr: Tracer, run_id: str) -> None:
    """One direct call of each library function a query kind relies on."""
    from qiblanav import dataio, declination, geodesy

    for q in queries:
        if q.expect_code != 0:
            continue
        points = [geodesy.GeoCoordinate(*p) for p in q.points]
        note = f"extra direct call for {q.kind}"
        if q.kind == "qibla-city":
            tr.call("dataio.load_cities", run_id, dataio.load_cities, q.argv[q.argv.index("--cities") + 1], note=note)
            grid = tr.call("declination.load_grid", run_id, declination.load_grid,
                           q.argv[q.argv.index("--decl-grid") + 1], note=note)
            tr.call("declination.declination_at", run_id, declination.declination_at, grid, points[0], note=note)
        if q.kind.startswith("qibla"):
            tr.call("geodesy.qibla_azimuth", run_id, geodesy.qibla_azimuth, points[0], note=note)
            tr.call("geodesy.haversine_distance", run_id, geodesy.haversine_distance, points[0], geodesy.KAABA,
                    note=note)
        elif q.kind == "distance-slc":
            tr.call("geodesy.slc_distance", run_id, geodesy.slc_distance, *points, note=note)
        else:
            tr.call("geodesy.haversine_distance", run_id, geodesy.haversine_distance, *points, note=note)


def start_up_probes(workdir: Path, repeats: int, tr: Tracer, run_id: str) -> list[float]:
    """Bare interpreter spans; returns the import times each fresh child reports."""
    import_ms = []
    for _ in range(repeats):
        tr.call("cli.interpreter", run_id, run_child, ["-c", "pass"], workdir,
                note="bare interpreter start-up, the floor of every invocation")
        import_ms.append(timed_import_s("qiblanav.cli", workdir) * 1e3)
    return import_ms
