"""Smoke test of the benchmark itself, not of qiblanav. Run it from the
root of a checkout:

    python3 perfbench/smoke.py

It makes a tiny run of every workload, stream-live included, in both modes
and checks that every metric BENCHMARK.json names is printed with its unit
and that the gates pass. It then corrupts copies of real outputs and checks that each gate
trips, and checks that the benchmark refuses to run without the program.
It takes about a minute; it is not part of the unit test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import batch
import harness
import inputs
import oracle
import stream
from harness import ROOT, Outcome, make_workdir, run_cli
from run import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def check_runs() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in WORKLOADS:
            proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                         "--trace", str(mode), "--size", "tiny"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {mode}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{label}: {result}\n{proc.stderr}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{label}: metrics {got} != {expected}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
            print(f"ok  {label}: {len(got)} metrics, {result['attempted']} operations")


def check_batch_gate(workdir: Path) -> None:
    spec = batch.prepare(1, 1500, workdir)
    out = Outcome()
    batch.traced_job(spec, workdir, out, None, "smoke")
    assert out.failed == 0, out.problems
    report = workdir / batch.REPORT
    good = report.read_text(encoding="utf-8")
    args = dict(n_samples=spec.n_samples, lat=spec.lat, lon=spec.lon, hold_heading=spec.hold_heading)
    assert oracle.check_batch_report(json.loads(good), **args) == []

    nan = workdir / "nan.json"
    nan.write_text(good.replace('"deviation_deg": ', '"deviation_deg": NaN, "x": ', 1), encoding="utf-8")
    try:
        oracle.load_report(nan)
    except ValueError:
        pass
    else:
        raise AssertionError("a NaN in the report passed the gate")

    doc = json.loads(good)
    doc["samples"][-1]["true_heading_deg"] += 5.0
    assert oracle.check_batch_report(doc, **args), "a wrong heading passed the gate"
    doc = json.loads(good)
    for s in doc["samples"]:
        s["qibla_deg"] += 2e-6
        s["deviation_deg"] = oracle.circ(s["qibla_deg"], s["true_heading_deg"])
    assert oracle.check_batch_report(doc, **args), "a drifted qibla bearing passed the gate"
    doc = json.loads(good)
    del doc["samples"][5]
    assert oracle.check_batch_report(doc, **args), "a missing sample passed the gate"
    assert oracle.check_batch_report(json.loads(good), **dict(args, hold_heading=spec.hold_heading + 3.0)), \
        "a heading 3 deg off the hold passed the gate"
    print("ok  batch-trace gate trips on NaN, wrong heading, drifted qibla, lost sample, inaccuracy")


def check_query_gate(workdir: Path) -> None:
    queries = inputs.cli_inputs(1, workdir, 20)
    ok = next(q for q in queries if q.kind == "qibla-city")
    res = run_cli(list(ok.argv), workdir)
    assert oracle.check_query(ok, res.code, res.stdout) == [], res.stderr
    doc = json.loads(res.stdout)
    for key, delta in (("qibla_deg", 1e-5), ("distance_km", 1e-5), ("declination_deg", 1e-6)):
        bad = dict(doc, **{key: doc[key] + delta})
        assert oracle.check_query(ok, 0, json.dumps(bad)), f"a wrong {key} passed the gate"
    assert oracle.check_query(ok, 2, ""), "a wrong exit code passed the gate"
    assert oracle.check_query(ok, 0, res.stdout.replace(str(doc["qibla_deg"]), "NaN")), "NaN passed the gate"
    err = next(q for q in queries if q.expect_code == 2)
    assert oracle.check_query(err, 0, res.stdout), "a query that must fail passed with exit 0"
    print("ok  cli-query gate trips on wrong qibla, distance, declination, exit code, NaN")


def check_stream_gate() -> None:
    st = stream.prepare(1, 2000)
    out = Outcome()
    stream.feed(st, out, count=2000)
    assert out.failed == 0 and stream.hold_error_problems(st) == [], out.problems
    st.is_burst[st.is_burst.index(0, 1)] = 1   # expect a carry-forward the pipeline will not make
    st.qibla_ref[0] += 1e-3           # and a different bearing on the first fix
    out = Outcome()
    stream.feed(st, out, count=2000)
    assert out.failed >= 2, "the stream gate passed a corrupted expectation"
    st.hold_err_sum, st.hold_count = 2.0 * st.hold_count, st.hold_count
    assert stream.hold_error_problems(st), "a 2 deg hold error passed the gate"
    print("ok  stream-live gate trips on a wrong dynamic flag, a wrong bearing, a hold error")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-query", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                              timeout=170)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok  refuses to run, and prints no result, without the program's sources")


def main() -> int:
    harness.require_checkout()
    check_runs()
    workdir = make_workdir("smoke")
    try:
        check_batch_gate(workdir)
        check_query_gate(workdir)
        check_stream_gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_refuses_without_program()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
