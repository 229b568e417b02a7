"""qiblanav benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-trace --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it measures the package under the
checkout's `src/` and nothing else. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, measured with no spans;
with `--trace 1` they are the per-layer ones from a separate traced run.
Exit codes: 0 measured (whatever `correct` says), 2 no program to measure,
3 out of time.

Workloads (each a closed loop with one caller, in one process, no threads):
  batch-trace  the offline job: `qiblanav simulate` then `qiblanav pipeline`
  stream-live  one `pipeline.process` call per sample, as an app would make
  cli-query    sequential `qiblanav qibla` / `qiblanav distance` invocations
See perfbench/README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import batch
import cliquery
import harness
import inputs
import layers
import stream
from harness import Outcome, SetupTimer

E2E_UNITS = {
    "setup_s": "s",
    "success_ratio": "ratio",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
TIME_LIMIT_S = 170
# stream-live is not listed in BENCHMARK.json; see README.md, "Host speed".
WORKLOADS = ("batch-trace", "stream-live", "cli-query")


class OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise OutOfTime(f"run exceeded {TIME_LIMIT_S} s")


def end_to_end(workload: str, seed: int, seconds: float, size: dict, workdir, out: Outcome) -> None:
    if workload == "batch-trace":
        build = lambda: batch.prepare(seed, size["batch"], workdir)
    elif workload == "stream-live":
        build = lambda: stream.prepare(seed, size["stream"])
    else:
        build = lambda: inputs.cli_inputs(seed, workdir, size["queries"])
    setup = SetupTimer(build, workdir, size["setup_every_s"])
    for _ in range(size["setup_repeats"]):
        setup.sample()
    if workload == "batch-trace":
        batch.measure(setup, workdir, seconds, out)
    elif workload == "stream-live":
        out.record(stream.measure(setup.built, seconds, out))  # the run's hold accuracy is one more check
    else:
        cliquery.measure(setup, workdir, seconds, out)
    out.metrics["setup_s"] = setup.median_s()
    out.counts["setup_samples"] = len(setup.seconds)
    out.metrics["success_ratio"] = (out.attempted - out.failed) / out.attempted


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test only")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIME_LIMIT_S)
    out = Outcome()
    try:
        harness.require_checkout()
        workdir = harness.make_workdir(args.workload)
        try:
            if args.trace:
                tracer = layers.traced_run(args.workload, args.seed, args.size, workdir, out)
                units = dict(layers.PER_LAYER)
            else:
                end_to_end(args.workload, args.seed, args.seconds, inputs.SIZES[args.size], workdir, out)
                units = E2E_UNITS
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except OutOfTime as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    for problem in out.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if args.trace:
        spans_path = harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        for layer, ms in sorted(tracer.layer_self_ms().items()):
            print(f"self time  {layer:<12} {ms:12.3f} ms")
    print(json.dumps({"env": harness.environment(), "counts": out.counts, **out.info}))
    missing = [name for name in units if name not in out.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
