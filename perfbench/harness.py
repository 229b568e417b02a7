"""Shared machinery: locating the checkout, child processes, timing
statistics, the span recorder and the environment record.

Everything here is stdlib only, so the benchmark measures the program and
not a benchmarking library.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# The console script `qiblanav` runs exactly this; invoking it through the
# interpreter needs no install step in the checkout.
CLI_BOOT = "import sys; from qiblanav.cli import main; sys.exit(main())"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_checkout() -> None:
    """Put the checkout's `src` first on the import path, or refuse to run.

    The benchmark never falls back to an installed copy of the package: it
    measures the source tree it sits in or nothing.
    """
    if not (SRC / "qiblanav" / "__init__.py").is_file():
        raise SetupError(f"no qiblanav package under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workdir(tag: str) -> Path:
    path = OUT_DIR / f"tmp-{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(args: list[str], cwd: Path) -> ChildResult:
    """Run `python <args>` to completion; wall time and the child's own peak RSS.

    The child is reaped with wait4 so its rusage is its own, not the
    running maximum over every child. stdout/stderr go to files, so a chatty
    child cannot block on a full pipe.
    """
    out_path = cwd / ".child.out"
    err_path = cwd / ".child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=wall,
            maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


def run_cli(argv: list[str], cwd: Path) -> ChildResult:
    return run_child(["-c", CLI_BOOT, *argv], cwd)


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_probe(module: str) -> str:
    """Code for a fresh interpreter that prints how long `import module` took,
    timed inside the child, so process spawn and interpreter start are left out."""
    return (f"import time; t0 = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - t0)")


def timed_import_s(module: str, workdir: Path) -> float:
    res = run_child(["-c", import_probe(module)], workdir)
    if res.code != 0:
        raise SetupError(f"import {module} failed: {res.stderr.strip()[-300:]}")
    return float(res.stdout)


class SetupTimer:
    """Times the workload's set-up: a cold `import qiblanav` in a fresh
    interpreter plus building the workload's inputs in this process.

    The host's speed changes in episodes of seconds, so a handful of set-ups
    taken back to back land in one episode. `between_ops` takes one more
    sample whenever `every_s` seconds have passed since the last, so the
    samples are spread over the whole run like the operations are; `median_s`
    is the reported figure.
    """

    def __init__(self, build, workdir: Path, every_s: float):
        self.build, self.workdir, self.every_s = build, workdir, every_s
        self.seconds: list[float] = []
        self.built = None
        self._next = 0.0

    def sample(self):
        import_s = timed_import_s("qiblanav", self.workdir)
        t0 = time.perf_counter()
        self.built = self.build()
        self.seconds.append(import_s + time.perf_counter() - t0)
        self._next = time.perf_counter() + self.every_s
        return self.built

    def between_ops(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def median_s(self) -> float:
        return median(self.seconds)


# ---------------------------------------------------------------- statistics

def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    info: dict = field(default_factory=dict)  # printed with the counts, not gated

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed if its gate found any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"op {self.attempted}: " + "; ".join(problems))

    def set_latencies_ms(self, latencies_ms: list[float], tail_q: float) -> None:
        self.metrics["latency_ms_p50"] = percentile(latencies_ms, 50.0)
        self.metrics["latency_ms_tail"] = percentile(latencies_ms, tail_q)


# ------------------------------------------------------------------- tracing

@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str
    note: str = ""


@dataclass
class Tracer:
    """Spans kept in memory, written out once when the benchmark ends."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, run_id: str, fn, *args, note: str = "", **kwargs):
        """Time one call into a layer as a span under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, 0, 0, parent, run_id, note))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            span = self.spans[idx]
            span.start_ns, span.end_ns = start, end

    @contextmanager
    def span(self, name: str, run_id: str):
        """An enclosing span, one whole operation, over the calls made inside it."""
        idx = len(self.spans)
        self.spans.append(Span(name, 0, 0, self._stack[-1] if self._stack else None, run_id))
        self._stack.append(idx)
        self.spans[idx].start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx].end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer (the span name's first dotted component)."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_ns()):
            layer = span.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own / 1e6
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "run_id": s.run_id, "note": s.note,
                }) + "\n")


def caller(tr: Tracer | None):
    """tr.call when tracing, otherwise a plain call with the same signature."""
    if tr is not None:
        return tr.call
    return lambda name, run_id, fn, *args, note="", **kwargs: fn(*args, **kwargs)


def op_span(tr: Tracer | None, name: str, run_id: str):
    """tr.span when tracing, otherwise a context that records nothing."""
    return tr.span(name, run_id) if tr is not None else nullcontext()


# --------------------------------------------------------------- environment

def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }
