"""`qiblanav pipeline` keeps nothing per sample past its calibration sweep,
so its peak memory does not grow with the trace."""

import os
import subprocess
import sys
from pathlib import Path

from qiblanav import simulate, write_trace

from scenarios import SWEEP_MS, acceptance_scenario

SRC = Path(__file__).resolve().parent.parent / "src"
BOOT = "import sys; from qiblanav.cli import main; sys.exit(main())"
# Runs `python -c BOOT argv...` and prints its exit code and peak RSS in KiB.
# The child is reaped with wait4, so the figure is its own. It is spawned
# from this small interpreter because a child's ru_maxrss also counts the
# resident memory of the process it was forked from, and the test process
# holds more than the command does.
MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-c", *sys.argv[1:]], stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# Ten times the samples may cost this much more peak memory. Holding each
# sample's rows and report entry, as a whole-trace run does, costs about
# 0.45 KB a sample: 20 MB more at 50k samples than at 5k.
GROWTH_MB = 4.0


def peak_rss_mb(argv: list[str], cwd: Path) -> float:
    """The peak RSS of one `qiblanav` run, in MB."""
    done = subprocess.run([sys.executable, "-c", MEASURE, BOOT, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
                          timeout=300, check=True)
    code, kib = map(int, done.stdout.split())
    assert code == 0, argv
    return kib / 1024.0  # Linux reports KiB


def test_pipeline_peak_memory_is_flat_in_the_trace_length(tmp_path):
    peaks = []
    for n in (5000, 50000):
        trace = tmp_path / f"trace-{n}.txt"
        write_trace(simulate(acceptance_scenario(1, duration_ms=20.0 * n)), str(trace))
        peaks.append(peak_rss_mb(["pipeline", "--trace", trace.name, "--lat", "-6.9147", "--lon", "107.6098",
                                  "--sweep-ms", repr(SWEEP_MS), "--format", "json", "--out", "report.json"],
                                 tmp_path))
        trace.unlink()
    assert peaks[1] - peaks[0] < GROWTH_MB, f"peak RSS {peaks[0]:.1f} MB at 5k samples, {peaks[1]:.1f} MB at 50k"
