"""`qiblanav pipeline` reads, runs and reports its trace block by block: the
report and stdout do not depend on where the blocks end, and a failed run
leaves `--out` as it was, as a failed `qiblanav simulate` does."""

import errno
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qiblanav import CalibrationState, GeoCoordinate, TraceFile, run_trace, simulate, write_trace
from qiblanav import records
from qiblanav.dataio import write_report_blocks
from qiblanav.columns import SAMPLE, RecordView

from cli_checks import run_cli
from conftest import DATA_DIR
from scenarios import HARD_IRON, NOISE_ACCEL, NOISE_MAG, tumbled_sweep

WHOLE = 1 << 24  # records.BLOCK_CHARS that reads any trace here as one block
SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIO = str(DATA_DIR / "scenario_example.txt")  # a trace of 344,678 bytes


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Two traces of 14.1 s at 10 Hz, longer than the 10 s steady-state
    window, with dynamic samples (the first one among them) and truth at
    half the rate: to the end, and to 9.9 s only, which OutOfSpan refuses."""
    path = tmp_path_factory.mktemp("stream")
    scenario = tumbled_sweep(seed=3, duration_ms=14100.0, sample_rate_hz=10.0, hard_iron=HARD_IRON, noise_mag=NOISE_MAG,
                             noise_accel=NOISE_ACCEL)
    trace = simulate(scenario)
    rows = np.frombuffer(trace.samples.values).reshape(-1, SAMPLE.width).copy()
    rows[::7, 1:4] *= 3.0
    samples = RecordView(SAMPLE, rows)
    write_trace(TraceFile(samples, trace.truth[::2]), str(path / "trace.txt"))
    write_trace(TraceFile(samples, trace.truth[:100:2]), str(path / "short-truth.txt"))
    return path


def pipeline(workdir, trace, block, out, *flags):
    with mock.patch.object(records, "BLOCK_CHARS", block):
        return run_cli(["pipeline", "--trace", str(workdir / trace), "--lat", "-6.9147", "--lon", "107.6098",
                        "--decl", "0.8", "--out", str(workdir / out), *flags])


FLAGS = [(*fmt, *sweep, "--alpha", alpha)
         for fmt in (("--format", "json"), ("--format", "text"))
         for sweep in ((), ("--sweep-ms", "6000"))
         for alpha in ("1", "0.15")]


@settings(max_examples=16, deadline=None)
@given(trace=st.sampled_from(["trace.txt", "short-truth.txt"]), flags=st.sampled_from(FLAGS),
       block=st.sampled_from([1, 2, 3, 5, 7, 11, 13, 101, 1009, 4099]))
def test_streamed_report_and_stdout_equal_the_whole_run(workdir, trace, flags, block):
    for out in ("whole.out", "streamed.out"):
        (workdir / out).unlink(missing_ok=True)
    whole = pipeline(workdir, trace, WHOLE, "whole.out", *flags)
    streamed = pipeline(workdir, trace, block, "streamed.out", *flags)
    assert whole[0] == (0 if trace == "trace.txt" else 2)
    assert streamed == (whole[0], whole[1].replace("whole.out", "streamed.out"), whole[2])
    if whole[0] == 0:
        assert (workdir / "streamed.out").read_bytes() == (workdir / "whole.out").read_bytes()
    else:
        assert "outside truth span [0.0, 9800.0]" in whole[2]
        assert not (workdir / "streamed.out").exists()


def faulty_trace(tmp_path, samples, bad=b"s 1e9 0.0 nan -9.81 40.0 0.0 0.0"):
    """A trace of `samples`, a faulty line 60 lines after its last one;
    returns its path and the faulty line's number."""
    path = tmp_path / "faulty.txt"
    write_trace(TraceFile(samples), str(path))
    lines = path.read_bytes().splitlines()
    lines += [b"# padding"] * 59 + [bad]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, len(lines)


@pytest.mark.parametrize("duration_ms, sweep_ms", [(14000.0, "6000"), (14000.0, "100"), (200.0, None)],
                         ids=["run-fails", "sweep-too-short", "trace-too-short"])
@pytest.mark.parametrize("block", [7, WHOLE])
def test_a_faulty_line_after_the_sweep_wins_and_leaves_out_as_it_was(tmp_path, duration_ms, sweep_ms, block):
    """The faulty line is read after calibration ran, or failed for too few
    samples (exit 3 alone), yet its ParseError is the one reported, and the
    report already on disk is neither replaced nor joined by another file."""
    samples = simulate(tumbled_sweep(seed=3, duration_ms=duration_ms)).samples
    path, bad_line = faulty_trace(tmp_path, samples)
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    flags = ("--sweep-ms", sweep_ms) if sweep_ms else ()
    with mock.patch.object(records, "BLOCK_CHARS", block):
        code, stdout, stderr = run_cli(["pipeline", "--trace", str(path), "--lat", "-6.9147", "--lon", "107.6098",
                                        "--out", str(out), *flags])
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: line {bad_line}: sample record: expected finite numbers, "
                      f"got '1e9 0.0 nan -9.81 40.0 0.0 0.0'\n")
    assert out.read_bytes() == b"an earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["faulty.txt", "report.json"]


def test_a_successful_run_replaces_out(tmp_path):
    samples = simulate(tumbled_sweep(seed=3, duration_ms=2000.0)).samples
    path = tmp_path / "trace.txt"
    write_trace(TraceFile(samples), str(path))
    out = tmp_path / "report.txt"
    out.write_bytes(b"an earlier report, longer than the new one will be\n" * 1000)
    code, _, _ = run_cli(["pipeline", "--trace", str(path), "--lat", "-6.9147", "--lon", "107.6098",
                          "--out", str(out), "--format", "text"])
    assert code == 0
    assert out.read_text().startswith("qibla-pipeline v1\n") and b"earlier" not in out.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "trace.txt"]


def test_report_blocks_out_of_time_order_are_refused(tmp_path):
    """The summary keeps only the last 10 s of a stream, which is right only
    while its blocks end in time order."""
    samples = simulate(tumbled_sweep(seed=3, duration_ms=2000.0)).samples
    entries = run_trace(samples, GeoCoordinate(-6.9147, 107.6098), CalibrationState())
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="may not precede"):
        write_report_blocks([(entries[50:], ()), (entries[:50], ())], str(out))
    assert list(tmp_path.iterdir()) == []


def into_pipe(argv):
    """Run the CLI with `--out` an os.pipe() named as /dev/fd/N; returns its
    result and what the other end of the pipe read."""
    r, w = os.pipe()
    read = []

    def drain():
        with os.fdopen(r, "rb") as fh:
            read.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        result = run_cli([*argv, f"/dev/fd/{w}"])
    finally:
        os.close(w)
    reader.join(timeout=60)
    assert not reader.is_alive()
    return result, read[0]


def test_out_may_be_a_pipe_or_a_link(tmp_path):
    """What is not a regular file, such as a named pipe or /dev/fd/N for an
    os.pipe(), is written in place, not replaced; a symbolic link is followed
    to the file it names, which is replaced."""
    samples = simulate(tumbled_sweep(seed=3, duration_ms=2000.0)).samples
    path = tmp_path / "trace.txt"
    write_trace(TraceFile(samples), str(path))
    argv = ["pipeline", "--trace", str(path), "--lat", "-6.9147", "--lon", "107.6098", "--out"]
    pipe = tmp_path / "pipe.out"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert run_cli([*argv, str(pipe)])[0] == 0
    reader.join(timeout=60)
    assert not reader.is_alive() and read[0].startswith(b"qibla-pipeline v1\n")
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    (code, _, _), report = into_pipe(argv)
    assert code == 0 and report == read[0]
    target, link = tmp_path / "report.txt", tmp_path / "link.txt"
    target.write_text("an earlier report\n")
    link.symlink_to(target)
    assert run_cli([*argv, str(link)])[0] == 0
    assert link.is_symlink() and target.read_bytes() == read[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "pipe.out", "report.txt", "trace.txt"]


def test_simulate_out_may_be_a_pipe(tmp_path):
    """A named pipe, or /dev/fd/N for an os.pipe(), gets the whole trace."""
    argv = ["simulate", "--scenario", SCENARIO, "--out"]
    assert run_cli([*argv, str(tmp_path / "trace.txt")])[0] == 0
    whole = (tmp_path / "trace.txt").read_bytes()
    pipe = tmp_path / "pipe.out"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert run_cli([*argv, str(pipe)])[0] == 0
    reader.join(timeout=60)
    assert not reader.is_alive() and read[0] == whole
    (code, _, _), trace = into_pipe(argv)
    assert code == 0 and trace == whole


# Runs `qiblanav` with the arguments after the first, which is the largest
# file it may write, in bytes; a write past it fails with EFBIG.
SIZE_LIMITED = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from qiblanav.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_a_simulate_that_fails_while_writing_leaves_out_as_it_was(tmp_path):
    out = tmp_path / "trace.txt"
    out.write_bytes(b"an earlier trace\n")
    done = subprocess.run([sys.executable, "-c", SIZE_LIMITED, "100000", "simulate", "--scenario", SCENARIO,
                           "--out", str(out)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert f"[Errno {errno.EFBIG}]" in done.stderr
    assert out.read_bytes() == b"an earlier trace\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.txt"]


def test_a_failed_run_writes_nothing_into_a_pipe(workdir):
    """A pipe, like a file, gets the report only once the run has succeeded."""
    argv = ["pipeline", "--trace", str(workdir / "short-truth.txt"), "--lat", "-6.9147", "--lon", "107.6098",
            "--out"]
    (code, stdout, stderr), report = into_pipe(argv)
    assert (code, stdout, report) == (2, "", b"")
    assert "outside truth span [0.0, 9800.0]" in stderr


def test_an_unwritable_out_is_named_after_the_runs_own_errors(workdir, tmp_path):
    """`--out` in a missing directory, or under a regular file, fails naming
    `--out`, and only when the run itself succeeded, as when the report was
    written whole."""
    (tmp_path / "file.txt").write_bytes(b"")
    for out, err in ((tmp_path / "missing" / "report.json", errno.ENOENT),
                     (tmp_path / "file.txt" / "report.json", errno.ENOTDIR)):
        argv = ["--lat", "-6.9147", "--lon", "107.6098", "--out", str(out)]
        assert run_cli(["pipeline", "--trace", str(workdir / "trace.txt"), *argv]) == (
            2, "", f"error: [Errno {err}] {os.strerror(err)}: {str(out)!r}\n")
        code, _, stderr = run_cli(["pipeline", "--trace", str(workdir / "short-truth.txt"), *argv])
        assert code == 2 and "outside truth span [0.0, 9800.0]" in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_a_replaced_out_keeps_its_mode(workdir, tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    out.chmod(0o640)
    code, _, _ = run_cli(["pipeline", "--trace", str(workdir / "trace.txt"), "--lat", "-6.9147", "--lon", "107.6098",
                          "--out", str(out)])
    assert code == 0 and out.read_bytes().startswith(b"qibla-pipeline v1\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


@pytest.mark.skipif(os.geteuid() != 0, reason="only root may give a file to another owner")
def test_a_replaced_out_keeps_its_owner_and_group(workdir, tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    out.chmod(0o640)
    os.chown(out, 65534, 65534)
    code, _, _ = run_cli(["pipeline", "--trace", str(workdir / "trace.txt"), "--lat", "-6.9147", "--lon", "107.6098",
                          "--out", str(out)])
    assert code == 0 and out.read_bytes().startswith(b"qibla-pipeline v1\n")
    info = out.stat()
    assert (info.st_uid, info.st_gid, stat.S_IMODE(info.st_mode)) == (65534, 65534, 0o640)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_a_read_only_out_is_refused_after_the_runs_own_errors(workdir, tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    out.chmod(0o444)
    argv = ["--lat", "-6.9147", "--lon", "107.6098", "--out", str(out)]
    assert run_cli(["pipeline", "--trace", str(workdir / "trace.txt"), *argv]) == (
        2, "", f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {str(out)!r}\n")
    code, _, stderr = run_cli(["pipeline", "--trace", str(workdir / "short-truth.txt"), *argv])
    assert code == 2 and "outside truth span [0.0, 9800.0]" in stderr
    assert out.read_bytes() == b"an earlier report\n" and stat.S_IMODE(out.stat().st_mode) == 0o444
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
