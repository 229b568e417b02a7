"""Every loader reads its file once from the start, so an input may come
from a pipe, as `/dev/fd/N` of an `os.pipe()` or as a FIFO, and gives the
same exit code, output and report as the same bytes read from a file."""

import os
import threading
from contextlib import contextmanager

import pytest

from cli_checks import run_cli
from conftest import DATA_DIR

CITIES = DATA_DIR / "cities.csv"
GRID = DATA_DIR / "declination_grid.txt"
SCENARIO = DATA_DIR / "scenario_example.txt"


def _write_all(open_writer, data: bytes) -> None:
    try:
        with open(open_writer(), "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader stopped early
        pass


@contextmanager
def piped(data: bytes, kind: str, workdir):
    """A path from which `data` is read through a pipe, written by a thread:
    "fd" is `/dev/fd/N` of an `os.pipe()`, "fifo" a FIFO made by `os.mkfifo`."""
    if kind == "fd":
        read_end, write_end = os.pipe()
        path = f"/dev/fd/{read_end}"
        writer = threading.Thread(target=_write_all, args=(lambda: write_end, data), daemon=True)
    else:
        path = str(workdir / "input.fifo")
        os.mkfifo(path)
        writer = threading.Thread(target=_write_all, args=(lambda: os.open(path, os.O_WRONLY), data), daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if kind == "fd":
            os.close(read_end)  # a writer still blocked on a full pipe gets BrokenPipeError
        else:
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # a writer never read from opens
        writer.join(timeout=30)
        assert not writer.is_alive()


def run_in(workdir, argv: list[str], monkeypatch) -> tuple[int, str, str, bytes | None]:
    """Run the CLI in `workdir`; returns its exit code, stdout, stderr and
    the bytes of the file it wrote to `out`, if any."""
    workdir.mkdir(exist_ok=True)
    monkeypatch.chdir(workdir)
    code, out, err = run_cli(argv)
    written = workdir / "out"
    return code, out, err, written.read_bytes() if written.exists() else None


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    code, _, _ = run_cli(["simulate", "--scenario", str(SCENARIO), "--out", str(path)])
    assert code == 0
    return path.read_bytes()


# Each: the command with "{}" for the piped input, and the input's bytes,
# by file name or "trace" for the simulated trace.
COMMANDS = {
    "pipeline": (["pipeline", "--trace", "{}", "--city", "Bandung", "--cities", str(CITIES), "--decl", "0.8",
                  "--sweep-ms", "12000", "--out", "out", "--format", "json"], "trace"),
    "pipeline-text": (["pipeline", "--trace", "{}", "--lat", "-6.9147", "--lon", "107.6098",
                       "--out", "out"], "trace"),
    "calibrate": (["calibrate", "--trace", "{}", "--format", "json"], "trace"),
    "qibla-grid": (["qibla", "--lat", "-6.9147", "--lon", "107.6098", "--decl-grid", "{}", "--format", "json"],
                   GRID),
    "qibla-city": (["qibla", "--city", "Bandung", "--cities", "{}", "--decl-grid", str(GRID), "--format", "json"],
                   CITIES),
    "qibla-city-off-grid": (["qibla", "--city", "Istanbul", "--cities", "{}", "--decl-grid", str(GRID)], CITIES),
    "simulate": (["simulate", "--scenario", "{}", "--out", "out", "--format", "json"], SCENARIO),
}


@pytest.mark.parametrize("kind", ["fd", "fifo"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_piped_input_runs_as_the_file_does(tmp_path, monkeypatch, trace_bytes, command, kind):
    argv, source = COMMANDS[command]
    data = trace_bytes if source == "trace" else source.read_bytes()
    (tmp_path / "input").write_bytes(data)
    from_file = run_in(tmp_path / "file", [arg.format(tmp_path / "input") for arg in argv], monkeypatch)
    with piped(data, kind, tmp_path) as path:
        from_pipe = run_in(tmp_path / "pipe", [arg.format(path) for arg in argv], monkeypatch)
    assert from_pipe == from_file
    assert from_file[0] == (2 if command == "qibla-city-off-grid" else 0)


@pytest.mark.parametrize("kind", ["fd", "fifo"])
def test_piped_trace_with_byte_order_mark_and_crlf(tmp_path, monkeypatch, trace_bytes, kind):
    argv, _ = COMMANDS["pipeline"]
    (tmp_path / "input").write_bytes(trace_bytes)
    from_file = run_in(tmp_path / "file", [arg.format(tmp_path / "input") for arg in argv], monkeypatch)
    with piped(b"\xef\xbb\xbf" + trace_bytes.replace(b"\n", b"\r\n"), kind, tmp_path) as path:
        from_pipe = run_in(tmp_path / "pipe", [arg.format(path) for arg in argv], monkeypatch)
    assert from_pipe == from_file and from_file[0] == 0


@pytest.mark.parametrize("kind", ["fd", "fifo"])
def test_piped_grid_with_invalid_utf8_names_its_line(tmp_path, monkeypatch, kind):
    argv, _ = COMMANDS["qibla-grid"]
    lines = GRID.read_bytes().split(b"\n")
    lines[1] += b" # \xe2\x82"  # a truncated euro sign ends line 2
    with piped(b"\n".join(lines), kind, tmp_path) as path:
        code, out, err, _ = run_in(tmp_path / "pipe", [arg.format(path) for arg in argv], monkeypatch)
    assert (code, out) == (2, "")
    assert "line 2: invalid UTF-8: invalid continuation byte" in err
