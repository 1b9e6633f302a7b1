"""A CLI process ends in `cli.run()`: main(), a flush, then os._exit.  These tests run
the process and check that it prints and exits as main() does in process, that an
unwritable stdout exits 1 with one JSON error on stderr, and that a bug still prints
its traceback."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import alcoves.coefficients as coefficients
import alcoves.orbits as orbits
from alcoves.cli import main

ROOT = Path(__file__).resolve().parents[1]
COUNT = ["count", "--type", "B", "--rank", "3", "--lambda", "1,1,1", "--method"]
# 174 784 bytes, more than a 64 KiB pipe buffer
LARGE = ["volumes", "--type", "A", "--rank", "8", "--J", "1,2,3,4,5,6,7,8"]
# 10 336 bytes, more than the 8 KiB buffer of a block-buffered stdout
MEDIUM = ["volumes", "--type", "A", "--rank", "6", "--J", "1,2,3,4,5,6"]


def _env(unbuffered: bool = False) -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _process(argv, stub: str = "", stdout=subprocess.PIPE, unbuffered: bool = False):
    """`python -m alcoves.cli argv`, or with a stub: a `python -c` that runs the stub's
    patch and then cli.run(), as `python -m` would."""
    if stub:
        code = ("import alcoves.coefficients as coefficients, alcoves.orbits as orbits\n"
                "set = setattr\n%s\nimport alcoves.cli\nalcoves.cli.run()" % stub)
        args = [sys.executable, "-c", code, *argv]
    else:
        args = [sys.executable, "-m", "alcoves.cli", *argv]
    return subprocess.run(args, stdout=stdout, stderr=subprocess.PIPE,
                          env=_env(unbuffered), timeout=300)


def _in_process(argv, capsys) -> tuple[int, bytes]:
    try:
        code = main(argv)
    except SystemExit as exc:  # -h and --version
        code = exc.code
    return code, capsys.readouterr().out.encode()


def _timeless(out: bytes) -> bytes:
    return re.sub(rb'"elapsed_ms": [0-9]+, ', b"", out)


# a patch that the stub runs on the process's modules, and the test on its own through
# monkeypatch: `set` is setattr there and monkeypatch.setattr here
WRONG_COUNT_AT_2_0 = ("set(orbits, 'interval_size_lattice', lambda data, lam, box_cap, "
                      "_count=orbits.interval_size_lattice: "
                      "_count(data, lam, box_cap) + (tuple(lam) == (2, 0)))")
NO_FORMULA = "set(coefficients, 'evaluate_formula', lambda data, coeffs, lam: -1)"
BUG = ("def bug(*args, **kwargs):\n    raise RuntimeError('a bug')\n"
       "set(orbits, 'interval_size_lattice', bug)")

CASES = [
    (COUNT + ["bruhat"], "", 0),
    (COUNT + ["lattice"], "", 0),
    (COUNT + ["geometric"], "", 0),
    (["fit", "--type", "A", "--rank", "2", "--force", "--out"], "", 0),
    (["verify", "--type", "A", "--rank", "2", "--max-coord", "1"], "", 0),
    (["ehrhart", "--k", "2", "--d", "4"], "", 0),
    (["volumes", "--type", "B", "--rank", "3", "--J", "1,3"], "", 0),
    (["faces", "--type", "A", "--rank", "2", "--lambda", "1,1", "--J", "1,2"], "", 0),
    (["rootdata", "--type", "G", "--rank", "2"], "", 0),
    (["--version"], "", 0),
    (["-h"], "", 0),
    (["count", "-h"], "", 0),
    (COUNT + ["Lattice"], "", 1),
    (COUNT + ["lattice", "--box-cap", "1"], "", 2),
    (["fit", "--type", "A", "--rank", "2", "--force", "--out"], WRONG_COUNT_AT_2_0, 3),
    (["verify", "--type", "A", "--rank", "2", "--max-coord", "1"], NO_FORMULA, 4),
]


@pytest.mark.parametrize("argv,stub,code", CASES,
                         ids=[" ".join(argv) + " stubbed" * bool(stub) for argv, stub, _ in CASES])
def test_the_process_prints_and_exits_as_main_does(argv, stub, code, capsys, monkeypatch,
                                                   tmp_path):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "coeffs.json")]
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("main called os._exit"))
    exec(stub, {"set": monkeypatch.setattr, "orbits": orbits, "coefficients": coefficients})
    expected = _in_process(argv, capsys)
    written = (tmp_path / "coeffs.json").read_bytes() if code == 0 and "fit" in argv else None
    monkeypatch.undo()
    proc = _process(argv, stub)
    assert (proc.returncode, _timeless(proc.stdout)) == (code, _timeless(expected[1]))
    assert expected[0] == code
    assert proc.stderr == b""
    if written is not None:
        assert (tmp_path / "coeffs.json").read_bytes() == written


def test_an_output_larger_than_the_pipe_buffer_reaches_a_pipe_and_a_file(capsys, tmp_path):
    expected = _in_process(LARGE, capsys)
    assert expected[0] == 0 and len(expected[1]) == 174_784
    proc = _process(LARGE)
    assert (proc.returncode, proc.stdout) == expected
    with open(tmp_path / "out.json", "wb") as fh:  # block-buffered: the flush writes the rest
        assert _process(LARGE, stdout=fh).returncode == 0
    assert (tmp_path / "out.json").read_bytes() == expected[1]


def test_a_bug_keeps_its_traceback():
    proc = _process(COUNT + ["lattice"], BUG)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" in proc.stderr and b"RuntimeError: a bug" in proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_main_leaves_nothing_for_teardown(tmp_path):
    # os._exit runs no atexit handler, waits for no thread and closes no file for Python,
    # so main must leave none of them behind.  Under -S, so that site hooks add none
    # the last two read the fit's file from --cache-dir, with no file shipped
    cache = str(tmp_path / "cache")
    runs = [COUNT + [method] for method in ("bruhat", "lattice", "geometric")] + [
        ["fit", "--type", "A", "--rank", "2", "--out", str(tmp_path / "cache" / "A2.json")],
        ["count", "--type", "A", "--rank", "2", "--lambda", "1,1", "--method", "geometric",
         "--cache-dir", cache],
        ["verify", "--type", "A", "--rank", "2", "--max-coord", "1", "--cache-dir", cache]]
    code = ("import atexit, os, sys, threading\nimport alcoves.cli as cli\n"
            "fds = os.listdir('/proc/self/fd')\ncodes = [cli.main(argv) for argv in %r]\n"
            "cli.DATA_DIR = %r\ncodes += [cli.main(argv) for argv in %r]\n"
            "print(codes, atexit._ncallbacks(), threading.active_count(),\n"
            "      os.listdir('/proc/self/fd') == fds)" % (runs[:4], str(tmp_path), runs[4:]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=300)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] 0 1 True", proc.stderr


def _assert_io_error(proc, message: str) -> None:
    """proc exited 1 with one JSON io error on stderr, no traceback."""
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"schema": 1, "error": {"type": "io", "message": message}}


def _closed(redirects: str):
    # the shell closes the descriptors before python starts
    return subprocess.run(["sh", "-c", 'exec "$0" "$@" ' + redirects, sys.executable, "-m",
                           "alcoves.cli", *COUNT, "lattice"], stderr=subprocess.PIPE,
                          env=_env(), timeout=300)


def test_a_closed_stdout_exits_1_with_one_json_error_on_stderr():
    _assert_io_error(_closed(">&-"), "stdout is closed")
    assert _closed(">&- 2>&-").returncode == 1  # with nowhere to say so


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [COUNT + ["lattice"], ["--version"], MEDIUM],
                         ids=["count", "version", "10 KiB"])
def test_a_full_device_exits_1_with_one_json_error_on_stderr(argv, unbuffered):
    # a small output fails at run()'s flush when stdout is block-buffered, and at the
    # write in main when it is unbuffered or the output outgrows the buffer
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = _process(argv, stdout=full, unbuffered=unbuffered)
    _assert_io_error(proc, "stdout: [Errno 28] No space left on device")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [COUNT + ["lattice"], ["--version"], MEDIUM],
                         ids=["count", "version", "10 KiB"])
def test_a_closed_pipe_exits_1_with_one_json_error_on_stderr(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _process(argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    _assert_io_error(proc, "stdout: [Errno 32] Broken pipe")


def test_the_console_script_is_the_entry_of_python_m():
    # pyproject.toml's `alcoves` script and `python -m alcoves.cli` must end the same way
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["alcoves"]
    tree = ast.parse((ROOT / "src" / "alcoves" / "cli.py").read_text(encoding="utf-8"))
    block = next(stmt for stmt in tree.body if isinstance(stmt, ast.If)
                 and ast.unparse(stmt.test) == "__name__ == '__main__'")
    calls = [ast.unparse(stmt) for stmt in block.body]
    module, _, name = target.partition(":")
    assert module == "alcoves.cli" and calls == ["%s()" % name]
    import alcoves.cli
    assert getattr(alcoves.cli, name) is alcoves.cli.run
