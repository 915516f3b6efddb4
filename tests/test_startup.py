"""Start-up: what `import qgenocchi.cli` and one command load.

The package needs `argparse` only for help, usage and errors, and needs no
`dataclasses` (with `inspect`), `typing` or `threading` at all; `exactq`
compiles its token pattern at the first parse, not at import.  Each test
runs a fresh interpreter with `-S`, because the `.pth` files that `site`
runs may import `typing` or `threading` before the package does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgenocchi
from naive_reference import reference_parser

UNUSED = ("dataclasses", "inspect", "typing", "argparse", "threading")

_RUN = f"""
import sys
from qgenocchi import cli

try:
    status = cli.main(sys.argv[1:])
except SystemExit as e:
    status = e.code
print(status, *(m for m in {UNUSED!r} if m in sys.modules), file=sys.stderr)
"""


def _python_without_site(script, *argv):
    """`script` with `argv` in a fresh interpreter without `site`, this
    checkout's `src` first on its path."""
    src = str(Path(qgenocchi.__file__).parents[1])
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_fresh(*argv):
    """(status, stdout, the modules of UNUSED loaded) of one command line in
    a fresh interpreter without `site`; its other stderr lines must be
    empty."""
    proc = _python_without_site(_RUN, *argv)
    *other, last = proc.stderr.splitlines()
    assert not other, proc.stderr
    status, *loaded = last.split()
    return int(status), proc.stdout, loaded


@pytest.mark.parametrize("argv", [
    ("table", "--nmax", "12"),
    ("table", "--nmax", "5", "--q=-1/3", "--format", "json"),
    ("verify", "--nmax", "3", "--format", "text"),
    ("verify", "--only", "THM1,THM7", "--nmax", "4"),
    ("padic-converge", "--n", "2", "--prime", "5", "--mmax", "3", "--format", "csv"),
    ("loggamma", "--prime", "5", "--mmax", "2"),
    ("bernstein", "--n", "4", "--k", "1"),
], ids=" ".join)
def test_a_well_formed_command_loads_none_of_them(argv):
    status, out, loaded = _run_fresh(*argv)
    assert status == 0 and out
    assert loaded == []


def test_help_loads_argparse_and_prints_the_reference_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # fixes argparse's wrap width
    assert _run_fresh("--help") == (0, reference_parser().format_help(), ["argparse"])


def test_an_abbreviated_flag_loads_argparse_and_reads_the_flag():
    assert _run_fresh("table", "--nm", "3") == (
        0, "G~_0 = 0\nG~_1 = 1\nG~_2 = (-2*q)/(1+q)\nG~_3 = (-3*q+3*q^2)/(1+2*q+q^2)\n",
        ["argparse"])


_COMPILES = """
import re
import sys

compiled_by = []
compile_pattern = re._compile


def recording(*args, **kwargs):
    # the first caller outside `re`: every `re` entry point, `re.compile`
    # included, compiles through `re._compile`
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") == "re":
        frame = frame.f_back
    compiled_by.append(frame.f_globals.get("__name__"))
    return compile_pattern(*args, **kwargs)


re._compile = recording
from qgenocchi import cli, exactq

at_import = list(compiled_by)
exactq.parse_qrational("q")
print(at_import.count("qgenocchi.exactq"), compiled_by.count("qgenocchi.exactq"))
"""


def test_exactq_compiles_no_pattern_at_import():
    # the parser's token pattern is compiled by the first parse, so that
    # no command pays for it at start-up; the parse after the import shows
    # that the recording sees exactq's compile
    proc = _python_without_site(_COMPILES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]
