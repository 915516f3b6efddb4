"""The command line: `cli._read_args` against a hand-written argparse parser.

A well-formed line is read from the option table without argparse and must
give argparse's namespace; every other line goes to argparse, which must
print the same help, usage and errors as the reference parser."""

import argparse

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_reference import reference_parser
from qgenocchi import cli

REFERENCE = reference_parser()
SUBPARSERS = next(a for a in REFERENCE._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
COMMANDS = list(SUBPARSERS)


def test_the_table_has_the_reference_commands():
    assert list(cli.COMMANDS) == COMMANDS


# -- what argparse still owns ----------------------------------------------------


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    [],
    ["tabl", "--nmax", "3"],
    ["table"],
    ["table", "--nmax", "x"],
    ["verify", "--format", "csv"],
    ["verify", "--q", "2"],
    ["loggamma", "--prime", "5", "--q", "-1/2"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_errors_match_the_reference_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # fixes argparse's wrap width
    assert _exit(cli.main, argv, capsys) == _exit(REFERENCE.parse_args, argv, capsys)


@pytest.mark.parametrize("argv, status", [
    (["table", "--nm", "3"], 0),  # an abbreviation
    (["padic-converge", "--n", "3", "--prime", "3", "--q", "-1"], 3),  # a negative number
], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_argparse_reads_what_the_table_declines(argv, status, capsys):
    assert cli._read_args(argv) is None
    assert cli._parse_args(argv) == REFERENCE.parse_args(argv)
    assert cli.main(argv) == status


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["-h"],
    ["table", "--help"],
    ["table", "-h"],
    ["tabl", "--nmax", "3"],
    ["TABLE", "--nmax", "3"],
    ["table"],
    ["table", "--nm", "3"],
    ["table", "--NMAX", "3"],
    ["table", "--nmax 3"],
    ["table", "--nmax", "3", "extra"],
    ["table", "--nmax", "3", "--"],
    ["table", "--", "--nmax", "3"],
    ["table", "--nmax", "-3"],
    ["table", "--nmax=--"],
    ["table", "--nmax", "x"],
    ["table", "--nmax", "1.5"],
    ["table", "--nmax"],
    ["table", "--nmax", "3", "--polynomials=1"],
    ["table", "--nmax", "3", "--polynomials="],
    ["table", "--nmax", "3", "--q", "-1"],
    ["table", "--nmax", "3", "--format", "xml"],
    ["table", "--nmax", "3", "--format=JSON"],
    ["table", "--nmax", "3", "--out"],
    ["verify", "--format", "csv"],
    ["verify", "--q", "2"],
    ["loggamma", "--prime", "5", "--q", "-1/2"],
    ["loggamma", "--q", "2"],
    ["padic-converge", "--n", "3"],
    ["bernstein", "--n", "1", "--k"],
    ["bernstein", "--n", "1", "--k", "--n", "2"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_direct_reading_declines(argv):
    assert cli._read_args(argv) is None


# -- the direct reading ------------------------------------------------------------


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _int_text(draw):
    """An int as `int()` reads it: a sign, leading zeros, underscores
    between digits, other decimal digits, surrounding whitespace."""
    n = draw(st.integers(-10**6, 10**6))
    digits = draw(st.sampled_from(("", "0", "00"))) + str(abs(n))
    if draw(st.booleans()):
        digits = "_".join(digits)
    if draw(st.booleans()):
        digits = digits.translate(_ARABIC_INDIC)
    sign = "-" if n < 0 else draw(st.sampled_from(("", "+")))
    pad = st.sampled_from(("", " ", "\t"))
    return draw(pad) + sign + digits + draw(pad)


def _value(action):
    if action.choices:
        return st.sampled_from(action.choices)
    return _int_text() if action.type is int else st.text(max_size=8)


@st.composite
def _command_lines(draw, command):
    """A well-formed line: options in any order, repeated, as `--flag value`
    or `--flag=value`, every required option present."""
    actions = [a for a in SUBPARSERS[command]._actions if a.option_strings and a.dest != "help"]
    chosen = draw(st.lists(st.sampled_from(actions), max_size=8))
    chosen = draw(st.permutations(chosen + [a for a in actions if a.required]))
    argv = [command]
    for action in chosen:
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(action).filter(lambda v: v != '--'))}")
        else:
            argv += [flag, draw(_value(action).filter(lambda v: not v.startswith("-")))]
    return argv


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_direct_reading_matches_argparse(command, data):
    argv = data.draw(_command_lines(command))
    args = cli._read_args(argv)
    assert args is not None, argv
    assert vars(args) == vars(REFERENCE.parse_args(argv)), argv
