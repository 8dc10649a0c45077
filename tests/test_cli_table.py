"""Property test of the CLI's flag table against argparse.

``cli._parse`` reads every argv from its command's flag table, and builds an
argparse parser only for an argv the table refuses, to print help or a usage
error.  So the table must read exactly what argparse runs: for an argv built
from a command's own flags, ``cli._from_table`` returns a namespace if and only
if the full parser returns one without exiting, with the same attributes.  The
table reads the argv as given; argparse reads ``cli._joined_values(argv)``, the
argv with each dash-led value joined to its flag, which the CLI hands it.

argparse before Python 3.13 reads a ``--flag=--`` value as ``[]`` and checks no
choice against it; 3.13 reads it as the text ``'--'``, as the table does.  On
those versions the reference gives each ``=--`` token a stand-in value that is
no choice and maps it back to ``'--'``, which is how 3.13 reads it.

An argv holds the command's required flags (now and then one is left out) and
some of its optional ones, each as ``--flag value`` or ``--flag=value``.  One
flag of it may be odd: repeated, abbreviated to a prefix of any length (unique
or ambiguous, such as ``sweep --f``), without its value, followed by a
dash-led token after its value (``--spec "--x y" -1``), or given an odd value
(``--``, ``-h``, a bad choice, a dash-led one with a space).  Or a stray token
(``-h``, ``--he``, ``--``, an unknown flag, a word) lands anywhere in it.

``argv_for`` takes its choices from a ``pick(options)`` callable and
``table_reads_what_argparse_runs`` needs neither pytest nor hypothesis, so the
same check runs from a plain script with ``random.choice`` as ``pick``.
Nothing here imports numpy.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfdrive import cli

# values that argparse runs in either flag form (a dash-led one is joined to its
# flag; one that starts with "--" and holds a space is no option), then values it
# refuses in one form or both ("--s=a b" names an option where a flag starts "--s")
VALUES = ["1e-3", "s.json", "1e-9,2e-9", "8", "-1e-3", "-inf", "-", "", "a=b", "x y", "--x y"]
ODD = ["--", "--x=1", "-h", "xml", "--s=a b", "--=a b"]
STRAY = ["-h", "--help", "--he", "--h", "--", "--warp", "stray", "-1", "--x y"]
PARSER = cli.build_parser()
STAND_IN = "\x00"  # no argv here holds it, and it is no choice


def argv_for(command: str, pick) -> list[str]:
    """An argv of ``command`` built from its flag table; ``pick(options)`` returns one
    of ``options``.  At most one thing in it is odd: a stray token or one flag, whose
    every choice may then be odd.  The first option of every choice gives the
    required flags alone."""
    flags = cli._TABLES[command][0]
    odd = pick([None, "stray", *flags])
    argv = [command]
    for flag, (_, choices, default, _) in flags.items():

        def choose(plain, unusual):
            return pick(unusual + plain if flag == odd else plain)

        for _ in range(choose([1] if default is cli.REQUIRED else [0, 1], [0, 2, 3])):
            name = choose([flag], [flag[:n] for n in range(2, len(flag))])
            value = choose(VALUES if choices is None else list(choices), ODD)
            argv += choose([[name, value], [f"{name}={value}"]], [[name], [name, value, "-1"]])
    if odd == "stray":
        argv.insert(pick(range(1, len(argv) + 1)), pick(STRAY))
    return argv


def argparse_runs(joined: list[str]):
    """The namespace the full parser gives ``joined``, or None where it exits; a
    ``--flag=--`` value is read as Python 3.13 reads it."""
    old = sys.version_info < (3, 13)
    if old:
        joined = [
            arg[:-2] + STAND_IN if arg.startswith("--") and arg.partition("=")[2] == "--" else arg
            for arg in joined
        ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = PARSER.parse_args(joined)
        except SystemExit:
            return None
    if old:
        for dest, value in vars(args).items():
            if value == STAND_IN:
                setattr(args, dest, "--")
    return args


def table_reads_what_argparse_runs(argv: list[str]) -> bool:
    """Whether the flag table read ``argv``.  Raises AssertionError if the table and
    argparse do not both read it, to the same namespace, or both refuse it."""
    args = cli._from_table(argv)
    expected = argparse_runs(cli._joined_values(argv))
    # the table's namespace is not argparse's: their attributes are compared
    assert (args and vars(args)) == (expected and vars(expected)), (argv, args, expected)
    return args is not None


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_plain_required_flags_are_read_from_the_table(command):
    assert table_reads_what_argparse_runs(argv_for(command, lambda options: options[0]))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=300)
@given(data=st.data())
def test_table_defers_or_agrees_with_argparse(command, data):
    table_reads_what_argparse_runs(
        argv_for(command, lambda options: data.draw(st.sampled_from(options)))
    )
