"""Property test of the CLI's flag table against argparse.

``cli._parse`` reads a well-formed argv from its command's flag table, the
Actions that each command's parser was built from, and leaves every other argv
to argparse.  For an argv built from a command's own flags, the table either
defers or gives the namespace that the full parser gives, and it never reads an
argv on which argparse exits.  Both sides read ``cli._joined_values(argv)``,
which is what the CLI parses.

An argv holds the command's required flags (now and then one is left out) and
some of its optional ones, each as ``--flag value`` or ``--flag=value``, now and
then repeated, abbreviated (``--spe``, ``--ch``) or without its value.  A value
is plain, dash-led, empty, ``--``, ``=``-bearing, or a valid or an invalid
choice; now and then a stray token (``-h``, ``--``, an unknown flag) lands
anywhere in the argv.  Each argv holds at most one such oddity, so that the
table cannot decline it for another one.

``argv_for`` takes its choices from a ``pick(options)`` callable and
``table_agrees`` needs neither pytest nor hypothesis, so the same check runs
from a plain script with ``random.choice`` as ``pick``.  Nothing here imports
numpy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfdrive import cli

# values that the table reads in either flag form (a dash-led one is joined to its
# flag), then values that it leaves to argparse ("xml" only as a bad choice)
VALUES = ["1e-3", "s.json", "1e-9,2e-9", "8", "-1e-3", "-inf", "-", "", "a=b", "x y"]
ODD = ["--", "--x=1", "-h", "xml"]
STRAY = ["-h", "--help", "--", "--warp", "stray"]
PARSER = cli.build_parser()


def argv_for(command: str, pick) -> list[str]:
    """An argv of ``command`` built from its flag table; ``pick(options)`` returns one
    of ``options``.  At most one thing in it is odd: a stray token or one flag, whose
    every choice may then be odd.  The first option of every choice gives the
    required flags alone."""
    flags = cli._main_parsers()[2][command][0]
    odd = pick([None, "stray", *flags])
    argv = [command]
    for flag, action in flags.items():

        def choose(plain, unusual):
            return pick(unusual + plain if flag == odd else plain)

        for _ in range(choose([1] if action.required else [0, 1], [0, 2])):
            name = choose([flag], [flag[:-1]] if len(flag) > 3 else [])
            good = VALUES if action.choices is None else list(action.choices)
            value = choose(good, ODD)
            argv += choose([[name, value], [f"{name}={value}"]], [[name]])
    if odd == "stray":
        argv.insert(pick(range(1, len(argv) + 1)), pick(STRAY))
    return argv


def table_agrees(argv: list[str]) -> bool:
    """Whether the flag table read ``argv``.  Raises AssertionError if it read an argv
    that argparse refuses, or to a namespace that is not argparse's."""
    joined = cli._joined_values(argv)
    args = cli._from_table(joined, cli._main_parsers()[2])
    if args is None:
        return False
    try:
        expected = PARSER.parse_args(joined)
    except SystemExit as exc:
        message = f"the table read {argv}, on which argparse exits {exc.code}"
        raise AssertionError(message) from None
    assert args == expected, (argv, vars(args), vars(expected))
    return True


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_plain_required_flags_are_read_from_the_table(command):
    assert table_agrees(argv_for(command, lambda options: options[0]))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=200)
@given(data=st.data())
def test_table_defers_or_agrees_with_argparse(command, data):
    table_agrees(argv_for(command, lambda options: data.draw(st.sampled_from(options))))
