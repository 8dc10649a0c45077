"""The names that perfbench wraps exist where it looks them up, and the CLI calls them.

``perfbench/spans.py`` wraps zpfdrive functions from outside the package:
``patch(owner, "attr", ...)`` reads ``owner.__dict__["attr"]``, and
``saved.append((owner, "attr", ...))`` restores a name it replaced by hand.
Deleting or moving one of them breaks the traced benchmark run; this test
reads spans.py without importing it, so tier-1 fails on such a change too.
A wrapped name that the CLI no longer calls at call time (a refactor that
binds it at import, or stops calling it) leaves its per-layer metric at 0, so
one call of each command must reach every wrapped name but those in
``NOT_CALLED``.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

from golden import cases
from zpfdrive import cli, dynamics, material, mission, vacuum

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {m.__name__.rpartition(".")[2]: m for m in (cli, dynamics, material, mission, vacuum)}


def wrapped_names() -> list[tuple[str, str]]:
    """(owner expression, attribute) of every patched or saved name in spans.py."""
    targets = []
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func) == "patch":
            owner, attr = node.args[:2]
        elif ast.unparse(node.func) == "saved.append" and isinstance(node.args[0], ast.Tuple):
            owner, attr = node.args[0].elts[:2]
        else:
            continue
        if isinstance(attr, ast.Constant):  # the generic (owner, attr, original) is skipped
            targets.append((ast.unparse(owner), attr.value))
    return targets


def resolve(expression: str) -> object:
    """A dotted owner expression such as ``mission.MissionSpec``, on the zpfdrive modules."""
    module, *attrs = expression.split(".")
    owner = MODULES[module]
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


WRAPPED = wrapped_names()


def test_spans_wraps_names_of_every_module():
    assert {owner.split(".")[0] for owner, _ in WRAPPED} == set(MODULES)


@pytest.mark.parametrize("owner, attr", WRAPPED, ids=[f"{o}.{a}" for o, a in WRAPPED])
def test_wrapped_name_is_in_its_owner(owner, attr):
    assert attr in vars(resolve(owner))


# wrapped names that no runnable argv reaches: the ledger builds its particles with
# ParticleState.from_dicts, the CLI's rotation delta-v is checked_rotation_dv, and
# argparse's parser is built only for help and usage errors
NOT_CALLED = {"material.particle_from_dict", "dynamics.delta_v_rotation", "cli.build_parser"}


def test_one_call_of_each_command_reaches_every_wrapped_name(tmp_path, monkeypatch):
    calls = Counter()

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in WRAPPED:  # as spans.py's patch does
        original = vars(resolve(owner))[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(counted(original.__func__, f"{owner}.{attr}"))
        else:
            wrapped = counted(original, f"{owner}.{attr}")
        monkeypatch.setattr(resolve(owner), attr, wrapped)
    cases.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for command in cli._COMMANDS:  # text: the ledger's JSON lines go through to_jsonl
        assert cases.run_case(cases.CASES[f"{command}-text"])["code"] == 0, command
    names = {f"{owner}.{attr}" for owner, attr in WRAPPED}
    assert NOT_CALLED <= names
    assert sorted(names - NOT_CALLED - set(calls)) == []
    assert sorted(NOT_CALLED & set(calls)) == []
