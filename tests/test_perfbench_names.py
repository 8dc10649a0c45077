"""The names that perfbench wraps exist where it looks them up.

``perfbench/spans.py`` wraps zpfdrive functions from outside the package:
``patch(owner, "attr", ...)`` reads ``owner.__dict__["attr"]``, and
``saved.append((owner, "attr", ...))`` restores a name it replaced by hand.
Deleting or moving one of them breaks the traced benchmark run; this test
reads spans.py without importing it, so tier-1 fails on such a change too.
"""

import ast
from pathlib import Path

import pytest

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
