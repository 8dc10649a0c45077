"""Every golden case of the CLI writes the bytes pinned in ``tests/golden/digests.json``.

The cases and how to regenerate their digests are in ``tests/golden/cases.py``.
"""

import json

import pytest

from golden import cases

PINNED = json.loads(cases.DIGESTS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cases.write_inputs(root)
    return root


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(cases.CASES)


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_case_writes_its_pinned_bytes(name, inputs, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    for path in inputs.iterdir():  # a fresh directory per case: no --out file is left over
        (work / path.name).symlink_to(path)
    monkeypatch.chdir(work)
    assert cases.run_case(cases.CASES[name]) == PINNED[name]
