"""Streamed text output shared by every numeric CSV and JSON writer, and the JSON reader.
Floats print as their shortest round-trip ``repr``, from one C-level ``repr`` of a list.
A path is read or written as UTF-8, whatever the locale."""

from __future__ import annotations

import io
import itertools
import json
import re
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Sequence, Union

from ._deferred import OnFirstUse

np = OnFirstUse(globals(), "numpy", "np")

# rows per block when a CSV is written from float columns
CSV_BLOCK_ROWS = 1 << 13


def _object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ValueError where a key occurs twice."""
    d = dict(pairs)
    if len(d) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return d


# built once: json.load builds a new decoder and scanner on every call that passes a hook
_DECODER = json.JSONDecoder(object_pairs_hook=_object)
# the deepest nesting of arrays and objects that load_json reads, whatever the depth of its
# caller's stack: well below the recursion limit, which the decoder counts from that depth
MAX_NESTING = 100
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STRING = re.compile(rb'"[^"]*"')
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _too_deep(text: str) -> bool:
    """Whether arrays and objects nest deeper than ``MAX_NESTING`` in JSON ``text``."""
    if "\\" in text:  # an escaped quote ends no string
        text = text.replace("\\\\", "").replace('\\"', "")
    structure = text.encode("utf-8", "surrogatepass").translate(None, _NOT_STRUCTURE)
    if structure.count(b"[") + structure.count(b"{") <= MAX_NESTING:
        return False
    brackets = _STRING.sub(b"", structure.replace(b'""', b"")).replace(b'"', b"")
    return max(itertools.accumulate(map(_STEP.__getitem__, brackets)), default=0) > MAX_NESTING


def load_json(source: Union[str, Path, io.TextIOBase]) -> object:
    """The JSON value of a path or an open text handle, as ``json.load`` reads it; ValueError
    ``not valid JSON: ...`` where the text is not JSON, starts with a byte-order mark, repeats
    a key in an object, or nests deeper than ``MAX_NESTING``."""
    try:
        by_path = isinstance(source, (str, Path))
        with open(source, encoding="utf-8") if by_path else nullcontext(source) as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads refuses it; the decoder alone would not say why
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        if _too_deep(text):
            raise ValueError(f"arrays and objects nest deeper than {MAX_NESTING}")
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


def float_strs(x: np.ndarray) -> list[str]:
    """``repr`` of every element in C order, from one C-level repr of the list."""
    return repr(x.ravel().tolist())[1:-1].split(", ")


def csv_blocks(columns: Sequence[np.ndarray]) -> Iterable[str]:
    """CSV lines of equal-length float columns, one string per ``CSV_BLOCK_ROWS`` rows."""
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = iter(float_strs(np.column_stack([c[lo : lo + CSV_BLOCK_ROWS] for c in columns])))
        yield "\n".join(map(",".join, zip(*[cells] * len(columns)))) + "\n"


def write_blocks(
    out: Union[str, Path, io.TextIOBase], blocks: Iterable[str], head="", sep="", tail=""
) -> None:
    """Write ``head``, the ``blocks`` joined by ``sep``, then ``tail`` to a path or a handle.

    Memory holds one block.  The first block is computed before a path is
    opened, so an error raised by it leaves no file behind.
    """
    blocks = iter(blocks)
    first = next(blocks, "")
    by_path = isinstance(out, (str, Path))
    opened = open(out, "w", newline="", encoding="utf-8") if by_path else nullcontext(out)
    with opened as fh:
        fh.write(head)
        fh.write(first)
        for block in blocks:
            fh.write(sep)
            fh.write(block)
        fh.write(tail)
