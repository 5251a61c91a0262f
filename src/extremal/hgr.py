"""HGR text format and its JSON mirror.

The text format is one header line ``r n m`` followed by ``m`` lines of ``r``
space-separated vertex indices, 0-based and strictly ascending within a line.
The writer emits edges in lexicographic order with a trailing newline, so its
output is byte-stable and ``loads(dumps(h)) == h`` exactly.

A JSON mirror ``{"r": ..., "n": ..., "edges": [[...], ...]}`` is accepted on
input; ``load`` sniffs the format from the first non-space character.  Its
integers are JSON integers (``is_json_int``), so ``true`` and ``false`` are
refused.  Both readers check only their format's own syntax; the rules of an
edge set (r distinct vertices in range, no duplicate edge) are ``RGraph``'s,
and its ``ValueError`` reaches the caller as a ``FormatError``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import FormatError
from .rgraph import RGraph


def dumps(h: RGraph) -> str:
    lines = [f"{h.r} {h.n} {len(h.edges)}"]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def dump(h: RGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(h))


def loads(text: str) -> RGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty HGR document")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(f"header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(tok) for tok in head)
    except ValueError as exc:
        raise FormatError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            verts = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise FormatError(f"non-integer vertex in line {ln!r}") from exc
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise FormatError(f"edge line {ln!r} is not strictly ascending")
        edges.append(verts)
    try:
        return RGraph(r, n, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def is_json_int(v: Any) -> bool:
    """True iff ``v`` is a JSON integer as ``json`` reads one: an ``int`` but
    not a ``bool``, which Python makes an ``int`` too."""
    return isinstance(v, int) and not isinstance(v, bool)


def from_json_obj(obj: Any) -> RGraph:
    if not isinstance(obj, dict):
        raise FormatError("JSON graph must be an object")
    missing = {"r", "n", "edges"} - obj.keys()
    if missing:
        raise FormatError(f"JSON graph missing fields: {sorted(missing)}")
    r, n, edges = obj["r"], obj["n"], obj["edges"]
    if not is_json_int(r) or not is_json_int(n) or not isinstance(edges, list):
        raise FormatError("JSON graph fields have wrong types")
    for e in edges:
        if not isinstance(e, list) or not all(is_json_int(v) for v in e):
            raise FormatError(f"JSON edge {e!r} must be a list of integers")
    try:
        return RGraph(r, n, tuple(tuple(e) for e in edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def to_json_obj(h: RGraph) -> dict:
    return {"r": h.r, "n": h.n, "edges": [list(e) for e in h.edges]}


def load(path: str | os.PathLike) -> RGraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        return from_json_obj(obj)
    return loads(text)
