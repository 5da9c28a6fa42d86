"""Deterministic rendering of the report files, JSON and CSV.

Floats are written with 17 significant digits, enough for `float(text)` to
give back the same bits, so re-running a command with the same config yields
byte-identical output. JSON dicts keep insertion order and non-finite floats
serialize as null. A CSV is a header line and one line per row, with None as
an empty cell, and ends with a newline.
"""

from __future__ import annotations

import json
import math


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if hasattr(value, "item"):  # numpy scalar
        return _render(value.item(), indent)
    raise TypeError(f"cannot serialize {type(value)!r}")


def dump_json(obj) -> str:
    return _render(obj, 0) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def _cell(value) -> str:
    if value is None:
        return ""
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    return format(value, ".17g") if isinstance(value, float) else str(value)


def dump_csv(header, rows) -> str:
    """CSV text of the column names in header and then one line per row; a
    float cell at 17 significant digits (`nan` and `inf` as Python writes
    them), None as an empty cell, and anything else as str() writes it."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
