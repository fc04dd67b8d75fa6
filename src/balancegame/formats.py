"""Text formats: strategy files, masks and report documents.

A strategy file holds one row per line over ``L``/``R``/``O``; blank lines
and lines starting with ``#`` are ignored.  Formatting then parsing gives
back the same rows (comments aside).  Masks are plain strings over
``L``/``R``/``D``.  Reports are versioned key/value documents rendered as
JSON with a fixed field order.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .core import BalanceGameError, OUTCOMES, PLACEMENTS, GameSpec

REPORT_SCHEMA = "1"


class FormatError(BalanceGameError):
    """Malformed textual input; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def parse_strategy(text: str) -> tuple[str, ...]:
    rows: list[str] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.upper()
        if row.strip(PLACEMENTS):  # some cell lies outside the alphabet: find the first
            col, ch = next((c, ch) for c, ch in enumerate(row, start=1) if ch not in PLACEMENTS)
            raise FormatError(f"placement must be one of {PLACEMENTS!r}, got {ch!r}", lineno, col)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(
                f"row has {len(row)} placements, earlier rows have {width}", lineno
            )
        rows.append(row)
    if not rows:
        raise FormatError("no strategy rows found")
    return tuple(rows)


def format_strategy(strategy: Sequence[str], header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(strategy)
    return "\n".join(lines) + "\n"


def parse_mask(text: str, q: int | None = None) -> str:
    mask = text.strip().upper()
    for col, ch in enumerate(mask, start=1):
        if ch not in OUTCOMES:
            raise FormatError(f"outcome must be one of {OUTCOMES!r}, got {ch!r}", 1, col)
    if q is not None and len(mask) != q:
        raise FormatError(f"mask has {len(mask)} outcomes, the game has {q} rounds", 1)
    if not mask:
        raise FormatError("empty mask", 1)
    return mask


def spec_fields(spec: GameSpec) -> dict[str, Any]:
    return {"n": spec.n, "q": spec.q, "k": spec.k, "prior": spec.prior}


def report(command: str, **fields: Any) -> dict[str, Any]:
    """Ordered report document; insertion order is the field order."""
    doc: dict[str, Any] = {"schema": REPORT_SCHEMA, "command": command}
    doc.update(fields)
    return doc


def render_report(doc: dict[str, Any], pretty: bool = False) -> str:
    if not pretty:
        return json.dumps(doc, indent=2)
    lines = []
    for key, value in doc.items():
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(v, str) for v in value
        ):
            lines.append(f"{key}:")
            lines.extend(f"  {v}" for v in value)
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def csv_number(x: Any) -> str:
    """Numbers in CSV cells: dot decimal, 9 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(csv_number(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"
