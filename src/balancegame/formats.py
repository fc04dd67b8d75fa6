"""Text formats: strategy files, masks and report documents.

A strategy file holds one row per line over ``L``/``R``/``O``, in either
case; blank lines and lines starting with ``#`` are ignored.  The CLI reads
a file as bytes and decodes them as UTF-8 once.  Valid text has one path,
a few whole-string C calls over all its rows; only a bad one runs the line
loop, which words the error with its line and column.  Formatting then
parsing gives back the same rows (comments aside).  Masks are plain
strings over ``L``/``R``/``D``.  Reports are versioned key/value documents
rendered as JSON with a fixed field order, by :func:`_json`, which writes
the bytes of ``json.dumps(doc, indent=2, allow_nan=False)`` without json's
pure-Python indenting encoder.  A report or table that holds a number it
cannot print (an integer past the interpreter's int-to-str digit limit, or
a float JSON has no word for) is refused with one :class:`DomainError`.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Iterable, NoReturn, Sequence

from .core import BalanceGameError, DomainError, DROP_PLACEMENTS, OUTCOMES, PLACEMENTS, GameSpec

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
    """The rows of a strategy file's text, upper-cased.  Valid text takes one
    path of whole-string calls: the text is upper-cased and split once, its
    lines stripped and blank ones dropped by ``map``/``filter``, comment
    lines dropped only where the text holds a ``#``, and every cell checked
    at once by :data:`core.DROP_PLACEMENTS`.  Upper-casing the whole text
    moves no line end, blank or ``#``, so it gives the rows of upper-casing
    each line.  Only text that fails runs the line loop, which words the
    error for its first bad line with its line and column."""
    text = text.upper()
    rows = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        rows = [row for row in rows if row[0] != "#"]
    if len(set(map(len, rows))) == 1 and not "".join(rows).translate(DROP_PLACEMENTS):
        return tuple(rows)  # every row over the alphabet, all of one width
    for lineno, row in enumerate(map(str.strip, text.splitlines()), start=1):
        if not row or row[0] == "#":
            continue
        if row.translate(DROP_PLACEMENTS):  # some cell lies outside the alphabet: find the first
            col, ch = next((c, ch) for c, ch in enumerate(row, start=1) if ch not in PLACEMENTS)
            raise FormatError(f"placement must be one of {PLACEMENTS!r}, got {ch!r}", lineno, col)
        if len(row) != len(rows[0]):
            raise FormatError(
                f"row has {len(row)} placements, earlier rows have {len(rows[0])}", lineno
            )
    raise FormatError("no strategy rows found")


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


def _cells(name: str, value: Any) -> Iterable[tuple[str, Any]]:
    """(field name, scalar) for every scalar a report field holds."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _cells(f"{name}.{key}", inner)
    elif isinstance(value, (list, tuple)):
        for inner in value:
            yield from _cells(name, inner)
    else:
        yield name, value


def _digits(x: int) -> int:
    """Decimal digits of a nonzero |x|, floor(log10 |x|) + 1, counted without
    converting it to a string.  The float logarithm settles the floor where
    it lies clear of an integer, as in :func:`power_of_three_digits`; only
    near one is |x| compared with that power of 10."""
    x = abs(x)
    log = math.log10(x)
    floor, slack = math.floor(log), 1e-12 * log  # the float is within a few ulps of log10 |x|
    if slack < log - floor < 1.0 - slack:
        return floor + 1
    d = round(log)
    return d + 1 if x >= 10**d else d


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_many_digits(name: str, digits: int, limit: int) -> DomainError:
    return DomainError(
        f"cannot print {name}: it has {digits} digits, over the {limit}-digit limit on integer printing"
    )


def _refuse(cells: Iterable[tuple[str, Any]], failure: ValueError) -> NoReturn:
    """Rendering failed with ``failure``: refuse the first cell no report can
    print, an integer past ``sys.get_int_max_str_digits()`` or a float that is
    not finite, with a :class:`DomainError`; re-raise ``failure`` if none is."""
    limit = _digit_limit()
    too_long = 10**limit if limit else math.inf  # the least magnitude past the limit
    for name, value in cells:
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"cannot print {name}: {value} is not a JSON number") from failure
        if isinstance(value, int) and abs(value) >= too_long:
            raise _too_many_digits(name, _digits(value), limit) from failure
    raise failure


def power_of_three_digits(exponent: int) -> int:
    """Decimal digits of 3**exponent, floor(exponent log10(3)) + 1, counted
    without forming it.  The float product settles the floor where it lies
    clear of an integer.  Near one, log10(3) is taken to enough decimal
    places, correctly rounded by ``decimal``, for an integer bracket of the
    product to hold one floor; it always does at some precision, since no
    power of 3 past 3**0 is a power of 10."""
    x = exponent * math.log10(3)
    floor, slack = math.floor(x), 1e-12 * x  # the float is within about 3 ulps of x
    if slack < x - floor < 1.0 - slack:
        return floor + 1
    import decimal  # on first use: only a product within the slack of an integer needs it

    places = len(str(exponent)) + 20
    while True:
        context = decimal.Context(prec=places)
        log = int(context.log10(3).scaleb(places, context))  # within 1/2 of 10**places log10(3)
        low, high = ((2 * exponent * log + sign * exponent) // (2 * 10**places) for sign in (-1, 1))
        if low == high:
            return low + 1
        places *= 2


def refuse_power_of_three(name: str, exponent: int) -> None:
    """Raise the :class:`DomainError` a report raises for the integer cell
    ``name`` if it holds 3**exponent and that has more digits than the
    int-to-str limit, counted without forming it (:func:`power_of_three_digits`)."""
    limit = _digit_limit()
    if limit and (digits := power_of_three_digits(exponent)) > limit:
        raise _too_many_digits(name, digits, limit)


def render_report(doc: dict[str, Any], pretty: bool = False) -> str:
    try:
        return _render_report(doc, pretty)
    except ValueError as failure:
        _refuse((cell for key, value in doc.items() for cell in _cells(key, value)), failure)


def _json(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for JSON scalars,
    lists, tuples and string-keyed dicts, nested at ``indent``; a float
    that is not finite raises ``ValueError``, as json does."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_report(doc: dict[str, Any], pretty: bool) -> str:
    if not pretty:
        return _json(doc, "")
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
    """One header line, then one line of :func:`csv_number` cells per row.
    A table of floats only, every row as wide as the header, is written with
    one format call per row, to the same bytes."""
    lines = [",".join(header)]
    if set(map(len, rows)) == {len(header)} and set(map(type, chain.from_iterable(rows))) == {float}:
        lines.extend(starmap(",".join(["{:.9g}"] * len(header)).format, rows))
        return "\n".join(lines) + "\n"
    try:
        lines.extend(",".join(csv_number(cell) for cell in row) for row in rows)
    except ValueError as failure:
        _refuse((cell for row in rows for cell in zip(header, row)), failure)
    return "\n".join(lines) + "\n"
