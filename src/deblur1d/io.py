"""Plain-text vector and CSV table I/O.

Vectors interchange as decimal floats separated by whitespace or newlines
(one value per line is the usual layout), which keeps the files drop-in
loadable with ``numpy.loadtxt`` and friends.  Tables are comma-separated
with a single header line.  Floats are written with 17 significant digits,
so every 64-bit value round-trips exactly.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import VectorParseError

__all__ = ["read_vector_csv", "write_vector_csv", "read_table_csv", "write_table_csv"]


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


@contextlib.contextmanager
def _text_sink(target):
    # Accept a path or an already-open text stream (e.g. sys.stdout).
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yield fh


def read_vector_csv(path) -> np.ndarray:
    """Read whitespace/newline-separated finite floats, in order.

    A token that is not a float, or that parses to nan or +-inf, raises
    :class:`VectorParseError` naming the file and line.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for token in line.split():
                try:
                    value = float(token)
                except ValueError:
                    raise VectorParseError(
                        f"{path}:{lineno}: cannot parse {token!r} as a float"
                    ) from None
                if not math.isfinite(value):
                    raise VectorParseError(f"{path}:{lineno}: non-finite value {token!r}")
                values.append(value)
    return np.asarray(values, dtype=float)


def write_vector_csv(path, values) -> None:
    """Write one value per line (the inverse of :func:`read_vector_csv`)."""
    values = np.asarray(values, dtype=float).ravel()
    with _text_sink(path) as fh:
        for v in values:
            fh.write(_format_value(v) + "\n")


def write_table_csv(path, headers, rows) -> None:
    """Write a CSV table: one comma-separated header line, then the rows."""
    headers = [str(h) for h in headers]
    with _text_sink(path) as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            row = list(row)
            if len(row) != len(headers):
                raise ValueError(
                    f"row has {len(row)} fields but header has {len(headers)}"
                )
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def read_table_csv(path):
    """Read a CSV table back as (headers, float ndarray of shape rows x cols)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise VectorParseError(f"{path}: empty table")
    headers = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(headers):
            raise VectorParseError(
                f"{path}:{lineno}: row has {len(fields)} fields but header has {len(headers)}"
            )
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise VectorParseError(f"{path}:{lineno}: unparseable row {line!r}") from None
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(headers)))
    return headers, data
