"""Deterministic report writers.

Same inputs always produce the same bytes: floats are written with repr
(shortest round-trip form), JSON keys are sorted, and nothing carries a
timestamp unless the caller injects one. An undefined value (None) is an
empty CSV cell and JSON null; JSON output is strict, so a NaN or infinity
in a report is a NumericalError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import NumericalError, WriteError


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write {path}: {exc}") from exc
    try:
        path.write_text(text + "\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
    return path
