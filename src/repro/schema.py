"""One reader for every versioned JSON document the package reads back.

:func:`read_json` and :func:`read_jsonl` turn every way such a file can
be malformed -- unreadable, not UTF-8, not JSON, a non-finite number,
not an object, another schema -- into the caller's
:class:`~repro.errors.ReproError` subclass naming ``path[:lineno]``.
Each document's field table stays beside its writer; :func:`field_error`
checks a record against one.
"""

from __future__ import annotations

import json
import math

__all__ = ["is_number", "is_int", "field_error", "read_json", "read_jsonl"]


def is_number(value) -> bool:
    """A JSON number: an int or float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_int(value) -> bool:
    """A JSON integer: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def field_error(doc: dict, fields: dict[str, type]) -> str | None:
    """Why ``doc`` lacks the ``{name: type}`` fields, or ``None``.  A
    trailing ``?`` marks a field that may be absent or null."""
    missing = [f for f in fields if f[-1] != "?" and f not in doc]
    if missing:
        return f"missing keys {missing}"
    for field, want in fields.items():
        name = field.rstrip("?")
        value = doc.get(name)
        if not (isinstance(value, want) or value is None and name != field):
            return (f"{name} must be {want.__name__}, "
                    f"got {type(value).__name__}")
    return None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):        # NaN, Infinity, 1e999
        raise ValueError(f"non-finite number {text}")
    return value


def _int(text: str) -> int:
    value = int(text)
    float(value)        # OverflowError past float range, as 1e999 is
    return value


def _read(path, error, what) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: "
                    f"{exc.strerror or exc}") from None


def _object(raw: bytes, where: str, error, what, schema):
    try:
        doc = json.loads(raw.decode("utf-8"), parse_float=_finite,
                         parse_int=_int, parse_constant=_finite)
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 ({exc.reason})") from None
    except (ValueError, OverflowError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got "
                    f"{type(doc).__name__}")
    if schema is not None and doc.get("schema") != schema:
        raise error(f"{where}: unknown {what} schema "
                    f"{doc.get('schema')!r} (expected {schema})")
    return doc


def read_json(path, error, what: str, schema: str | None = None) -> dict:
    """Read one JSON object from ``path``; ``schema``, when given, must
    match its ``"schema"`` key.  Raises ``error`` on any malformation."""
    return _object(_read(path, error, what), str(path), error, what,
                   schema)


def read_jsonl(path, error, what: str, schema: str,
               header: bool = False) -> dict[int, dict]:
    """Read a JSONL file of objects; returns ``{lineno: object}`` in
    file order, blank lines skipped.  Every line must carry ``schema``,
    or with ``header`` only the first, which must exist.  Raises
    ``error`` on any malformation."""
    docs: dict[int, dict] = {}
    for lineno, line in enumerate(_read(path, error, what).splitlines(), 1):
        if line.strip():
            docs[lineno] = _object(line, f"{path}:{lineno}", error, what,
                                   None if header and docs else schema)
    if header and not docs:
        raise error(f"{path}: empty {what} (no schema header)")
    return docs
