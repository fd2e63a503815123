"""Deterministic JSON output helpers and the strict integer reader."""

from __future__ import annotations

import json
import re

from .eisenstein import DomainError

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def jint(n: int):
    """Integers beyond 64 bits travel as decimal strings for lossless interchange."""
    return n if _I64_MIN <= n <= _I64_MAX else str(n)


def decimal_int(text: str) -> int:
    """The integer an ASCII decimal string -?[0-9]+ spells.

    int() alone would also take '_' separators, surrounding spaces, a '+'
    sign and non-ASCII digits, so input would be silently reinterpreted.
    """
    if re.fullmatch(r"-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise DomainError(f"expected a decimal integer, got {text!r}")


def dumps(obj) -> str:
    """Compact, key-order-preserving, byte-stable serialization."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def load(path: str):
    """The JSON document in a file; DomainError when it is not JSON in UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"{path} is not a JSON document: {exc}") from exc
