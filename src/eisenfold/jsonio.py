"""Deterministic JSON output helpers and the strict number readers."""

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


def decimal_float(text: str) -> float:
    """The float an ASCII decimal string spells: -?[0-9]+, an optional
    fraction .[0-9]+ and an optional exponent [eE][-+]?[0-9]+.

    float() alone would also take '_' separators, surrounding spaces,
    non-ASCII digits, 'inf' and 'nan', so input would be silently
    reinterpreted.
    """
    if re.fullmatch(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", text):
        return float(text)
    raise DomainError(f"expected a decimal number, got {text!r}")


def dumps(obj) -> str:
    """Compact, key-order-preserving, byte-stable serialization.

    Every document written here is a tree the library has just built, so
    the encoder's circular-reference bookkeeping is skipped.
    """
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True, check_circular=False)


def load(path: str):
    """The JSON document in a file; DomainError when it is not JSON in UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"{path} is not a JSON document: {exc}") from exc
