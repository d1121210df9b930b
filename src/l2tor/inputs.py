"""The rules of every input: numeric arguments, and the files of spectra,
density tables and manifests.

check_range holds every numeric argument to one interval, open or closed at
each end; NaN lies outside every interval, and a value outside raises the
ValueError `<argument> must be in <interval>, got <value>`.

A reader decodes its file with read_text, or parses it with read_json,
and takes each field through field and a rule (integer, number, string,
items, or a constructor).  A broken rule raises a ManifestError whose
message is `location: message`, the location naming the file and the field
(or the file and the line).
"""

from __future__ import annotations

import json
import math
from numbers import Integral
from pathlib import Path
from typing import Callable

__all__ = ["check_range", "ManifestError", "read_text", "read_json", "convert", "field",
           "integer", "number", "string", "items"]

_REQUIRED = object()


def check_range(name: str, value, low, high, closed: str = "()", integer: bool = False):
    """value, if it lies between low and high with the brackets `closed`
    ("()", "[]", "[)" or "(]") and, when `integer` is set, is an integer
    (a bool is none).  Every comparison with NaN is false, so NaN lies
    outside."""
    if ((value >= low if closed[0] == "[" else value > low)
            and (value <= high if closed[1] == "]" else value < high)
            and (not integer or type(value) is int
                 or isinstance(value, Integral) and not isinstance(value, bool))):
        return value
    kind = "an integer in" if integer else "in"
    raise ValueError(f"{name} must be {kind} {closed[0]}{low:g}, {high:g}{closed[1]}, "
                     f"got {value}")


class ManifestError(ValueError):
    """A malformed input file; the message is `location: message`."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")


def read_text(path) -> str:
    """The text of `path`, a file name or a packaged resource, read as
    UTF-8; bytes that are no UTF-8 are refused at path:line."""
    path = Path(path) if isinstance(path, str) else path
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path}:{line}", f"not UTF-8: byte 0x{data[exc.start]:02x} "
                                              f"({exc.reason})") from None


def read_json(path):
    """The JSON value in `path`, read by read_text.  Text that is no JSON is
    refused at path:line; integers too long to convert and nesting too deep
    to parse at path."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{exc.lineno}", f"malformed JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ManifestError(str(path), f"malformed JSON: {exc}") from None


def convert(value, location: str, rule: Callable):
    """rule(value); a value the rule refuses is refused at `location`."""
    try:
        return rule(value)
    except (TypeError, ValueError) as exc:
        raise ManifestError(location, str(exc)) from None


def field(raw, key: str, location: str, rule: Callable, default=_REQUIRED):
    """rule(raw[key]), or rule(default) for a missing key; a raw that is no
    object and a missing key without a default are refused too."""
    if not isinstance(raw, dict):
        raise ManifestError(location, "expected an object")
    if key not in raw and default is _REQUIRED:
        raise ManifestError(location, f"missing field {key!r}")
    return convert(raw.get(key, default), f"{location}.{key}", rule)


def integer(value) -> int:
    """A JSON integer; 3.0 counts as 3, while 3.9, true and "3" are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def number(value) -> float:
    """A finite JSON number; true, "1", NaN, Infinity and integers beyond a
    double are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            result = float(value)
        except OverflowError:
            result = math.inf
        if math.isfinite(result):
            return result
    raise ValueError(f"expected a finite number, got {value!r}")


def string(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


def items(value) -> list:
    if isinstance(value, list):
        return value
    raise ValueError("expected a list")
