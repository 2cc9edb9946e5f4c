"""Indented JSON text, the machine output of the CLI, written directly
rather than through the stdlib's pure-Python indented encoder."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, written
    directly: with ``indent`` set the stdlib encodes in pure Python, which
    costs more than most queries.  Lists, tuples, str-keyed dicts, ints and
    strings (through the C string encoder) are written here, any other leaf
    by ``json.dumps``; a document with a non-string key is left to the stdlib
    whole, so its rules and errors apply unchanged."""
    parts: list[str] = []
    try:
        _write_json(doc, "", "\n", parts.append)
    except TypeError:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, head: str, newline: str, out) -> None:
    """Write ``head`` and then ``obj``, whose lines continue at ``newline``."""
    kind = type(obj)
    if kind is int:
        out(head + repr(obj))
    elif kind is str:
        out(head + _encode_str(obj))
    elif kind is list or kind is tuple:
        inner = newline + "  "
        sep = head + "[" + inner
        for item in obj:
            _write_json(item, sep, inner, out)
            sep = "," + inner
        out(newline + "]" if obj else head + "[]")
    elif kind is dict:
        inner = newline + "  "
        sep = head + "{" + inner
        for key in sorted(obj):
            # TypeError unless the key is a string
            _write_json(obj[key], sep + _encode_str(key) + ": ", inner, out)
            sep = "," + inner
        out(newline + "}" if obj else head + "{}")
    else:
        out(head + json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))
