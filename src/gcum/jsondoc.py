"""The one reader of JSON documents: run configs, datasets and checkpoint sidecars.

A value must have the JSON type of its schema default, and nothing is
converted: ints take JSON integers, floats finite integers or floats (stored
as floats), bools ``true``/``false``, and lists hold integers.  A run config
may leave keys out; an artifact the tool wrote holds every key, so it is
read ``complete``.
"""

from __future__ import annotations

import sys


def typed(where: str, value, like):
    """``value`` if it has the JSON type of the default ``like``."""
    if isinstance(like, list):
        if isinstance(value, list) and all(type(e) is int for e in value):
            return tuple(value)
        raise ValueError(f"{where} must be a list of integers, got {value!r}")
    kinds = (int, float) if type(like) is float else (type(like),)
    if type(value) not in kinds:
        raise ValueError(f"{where} must be {type(like).__name__}, got {value!r}")
    # json reads NaN and Infinity as floats, and an integer may not fit one
    if type(like) is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} must be finite, got {value!r}")
    return type(like)(value)


def read(doc, like: dict, where: str, *, complete: bool = False) -> dict:
    """``doc`` type-checked against the schema ``like``, in ``like``'s key order.

    A key ``like`` lacks is rejected.  A key ``doc`` lacks takes its default,
    or is rejected if ``complete``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(like))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    out = {}
    for key, default in like.items():
        value, at = doc.get(key, default), f"{where}.{key}"
        if complete and key not in doc:
            raise ValueError(f"{at} is missing")
        if isinstance(default, dict):
            out[key] = read(value, default, at, complete=complete)
        else:
            out[key] = typed(at, value, default)
    return out


def require(doc, key: str, where: str, parse=None, *, error: type[Exception]):
    """``doc[key]``, through ``parse`` if given; a failure raises ``error`` naming ``where`` and ``key``."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object")
    if key not in doc:
        raise error(f"{where} is missing required key {key!r}")
    if parse is None:
        return doc[key]
    try:
        return parse(doc[key])
    except (KeyError, TypeError, ValueError) as e:
        raise error(f"{where} {key} is malformed: {e!r}") from None


def json_int(value) -> int:
    """A JSON integer as is: a bool, a float or a string raises rather than converts."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def check_format(doc, name: str, version: int, where: str, *, error: type[Exception]) -> None:
    """``doc`` is an artifact of format ``name`` at ``version``."""
    fmt = require(doc, "format", where, error=error)
    if fmt != name:
        raise error(f"{where} has unknown format {fmt!r}, expected {name!r}")
    found = require(doc, "version", where, json_int, error=error)
    if found != version:
        raise error(f"unsupported {where} version {found}, this build reads version {version}")
