"""Small shared helpers."""

import functools
import json
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal

_HUNDREDTH = Decimal("0.01")


def round_half_up(value: float) -> float:
    """Round to two decimals with ties away from zero (accuracy display
    convention). Python's built-in round() is banker's rounding; 0.125 must
    become 0.13.
    """
    return float(Decimal(str(value)).quantize(_HUNDREDTH, rounding=ROUND_HALF_UP))


def trunc_pct(value: float | None) -> float | None:
    """Truncate toward zero at two decimals, the convention the published
    tables follow (3282/3344 prints as 98.14, not 98.15). None, a missing
    cell, stays None."""
    if value is None:
        return None
    return float(Decimal(str(value)).quantize(_HUNDREDTH, rounding=ROUND_DOWN))


def fmt_pct(value: float | None) -> str:
    return "NA" if value is None else f"{trunc_pct(value):.2f}%"


def json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte. The standard library indents
    only in its pure-Python encoder; here the C encoder writes every dict or
    list that holds no non-empty dict or list, in one call whose item
    separator carries the line break and the indent."""
    return _indented(obj, "\n")


@functools.cache
def _flat_encoder(newline: str):
    # a flat container cannot hold itself: no circular check
    return json.JSONEncoder(separators=("," + newline, ": "), check_circular=False).encode


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _indented(obj, newline: str) -> str:
    # newline: a line break and the indent of obj's closing bracket
    inner = newline + "  "
    encode = _flat_encoder(inner)
    if not (isinstance(obj, _CONTAINERS) and obj):
        return encode(obj)
    values = list(obj.values()) if isinstance(obj, dict) else obj
    # the type-set test runs in C; isinstance per value only when it fails
    nested = {} if _SCALARS.issuperset(map(type, values)) else {
        i: _indented(v, inner) for i, v in enumerate(values)
        if isinstance(v, _CONTAINERS) and v}
    if nested:
        # Encode each nested value as null, then splice its render in.
        # ensure_ascii escapes every line break inside a string, so the
        # separator cuts the text into exactly one piece per item.
        stub = [None if i in nested else v for i, v in enumerate(values)]
        text = encode(dict(zip(obj, stub)) if isinstance(obj, dict) else stub)
        items = text[1:-1].split("," + inner)
        for i, render in nested.items():
            items[i] = items[i][: -len("null")] + render
        text = text[0] + ("," + inner).join(items) + text[-1]
    else:
        text = encode(obj)
    return text[0] + inner + text[1:-1] + newline + text[-1]
