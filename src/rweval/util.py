"""Small shared helpers."""

import functools
import json
import operator
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal

_HUNDREDTH = Decimal("0.01")


def record(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    It gets an ``__init__`` taking the fields positionally or by name, with
    the class attributes of the trailing fields as their defaults, that calls
    ``__post_init__`` when the class has one; assignment and deletion raise
    AttributeError; instances of the same class are equal when their field
    tuples are, and hash as that tuple; the repr is ``Name(field=value, ...)``.
    The instance dict holds exactly the fields. This is what the package used
    of a frozen dataclass, without that module's import and its code
    generation per method, which a cold command would pay at each start.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = [cls.__dict__[f] for f in fields if f in cls.__dict__]
    if any(f in cls.__dict__ for f in fields[:len(fields) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    # One compiled __init__ per class. object.__setattr__ keeps the values
    # inline in the instance (reading self.__dict__ would make a dict, with
    # slower attribute reads and bigger instances).
    body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):\n{body}{post}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    get = operator.attrgetter(*fields)
    values = get if len(fields) > 1 else lambda obj: (get(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({items})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _refuse_assignment
    return cls


def _refuse_assignment(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def replace(obj, **changes):
    """A copy of the record obj with changes applied; its checks run again."""
    return obj.__class__(**{**obj.__dict__, **changes})


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
    only in its pure-Python encoder, so a non-empty dict, list or tuple of
    scalars, what `size` and `features` print, is written by the C encoder in
    one call whose item separator carries the line break and the indent."""
    if isinstance(obj, (dict, list, tuple)) and obj and _SCALARS.issuperset(
            map(type, obj.values() if isinstance(obj, dict) else obj)):
        text = _flat_encoder("\n  ")(obj)
        return text[0] + "\n  " + text[1:-1] + "\n" + text[-1]
    return json.dumps(obj, indent=2)


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(newline: str):
    # a flat container cannot hold itself: no circular check
    return json.JSONEncoder(separators=("," + newline, ": "), check_circular=False).encode
