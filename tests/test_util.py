import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rweval.util import json_text

_STRINGS = st.text() | st.sampled_from(["", "\n", ",\n  ", "null", "é \x00\x1f", '"\\'])
_KEYS = (_STRINGS | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
         | st.booleans() | st.none())
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | _STRINGS)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_json_text_is_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_on_empty_and_nested_containers():
    value = {"a": {}, "b": [], "c": (), "d": [[], {}, [[1]], {"e": ()}], 1: {2.5: [None]},
             True: "x", None: float("nan")}
    assert json_text(value) == json.dumps(value, indent=2)
