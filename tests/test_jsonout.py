"""Indented JSON text: the same text as the stdlib's indented encoder."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twistroots.jsonout import json_text


def _stdlib_json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


ODD_STRINGS = ['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2603", "\U0001f600", ""]
KEYS = st.text() | st.sampled_from(ODD_STRINGS)
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**70)
          | st.integers(max_value=-2**70) | st.floats() | KEYS)
DOCS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=25,
)


@given(DOCS)
def test_json_text_matches_the_stdlib(doc):
    assert json_text(doc) == _stdlib_json_text(doc)


@pytest.mark.parametrize("doc", [
    {1: "a", 2: ["b"]}, {"a": {None: 1}}, {"a": [{True: 2, False: 3}, {1.5: "x"}]}, [{}, [], ()],
])
def test_json_text_follows_the_stdlib_on_other_keys(doc):
    assert json_text(doc) == _stdlib_json_text(doc)


@pytest.mark.parametrize("doc", [{"a": [Fraction(1, 2)]}, {"a": {1, 2}}, {1: "a", "b": 2}])
def test_json_text_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        _stdlib_json_text(doc)
    with pytest.raises(TypeError):
        json_text(doc)
