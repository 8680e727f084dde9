"""Fuzzing of every text input: algebra files, coordinates, scalars,
expressions and certificate scripts.  Whatever the input, the only
exceptions that may escape are lieext's own (``LieextError``); anything else
would reach the CLI as an internal error.  ``derandomize`` makes every run
draw the same examples."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from lieext import Field, FreeAlgebra, LieextError, builtin, run_script, to_json  # noqa: E402
from lieext.algebra import from_json, parse_coords  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# Characters the grammars care about, plus numerics that str.isdigit accepts
# and int() does not ("²"), Unicode decimal digits ("٣") and other letters.
ALPHABET = st.sampled_from(list("XYVab0123456789 +-*^()/_,.{}#=>\n\t") + ["²", "٣", "½", "é"])
TEXT = st.one_of(st.text(ALPHABET, max_size=40), st.text(max_size=20))
FRAGMENTS = st.sampled_from([
    "symbols X Y", "symbols X", "char in {", "char not in {2, 3}", "}", "let A = ", "let ",
    "rule ", " -> ", "assert reduce(", ") == ", "assert span(", "X^2", "Y*X", "A", "(", ")",
    "1/2", "²", "٣", "-", "+", "^", "\n", " ",
])
SCRIPT = st.tuples(st.sampled_from(["", "symbols X Y\n"]),
                   st.lists(st.one_of(FRAGMENTS, TEXT), max_size=25).map("".join)).map("".join)
SCALAR = st.one_of(st.sampled_from(["0", "4", "12", "²", "٣", "1/2", "-3/4", "2/4", " 1 "]), TEXT)


def only_lieext_errors(call, *args):
    try:
        call(*args)
    except LieextError:
        pass


@FUZZ
@given(text=SCALAR, p=st.sampled_from([0, 5, 7]))
def test_field_parse(text, p):
    only_lieext_errors(Field(p).parse, text)


@FUZZ
@given(coords=st.lists(SCALAR, min_size=1, max_size=5), extra=st.integers(0, 1),
       p=st.sampled_from([0, 5]))
def test_parse_coords(coords, extra, p):
    only_lieext_errors(parse_coords, Field(p), ",".join(coords), len(coords) + extra)


@FUZZ
@given(text=st.lists(st.one_of(FRAGMENTS, TEXT), max_size=12).map("".join),
       p=st.sampled_from([0, 5, 7]))
def test_free_algebra_parse(text, p):
    only_lieext_errors(FreeAlgebra(Field(p), ("X", "Y")).parse, text)


@FUZZ
@given(text=SCRIPT, p=st.sampled_from([None, 0, 5, 7, 4, -1]))
def test_run_script(text, p):
    only_lieext_errors(run_script, text, p)


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=True),
              TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["i", "j", "terms", "dim"]), inner,
                                            max_size=3)),
    max_leaves=12,
)


def _mutated_witt5(draw_key, value):
    doc = json.loads(to_json(builtin("witt5", 5)))
    if draw_key in ("characteristic", "dim", "basis", "brackets"):
        doc[draw_key] = value
    else:
        doc["brackets"][0][draw_key] = value
    return json.dumps(doc)


@FUZZ
@given(text=st.one_of(TEXT, JSON_VALUES.map(json.dumps),
                      st.builds(_mutated_witt5,
                                st.sampled_from(["characteristic", "dim", "basis", "brackets",
                                                 "i", "j", "terms"]),
                                JSON_VALUES)))
def test_from_json(text):
    only_lieext_errors(from_json, text)
