"""The report emitter writes json.dumps(o, sort_keys=True, indent=2), byte for
byte: as a property over random JSON trees, and on the files the CLI writes."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.cli import _to_json, main


def reference(o) -> str:
    return json.dumps(o, sort_keys=True, indent=2)


TRICKY = '"\\\n\r\t\x00\x1f\x7fé€ \U0001f600,: {}[]'
texts = st.one_of(st.text(), st.text(alphabet=TRICKY))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     1e300, -1e300, 5e-324]),
    texts,
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(trees)
@example([[]])
@example({"a": {}})
@example({"": [], "b": {"c": [(), {}, [[1, True, 0, False]]]}})
@example([True, 1, False, 0, None, -(2**70), 2**70])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
@example({'k"\\\n\x01é': 'v"\\\n\x01é', "z": [',\n  "x": {', "\U0001f600"]})
def test_emitter_equals_json_dumps(o):
    assert _to_json(o) == reference(o)


@pytest.mark.parametrize("o", [
    {1: 2, 3: 4},
    {2.5: [1], -1.0: {"a": None}},
    {True: [1], False: {}},
    {None: [[]]},
    [{10: "x", 9: ["y"]}],
], ids=repr)
def test_non_str_keys_are_coerced_as_json_does(o):
    assert _to_json(o) == reference(o)


@pytest.mark.parametrize("o", [
    {(1, 2): 3},
    {(1, 2): [3]},
    {1: [1], "a": [2]},
    [{1, 2}],
    {"a": [object()]},
], ids=repr)
def test_unencodable_input_raises_type_error_as_json_does(o):
    with pytest.raises(TypeError):
        reference(o)
    with pytest.raises(TypeError):
        _to_json(o)


@pytest.mark.parametrize("argv", [
    "verify --family thm14 --q 3",        # witness rows
    "table1 --row 8 --k 3",
    "sweep --q 16",
    "catalog",
    "verify --family thm18-4 --q 32",     # the largest catalog document
])
def test_reports_are_json_dumps_bytes(tmp_path, argv):
    out = tmp_path / "r.json"
    main(argv.split() + ["--out", str(out)])
    text = out.read_text()
    assert text == reference(json.loads(text)) + "\n"


def test_report_re_emits_its_input_byte_for_byte(tmp_path):
    saved, again = tmp_path / "r.json", tmp_path / "again.json"
    assert main(["verify", "--family", "thm14", "--q", "3", "--out", str(saved)]) == 0
    assert main(["report", "--input", str(saved), "--format", "json",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == saved.read_bytes()
