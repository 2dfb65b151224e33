"""The report emitter writes json.dumps(o, sort_keys=True, indent=2), byte for
byte: as a property over random JSON trees, and on the files the CLI writes."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from permlab import cli
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


@settings(max_examples=200)
@given(trees)
@example([[]])
@example({"a": {}})
@example({"": [], "b": {"c": [(), {}, [[1, True, 0, False]]]}})
@example([True, 1, False, 0, None, -(2**70), 2**70])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
@example({'k"\\\n\x01é': 'v"\\\n\x01é', "z": [',\n  "x": {', "\U0001f600"]})
def test_emitter_equals_json_dumps(o):
    assert _to_json(o) == reference(o)


# Lists of records: one key set per list, keys that need escaping or carry
# a %, and columns that hold one type or mix them.
record_keys = st.sets(st.one_of(
    st.sampled_from(["%", "%s", "%%d", "%(a)s", '"', "\\", "é", "\U0001f600", ""]),
    texts), min_size=1, max_size=6)
specials = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
columns = st.sampled_from([
    st.integers(), st.booleans(), st.none(), specials, st.floats(), texts,
    st.one_of(st.integers(), st.booleans()),
    st.one_of(st.none(), st.lists(st.integers(), min_size=2, max_size=2)),
    st.fixed_dictionaries({"%": st.integers(), "b": st.one_of(st.none(), specials)}),
    trees,
])


@st.composite
def records(draw):
    keys = draw(record_keys)
    cells = {k: draw(columns) for k in keys}
    rows = draw(st.lists(st.fixed_dictionaries(cells), min_size=1, max_size=6))
    return draw(st.sampled_from([rows, tuple(rows), {"rows": rows}, [rows, rows]]))


@settings(max_examples=300)
@given(records())
@example([{}, {}])
@example([{"%": 1}, {"%": True}])
@example([{"a": 1}, {"b": 2}])
@example([{"a": 1, "b": [2, None]}])
@example(({"a": 1, "%s": "x"}, {"a": 2, "%s": "%s"}))
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": {"x": [1]}, "": -0.0}, {"a": {"x": []}, "": float("nan")}])
@example([{"a": 1}, {"a": 2}, {}])
@example([{1: "a", 2.5: None}, {1: "b", 2.5: True}])      # keys json coerces
@example([{"w": None}, {"w": []}, {"w": [1, -2, 2**70]}])  # an int-list column
def test_records_equal_json_dumps(o):
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


def _circular():
    """Self-containing inputs: a list, a dict, and lists of records that
    reach back to themselves, their list or one of their records."""
    lst = []
    lst.append(lst)
    dct = {}
    dct["a"] = dct
    rows = [{"x": 1}, {"x": 2}]
    rows[1]["x"] = rows
    selfish = [{"x": 1}, {"x": 2}]
    selfish[0]["x"] = [selfish[0]]
    deep = [{"s": {"t": 1}}, {"s": {"t": 2}}]
    deep[1]["s"]["t"] = deep[1]
    return {"list": lst, "dict": dct, "records": rows, "record": selfish,
            "nested record": {"k": deep}}


@pytest.mark.parametrize("o", list(_circular().values()), ids=list(_circular()))
def test_circular_input_raises_value_error_as_json_does(o):
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        reference(o)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        _to_json(o)


def test_shared_but_acyclic_input_is_written_as_json_does():
    """A container met twice on different paths is not circular."""
    b = {"x": 1}
    for o in ([{"x": b}, b], [b, b], [[b, b], [b]], {"p": b, "q": [b, {"x": b}]}):
        assert _to_json(o) == reference(o)


@pytest.mark.parametrize("argv", [
    "verify --family thm14 --q 3",        # witness rows
    "table1 --row 8 --k 3",
    "sweep --q 16",
    "catalog",
    "verify --family thm18-4 --q 32",     # the largest catalog document
    "verify",                             # the whole catalog
    "verify --family thm14 --q 7",        # prefix-route witness rows
])
def test_reports_are_json_dumps_bytes(tmp_path, argv):
    out = tmp_path / "r.json"
    main(argv.split() + ["--out", str(out)])
    text = out.read_text()
    assert text == reference(json.loads(text)) + "\n"


def _counted_cells(monkeypatch) -> list:
    """The values cli._cell writes from now on, one per call."""
    cells, real = [], cli._cell
    monkeypatch.setattr(cli, "_cell", lambda v, *rest: cells.append(v) or real(v, *rest))
    return cells


@pytest.mark.parametrize("argv", ["verify --family thm14 --q 3", "table1 --row 8 --k 3"])
def test_witness_column_is_written_in_one_pass(tmp_path, monkeypatch, argv):
    """A witness column, None or [a, b] per record, is rendered as one
    column, with no cell written on its own, and the bytes stay
    json.dumps'."""
    cells = _counted_cells(monkeypatch)
    out = tmp_path / "r.json"
    main(argv.split() + ["--out", str(out)])
    text = out.read_text()
    assert text == reference(json.loads(text)) + "\n"
    assert '"witness": null' in text and '"witness": [' in text
    assert cells == []


@pytest.mark.parametrize("column", [
    [None, [1, 2], [3, "a"]],       # a list that holds a str
    [[1, 2], [True, 0], None],      # a bool is not an int to json's text
    [None, (1, 2)],                 # a tuple
    [[1, 2], {"a": 1}],
], ids=repr)
def test_other_mixed_columns_are_still_written_cell_by_cell(monkeypatch, column):
    cells = _counted_cells(monkeypatch)
    o = [{"w": v, "x": i} for i, v in enumerate(column)] + [{"w": [], "x": -1}]
    assert _to_json(o) == reference(o)
    assert cells


def test_report_re_emits_its_input_byte_for_byte(tmp_path):
    saved, again = tmp_path / "r.json", tmp_path / "again.json"
    assert main(["verify", "--family", "thm14", "--q", "3", "--out", str(saved)]) == 0
    assert main(["report", "--input", str(saved), "--format", "json",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("argv", [
    "report --format json --input",       # a saved verify report, re-emitted
    "report --format csv --input",
    "catalog --format json",
    "catalog --format csv",
])
def test_stdout_equals_out_file(tmp_path, capsys, argv):
    """The same bytes reach stdout and --out (timings aside, which is why
    verify/table1/sweep are compared through their saved report)."""
    saved, out = tmp_path / "saved.json", tmp_path / "r.out"
    argv = argv.split()
    if argv[-1] == "--input":
        assert main(["verify", "--family", "thm14", "--q", "3", "--out", str(saved)]) == 0
        argv.append(str(saved))
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()
