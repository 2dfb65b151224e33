"""The report emitter writes json.dumps(o, sort_keys=True, indent=2), byte for
byte: as a property over random JSON documents and report rows, and on the
files the CLI writes."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlab import cli
from permlab.cli import Form, Rows, _to_json, main
from permlab.permcheck import Verdicts


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
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200)
@given(trees)
@example([[]])
@example({"a": {}})
@example({"": [], "b": {"c": [[], {}, [[1, True, 0, False]]]}})
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
    return draw(st.sampled_from([rows, {"rows": rows}, [rows, rows]]))


@settings(max_examples=300)
@given(records())
@example([{}, {}])
@example([{"%": 1}, {"%": True}])
@example([{"a": 1}, {"b": 2}])
@example([{"a": 1, "b": [2, None]}])
@example([{"a": 1, "%s": "x"}, {"a": 2, "%s": "%s"}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": {"x": [1]}, "": -0.0}, {"a": {"x": []}, "": float("nan")}])
@example([{"a": 1}, {"a": 2}, {}])
@example([{"w": None}, {"w": []}, {"w": [1, -2, 2**70]}])  # an int-list column
def test_records_equal_json_dumps(o):
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


@pytest.mark.parametrize("o", [
    {1: 2},
    {None: [[]]},
    [{"a": {2.5: 1}}],
    (1, 2),
    {"a": [(1, 2)]},
], ids=repr)
def test_input_outside_json_documents_raises_type_error(o):
    """The writer takes JSON documents: str keys, and lists rather than
    tuples.  json.dumps coerces these; the writer refuses them."""
    with pytest.raises(TypeError):
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


def _write_calls(monkeypatch) -> list:
    """The values cli._write is called on from now on, one per call."""
    calls, real = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda o, *rest: calls.append(o) or real(o, *rest))
    return calls


def _no_records(monkeypatch) -> None:
    """Make building a row dict an error."""
    def rows(self):
        raise AssertionError("a row dict was built")
    monkeypatch.setattr(cli.Rows, "__iter__", rows)


@pytest.mark.parametrize("argv", ["verify --family thm14 --q 3", "table1 --row 8 --k 3"])
def test_witness_column_is_written_in_one_pass(tmp_path, monkeypatch, argv):
    """Each form's rows, witnesses included, are filled into one template
    from its columns: no row and no witness goes through the generic
    writer, no row dict is built, and the bytes stay json.dumps'."""
    _no_records(monkeypatch)
    calls = _write_calls(monkeypatch)
    out = tmp_path / "r.json"
    main(argv.split() + ["--out", str(out)])
    text = out.read_text()
    assert text == reference(json.loads(text)) + "\n"
    assert '"witness": null' in text and '"witness": [' in text
    assert not any(type(o) is dict and "witness" in o for o in calls)
    assert Rows in set(map(type, calls))


def _nodes(o) -> int:
    """The number of values in the document o, counting each condition
    block's instance list as one."""
    if type(o) is dict:
        return 1 + sum(1 if k == "instances" and type(v) is list else _nodes(v)
                       for k, v in o.items())
    return 1 + sum(map(_nodes, o)) if type(o) is list else 1


@pytest.mark.parametrize("argv", ["verify --family thm14 --q 3",
                                  "verify --family thm14 --q 7",
                                  "verify --family thm18-4 --q 32"])
def test_json_report_builds_nothing_per_instance(tmp_path, monkeypatch, argv):
    """Writing a verify report calls _write once per value of the document
    outside the instance lists and once per instance list, however many
    instances there are, and builds no row dict."""
    _no_records(monkeypatch)
    calls = _write_calls(monkeypatch)
    out = tmp_path / "r.json"
    main(argv.split() + ["--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(calls) == _nodes(doc) < sum(r["summary"]["instances"] for r in doc["stable"]["runs"])


# One form's rows: tags that need escaping or carry a %, and columns of any
# length, with witnesses on the failing rows.
tags = st.one_of(texts, st.sampled_from(["%", "%s%%d", '"q\\é€\U0001f600%(x)s']))
indices = st.integers(0, 2**31)


@st.composite
def forms(draw):
    cs = draw(st.lists(indices, max_size=4))
    delta = draw(st.one_of(st.none(), st.lists(indices, min_size=1, max_size=4)))
    n = len(cs) * (1 if delta is None else len(delta))
    deficit = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 6, 2**40]),
                                     min_size=n, max_size=n)), dtype=np.int64)
    v = Verdicts.of(deficit, np.zeros(n, dtype=np.int8))
    fails = np.flatnonzero(deficit)
    v.a[fails] = draw(st.lists(indices, min_size=fails.size, max_size=fails.size))
    v.b[fails] = v.a[fails] + 1
    return Form("c", draw(tags), draw(st.integers(-2**70, 2**70)), draw(st.integers(0, 9)),
                draw(st.booleans()), v, np.array(cs, dtype=np.int64),
                None if delta is None else np.array(delta, dtype=np.int64), 0.0, {})


def _form(cs, delta, fails=()) -> Form:
    """A form over cs and delta (None for a trinomial) whose rows at the
    c-major positions fails do not permute."""
    n = len(cs) * (1 if delta is None else len(delta))
    deficit = np.zeros(n, dtype=np.int64)
    deficit[list(fails)] = 2
    v = Verdicts.of(deficit, np.zeros(n, dtype=np.int8))
    v.a[list(fails)] = [3 * i for i in fails]
    v.b[list(fails)] = [3 * i + 1 for i in fails]
    return Form("c", "s%", 7, 1, False, v, np.array(cs, dtype=np.int64),
                None if delta is None else np.array(delta, dtype=np.int64), 0.0, {})


@settings(max_examples=150)
@given(st.lists(forms(), max_size=3))
@example([])
@example([_form([3, 5, 8], [0, 1, 2])])                     # every c permutes
@example([_form([3, 5], [0, 1, 2], fails=[0, 5])])          # first and last row of a c
@example([_form([3, 5, 8], [9], fails=[1])])                # the only row of its c
@example([_form([3, 5], [0, 1]), _form([4], [2, 6], fails=[1])])
@example([_form(list(range(1, 12)), None)])                 # a trinomial of many c
@example([_form(list(range(1, 12)), None, fails=[0, 4, 10])])
def test_row_template_equals_json_dumps(fs):
    """Rows written from the columns, at two nestings, are json.dumps of
    their row dicts, whatever the shared cells hold."""
    rows = Rows(fs)
    doc = {"a": rows, "b": [{"instances": rows}]}
    assert _to_json(doc) == reference({"a": list(rows), "b": [{"instances": list(rows)}]})


@pytest.mark.parametrize("s_tag", ['%d 100% "tag" \\ é€', "%s%%", "\U0001f600\n%"])
def test_row_template_escapes_the_shared_cells(s_tag):
    """An s_tag holding %, a quote, a backslash and non-ASCII text is
    escaped as json escapes it, and its % never reaches the template."""
    v = Verdicts.of(np.array([0, 3]), np.zeros(2, dtype=np.int8))
    v.a[1], v.b[1] = 4, 9
    rows = Rows([Form("c", s_tag, 5, 1, False, v, np.array([7]), np.array([0, 2]), 0.0, {})])
    text = _to_json({"instances": rows})
    assert text == reference({"instances": list(rows)})
    assert json.loads(text)["instances"][0]["s_tag"] == s_tag


@pytest.mark.parametrize("column", [
    [None, [1, 2], [3, "a"]],       # a list that holds a str
    [[1, 2], [True, 0], None],      # a bool is not an int to json's text
    [[1, 2], {"a": 1}],
], ids=repr)
def test_other_mixed_columns_are_still_written_cell_by_cell(monkeypatch, column):
    """A list of records, such as a loaded report's instance rows, goes
    through the generic writer record by record and cell by cell."""
    calls = _write_calls(monkeypatch)
    o = [{"w": v, "x": i} for i, v in enumerate(column)] + [{"w": [], "x": -1}]
    assert _to_json(o) == reference(o)
    assert [c for c in calls if type(c) is dict and "x" in c] == o
    assert all(any(c is r["w"] for c in calls) for r in o)


def test_emit_holds_about_one_copy_of_the_report(tmp_path, monkeypatch):
    """Writing the largest catalog report, whose rows all permute, holds
    little more than its text: a chunk per c goes straight to the file,
    never joined into one string.  tracemalloc's peak inside _emit stays
    within 1.5 times the file's size; joining the chunks into one string
    and writing that peaked at 3 times."""
    real, peak = cli._emit, []

    def traced(*a):
        tracemalloc.start()
        try:
            real(*a)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    out = tmp_path / "r.json"
    monkeypatch.setattr(cli, "_emit", traced)
    assert main(["verify", "--family", "thm18-4", "--q", "32", "--out", str(out)]) == 0
    size = out.stat().st_size
    assert size > 2_000_000 and peak[0] <= 1.5 * size


def test_a_refused_document_writes_nothing(tmp_path, monkeypatch, capsys):
    """The whole document is rendered before --out is opened, so one the
    writer refuses raises TypeError and leaves no file; and one document
    gives the same bytes on stdout and in --out."""
    out = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli._emit({"stable": {"a": [1, (2, 3)]}}, "json", str(out), cli.report_csv)
    assert not out.exists()
    calls, real = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *a: calls.append(a) or real(*a))
    assert main(["verify", "--family", "thm14", "--q", "3", "--out", str(out)]) == 0
    (doc, fmt, _, to_csv), = calls
    capsys.readouterr()
    real(doc, fmt, None, to_csv)
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_report_re_emits_its_input_byte_for_byte(tmp_path):
    """The generic writer re-emits what the row template wrote, witness
    rows and deltas included."""
    saved, again = tmp_path / "r.json", tmp_path / "again.json"
    for argv, code in [("verify --family thm14 --q 3", 0), ("table1 --row 8 --k 3", 1)]:
        assert main(argv.split() + ["--out", str(saved)]) == code
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
