import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from permlab import cli, permcheck
from permlab.cli import CSV_COLUMNS, main
from permlab.families import lookup
from permlab.ffcore import FieldCtx, get_field, prime_power

# every invocation goes through main(argv) in-process; --out keeps stdout
# quiet and gives the test a file to parse


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def flat_instances(doc):
    for r in doc["stable"]["runs"]:
        for blk in r["conditions"]:
            for inst in blk["instances"]:
                yield r, inst


def form_times(doc):
    """Per run, the seconds of each (condition, s, step) form, the one
    engine call that decides its instances.  timings.runs[*].forms holds
    one record per form, in the order the stable section lists the forms'
    instances, with the form's instance count."""
    out = []
    for r, t in zip(doc["stable"]["runs"], doc["timings"]["runs"]):
        counts = Counter((blk["condition"], inst["s_tag"], inst["step"])
                         for blk in r["conditions"] for inst in blk["instances"])
        assert [(f["condition"], f["s_tag"], f["step"], f["instances"])
                for f in t["forms"]] == [(*key, n) for key, n in counts.items()]
        assert "instances_s" not in t
        out.append({(f["condition"], f["s_tag"], f["step"]): f["seconds"] for f in t["forms"]})
    return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_instance_family(tmp_path, capsys):
    code, doc = run(tmp_path, "verify", "--family", "thm7", "--q", "7")
    assert code == 0
    assert doc["stable"]["schema"] == "permlab-report/1"
    assert doc["stable"]["verb"] == "verify"
    runs = doc["stable"]["runs"]
    assert len(runs) == 1 and runs[0]["family"] == "thm7" and runs[0]["q"] == 7
    insts = list(flat_instances(doc))
    assert len(insts) == 1
    _, inst = insts[0]
    assert inst["permutes"] and inst["s"] == 19 and inst["c"] == 1
    assert "PASS thm7 q=7" in capsys.readouterr().err


def test_verify_sweeps_every_valid_coefficient(tmp_path):
    code, doc = run(tmp_path, "verify", "--family", "thm5", "--q", "9")
    assert code == 0
    insts = [i for _, i in flat_instances(doc)]
    assert len(insts) == 5
    assert sorted(i["c"] for i in insts) == [1, 20, 26, 47, 59]
    assert all(i["s"] == 65 and i["permutes"] for i in insts)


def test_verify_whole_catalog_defaults(tmp_path):
    code, doc = run(tmp_path, "verify")
    assert code == 0
    runs = doc["stable"]["runs"]
    assert len(runs) == 82                       # two parameter sets each
    assert len({r["family"] for r in runs}) == 41
    for r in runs:
        assert r["summary"]["failed"] == 0


def test_verify_inapplicable_parameters(tmp_path):
    code, doc = run(tmp_path, "verify", "--family", "thm7", "--q", "5")
    assert code == 2 and doc is None


def test_verify_config_errors(tmp_path):
    assert run(tmp_path, "verify", "--family", "nosuch")[0] == 3
    assert run(tmp_path, "verify", "--family", "thm7", "--q", "6")[0] == 3
    assert run(tmp_path, "verify", "--q", "9")[0] == 3       # family required
    assert run(tmp_path, "verify", "--family", "thm7", "--q", "7",
               "--p", "7", "--k", "1")[0] == 3               # q xor p/k
    assert run(tmp_path, "verify", "--family", "thm5", "--q", "9",
               "--cap", "16")[0] == 3                        # over the cap


@pytest.mark.parametrize("verb", [["verify", "--family", "thm7", "--q", "7"],
                                  ["sweep", "--q", "4"]])
def test_cap_int32_tables_cannot_index_exits_config(tmp_path, capsys, monkeypatch, verb):
    """A --cap above 2^31 - 1 is refused before any field is built."""
    def built(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "get_field", built)
    assert run(tmp_path, *verb, "--cap", str(2**31))[0] == 3
    assert "--cap 2147483648" in capsys.readouterr().err
    monkeypatch.undo()
    assert run(tmp_path, *verb, "--cap", str(2**31 - 1))[0] == 0


@pytest.mark.parametrize("kprime", ["0", "-1"])
@pytest.mark.parametrize("verb", [["verify"], ["verify", "--family", "table1-r12", "--q", "4"],
                                  ["table1"], ["sweep", "--q", "4"]])
def test_kprime_below_one_exits_config(tmp_path, capsys, monkeypatch, verb, kprime):
    """k' is a positive integer in every rule that reads it (2^k' - 1 is a
    denominator), so a flag or config key below 1 exits 3, naming --kprime,
    before any field is built."""
    def built(*args, **kwargs):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "get_field", built)
    assert run(tmp_path, *verb, "--kprime", kprime)[0] == 3
    assert f"permlab: --kprime must be >= 1, got {kprime}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kprime = {kprime}\n")
    assert run(tmp_path, *verb, "--config", str(cfg))[0] == 3
    assert "--kprime" in capsys.readouterr().err


def test_verify_bad_flag_exits_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 3


def test_jobs_flag_and_config_key_are_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "thm7", "--q", "7", "--jobs", "2"])
    assert exc.value.code == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = thm7\nq = 7\njobs = 2\n")
    assert main(["verify", "--config", str(cfg)]) == 3


_NO_FIELD = ["--q", "--p", "--k", "--kprime", "--seed", "--cap", "--delta-samples"]
_UNREAD_FLAGS = {"table1": ["--q", "--p"], "sweep": ["--seed", "--delta-samples"],
                 "report": _NO_FIELD, "catalog": _NO_FIELD}


@pytest.mark.parametrize("verb, flag", [
    (verb, flag) for verb, flags in _UNREAD_FLAGS.items() for flag in flags])
def test_each_verb_refuses_the_flags_it_does_not_read(tmp_path, capsys,
                                                      verb, flag):
    """table1 picks its own q, sweep never samples deltas, and report and
    catalog build no field, so each such flag exits 3 instead of being
    ignored."""
    base = {"table1": ["--row", "2"], "sweep": ["--q", "4"],
            "report": ["--input", str(tmp_path / "none.json")], "catalog": []}
    with pytest.raises(SystemExit) as exc:
        main([verb, *base[verb], flag, "7", "--out", str(tmp_path / "o")])
    assert exc.value.code == 3
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("q", ["12", "1"])
def test_q_not_a_prime_power_exits_config(tmp_path, capsys, q):
    assert run(tmp_path, "verify", "--family", "thm7", "--q", q)[0] == 3
    assert "prime power" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure reporting
# ---------------------------------------------------------------------------

def test_failing_run_reports_witnesses(tmp_path, capsys):
    # this row's residue exponent rule stops permuting when 3 | k
    code, doc = run(tmp_path, "table1", "--row", "8", "--k", "3")
    assert code == 1
    run_doc = doc["stable"]["runs"][0]
    assert run_doc["summary"]["failed"] > 0
    for _, inst in flat_instances(doc):
        if not inst["permutes"]:
            a, b = inst["witness"]
            assert a != b and inst["image_deficit"] > 0
        else:
            assert inst["witness"] is None
    assert "FAIL table1-r8 q=8" in capsys.readouterr().err


def test_summary_counts_match_instances(tmp_path):
    code, doc = run(tmp_path, "table1", "--row", "8", "--k", "3")
    assert code == 1
    for r in doc["stable"]["runs"]:
        for blk in r["conditions"]:
            insts = blk["instances"]
            s = blk["summary"]
            asserted = [i for i in insts if not i["informational"]]
            assert s["instances"] == len(insts)
            assert s["asserted"] == len(asserted)
            assert s["passed"] == sum(i["permutes"] for i in asserted)
            assert s["failed"] == sum(not i["permutes"] for i in asserted)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_all_rows_smallest_k(tmp_path):
    code, doc = run(tmp_path, "table1")
    assert code == 0
    runs = doc["stable"]["runs"]
    assert [r["family"] for r in runs] == [
        f"table1-r{i}" for i in range(1, 14)]
    assert [r["q"] for r in runs] == [4, 2, 2, 4, 2, 2, 4, 2, 2, 4, 4, 2, 4]
    assert all(r["deltas_exhaustive"] for r in runs)


def test_table1_single_row(tmp_path):
    code, doc = run(tmp_path, "table1", "--row", "9")
    assert code == 0
    (r,) = doc["stable"]["runs"]
    assert r["family"] == "table1-r9" and r["q"] == 2
    tags = {blk["condition"] for blk in r["conditions"]}
    assert tags == {"unity", "c=1"}


def test_timings_record_field_construction_per_run(tmp_path, monkeypatch):
    """field_s times each run's field lookup (a build on a cache miss), and
    total_s is the verb's wall time, so it covers a slowed lookup as well as
    the instances."""
    real, pause = cli.get_field, 0.02

    def slow(*args, **kwargs):
        time.sleep(pause)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "get_field", slow)
    for argv in (("verify", "--family", "thm14", "--q", "3"), ("table1", "--row", "9")):
        code, doc = run(tmp_path, *argv)
        assert code == 0
        stable_runs, timing_runs = doc["stable"]["runs"], doc["timings"]["runs"]
        assert [(t["family"], t["q"]) for t in timing_runs] == [
            (r["family"], r["q"]) for r in stable_runs]
        for t, r in zip(timing_runs, stable_runs):
            assert t["field_s"] >= pause
            assert sum(f["instances"] for f in t["forms"]) == r["summary"]["instances"]
        accounted = sum(sum(f["seconds"] for f in t["forms"]) + t["field_s"]
                        for t in timing_runs)
        assert doc["timings"]["total_s"] >= accounted
        assert "field_s" not in json.dumps(doc["stable"])


def test_timings_count_routes_and_share_fibre_time(tmp_path, monkeypatch):
    """thm14 at q = 3: the step-2 form permutes on all 9 trace fibres over
    GF(9), so brute force checks only their 9 probes; the step-1 form fails
    at every delta, and past the probes of its 3 fibres the prefix search
    finds the witnesses.  A slowed fibre count shows in each form's
    seconds."""
    real, pause = permcheck._trace_deficits, 0.02

    def slow(*args):
        time.sleep(pause)
        return real(*args)

    monkeypatch.setattr(permcheck, "_trace_deficits", slow)
    code, doc = run(tmp_path, "verify", "--family", "thm14", "--q", "3")
    assert code == 0
    t = doc["timings"]["runs"][0]
    assert t["routes"] == {"fibre": 72, "brute": 12, "prefix": 78, "mu": 0}
    (forms,) = form_times(doc)
    assert [f["instances"] for f in t["forms"]] == [81, 81]
    # the form's one engine call, fibre count included
    assert all(seconds >= pause for seconds in forms.values())
    # trinomial families never take the fibre route, and on a field of at
    # most 2^14 points brute force checks every c the mu route decides
    code, doc = run(tmp_path, "verify", "--family", "thm5", "--q", "9")
    assert doc["timings"]["runs"][0]["routes"] == {"fibre": 0, "brute": 5, "prefix": 0, "mu": 0}


@pytest.mark.parametrize("argv, canonical", [(("table1", "--row", "7"), True),
                                             (("verify", "--family", "thm14", "--q", "7"), False)])
def test_forms_count_the_h_routes_that_ran(tmp_path, argv, canonical):
    """Each form's timings record counts the c that each h route ran on, a
    c under both routes when both ran.  table1-r7 at q = 4 has canonical
    shift forms of 3 values of c: the mu route decides h at each, and brute
    force, which a shift form runs at every c, confirms it.  thm14 at q = 7
    is not canonical, so brute force alone decides h at its one c.  The
    stable section does not carry the count."""
    code, doc = run(tmp_path, *argv)
    assert code == 0
    (r,) = doc["stable"]["runs"]
    (t,) = doc["timings"]["runs"]
    n_c = len({i["c"] for b in r["conditions"] for i in b["instances"]})
    assert n_c == (3 if canonical else 1)
    assert len(t["forms"]) == 2
    assert all(f["h_routes"] == {"mu": n_c if canonical else 0, "brute": n_c}
               for f in t["forms"])
    assert "h_routes" not in json.dumps(doc["stable"])


def test_runs_sum_their_forms_h_routes(tmp_path):
    """Each run's timings record sums its forms' h_routes.  The whole
    catalog's runs book every mu decision under brute in `routes`, which
    the golden tests pin; the run-level sum shows them.  The stable section
    does not carry it and stays the same bytes on a rerun."""
    code, doc = run(tmp_path, "verify")
    assert code == 0
    runs = doc["timings"]["runs"]
    for t in runs:
        assert t["h_routes"] == {key: sum(f["h_routes"][key] for f in t["forms"])
                                 for key in ("mu", "brute")}
    assert any(t["h_routes"]["mu"] and not t["routes"]["mu"] for t in runs)
    assert "h_routes" not in json.dumps(doc["stable"])
    _, again = run(tmp_path, "verify", name="again.json")
    assert cli.stable_json(again) == cli.stable_json(doc)


def test_trinomial_form_shares_u_time_equally(tmp_path, monkeypatch):
    """thm5 at q = 9: one pair_verdicts call decides the form's 5 values of c,
    and a slowed build of u shows up once, in the form's seconds."""
    real, pause = permcheck._log_order_u, 0.05

    def slow(*args):
        time.sleep(pause)
        return real(*args)

    monkeypatch.setattr(permcheck, "_log_order_u", slow)
    code, doc = run(tmp_path, "verify", "--family", "thm5", "--q", "9")
    assert code == 0
    (form,) = doc["timings"]["runs"][0]["forms"]
    assert form["instances"] == 5
    assert pause <= form["seconds"] < 1.5 * pause
    assert doc["timings"]["total_s"] >= form["seconds"] + doc["timings"]["runs"][0]["field_s"]


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "thm14", "--q", "3"),     # two delta forms
    ("verify", "--family", "thm5", "--q", "9"),      # one trinomial form
    ("table1", "--row", "9"),                        # two conditions
])
def test_slowed_engine_call_shows_as_equal_shares_in_its_form(tmp_path, monkeypatch, argv):
    """Each engine call, slowed by pause, is timed once by the caller: its
    form's one seconds entry is at least pause, and the forms' seconds, with
    field_s, fit in total_s."""
    pause, calls = 0.02, []

    def slowed(engine):
        def slow(*args, **kwargs):
            calls.append(engine)
            time.sleep(pause)
            return engine(*args, **kwargs)
        return slow

    monkeypatch.setattr(cli, "pair_verdicts", slowed(cli.pair_verdicts))
    code, doc = run(tmp_path, *argv)
    assert code == 0
    (forms,) = form_times(doc)
    assert len(forms) == len(calls)
    assert all(seconds >= pause for seconds in forms.values())
    (t,) = doc["timings"]["runs"]
    assert sum(forms.values()) + t["field_s"] <= doc["timings"]["total_s"]


@pytest.mark.parametrize("argv, declared", [
    (("verify", "--family", "thm14", "--q", "3"), lambda f: f.steps == (2, 1)),
    (("table1", "--row", "1"), lambda f: [t for t, _ in f.s_rules] == ["i=2", "i=-1"]),
    (("table1", "--row", "9"), lambda f: [t for t, _ in f.conds] == ["unity", "c=1"]),
], ids=["thm14-steps", "r1-s-tags", "r9-conditions"])
def test_forms_come_sorted_whatever_order_the_family_declares(tmp_path, argv, declared):
    """Condition blocks come in sorted order, and each block's instances are
    sorted by (s_tag, step, c, delta), although the family declares its
    steps, s variants or conditions out of that order; the timings hold one
    record per form, in that order, and one route per instance."""
    code, doc = run(tmp_path, *argv)
    assert code == 0
    (r,) = doc["stable"]["runs"]
    assert declared(lookup(r["family"]))
    conds = [b["condition"] for b in r["conditions"]]
    assert conds == sorted(set(conds))
    for b in r["conditions"]:
        insts = b["instances"]
        assert insts == sorted(insts, key=lambda i: (i["s_tag"], i["step"], i["c"], i["delta"]))
    (t,) = doc["timings"]["runs"]
    n = r["summary"]["instances"]
    assert sum(f["instances"] for f in t["forms"]) == n and sum(t["routes"].values()) == n
    (forms,) = form_times(doc)
    assert len(forms) == len(t["forms"]) > 1


@pytest.mark.parametrize("fid, q", [("thm18-4", 32), ("thm14", 7)])
def test_shift_forms_make_elements_only_for_witnesses(monkeypatch, fid, q):
    """verify hands pick_deltas' indices to the engine as an array, brute
    force decides its deltas on index arrays, and each form keeps the
    engine's columns.  Past the coefficient pools the only Element made is
    one g(0) per engine call, as it builds u: no witness, of f_d or of a
    failing h, becomes Elements, and cli makes none.  thm18-4 at q = 32
    permutes at every delta, and thm14 at q = 7 has failing deltas whose
    witnesses come from brute force and from the prefix route, and one
    failing h, at step 1."""
    real, calls = FieldCtx.element_at, Counter()

    def counted(fld, index):
        calls[sys._getframe(1).f_globals["__name__"]] += 1
        return real(fld, index)

    monkeypatch.setattr(FieldCtx, "element_at", counted)
    run = cli.run_family_verification(fid, q, cli.RunConfig())
    made = dict(calls)
    monkeypatch.undo()
    routes = np.concatenate([f.verdicts.route for f in run.forms])
    assert 0 < np.count_nonzero(routes == permcheck.ROUTES.index("brute")) < routes.size
    assert made.get("permlab.cli", 0) == 0
    assert made["permlab.permcheck"] == len(run.forms)
    witnessed = sum(np.count_nonzero(f.verdicts.a >= 0) for f in run.forms)
    fld = get_field(run.p, run.n)
    h_fails = sum(np.count_nonzero(~permcheck.pair_verdicts(
        permcheck.make_gspec(fld, [(fld.one, f.s)], prime_power(q)[1]),
        f.step, [fld.element_at(c) for c in f.c.tolist()])[0].permutes)
        for f in run.forms)
    assert (witnessed > 0) == (fid == "thm14") == (h_fails == 1)


def test_shift_forms_evaluate_each_probe_once_for_every_c(monkeypatch):
    """thm18-4 at q = 32 has one form of 11 values of c over GF(2^10), whose
    1,024 deltas fall into 32 trace fibres.  G_d = g(x^(q^k) - x + d) does
    not depend on c, so it is evaluated at the 32 probes once, not once per
    (c, probe): 352 brute-forced rows read 32 rows of G."""
    real, evaluated = permcheck._g_rows, []

    def counted(bulk, terms, shift_log, deltas):
        evaluated.extend(deltas.tolist())
        return real(bulk, terms, shift_log, deltas)

    monkeypatch.setattr(permcheck, "_g_rows", counted)
    run = cli.run_family_verification("thm18-4", 32, cli.RunConfig())
    (form,) = run.forms
    assert form.c.size == 11
    assert np.count_nonzero(form.verdicts.route == permcheck.ROUTES.index("brute")) == 352
    assert len(evaluated) == len(set(evaluated)) == 32


@pytest.mark.parametrize("argv", ["verify --family thm14 --q 3", "table1 --row 8 --k 3",
                                  "sweep --q 8"])
def test_cold_start_never_imports_numpy_ma(tmp_path, argv):
    """A bare np.unique imports numpy.ma on first use, about 15 ms in a
    fresh process; no verb of the catalog or sweep path may reach it."""
    code = ("import sys\n"
            "from permlab.cli import main\n"
            f"main({argv.split() + ['--out', str(tmp_path / 'r.json')]!r})\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_delta_samples_above_the_field_order_exits_config(tmp_path, capsys):
    assert run(tmp_path, "verify", "--family", "thm18-1", "--q", "256",
               "--delta-samples", "70000")[0] == 3
    assert "--delta-samples" in capsys.readouterr().err


def test_table1_inadmissible_k(tmp_path):
    code, doc = run(tmp_path, "table1", "--row", "1", "--k", "3")
    assert code == 2 and doc is None


@pytest.mark.parametrize("k", ["0", "-1", "-2"])
def test_table1_refuses_k_below_1_as_config(tmp_path, capsys, k):
    """A --k below 1 is a configuration error (exit 3) named as such, for
    every row, before any row's admissibility or field is looked at."""
    for row in (["--row", "1"], []):
        code, doc = run(tmp_path, "table1", *row, "--k", k)
        assert code == 3 and doc is None
        err = capsys.readouterr().err
        assert f"--k must be >= 1, got {k}" in err and "prime power" not in err


# ---------------------------------------------------------------------------
# step variants
# ---------------------------------------------------------------------------

def test_step_outcomes_recorded(tmp_path):
    code, doc = run(tmp_path, "verify", "--family", "thm14", "--q", "3")
    assert code == 0        # the failing step is informational only
    (r,) = doc["stable"]["runs"]
    assert r["step_outcomes"] == {"1": "fail", "2": "pass"}
    blk = r["conditions"][0]
    assert blk["summary"]["passed"] == 81
    assert blk["summary"]["informational_failed"] == 81
    for _, inst in flat_instances(doc):
        assert inst["informational"] == (inst["step"] == 1)


def test_single_step_families_omit_outcomes(tmp_path):
    _, doc = run(tmp_path, "verify", "--family", "thm7", "--q", "7")
    assert "step_outcomes" not in doc["stable"]["runs"][0]


# ---------------------------------------------------------------------------
# output formats and determinism
# ---------------------------------------------------------------------------

def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["verify", "--family", "thm5", "--q", "9",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 6                      # header + five coefficients
    assert all(row[0] == "thm5" and row[1] == "9" for row in rows[1:])


def test_stable_section_is_deterministic(tmp_path):
    argv = ["verify", "--family", "thm11", "--q", "5", "--seed", "7"]
    _, one = run(tmp_path, *argv, name="a.json")
    _, two = run(tmp_path, *argv, name="b.json")
    blob = lambda d: json.dumps(d["stable"], sort_keys=True).encode()
    assert blob(one) == blob(two)


def test_report_reemit_csv(tmp_path):
    _, doc = run(tmp_path, "verify", "--family", "thm5", "--q", "9",
                 name="src.json")
    out = tmp_path / "again.csv"
    code = main(["report", "--input", str(tmp_path / "src.json"),
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 6 and rows[0] == CSV_COLUMNS


@pytest.mark.parametrize("argv, code", [("verify --family thm14 --q 3", 0),
                                        ("table1 --row 8 --k 3", 1)])
def test_csv_of_a_run_equals_csv_of_its_report(tmp_path, argv, code):
    """A run's csv, read from its forms' columns, and the csv re-emitted
    from its saved JSON report, read from loaded dicts, are the same
    bytes, witness rows and deltas included."""
    direct, saved, again = tmp_path / "r.csv", tmp_path / "r.json", tmp_path / "again.csv"
    assert main(argv.split() + ["--format", "csv", "--out", str(direct)]) == code
    assert main(argv.split() + ["--out", str(saved)]) == code
    assert main(["report", "--input", str(saved), "--format", "csv",
                 "--out", str(again)]) == 0
    text = direct.read_text()
    assert again.read_text() == text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert any(r["witness_a"] for r in rows) and any(r["delta"] for r in rows)


def test_report_rejects_foreign_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stable": {"schema": "other/9"}}))
    assert main(["report", "--input", str(bad)]) == 3
    assert main(["report", "--input", str(tmp_path / "missing.json")]) == 3


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# smallest non-square case\nfamily = thm7\nq = 7\n")
    code, doc = run(tmp_path, "verify", "--config", str(cfg))
    assert code == 0
    assert doc["stable"]["runs"][0]["q"] == 7


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = thm7\nq = 7\nseed = 5\n")
    code, doc = run(tmp_path, "verify", "--config", str(cfg), "--q", "4")
    assert code == 0
    assert doc["stable"]["runs"][0]["q"] == 4
    assert doc["stable"]["config"]["seed"] == 5


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("familly = thm7\n")
    assert main(["verify", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("verb, argv, text", [
    ("sweep", ["--q", "4"], "seed = 5\ndelta-samples = 70000\n"),   # unread keys
    ("verify", [], "row = 3\n"),                                     # table1's key
    ("table1", [], "row = 99\n"),                                    # refused choice
])
def test_config_file_keys_are_checked_as_their_flags(tmp_path, capsys, verb,
                                                     argv, text):
    """A key the verb has no flag for, or a value its flag refuses, exits 3
    with the file and line named, as the flag itself would; no traceback."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.json"
    assert main([verb, *argv, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"permlab: {cfg}:1: ") and "Traceback" not in err
    assert not out.exists()
    cfg.write_text("row = 9\nformat = csv\n")        # accepted by the flags
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


# ---------------------------------------------------------------------------
# catalog and sweep
# ---------------------------------------------------------------------------

def test_catalog_lists_every_family(tmp_path):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--out", str(out)])
    assert code == 0
    cat = json.loads(out.read_text())
    assert len(cat) == 41
    ids = [e["id"] for e in cat]
    assert len(set(ids)) == 41 and "thm5" in ids and "table1-r13" in ids
    for e in cat:
        assert {"id", "form", "shape", "applies", "s_rule",
                "conditions"} <= set(e)


def test_sweep_tags_catalog_hits(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--q", "7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    hits = doc["stable"]["hits"]
    assert len(hits) == 8
    tagged = {h["s"]: h["families"] for h in hits}
    assert "thm7" in tagged[19]
    assert any(h["families"] == ["unexplained"] for h in hits)


# ---------------------------------------------------------------------------
# exit codes: 3 for bad input, 4 for I/O and internal errors
# ---------------------------------------------------------------------------

def test_report_names_missing_key(tmp_path, capsys):
    doc = tmp_path / "partial.json"
    doc.write_text(json.dumps(
        {"stable": {"schema": "permlab-report/1", "verb": "verify"}}))
    assert main(["report", "--input", str(doc), "--format", "csv"]) == 3
    assert "'runs'" in capsys.readouterr().err


def _set_conditions(stable, v):
    stable["runs"][0]["conditions"] = v


def _set_runs(stable, v):
    stable["runs"] = v


def _set_witness(stable, v):
    stable["runs"][0]["conditions"][0]["instances"][0]["witness"] = v


@pytest.mark.parametrize("plant, value", [
    (_set_conditions, "default"),     # TypeError
    (_set_runs, 3),                   # TypeError
    (_set_witness, 5),                # TypeError
    (_set_witness, [5]),              # IndexError
], ids=["conditions-str", "runs-int", "witness-int", "witness-one-element"])
def test_report_csv_of_mistyped_report_exits_3(tmp_path, capsys, plant, value):
    code, doc = run(tmp_path, "verify", "--family", "thm7", "--q", "7")
    assert code == 0
    plant(doc["stable"], value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--input", str(bad), "--format", "csv"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(bad) in err


def test_internal_error_exits_4_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("stray")
    monkeypatch.setattr(cli, "run_family_verification", broken)
    assert run(tmp_path, "verify", "--family", "thm7", "--q", "7")[0] == 4
    assert "Traceback" in capsys.readouterr().err


def test_verify_reports_a_route_disagreement_as_an_internal_error(tmp_path, monkeypatch,
                                                                  capsys):
    """A mu verdict flipped at the first c of thm5 at q = 5 makes the pair
    engine raise; verify names the form, exits 4 and writes no report."""
    real = permcheck._mu_verdicts

    def flipped(*args):
        out = real(*args)
        out[0] = not out[0]
        return out
    monkeypatch.setattr(permcheck, "_mu_verdicts", flipped)
    out = tmp_path / "o.json"
    assert main(["verify", "--family", "thm5", "--q", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "thm5 q=5 s=21: mu route and brute force disagree" in err
    assert not out.exists()


def test_unwritable_out_exits_4_before_any_field(tmp_path, monkeypatch):
    """cli takes every field from the cached get_field, so counting its
    calls counts each field built or reused."""
    built = []
    orig = cli.get_field

    def counting(*args, **kwargs):
        built.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(cli, "get_field", counting)
    argv = ["verify", "--family", "thm5", "--q", "5", "--out"]
    assert main(argv + [str(tmp_path / "ok.json")]) == 0
    assert built                                   # the probe sees builds
    built.clear()
    assert main(argv + [str(tmp_path / "missing" / "x.json")]) == 4
    assert main(argv + [str(tmp_path)]) == 4       # a directory
    assert built == []


@pytest.mark.parametrize("flag, argv", [
    ("--p", ["--p", "1", "--k", "2"]),
    ("--k", ["--p", "7", "--k", "-1"]),
    ("--k", ["--p", "7", "--k", "0"]),
])
def test_bad_p_or_k_names_the_flag(tmp_path, capsys, flag, argv):
    assert run(tmp_path, "verify", "--family", "thm7", *argv)[0] == 3
    assert f"permlab: {flag} must be" in capsys.readouterr().err


def test_sweep_counts_prefix_exits_and_full_checks(tmp_path):
    code, doc = run(tmp_path, "sweep", "--q", "16", "--c-index", "1",
                    "--c-index", "7")
    assert code == 0
    tm = doc["timings"]
    assert tm["prefix_exits"] + tm["full_checks"] == 254 * 2
    assert tm["full_checks"] >= len(doc["stable"]["hits"])
    assert tm["prefix_exits"] > tm["full_checks"]
    code, doc = run(tmp_path, "sweep", "--q", "16", name="c1.json")
    assert (doc["timings"]["prefix_exits"], doc["timings"]["full_checks"]) == (222, 32)
    assert len(doc["stable"]["hits"]) == 32
    assert "prefix_exits" not in json.dumps(doc["stable"])


def test_sweep_repeated_c_index_exits_config(tmp_path, capsys):
    code, doc = run(tmp_path, "sweep", "--q", "4", "--c-index", "1",
                    "--c-index", "1")
    assert code == 3 and doc is None
    assert "--c-index 1 given more than once" in capsys.readouterr().err


def test_sweep_total_s_covers_the_whole_verb(tmp_path, monkeypatch):
    """total_s runs from the verb's start to serialization, so a slowed
    _sweep_annotations shows up in it; field_s times the field alone."""
    real, pause = cli._sweep_annotations, 0.05

    def slow(*args):
        time.sleep(pause)
        return real(*args)

    monkeypatch.setattr(cli, "_sweep_annotations", slow)
    code, doc = run(tmp_path, "sweep", "--q", "8")
    assert code == 0
    tm = doc["timings"]
    assert tm["total_s"] >= pause + tm["field_s"]
    assert tm["field_s"] > 0
    assert "field_s" not in json.dumps(doc["stable"])
