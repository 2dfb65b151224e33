#!/usr/bin/env python3
"""permlab benchmark: CLI verbs and library calls, each in a fresh interpreter.

Run from the repository root:

  python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --selftest     # seconds-long smoke run on shrunken inputs
  python3 perfbench/run.py --record       # re-record perfbench/reference.json

Each invocation runs in its own interpreter (worker.py), one at a time, so no
cache survives between invocations and the load never uses more than one
process.  A run repeats the workload's invocations in passes, in an order
shuffled by --seed, until another pass would not fit in --seconds.  Every
output is checked: CLI verdicts against reference.json, library draws
against the theorems they exercise, and a seeded sample of witnesses (plus
every field modulus) against sympy arithmetic that does not use permlab.
Times are scaled to a reference machine speed by a permlab-free probe timed
around each invocation (see Probe); raw wall times are kept in the record.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced passes; the traced ones wrap permlab's entry points (tracer.py)
and give the per-layer metrics, and the difference between the two kinds of
pass is the tracing overhead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
invocations, so failed / attempted is the error rate.  A readable summary
goes to stderr and the full record to perfbench/out/.  BASELINE.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
INVOCATION_TIMEOUT_S = 170
WALL_LIMIT_S = 140           # a run never starts a pass it expects to end later than this
PROBE_REF_S = 0.1            # probe time that defines the reference speed (see Probe)

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (only for the metric names; installed by worker.py)

# ---------------------------------------------------------------------------
# workloads

# catalog: per-instance overhead.  thm18-4 runs at q = 32, not 64 (72 s a run):
# the same code path with delta still exhaustive (1024 <= 2^14).
CATALOG = ["verify", "table1", "table1 --row 8 --k 3", "verify --family thm14 --q 7"]
CATALOG_REPORTED = "verify --family thm18-4 --q 32"      # its report is re-emitted as csv
# large-field: field construction and bulk kernels over up to 2^22 points.
LARGE_FIELD = ["verify --family lem15-1 --q 2048", "verify --family thm7 --q 625",
               "verify --family thm10 --q 13"]
# census: one field, many maps (permcheck's failure path), and transform.
CENSUS_SWEEPS = ["sweep --q 64", "sweep --q 49"]
PROP_FIELDS = [(2, 10), (3, 6), (5, 4)]
LEMMA1_FIELD = (2, 12)
LEMMA1_ORDERS = (3, 5, 7, 9, 13, 15, 21, 35, 39, 45) * 8

# smoke: shrunken inputs for --selftest
SMOKE = ["verify --family thm7 --q 7", "verify --family thm14 --q 3"]
SMOKE_REPORTED = "table1 --row 8 --k 3"
SMOKE_SWEEP = "sweep --q 8"

# table1-r8 at 3 | k is the documented failure (the residue route diverges
# from lem15-5's quotient); thm14's step-1 variant is the documented
# informational failure.  Every other asserted instance permutes.
DOCUMENTED_FAILURE = "table1 --row 8 --k 3"

WITNESS_SAMPLE = 4            # witnesses re-verified per invocation and pass


def _cli(key: str) -> dict:
    return {"kind": "cli", "key": key, "argv": key.split() + ["--out", "{out}"]}


def _reported(key: str) -> list[dict]:
    """key's run plus the csv re-emission of its report, in that order."""
    return [_cli(key), {"kind": "cli", "key": f"report --format csv < {key}", "source": key,
                        "argv": ["report", "--input", "{input}", "--format", "csv",
                                 "--out", "{out}"]}]


def _views(n: int) -> list[int]:
    """Degrees qdeg of the proper subfields GF(p^qdeg) a GF(q^m) view can use."""
    return [d for d in range(1, n) if n % d == 0]


def _prop2_draw(rng, p, n, anchored):
    """g, c, k for prop2.  Anchored draws take g = a*x^e with e a multiple of
    (Q-1)/(q^l-1), so g maps into GF(q^l), h = c*x permutes and the
    implication is not vacuous; the others take a random binomial g."""
    Q, qdeg = p**n, rng.choice(_views(n))
    m = n // qdeg
    k = rng.randrange(1, m)
    if anchored:
        ql = p ** (qdeg * math.gcd(k, m))
        terms = [[rng.randint(1, p - 1), rng.randint(1, ql - 1) * ((Q - 1) // (ql - 1))]]
    else:
        terms = [[rng.randrange(1, Q), rng.randint(1, Q - 2)] for _ in range(2)]
    return {"p": p, "n": n, "qdeg": qdeg, "k": k, "c": rng.randint(1, p - 1),
            "terms": terms, "anchored": anchored}


def _prop4_draw(rng, p, n, anchored):
    """A monomial g = x^s over GF(q); anchored draws make g map into GF(q)."""
    Q, qdeg = p**n, rng.choice(_views(n))
    q = p**qdeg
    s = rng.randint(1, q - 1) * ((Q - 1) // (q - 1)) if anchored else rng.randint(1, Q - 2)
    return {"p": p, "n": n, "qdeg": qdeg, "s": s, "anchored": anchored,
            "cosets": [rng.randrange(Q) for _ in range(3)]}


def _invert_draw(rng, ref, sweep_key):
    """A permuting h taken from a recorded sweep hit (c = 1), a random shift."""
    p, n, _ = ref["cli"][sweep_key]["field"]
    hits = [s for s, c, _ in ref["cli"][sweep_key]["hits"] if c == 1]
    Q = p**n
    return {"p": p, "n": n, "qdeg": n // 2, "s": rng.choice(hits),
            "delta": rng.randrange(Q), "sample": rng.sample(range(Q), WITNESS_SAMPLE)}


def _lemma1_draw(rng, p, n, d):
    Q = p**n
    return {"p": p, "n": n, "d": d, "r": rng.randint(1, 63),
            "terms": [[rng.randrange(1, Q), rng.randint(0, 2 * d)] for _ in range(2)]}


def _library(kind, draws):
    return {"kind": kind, "key": f"{kind} x{len(draws)}", "draws": draws}


def plan(workload: str, rng: random.Random, ref: dict) -> list[list[dict]]:
    """The workload's invocations, as units whose order a pass may shuffle."""
    if workload == "catalog":
        units = [[_cli(k)] for k in CATALOG] + [_reported(CATALOG_REPORTED)]
    elif workload == "large-field":
        units = [[_cli(k)] for k in LARGE_FIELD]
    elif workload == "census":
        units = [[_cli(k)] for k in CENSUS_SWEEPS] + [
            [_library("prop2", [_prop2_draw(rng, p, n, a) for p, n in PROP_FIELDS
                                for a in (True, False)])],
            [_library("prop4", [_prop4_draw(rng, p, n, a) for p, n in PROP_FIELDS
                                for a in (True, False)])],
            [_library("invert", [_invert_draw(rng, ref, key) for key in CENSUS_SWEEPS
                                 for _ in range(2)])],
            [_library("lemma1", [_lemma1_draw(rng, *LEMMA1_FIELD, d)
                                 for d in rng.sample(LEMMA1_ORDERS, len(LEMMA1_ORDERS))])],
        ]
    elif workload == "smoke":
        units = [[_cli(k)] for k in SMOKE + [SMOKE_SWEEP]] + [_reported(SMOKE_REPORTED)] + [
            [_library("prop2", [_prop2_draw(rng, 2, 4, a) for a in (True, False)])],
            [_library("prop4", [_prop4_draw(rng, p, n, a) for p, n in [(2, 4), (3, 2)]
                                for a in (True, False)])],
            [_library("invert", [_invert_draw(rng, ref, SMOKE_SWEEP)])],
            [_library("lemma1", [_lemma1_draw(rng, 2, 6, d) for d in (3, 7, 9, 21)])],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, inv in enumerate(inv for unit in units for inv in unit):
        inv["id"] = f"i{i}"
    return units


# ---------------------------------------------------------------------------
# running one invocation


class Context:
    """What one benchmark run shares between its invocations."""

    def __init__(self, label: str, seed: int, ref: dict, sample: int | None = WITNESS_SAMPLE):
        self.seed = seed
        self.ref = ref
        self.sample = sample          # witnesses checked per invocation; None = all
        self.tmp = OUT / "tmp"
        self.spans = OUT / f"spans_{label}.jsonl"     # traced workers append to it
        self.spans.unlink(missing_ok=True)
        self._fields = {}
        self.probe = Probe()

    def field(self, p, modulus):
        key = (p, tuple(modulus))
        if key not in self._fields:
            import oracle
            self._fields[key] = oracle.GF(p, modulus)
        return self._fields[key]

    def pick(self, items, tag):
        items = list(items)
        if self.sample is None or len(items) <= self.sample:
            return items
        return random.Random(f"{self.seed}:{tag}").sample(items, self.sample)


def spawn(ctx: Context, inv: dict, tag: str, traced: bool) -> dict:
    """Run inv in a fresh interpreter; returns the worker's result, or
    {"error": ...} when the process failed."""
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    paths = {"out": str(ctx.tmp / f"{tag}.out"),
             "input": str(ctx.tmp / f"{tag.split('.')[0]}.{inv.get('source_id', '')}.out")}
    spec = {k: v for k, v in inv.items() if k != "argv"}
    if "argv" in inv:
        spec["argv"] = [a.format(**paths) if a.startswith("{") else a for a in inv["argv"]]
    result_path = ctx.tmp / f"{tag}.result.json"
    spec.update(id=tag, root=str(ROOT), trace=traced, result=str(result_path),
                spans=str(ctx.spans))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {INVOCATION_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    with open(result_path) as fh:
        result = json.load(fh)
    if inv["kind"] == "cli":
        out = Path(paths["out"])
        text = out.read_text() if out.exists() else None
        result["output"]["text"] = text
    return result


# ---------------------------------------------------------------------------
# checking outputs


def digest_report(doc: dict):
    """(instances, failing set, witnesses, runs) of a verify/table1 report."""
    n, failing, witnesses, runs = 0, [], [], []
    for run in doc["stable"]["runs"]:
        runs.append([run["family"], run["q"], run["p"], run["n"], run["modulus"]])
        for block in run["conditions"]:
            for r in block["instances"]:
                n += 1
                if r["permutes"]:
                    continue
                failing.append([run["family"], run["q"], block["condition"], r["s_tag"],
                                r["step"], r["c"], r["delta"], r["informational"]])
                if r["witness"] is not None:
                    witnesses.append((run["p"], run["modulus"], run["q"], r["s"], r["step"],
                                      r["c"], r["delta"], *r["witness"]))
    return n, _canon(failing), witnesses, runs


def _canon(rows) -> list:
    return sorted((list(r) for r in rows), key=json.dumps)


def _witness_errors(ctx, witnesses, tag) -> list[str]:
    """Re-verify a sample of (p, modulus, q, s, step, c, delta, a, b) witnesses
    of catalog maps with arithmetic independent of permlab."""
    import oracle
    errors = []
    for p, modulus, q, s, step, c, delta, a, b in ctx.pick(witnesses, tag):
        fld = ctx.field(p, modulus)
        qk = q**step
        fn = fld.trinomial(c, s, qk) if delta is None else fld.shift_form(c, s, qk, delta)
        if not oracle.is_collision(fn, a, b):
            errors.append(f"witness ({a}, {b}) is not a collision (q={q}, s={s}, c={c}, delta={delta})")
    return errors


def _modulus_errors(ctx, fields) -> list[str]:
    return [f"modulus {list(mod)} of GF({p}^{n}) is not irreducible"
            for p, n, mod in fields
            if len(mod) != n + 1 or not ctx.field(p, mod).irreducible()]


def _digest_csv(text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    failing, witnesses = [], []
    for r in rows:
        if r["permutes"] == "1":
            continue
        delta = None if r["delta"] == "" else int(r["delta"])
        failing.append([r["family"], int(r["q"]), r["condition"], r["s_tag"], int(r["step"]),
                        int(r["c"]), delta, bool(int(r["informational"]))])
        if r["witness_a"] != "":
            witnesses.append((r["family"], int(r["q"]), int(r["s"]), int(r["step"]), int(r["c"]),
                              delta, int(r["witness_a"]), int(r["witness_b"])))
    return len(rows), _canon(failing), witnesses


def check_cli(ctx, inv, out, tag) -> tuple[int, list[str]]:
    """(verdicts, errors) of one CLI invocation."""
    exp = ctx.ref["cli"].get(inv.get("source", inv["key"]))
    if exp is None:
        return 0, [f"no reference entry for {inv['key']!r}"]
    verb = inv["argv"][0]
    errors = []
    want_exit = 0 if verb == "report" else exp["exit"]
    if out["exit"] != want_exit:
        errors.append(f"exit {out['exit']}, expected {want_exit}")
    if out.get("text") is None:
        return 0, errors + ["no output written"]
    if verb == "report":
        n, failing, wits = _digest_csv(out["text"])
        fields = {(f, q): (p, mod) for f, q, p, _, mod in exp["runs"]}
        witnesses = [(*fields[(f, q)], q, s, st, c, d, a, b) for f, q, s, st, c, d, a, b in wits]
        verdicts = 0
    else:
        doc = json.loads(out["text"])
        if verb == "sweep":
            fld = doc["stable"]["field"]
            hits = [[h["s"], h["c"], ";".join(h["families"])] for h in doc["stable"]["hits"]]
            if hits != exp["hits"]:
                errors.append(f"sweep hits differ from the reference ({len(hits)} vs {len(exp['hits'])})")
            if [fld["p"], fld["n"], fld["modulus"]] != exp["field"]:
                errors.append("sweep field differs from the reference")
            lo, hi = doc["stable"]["s_range"]
            order = fld["p"] ** fld["n"]
            verdicts = len(doc["stable"]["c_indices"]) * sum(
                1 for s in range(lo, hi + 1) if s % (order - 1))
            return verdicts, errors + _modulus_errors(ctx, [(fld["p"], fld["n"], fld["modulus"])])
        n, failing, witnesses, runs = digest_report(doc)
        if runs != exp["runs"]:
            errors.append("fields or families differ from the reference")
        verdicts = n
    if n != exp["instances"]:
        errors.append(f"{n} instances, expected {exp['instances']}")
    if failing != exp["failing"]:
        errors.append(f"failing set differs from the reference ({len(failing)} vs {len(exp['failing'])})")
    errors += _modulus_errors(ctx, [(p, n_, mod) for _, _, p, n_, mod in exp["runs"]])
    return verdicts, errors + _witness_errors(ctx, witnesses, tag)


def check_library(ctx, inv, out, tag) -> tuple[int, list[str]]:
    """(verdicts, errors) of one library invocation, checked against the
    statement it exercises and, for a sample, against independent arithmetic."""
    import oracle
    kind, errors, verdicts = inv["kind"], [], 0
    if len(out) != len(inv["draws"]):
        return 0, [f"{len(out)} results for {len(inv['draws'])} draws"]
    for i, (d, r) in enumerate(zip(inv["draws"], out)):
        p, n = d["p"], d["n"]
        Q = p**n
        where = f"{kind} draw {i} over GF({p}^{n})"
        if kind == "lemma1":
            verdicts += 1
            if not r["consistent"]:
                errors.append(f"{where}: Lemma 1 reduction disagrees with brute force")
            continue
        fld = ctx.field(p, ctx.ref["moduli"][f"{p}^{n}"])
        q = p ** d["qdeg"]
        if kind == "invert":
            verdicts += r["alphas"]
            if r["alphas"] != Q or r["roundtrip_failures"]:
                errors.append(f"{where}: {r['roundtrip_failures']} inverses do not round-trip")
            f = fld.companion_f([[1, d["s"]]], 1, q, d["delta"])
            errors += [f"{where}: f({x}) != {a}" for a, x in r["pairs"] if f(x) != a]
            continue
        verdicts += 1 + r["deltas"]
        if not r["exhaustive"] or r["deltas"] != Q:
            errors.append(f"{where}: {r['deltas']} deltas checked, expected all {Q}")
        if d["anchored"] and (not r["h_permutes"] or r["f_witnesses"]):
            errors.append(f"{where}: h = c*x plus a constant-valued g must permute, and every f_delta")
        if kind == "prop2":
            terms, c, qk = d["terms"], d["c"], q ** d["k"]
            if not r["implication_holds"]:
                errors.append(f"{where}: h permutes but some f_delta does not")
        else:
            terms, c, qk = [[1, d["s"]]], 1, q
            if not (r["iff_holds"] and r["commutes_all"] and r["fibers_stable"]):
                errors.append(f"{where}: the iff, the commuting square or fibre stability fails")
            if any(size != Q // q for size in r["coset_sizes"]):
                errors.append(f"{where}: a trace coset does not have Q/q elements")
        if (r["h_witness"] is None) != r["h_permutes"]:
            errors.append(f"{where}: h verdict and witness disagree")
        if r["h_witness"] is not None and not oracle.is_collision(
                fld.companion_h(terms, c, qk), *r["h_witness"]):
            errors.append(f"{where}: h witness {r['h_witness']} is not a collision")
        for di, a, b in ctx.pick(r["f_witnesses"], f"{tag}:{i}"):
            if not oracle.is_collision(fld.companion_f(terms, c, qk, di), a, b):
                errors.append(f"{where}: f_delta witness ({a}, {b}) at delta {di} is not a collision")
    return verdicts, errors


def _report_total(inv, result):
    """timings.total_s of a verb's JSON report, None when it has none."""
    text = (result.get("output") or {}).get("text") if inv["kind"] == "cli" else None
    if not text or inv["argv"][0] == "report":
        return None
    try:
        return json.loads(text).get("timings", {}).get("total_s")
    except ValueError:
        return None


def check(ctx, inv, result, tag) -> tuple[int, list[str]]:
    if "error" in result:
        return 0, [result["error"]]
    fn = check_cli if inv["kind"] == "cli" else check_library
    try:
        return fn(ctx, inv, result["output"], tag)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return 0, [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# passes and metrics


class Probe:
    """A fixed piece of permlab-free work, an interpreted loop and table
    gathers (the two kinds of work permlab does), timed between invocations.

    The machine this benchmark was defined on drifts by up to +-25% in speed
    over seconds to minutes (neighbouring load), and every invocation's time
    drifts with it.  Each invocation's times are scaled by PROBE_REF_S over
    the mean of the probes just before and just after it, which cancels most
    of the drift: reported seconds are seconds at the speed at which the
    probe takes PROBE_REF_S.  Raw wall times stay in the result file.  The
    probe calls no permlab code, so no change to permlab moves it.
    """

    def __init__(self):
        import numpy as np
        gen = np.random.default_rng(0)
        self.table = gen.integers(0, 1 << 21, size=1 << 21)
        self.start = gen.integers(0, 1 << 21, size=1 << 18)

    def __call__(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc ^= (i * 2654435761) & 0xFFFF
        idx = self.start
        for _ in range(24):
            idx = self.table[idx]
        return time.perf_counter() - t


def run_pass(ctx, units, npass, traced, rng, keep=False):
    """Run every invocation once, in shuffled unit order; one record each."""
    units = list(units)
    rng.shuffle(units)
    records, kept = [], []
    ids = {}
    before = ctx.probe()
    for inv in (inv for unit in units for inv in unit):
        ids[inv.get("key")] = inv["id"]
        if "source" in inv:
            inv = dict(inv, source_id=ids[inv["source"]])
        tag = f"p{npass}.{inv['id']}"
        result = spawn(ctx, inv, tag, traced)
        after = ctx.probe()
        verdicts, errors = check(ctx, inv, result, tag)
        records.append({"id": inv["id"], "key": inv["key"], "kind": inv["kind"],
                        "pass": npass, "traced": traced, "errors": errors,
                        "verdicts": verdicts, "report_total_s": _report_total(inv, result),
                        "scale": PROBE_REF_S / ((before + after) / 2),
                        **{k: result.get(k) for k in ("setup_s", "verdict_s", "rss_mb", "trace")}})
        before = after
        if keep:
            kept.append((inv, result, tag))
    shutil.rmtree(ctx.tmp, ignore_errors=True)
    return records, kept


def measure(ctx, units, seconds, trace, rng):
    """Passes until another would not fit in `seconds`; traced runs alternate
    untraced and traced passes and run at least one of each."""
    modes = [False, True] if trace else [False]
    t0 = time.monotonic()
    records, walls, last, npass = [], [], {}, 0
    while True:
        traced = modes[npass % len(modes)]
        start = time.monotonic()
        records += run_pass(ctx, units, npass, traced, rng)[0]
        last[traced] = time.monotonic() - start
        walls.append({"traced": traced, "wall_s": last[traced]})
        npass += 1
        upcoming = last.get(modes[npass % len(modes)], last[traced])
        if npass >= len(modes) and time.monotonic() - t0 + upcoming > min(seconds, WALL_LIMIT_S):
            return records, walls


def high_percentile(values):
    """(P, value) for the highest percentile with at least ten samples above
    it, or None when there are too few samples for one above the median."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _timing(values):
    hp = high_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "high_percentile": None if hp is None else {"p": hp[0], "value": hp[1]}}


def end_to_end(records, scaled=True) -> dict:
    """The end-to-end metrics (value, unit, sample detail) over untraced
    records; times are scaled to the reference speed unless scaled=False."""
    ok = [r for r in records if r["verdict_s"] is not None]
    if not ok:
        return {}
    f = (lambda r: r["scale"]) if scaled else (lambda r: 1.0)
    by_inv, by_pass, verdicts_by_pass = {}, {}, {}
    for r in ok:
        by_inv.setdefault(r["id"], []).append(r["verdict_s"] * f(r))
        by_pass[r["pass"]] = by_pass.get(r["pass"], 0.0) + r["verdict_s"] * f(r)
        verdicts_by_pass[r["pass"]] = verdicts_by_pass.get(r["pass"], 0) + r["verdicts"]
    verdict_s = sum(statistics.median(v) for v in by_inv.values())
    verdicts = statistics.median(verdicts_by_pass.values())
    rate_by_pass = [verdicts_by_pass[k] / by_pass[k] for k in by_pass]
    setup = [r["setup_s"] * f(r) for r in ok]
    return {
        "verdict_s": (verdict_s, "s", _timing(list(by_pass.values()))),
        "verdicts_per_s": (verdicts / verdict_s, "1/s", _timing(rate_by_pass)),
        "setup_s": (statistics.median(setup), "s", _timing(setup)),
        "peak_rss_mb": (max(r["rss_mb"] for r in ok), "MB", {"n": len(ok)}),
    }


LAYERS = ("ffcore", "families", "permcheck", "transform", "cli")


def per_layer(records) -> tuple[dict, list[str]]:
    """Per-layer metrics (value, unit) from the traced passes, and the names
    marked absent."""
    span_metrics, counter_metrics = tracer.metric_names()
    traced = [r for r in records if r["traced"] and r["trace"]]
    absent = sorted({a for r in traced for a in r["trace"]["absent"]})
    passes = {}
    for r in traced:
        acc = passes.setdefault(r["pass"], {})
        for name, v in r["trace"]["self_s"].items():
            acc[f"{name}_s"] = acc.get(f"{name}_s", 0.0) + v * r["scale"]
        for name, v in r["trace"]["counts"].items():
            acc[name] = acc.get(name, 0) + v
        acc["trace.spans"] = acc.get("trace.spans", 0) + r["trace"]["spans"]
        if r["kind"] == "cli":
            acc["cli.untimed_s"] = acc.get("cli.untimed_s", 0.0) + r["scale"] * (
                r["verdict_s"] - (r["report_total_s"] or 0.0))

    def med(name):
        return statistics.median(p.get(name, 0) for p in passes.values()) if passes else 0

    out = {}
    for name in span_metrics + ["cli.untimed_s"]:
        out[name] = (med(name), "s")
    for name in counter_metrics:
        out[name] = (med(name), "bytes" if name.endswith("_bytes") else "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, (v, u) in out.items()
                                      if k.startswith(layer + ".") and k in span_metrics), "s")
    pools = out["families.pools"][0]
    out["families.omega_set_per_pool"] = (
        out["families.omega_set_calls"][0] / pools if pools else 0.0, "ratio")
    if {"families.pools", "families.omega_set_calls"} & set(absent):
        absent.append("families.omega_set_per_pool")
    untraced = end_to_end([r for r in records if not r["traced"]])
    traced_e2e = end_to_end(traced)
    overhead = (traced_e2e["verdict_s"][0] - untraced["verdict_s"][0]
                if untraced and traced_e2e else 0.0)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.spans"] = (med("trace.spans"), "count")
    return out, absent


def invocation_breakdown(records) -> list[dict]:
    """Layer self times of each traced invocation (first traced pass)."""
    traced = [r for r in records if r["traced"] and r["trace"]]
    first = min((r["pass"] for r in traced), default=None)
    rows = []
    for r in traced:
        if r["pass"] != first:
            continue
        layers = {layer: sum(v for k, v in r["trace"]["self_s"].items()
                             if k.startswith(layer + ".")) for layer in LAYERS}
        layers["unspanned"] = r["verdict_s"] - r["trace"]["top_level_s"]
        rows.append({"key": r["key"], "verdict_s": r["verdict_s"], "self_s": layers})
    return rows


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, trace) -> dict:
    return {"commit": _git_commit(), "workload": workload, "seed": seed, "seconds": seconds,
            "traced": bool(trace), "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy")}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, ref) -> dict:
    rng = random.Random(seed)
    ctx = Context(workload, seed, ref)
    units = plan(workload, rng, ref)
    warm = spawn(ctx, {"kind": "noop", "key": "noop", "id": "warm"}, "warm", False)
    if "error" in warm:
        raise RuntimeError(f"permlab does not import: {warm['error']}")
    records, walls = measure(ctx, units, seconds, trace, rng)
    result = summarize(records, provenance(workload, seed, seconds, trace))
    result["passes"] = walls
    return result


def summarize(records, prov) -> dict:
    """Everything a run reports, from its invocation records."""
    untraced = [r for r in records if not r["traced"]]
    attempted, failed = len(records), sum(1 for r in records if r["errors"])
    result = {"provenance": prov, "attempted": attempted, "failed": failed,
              "end_to_end": {k: {"value": v, "unit": u, **d}
                             for k, (v, u, d) in end_to_end(untraced).items()},
              "raw_end_to_end": {k: v for k, (v, _, _) in end_to_end(untraced, scaled=False).items()},
              "records": [{k: r[k] for k in ("key", "pass", "traced", "verdicts", "verdict_s",
                                             "setup_s", "rss_mb", "scale")} for r in records],
              "errors": [f"{r['key']}: {e}" for r in records for e in r["errors"]][:50]}
    if prov["traced"]:
        layers, absent = per_layer(records)
        layers["error_rate"] = (failed / attempted, "ratio")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["absent"] = absent
        result["invocations"] = invocation_breakdown(records)
    return result


def report(result, trace) -> dict:
    """Print the readable summary to stderr; return the stdout JSON object."""
    prov = result["provenance"]
    log = lambda s="": print(s, file=sys.stderr)  # noqa: E731
    log(f"[{prov['workload']}] seed {prov['seed']}, traced {prov['traced']}, commit {prov['commit'][:12]}, "
        f"{prov['nproc']} cpu ({prov['cpu']}), python {prov['python']}, numpy {prov['numpy']}, "
        f"sympy {prov['sympy']}")
    for name, m in result["end_to_end"].items():
        hp = m.get("high_percentile")
        extra = f" (n={m['n']}" + (f", p{hp['p']} {hp['value']:.4g}" if hp else "") + ")"
        raw = f"  raw wall {result['raw_end_to_end'][name]:.5g}" if m["unit"] in ("s", "1/s") else ""
        log(f"  {name:<16} {m['value']:>12.5g} {m['unit']:<6}{extra}{raw}")
    log(f"  {'error_rate':<16} {result['failed'] / max(result['attempted'], 1):>12.5g} "
        f"({result['failed']} of {result['attempted']} invocations failed)")
    for e in result["errors"][:10]:
        log(f"  ERROR {e}")
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["end_to_end"].items()}
    if trace:
        for name, m in result["per_layer"].items():
            flag = "  (absent)" if name in result["absent"] else ""
            log(f"  {name:<30} {m['value']:>12.5g} {m['unit']}{flag}")
        log("  self time by layer, per invocation (raw wall s, first traced pass):")
        log("    " + f"{'invocation':<40} {'wall':>7}" + "".join(f" {k:>9}" for k in LAYERS + ("unspanned",)))
        for row in result["invocations"]:
            log(f"    {row['key']:<40} {row['verdict_s']:>7.3f}"
                + "".join(f" {row['self_s'][k]:>9.3f}" for k in LAYERS + ("unspanned",)))
        metrics = result["per_layer"]
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def write_record(result, name) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# reference recording


def record_reference() -> int:
    """Run every fixed CLI invocation once, check the outcome against the
    paper's statements and the independent oracle, and write reference.json."""
    ctx = Context("record", 0, {"cli": {}}, sample=None)
    keys = CATALOG + [CATALOG_REPORTED] + LARGE_FIELD + CENSUS_SWEEPS + SMOKE + [SMOKE_SWEEP]
    problems = []
    for i, key in enumerate(dict.fromkeys(keys)):
        result = spawn(ctx, dict(_cli(key), id=f"r{i}"), f"rec.r{i}", False)
        if "error" in result:
            return _fail(f"{key}: {result['error']}")
        out = result["output"]
        doc = json.loads(out["text"])
        entry = {"exit": out["exit"]}
        if key.startswith("sweep"):
            fld = doc["stable"]["field"]
            entry["field"] = [fld["p"], fld["n"], fld["modulus"]]
            entry["hits"] = [[h["s"], h["c"], ";".join(h["families"])] for h in doc["stable"]["hits"]]
            problems += _modulus_errors(ctx, [entry["field"]])
            problems += [f"{key}: exit {out['exit']}"] if out["exit"] else []
        else:
            n, failing, witnesses, runs = digest_report(doc)
            entry.update(instances=n, runs=runs, failing=failing)
            problems += [f"{key}: {e}" for e in _paper_check(key, entry)]
            problems += _modulus_errors(ctx, [(p, n_, mod) for _, _, p, n_, mod in runs])
            problems += [f"{key}: {e}" for e in _witness_errors(ctx, witnesses, key)]
        ctx.ref["cli"][key] = entry
        print(f"recorded {key}: exit {out['exit']}", file=sys.stderr)
    shutil.rmtree(ctx.tmp, ignore_errors=True)
    moduli = {}
    for e in ctx.ref["cli"].values():
        for p, n, mod in [e["field"]] if "field" in e else [r[2:] for r in e["runs"]]:
            moduli[f"{p}^{n}"] = mod
    for p, n in PROP_FIELDS + [LEMMA1_FIELD, (2, 4), (3, 2), (2, 6)]:
        if f"{p}^{n}" not in moduli:
            moduli[f"{p}^{n}"] = _first_irreducible(p, n)
    ctx.ref["moduli"] = dict(sorted(moduli.items()))
    problems += _modulus_errors(ctx, [(int(k.split("^")[0]), int(k.split("^")[1]), m)
                                      for k, m in moduli.items()])
    if problems:
        return _fail("reference rejected:\n  " + "\n  ".join(problems[:20]))
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(sec)}: {{\n" + ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in ctx.ref[sec].items()) + "\n}"
            for sec in ("cli", "moduli")) + "\n}\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
    return 0


def _paper_check(key, entry) -> list[str]:
    asserted = [f for f in entry["failing"] if not f[7]]
    informational = [f for f in entry["failing"] if f[7]]
    errors = []
    if key == DOCUMENTED_FAILURE:
        if entry["exit"] != 1 or not asserted or any(f[0] != "table1-r8" for f in asserted):
            errors.append("table1-r8 at k = 3 should fail with witnesses and exit 1")
    elif asserted or entry["exit"] != 0:
        errors.append(f"{len(asserted)} asserted instances fail, exit {entry['exit']}")
    if any(f[0] != "thm14" or f[4] != 1 for f in informational):
        errors.append("an informational failure other than thm14's step-1 variant")
    if "thm14" in {r[0] for r in entry["runs"]} and not informational:
        errors.append("thm14's step-1 variant should fail")
    return errors


def _first_irreducible(p, n):
    """Lexicographically first monic irreducible of degree n over GF(p)
    (constant term first), found with sympy: permlab's modulus convention."""
    from sympy.polys import galoistools as gt
    from sympy.polys.domains import ZZ
    for low in range(p**n):
        digits = [(low // p**i) % p for i in range(n)] + [1]
        if gt.gf_irreducible_p(digits[::-1], p, ZZ):
            return digits
    raise RuntimeError("no irreducible polynomial")


def _fail(msg) -> int:
    print(msg, file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# self-test


def selftest() -> int:
    """Smoke run on shrunken inputs: metric names and units match
    BENCHMARK.json, a clean run has error_rate 0, and a planted wrong verdict
    and a planted bogus witness each make it rise."""
    spec, ref = benchmark_spec(), load_reference()
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rng = random.Random(7)
        ctx = Context("smoke", 7, ref, sample=None)
        units = plan("smoke", rng, ref)
        modes = [False, True] if trace else [False]
        records, kept = [], []
        for npass, traced in enumerate(modes):
            recs, k = run_pass(ctx, units, npass, traced, rng, keep=True)
            records += recs
            kept += k
        result = summarize(records, provenance("smoke", 7, 0, trace))
        line = report(result, trace)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: m["unit"] for k, m in line["metrics"].items()}
        if got != want:
            problems.append(f"{section} metrics {sorted(set(got) ^ set(want))} do not match "
                            f"BENCHMARK.json, or their units differ")
        if line["failed"]:
            problems.append(f"clean smoke run has {line['failed']} failed invocations")
        if trace and result["absent"]:
            problems.append(f"absent per-layer metrics: {result['absent']}")
        if not trace:
            for plant in (_plant_verdict, _plant_witness):
                planted = copy.deepcopy(kept)
                what = plant(planted)
                failed = sum(1 for inv, res, tag in planted if check(ctx, inv, res, tag)[1])
                print(f"  planted {what}: error_rate {failed / len(planted):.3f}", file=sys.stderr)
                if not failed:
                    problems.append(f"planted {what} was not counted in error_rate")
    for p in problems:
        print(f"SELFTEST FAIL: {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def _reports(kept):
    for inv, res, _ in kept:
        if inv["kind"] == "cli" and inv["argv"][0] in ("verify", "table1"):
            yield res["output"], json.loads(res["output"]["text"])


def _plant_verdict(kept) -> str:
    """Flip the verdict of the first instance of the first report."""
    out, doc = next(_reports(kept))
    inst = doc["stable"]["runs"][0]["conditions"][0]["instances"][0]
    inst["permutes"] = not inst["permutes"]
    out["text"] = json.dumps(doc)
    return "wrong verdict"


def _plant_witness(kept) -> str:
    """Replace the first reported witness by a pair that collides only if the
    map is constant on it; the failing set stays the same, so only the oracle
    can catch it."""
    for out, doc in _reports(kept):
        for run in doc["stable"]["runs"]:
            for block in run["conditions"]:
                for inst in block["instances"]:
                    if inst["witness"] is not None:
                        a, b = inst["witness"]
                        inst["witness"] = [a, a + 1 if a + 1 != b else a + 2]
                        out["text"] = json.dumps(doc)
                        return "bogus witness"
    raise RuntimeError("smoke plan produced no witness to plant")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("catalog", "large-field", "census", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "permlab" / "__init__.py").exists():
        return _fail(f"no permlab sources under {ROOT / 'src'}; run from a full checkout")
    if args.record:
        return record_reference()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    ref = load_reference()
    names = ["catalog", "large-field", "census"] if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, ref)
        write_record(result, f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json")
        lines[name] = report(result, args.trace)
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
