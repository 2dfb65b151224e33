"""Command-line front end for the catalog.

Verbs: verify (run one family or the whole catalog), table1 (the thirteen
consolidated delta-form rows at their smallest admissible k), sweep (list
every permuting trinomial exponent over one field), report (re-emit a saved
report), catalog (dump the family manifest).

Reports are a JSON document with two top-level sections: "stable", which is
byte-identical across runs with the same configuration and seed, and
"timings", which is not.  CSV output carries one line per instance and only
stable columns.  Exit codes: 0 every asserted instance permutes, 1 at least
one fails, 2 the selection falls outside the family's applicability, 3
configuration error (bad flags, bad config file, cap refusal, malformed
report input), 4 internal or I/O error (an --out that cannot be written is
refused before any work; an unexpected exception prints its traceback).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field
from itertools import groupby, product
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .ffcore import DEFAULT_SIZE_CAP, MAX_ORDER, FieldCtx, get_field, prime_power
from .families import (
    InapplicableError,
    default_parameters,
    family_manifest,
    lookup,
    registry,
    resolve_exponent,
    valid_coefficients,
)
from .permcheck import (DELTA_EXHAUSTIVE_CAP, ROUTES, Verdicts, make_gspec, pair_verdicts,
                        trinomial_hits)
from .transform import DEFAULT_SEED, DELTA_SAMPLES, pick_deltas

__all__ = [
    "ConfigError",
    "FamilyRun",
    "RunConfig",
    "SCHEMA",
    "run_family_verification",
    "cmd_verify",
    "cmd_table1",
    "cmd_sweep",
    "cmd_report",
    "cmd_catalog",
    "build_report",
    "stable_json",
    "report_csv",
    "main",
    "entrypoint",
]

SCHEMA = "permlab-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INAPPLICABLE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4      # internal or I/O error


class ConfigError(Exception):
    """Unusable flag/config-file input, distinct from a failed verification."""


@dataclass(frozen=True)
class RunConfig:
    cap: int = DEFAULT_SIZE_CAP
    seed: int = DEFAULT_SEED
    delta_samples: int = DELTA_SAMPLES
    kprime: int = 1


@dataclass
class Form:
    """One (condition, s, step) engine call: its verdict columns, c-major
    over its c and delta index arrays (delta None for trinomials), the
    cells every row shares, the call's seconds, and on how many c each h
    route ran.  A JSON report writes its rows straight from the columns
    (_form_rows)."""
    condition: str
    s_tag: str
    s: int
    step: int
    informational: bool
    verdicts: Verdicts
    c: np.ndarray
    delta: Optional[np.ndarray]
    seconds: float
    h_routes: dict


@dataclass(frozen=True)
class Rows:
    """A condition block's instances: the rows of its forms, in order.
    _write writes them from the forms' columns; iterating gives each row
    as the dict a loaded report holds, which is how report_csv reads both."""
    forms: list[Form]

    def __iter__(self) -> Iterator[dict]:
        for f in self.forms:
            v = f.verdicts
            keys = product(f.c.tolist(), [None] if f.delta is None else f.delta.tolist())
            for (c, d), ok, a, b, dfc in zip(keys, v.permutes.tolist(), v.a.tolist(),
                                             v.b.tolist(), v.deficit.tolist()):
                yield {"s_tag": f.s_tag, "step": f.step, "s": f.s, "c": c, "delta": d,
                       "permutes": ok, "witness": None if a < 0 else [a, b],
                       "image_deficit": dfc, "informational": f.informational}


@dataclass
class FamilyRun:
    """One family at one q: its field and its forms, sorted by (condition,
    s_tag, step)."""
    family: str
    p: int
    n: int
    modulus: tuple[int, ...]
    q: int
    kprime: Optional[int]
    deltas_exhaustive: Optional[bool]
    field_s: float = 0.0
    forms: list[Form] = dc_field(default_factory=list)


def _factor_prime_power(q: int) -> tuple[int, int]:
    try:
        return prime_power(q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_family_verification(fid: str, q: int, cfg: RunConfig) -> FamilyRun:
    """Every condition variant x s variant x declared step x valid c x delta.

    Non-primary Frobenius steps are recorded as informational: their verdicts
    appear in the report but do not count against the exit code, so a variant
    that fails as stated is surfaced rather than silently swapped or hidden.
    Each (condition, s, step) form is one pair_verdicts call, timed here;
    it keeps a trinomial's h columns or a shift form's f columns.
    """
    fam = lookup(fid)
    p, k = _factor_prime_power(q)
    if q**fam.m > cfg.cap:
        raise ConfigError(
            f"field order {q}**{fam.m} exceeds the size cap {cfg.cap}")
    if not fam.applies(p, k, cfg.kprime):
        raise InapplicableError(
            f"{fid} does not apply at q = {q}"
            + (f", k' = {cfg.kprime}" if fam.uses_kprime else ""))
    if (fam.form == "delta_form" and q**fam.m > DELTA_EXHAUSTIVE_CAP
            and cfg.delta_samples > q**fam.m):
        raise ConfigError(
            f"--delta-samples {cfg.delta_samples} exceeds the field order "
            f"{q**fam.m}")
    t0 = time.perf_counter()
    fld = get_field(p, k * fam.m, cfg.cap)
    field_s = time.perf_counter() - t0
    deltas = exhaustive = None
    if fam.form == "delta_form":
        deltas, exhaustive = pick_deltas(fld, samples=cfg.delta_samples, seed=cfg.seed)
        deltas = np.array(deltas, dtype=np.int64)

    run = FamilyRun(family=fid, p=p, n=fld.n, modulus=fld.modulus, q=q,
                    kprime=cfg.kprime if fam.uses_kprime else None,
                    deltas_exhaustive=exhaustive, field_s=field_s)
    # valid_coefficients has already checked every c against the condition,
    # so each instance composes h (trinomials) or f (delta forms) of g = x^s
    # without instantiate's per-call checks
    for ci, (ctag, _) in enumerate(fam.conds):
        cs = valid_coefficients(fid, fld, kprime=cfg.kprime, cond_variant=ci)
        if not cs:      # no instances, so no condition block
            continue
        c_idx = np.array([c.index for c in cs], dtype=np.int64)
        for si, (stag, _) in enumerate(fam.s_rules):
            s_val = resolve_exponent(fid, q, kprime=cfg.kprime, variant=si)
            g = make_gspec(fld, [(fld.one, s_val)], qdeg=k)
            for step in fam.steps:
                t0 = time.perf_counter()
                try:
                    h, f = pair_verdicts(g, step, cs, deltas)
                except RuntimeError as exc:     # the two routes disagree
                    raise RuntimeError(f"{fid} q={q} s={s_val}: {exc}") from exc
                seconds = time.perf_counter() - t0
                h_routes = {"mu": h.route.size if h.mu else 0,
                            "brute": int(np.count_nonzero(h.route == ROUTES.index("brute")))}
                run.forms.append(Form(ctag or "default", stag, s_val, step,
                                      step != fam.steps[0], h if deltas is None else f,
                                      c_idx, deltas, seconds, h_routes))
    # each form's rows are in (c, delta) order already, since cs and deltas
    # are sorted by index
    run.forms.sort(key=attrgetter("condition", "s_tag", "step"))
    return run


# ---------------------------------------------------------------------------
# report assembly

def _counts(forms: Sequence[Form]) -> dict:
    """A condition block's summary: asserted and informational verdicts."""
    n = Counter()
    for f in forms:
        passed = int(np.count_nonzero(f.verdicts.permutes))
        n[f.informational, True] += passed
        n[f.informational, False] += f.verdicts.permutes.size - passed
    return {
        "instances": sum(n.values()),
        "asserted": n[False, True] + n[False, False],
        "passed": n[False, True],
        "failed": n[False, False],
        "informational_passed": n[True, True],
        "informational_failed": n[True, False],
    }


def _variant_blocks(run: FamilyRun) -> list[dict]:
    """Each condition's forms as its instance rows, in sorted condition
    order; dual conditions stay separate."""
    blocks = []
    for tag, group in groupby(run.forms, attrgetter("condition")):
        forms = list(group)
        blocks.append({
            "condition": tag,
            "instances": Rows(forms),
            "summary": _counts(forms),
        })
    return blocks


def _step_outcomes(run: FamilyRun) -> Optional[dict]:
    """Which declared Frobenius step passes, for families that list several."""
    passes: dict[int, bool] = {}
    for f in run.forms:
        passes[f.step] = passes.get(f.step, True) and bool(f.verdicts.permutes.all())
    if len(passes) < 2:
        return None
    return {str(st): "pass" if ok else "fail" for st, ok in sorted(passes.items())}


def run_to_stable(run: FamilyRun) -> dict:
    blocks = _variant_blocks(run)
    doc = {
        "family": run.family,
        "p": run.p,
        "n": run.n,
        "modulus": list(run.modulus),
        "q": run.q,
        "kprime": run.kprime,
        "deltas_exhaustive": run.deltas_exhaustive,
        "conditions": blocks,
        "summary": {key: sum(b["summary"][key] for b in blocks)
                    for key in ("instances", "asserted", "passed", "failed")},
    }
    steps = _step_outcomes(run)
    if steps is not None:
        doc["step_outcomes"] = steps
    return doc


def build_report(runs: Sequence[FamilyRun], cfg: RunConfig,
                 verb: str, started: float) -> dict:
    """The report of a verify/table1 verb that began at perf_counter()
    reading `started`: timings.total_s is its wall time up to now."""
    stable = {
        "schema": SCHEMA,
        "verb": verb,
        "config": asdict(cfg),
        "runs": [run_to_stable(r) for r in runs],
    }
    timings = {
        "total_s": time.perf_counter() - started,
        "runs": [
            {
                "family": run.family,
                "q": run.q,
                "field_s": round(run.field_s, 6),
                "forms": [{"condition": f.condition, "s_tag": f.s_tag, "step": f.step,
                           "instances": f.verdicts.permutes.size, "seconds": round(f.seconds, 6),
                           "h_routes": f.h_routes}
                          for f in run.forms],
                "h_routes": {key: sum(f.h_routes[key] for f in run.forms)
                             for key in ("mu", "brute")},
                "routes": dict(zip(ROUTES, sum(
                    (np.bincount(f.verdicts.route, minlength=len(ROUTES)) for f in run.forms),
                    np.zeros(len(ROUTES), dtype=np.int64)).tolist())),
            }
            for run in runs
        ],
    }
    return {"stable": stable, "timings": timings}


def stable_json(doc: dict) -> str:
    """Canonical serialization of the deterministic section."""
    return _to_json(doc["stable"])


def _float(f: float) -> str:
    text = float.__repr__(f)
    return _NONFINITE.get(text, text)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# json's text for a value of each scalar type, in the order json tests them
_ATOMS = {
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    int: int.__repr__,
    float: _float,
    type(None): {None: "null"}.__getitem__,
}


def _to_json(o) -> str:
    """json.dumps(o, sort_keys=True, indent=2), byte for byte, for a JSON
    document: dicts with str keys, lists, str, int, float, bool and None,
    and a report's Rows, written as the list of their row dicts.  Any other
    type raises TypeError.  The text is the chunks _write puts, joined."""
    chunks: list[str] = []
    _write(o, "", chunks.append)
    return "".join(chunks)


def _write(o, indent: str, put: Callable[[str], None]) -> None:
    """Pass the text of o, nested at indent, to put in chunks."""
    kind = type(o)
    if kind in _ATOMS:
        put(_ATOMS[kind](o))
        return
    if kind is dict:
        items = sorted(o.items())
        heads = [encode_basestring_ascii(k) + ": " for k, _ in items]
        values, brackets = [v for _, v in items], "{}"
    elif kind is list:
        heads, values, brackets = None, o, "[]"
    elif kind is Rows:
        heads, brackets = None, "[]"
        values = [f for f in o.forms if f.verdicts.permutes.size]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not values:
        put(brackets)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    write = _form_rows if kind is Rows else _write
    put(brackets[0] + "\n" + inner)
    for i, v in enumerate(values):
        if i:
            put(sep)
        if heads:
            put(heads[i])
        write(v, inner, put)
    put("\n" + indent + brackets[1])


def _form_rows(f: Form, indent: str, put: Callable[[str], None]) -> None:
    """Pass the text of f's rows, as items of a list nested at indent, to
    put, a c at a time.  One template per form holds the cells every row
    shares.  The rows of a c that all permute differ only in their delta
    text, so they are one join over the delta texts, whose separator holds
    the row's tail and the c's row head.  A c with a failing row fills the
    template row by row from one tolist() per column."""
    inner = indent + "  "
    shared = {key: _ATOMS[type(v)](v).replace("%", "%%")
              for key, v in [("informational", f.informational), ("s", f.s),
                             ("s_tag", f.s_tag), ("step", f.step)]}
    cells = {"c": "%s", "delta": "%s", "image_deficit": "%d", "permutes": "%s",
             "witness": "%s", **shared}
    template = ("{\n" + inner + (",\n" + inner).join(
        f'"{key}": {cells[key]}' for key in sorted(cells)) + "\n" + indent + "}")
    # a permuting row cut at its c and delta; json escapes "\0" in a str
    c_head, d_head, tail = (template % ("\0", "\0", 0, "true", "null")).split("\0")
    sep = ",\n" + indent
    v = f.verdicts
    cs = list(map(str, f.c.tolist()))
    ds = ["null"] if f.delta is None else list(map(str, f.delta.tolist()))
    nd = len(ds)
    passes = v.permutes.reshape(len(cs), nd).all(axis=1).tolist()
    if not all(passes):
        lead, mid, close = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        row_cells = list(zip(v.deficit.tolist(),
                             map(("false", "true").__getitem__, v.permutes.tolist()),
                             ["null" if a < 0 else f"{lead}{a}{mid}{b}{close}"
                              for a, b in zip(v.a.tolist(), v.b.tolist())]))
    for i, (c, ok) in enumerate(zip(cs, passes)):
        if i:
            put(sep)
        if ok:
            head = c_head + c + d_head
            put(head)
            put((tail + sep + head).join(ds))
            put(tail)
        else:
            put(sep.join(template % (c, d, *row)
                         for d, row in zip(ds, row_cells[i * nd:(i + 1) * nd])))


CSV_COLUMNS = [
    "family", "q", "kprime", "condition", "s_tag", "step", "s", "c",
    "delta", "permutes", "witness_a", "witness_b", "image_deficit",
    "informational",
]


def _csv_text(header: list, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def report_csv(doc: dict) -> str:
    rows = []
    for run in doc["stable"]["runs"]:
        for block in run["conditions"]:
            for r in block["instances"]:
                wit = r["witness"] or ("", "")
                rows.append([
                    run["family"], run["q"],
                    "" if run["kprime"] is None else run["kprime"],
                    block["condition"], r["s_tag"], r["step"], r["s"],
                    r["c"], "" if r["delta"] is None else r["delta"],
                    int(r["permutes"]), wit[0], wit[1],
                    r["image_deficit"], int(r["informational"]),
                ])
    return _csv_text(CSV_COLUMNS, rows)


def _sweep_csv(doc: dict) -> str:
    return _csv_text(["s", "c", "families"],
                     [[h["s"], h["c"], ";".join(h["families"])]
                      for h in doc["stable"]["hits"]])


def _catalog_csv(manifest: list) -> str:
    return _csv_text(
        ["id", "form", "shape", "applies", "s_rule", "s_variants",
         "conditions", "steps", "uses_kprime", "cross", "notes"],
        [[e["id"], e["form"], e["shape"], e["applies"], e["s_rule"],
          ";".join(e["s_variants"]), ";".join(e["conditions"]),
          ";".join(str(s) for s in e["steps"]),
          int(e["uses_kprime"]), ";".join(e["cross"]), e["notes"]]
         for e in manifest])


def _emit(doc, fmt: str, out: Optional[str],
          to_csv: Callable[..., str]) -> None:
    """Write doc as json, or as the csv that to_csv renders, to out or
    stdout.  The whole text is rendered into chunks before out is opened,
    so a document the writer refuses creates no file; the chunks then go
    to the file or stream as they are, never joined."""
    if fmt == "csv":
        chunks = [to_csv(doc)]
    else:
        chunks = []
        _write(doc, "", chunks.append)
        chunks.append("\n")
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _summarize(doc: dict) -> int:
    """One line per run of a verify/table1 report on stderr; returns the
    verb's exit code."""
    for run in doc["stable"]["runs"]:
        n = run["summary"]
        extra = ""
        info = n["instances"] - n["asserted"]
        if info:
            bad = sum(b["summary"]["informational_failed"] for b in run["conditions"])
            extra = f" (+{info} informational, {bad} failing)"
        print(
            f"{'FAIL' if n['failed'] else 'PASS'} {run['family']} q={run['q']}: "
            f"{n['passed']}/{n['asserted']} instances permute{extra}",
            file=sys.stderr)
    failed = any(run["summary"]["failed"] for run in doc["stable"]["runs"])
    return EXIT_FAIL if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# verbs

def _selected_q(args) -> Optional[int]:
    if args.q is not None and (args.p is not None or args.k is not None):
        raise ConfigError("give either --q or --p/--k, not both")
    if args.q is not None:
        return args.q
    if args.p is not None or args.k is not None:
        if args.p is None or args.k is None:
            raise ConfigError("--p and --k must be given together")
        if args.p < 2:
            raise ConfigError(f"--p must be >= 2, got {args.p}")
        if args.k < 1:
            raise ConfigError(f"--k must be >= 1, got {args.k}")
        return args.p**args.k
    return None


def cmd_verify(args) -> int:
    t_start = time.perf_counter()
    cfg = _config_from(args)
    q_sel = _selected_q(args)
    if args.family in (None, "all"):
        fids = [f.fid for f in registry()]
        if q_sel is not None:
            raise ConfigError(
                "an explicit q needs an explicit --family (one family's "
                "applicability cannot speak for the whole catalog)")
    else:
        fids = [args.family]
        try:
            lookup(args.family)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    runs: list[FamilyRun] = []
    for fid in fids:
        if q_sel is not None:
            qs = [q_sel]
        else:
            qs = [p**k for p, k in
                  default_parameters(fid, count=2, cap=cfg.cap,
                                     kprime=cfg.kprime)]
            if not qs:
                raise InapplicableError(
                    f"{fid}: no applicable parameters within cap {cfg.cap}")
        for q in qs:
            runs.append(run_family_verification(fid, q, cfg))
    doc = build_report(runs, cfg, "verify", t_start)
    _emit(doc, args.format, args.out, report_csv)
    return _summarize(doc)


TABLE1_MAX_ORDER = 1 << 16


def cmd_table1(args) -> int:
    t_start = time.perf_counter()
    cfg = _config_from(args)
    if args.k is not None and args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    rows = [args.row] if args.row else list(range(1, 14))
    runs = []
    for row in rows:
        fid = f"table1-r{row}"
        fam = lookup(fid)
        k = args.k
        if k is None:
            found = default_parameters(fid, count=1, cap=TABLE1_MAX_ORDER,
                                       kprime=cfg.kprime)
            if not found:
                raise InapplicableError(
                    f"{fid}: no admissible k with k' = {cfg.kprime}")
            k = found[0][1]
        if not fam.applies(2, k, cfg.kprime):
            raise InapplicableError(
                f"{fid} does not admit k = {k}"
                + (f", k' = {cfg.kprime}" if fam.uses_kprime else ""))
        runs.append(run_family_verification(fid, 2**k, cfg))
    doc = build_report(runs, cfg, "table1", t_start)
    _emit(doc, args.format, args.out, report_csv)
    return _summarize(doc)


def _sweep_annotations(fld: FieldCtx, q: int, kprime: int) -> dict:
    """(s, c-index) -> sorted family ids whose canonical instance matches."""
    tags: dict[tuple[int, int], list[str]] = {}
    p, k = _factor_prime_power(q)
    for fam in registry():
        if fam.form != "trinomial" or fam.shape != "square":
            continue
        if not fam.applies(p, k, kprime):
            continue
        for si in range(len(fam.s_rules)):
            s_val = resolve_exponent(fam.fid, q, kprime=kprime, variant=si)
            for ci in range(len(fam.conds)):
                for c in valid_coefficients(fam.fid, fld, kprime=kprime,
                                            cond_variant=ci):
                    tags.setdefault((s_val, c.index), []).append(fam.fid)
    return {key: sorted(set(v)) for key, v in tags.items()}


def cmd_sweep(args) -> int:
    """List every (s, c) whose trinomial permutes GF(q^2).

    Reports only; a hit outside the catalog is tagged "unexplained", never
    asserted wrong, and a coefficient failing some family's condition is
    never asserted to break anything.
    """
    t_start = time.perf_counter()
    cfg = _config_from(args)
    q_sel = _selected_q(args)
    if q_sel is None:
        raise ConfigError("sweep needs --q or --p/--k")
    q = q_sel
    p, k = _factor_prime_power(q)
    if q * q > cfg.cap:
        raise ConfigError(f"field order {q}**2 exceeds the size cap {cfg.cap}")
    t0 = time.perf_counter()
    fld = get_field(p, 2 * k, cfg.cap)
    field_s = time.perf_counter() - t0
    order = fld.order
    s_lo = args.s_from if args.s_from is not None else 1
    s_hi = args.s_to if args.s_to is not None else order - 2
    if not (1 <= s_lo <= s_hi <= order - 2):
        raise ConfigError(
            f"s range must sit inside [1, {order - 2}], got "
            f"[{s_lo}, {s_hi}]")
    c_indices = args.c_index if args.c_index else [1]
    for idx in c_indices:
        if not 1 <= idx < order:
            raise ConfigError(f"c index {idx} outside [1, {order - 1}]")
        if c_indices.count(idx) > 1:
            raise ConfigError(f"--c-index {idx} given more than once")
    tags = _sweep_annotations(fld, q, cfg.kprime)
    hits = []
    full_checks = 0
    for c_idx in c_indices:
        found, checked = trinomial_hits(fld, fld.element_at(c_idx),
                                        range(s_lo, s_hi + 1), k=1, qdeg=k)
        full_checks += checked
        hits += [{"s": s, "c": c_idx,
                  "families": tags.get((s, c_idx), ["unexplained"])}
                 for s in found]

    stable = {
        "schema": SCHEMA,
        "verb": "sweep",
        "config": asdict(cfg),
        "field": {"p": p, "n": 2 * k, "q": q,
                  "modulus": list(fld.modulus)},
        "s_range": [s_lo, s_hi],
        "c_indices": list(c_indices),
        "hits": hits,
    }
    screened = (s_hi - s_lo + 1) * len(c_indices)
    doc = {"stable": stable,
           "timings": {"total_s": time.perf_counter() - t_start,
                       "field_s": round(field_s, 6), "full_checks": full_checks,
                       "prefix_exits": screened - full_checks}}
    _emit(doc, args.format, args.out, _sweep_csv)
    print(f"{len(hits)} permuting trinomials over GF({q}^2)", file=sys.stderr)
    return EXIT_PASS


def cmd_report(args) -> int:
    if not args.input:
        raise ConfigError("report needs --input pointing at a saved run")
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    stable = doc.get("stable") if isinstance(doc, dict) else None
    if not isinstance(stable, dict) or stable.get("schema") != SCHEMA:
        raise ConfigError(f"not a {SCHEMA} document: {args.input}")
    if args.format == "csv" and stable.get("verb") not in ("verify", "table1"):
        raise ConfigError("csv re-emission only covers verify/table1 runs")

    def to_csv(doc: dict) -> str:
        try:
            return report_csv(doc)
        except KeyError as exc:
            raise ConfigError(
                f"{args.input} lacks the key {exc.args[0]!r}") from exc
        except (TypeError, IndexError, ValueError) as exc:
            raise ConfigError(f"{args.input} is malformed: {exc}") from exc
    _emit(doc, args.format, args.out, to_csv)
    return EXIT_PASS


def cmd_catalog(args) -> int:
    _emit(family_manifest(), args.format, args.out, _catalog_csv)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "family": dict(help="catalog id, or 'all' (default)"),
    "row": dict(type=int, choices=range(1, 14), metavar="1..13"),
    "c-index": dict(type=int, action="append",
                    help="coefficient index to sweep (repeatable)"),
    "s-from": dict(type=int),
    "s-to": dict(type=int),
    "input": dict(help="path to a saved JSON report"),
    "q": dict(type=int, help="base q (a prime power)"),
    "p": dict(type=int, help="characteristic, with --k"),
    "k": dict(type=int, help="exponent k of q = p^k"),
    "kprime": dict(type=int, help="auxiliary k' for the families that take one"),
    "cap": dict(type=int, help="largest field order the run may construct "
                "(at most 2^31 - 1)"),
    "seed": dict(type=int, help="delta sampling seed"),
    "delta-samples": dict(type=int, help="sample count when a field is too big to sweep"),
    "format": dict(choices=("json", "csv")),
    "config": dict(help="key=value file mirroring the flags"),
    "out": dict(help="write the report here instead of stdout"),
}
_FIELD = ("k", "kprime", "cap")
_SAMPLING = ("seed", "delta-samples")
_OUTPUT = ("format", "config", "out")

# verb -> (handler, help, the flags it reads; any other exits 3 as unrecognized)
_VERBS = {
    "verify": (cmd_verify, "check one family (or the whole catalog)",
               ("family", "q", "p", *_FIELD, *_SAMPLING, *_OUTPUT)),
    "table1": (cmd_table1, "the thirteen consolidated delta-form rows",
               ("row", *_FIELD, *_SAMPLING, *_OUTPUT)),
    "sweep": (cmd_sweep, "list every permuting trinomial exponent over GF(q^2)",
              ("c-index", "s-from", "s-to", "q", "p", *_FIELD, *_OUTPUT)),
    "report": (cmd_report, "re-emit a saved report", ("input", *_OUTPUT)),
    "catalog": (cmd_catalog, "dump the family manifest", _OUTPUT),
}


def _check_out(path: Optional[str]) -> None:
    """Refuse an --out that cannot be written before any field is built."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out directory {parent} does not exist")
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise PermissionError(f"--out {path} is not a writable file path")


def _config_from(args) -> RunConfig:
    """The run settings from the flags; one the verb does not take keeps
    its default."""
    given = {key: getattr(args, key, None)
             for key in ("cap", "seed", "delta_samples", "kprime")}
    cfg = RunConfig(**{key: v for key, v in given.items() if v is not None})
    if cfg.kprime < 1:
        raise ConfigError(f"--kprime must be >= 1, got {cfg.kprime}")
    if cfg.delta_samples < 2:
        raise ConfigError("--delta-samples must be >= 2 (0 and 1 always run)")
    if cfg.cap < 4:
        raise ConfigError(f"--cap {cfg.cap} cannot hold any GF(q^2)")
    if cfg.cap > MAX_ORDER:
        raise ConfigError(f"--cap {cfg.cap} exceeds {MAX_ORDER}, the largest "
                          f"order the int32 field tables index")
    return cfg


def _apply_config_file(args) -> None:
    """Fill the flags left unset from the --config file: key=value lines and
    # comments.  Each key is a single-valued long flag of the verb, and its
    value is converted and checked by that flag's own definition."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{args.config}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        key = key.replace("_", "-")
        spec = _FLAGS[key] if key in _VERBS[args.verb][2] else {}
        if not spec or key == "config" or "action" in spec:
            raise ConfigError(f"{where}: {args.verb} takes no key {key!r}")
        try:
            value = spec.get("type", str)(val)
        except ValueError:
            raise ConfigError(
                f"{where}: {key} needs an integer, got {val!r}") from None
        if value not in spec.get("choices", (value,)):
            raise ConfigError(f"{where}: {key} cannot be {val!r}")
        values[key.replace("-", "_")] = value
    for attr, value in values.items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def build_parser() -> _Parser:
    parser = _Parser(prog="permlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text, flags) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        for name in flags:
            sp.add_argument(f"--{name}", **_FLAGS[name])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if args.format is None:
            args.format = "json"
        _check_out(args.out)
        return _VERBS[args.verb][0](args)
    except ConfigError as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InapplicableError as exc:
        print(f"permlab: inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except OSError as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
