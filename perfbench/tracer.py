"""Spans and counters recorded around permlab's entry points.

Only traced runs install this.  install() swaps each function or method
listed in TARGETS for a wrapper that records a span (name, start, end,
parent span, invocation id) and bumps the target's counters, and swaps each
method listed in COUNTED for one that only counts calls.  The program's files
are not touched.  A listed name that does not exist (or a counter hook that
no longer fits the function's signature) is reported in `absent`, and its
metrics are marked absent rather than failing the run.

Self time of a span is its duration minus the time covered by its child
spans, accumulated online; the raw spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _size(result) -> int:
    return int(getattr(result, "size", 0))


def _written(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# (span name, module, attribute path, counter names, hook(args, result) -> counter increments)
# The self time of a span name is reported as "<span name>_s".
TARGETS = [
    ("ffcore.build", "permlab.ffcore", "FieldCtx.__init__",
     ("ffcore.builds", "ffcore.build_points"), lambda a, r: (1, a[0].order)),
    *[("ffcore.bulk", "permlab.ffcore", f"_Bulk.{op}", ("ffcore.bulk_points",),
       lambda a, r: (_size(r),))
      for op in ("add", "sub", "mul", "mul_scalar", "pow_const", "frob")],
    ("families.pool", "permlab.families", "valid_coefficients",
     ("families.pools",), lambda a, r: (1,)),
    ("families.instantiate", "permlab.families", "instantiate",
     ("families.instantiations",), lambda a, r: (1,)),
    ("families.omega_set", "permlab.families", "omega_set",
     ("families.omega_set_calls",), lambda a, r: (1,)),
    ("permcheck.evaluate", "permlab.permcheck", "evaluate_all",
     ("permcheck.points_evaluated",), lambda a, r: (_size(r),)),
    ("permcheck.check", "permlab.permcheck", "is_permutation",
     ("permcheck.checks", "permcheck.checks_failed"),
     lambda a, r: (1, int(not r.is_permutation))),
    ("permcheck.lemma1", "permlab.permcheck", "lemma1_check",
     ("permcheck.lemma1_calls",), lambda a, r: (1,)),
    ("transform.prop2", "permlab.transform", "prop2_check",
     ("transform.deltas_checked",), lambda a, r: (len(r.f_results),)),
    ("transform.prop4", "permlab.transform", "prop4_check",
     ("transform.deltas_checked",), lambda a, r: (len(r.f_results),)),
    ("transform.invert", "permlab.transform", "invert_f", (), None),
    ("transform.coset", "permlab.transform", "trace_coset", (), None),
    ("cli.run_family", "permlab.cli", "run_family_verification", (), None),
    ("cli.report", "permlab.cli", "build_report", (), None),
    ("cli.report", "permlab.cli", "_emit",
     ("cli.report_bytes",), lambda a, r: (_written(a[2]),)),
    ("cli.report", "permlab.cli", "cmd_report",
     ("cli.report_bytes",), lambda a, r: (_written(a[0].out),)),
]

# (counter name, module, attribute paths): calls counted, not spanned, so
# their time stays in the caller's self time.
COUNTED = [
    ("ffcore.scalar_ops", "permlab.ffcore",
     tuple(f"FieldCtx.{op}" for op in ("add", "sub", "neg", "mul", "div", "inv", "pow"))),
]


def metric_names() -> tuple[list[str], list[str]]:
    """(span self-time metric names, counter names) that TARGETS and COUNTED feed."""
    spans, counters = [], []
    for name, _, _, counts, _ in TARGETS:
        if f"{name}_s" not in spans:
            spans.append(f"{name}_s")
        counters += [c for c in counts if c not in counters]
    counters += [name for name, _, _ in COUNTED]
    return spans, counters


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    return None if value is None else (owner, attr, value)


def _rebind(owner, attr, orig, wrapper) -> None:
    """Replace orig by wrapper on its class, or on every permlab module that
    imported the function under any name (cli imports most by name)."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "permlab" or modname.startswith("permlab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.stack: list[list] = []        # [span index, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()

    def install(self) -> None:
        for name, module, path, counts, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.update((f"{name}_s", *counts))
                continue
            owner, attr, orig = found
            _rebind(owner, attr, orig, self._spanned(name, orig, counts, hook))
        for name, module, paths in COUNTED:
            for path in paths:
                found = _resolve(module, path)
                if found is None:
                    self.absent.add(name)
                    continue
                owner, attr, orig = found
                _rebind(owner, attr, orig, self._counted(name, orig))

    def _spanned(self, name, fn, counts, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1][0] if stack else -1])
            stack.append([sid, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, child = stack.pop()
                span = spans[sid]
                span[2] = clock()
                dur = span[2] - span[1]
                self.self_s[name] += dur - child
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                try:
                    incs = hook(args, result)
                except Exception:  # signature changed: the counters are absent, the call is not
                    self.absent.update(counts)
                else:
                    for cname, inc in zip(counts, incs):
                        self.counts[cname] += inc
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def top_level_s(self) -> float:
        """Summed duration of spans that have no parent span."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "absent": sorted(self.absent), "spans": len(self.spans),
                "top_level_s": self.top_level_s()}

    def dump(self, path: str) -> None:
        """Append the spans as JSON lines: name, start, end, parent, invocation."""
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.invocation]) + "\n")
