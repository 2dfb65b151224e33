"""Run one permlab invocation in a fresh interpreter and report what it cost.

Usage: python3 perfbench/worker.py '<spec as JSON>'

run.py starts one of these per invocation, one at a time.  The spec names the
invocation kind ("cli" runs permlab.cli.main on argv; the other kinds call the
library), the checkout root, the monotonic time at which the process was
spawned, whether to trace, and where to write the result.  The result holds:

  setup_s    spawn until the entry module is imported and the family
             registry is built (interpreter start included)
  verdict_s  first call into permlab until the last verdict is written
             (field construction included)
  rss_mb     peak resident set size of this process
  output     what the invocation produced, for run.py to check
  trace      span self times and counters (traced runs only)
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cli(spec, api):
    try:
        rc = api.main(spec["argv"])
    except SystemExit as exc:      # argparse exits on bad flags
        rc = exc.code
    return {"exit": rc}


def _prop2(spec, api):
    out = []
    for d in spec["draws"]:
        fld = api.get_field(d["p"], d["n"])
        g = api.make_gspec(fld, [(fld.element_at(ci), e) for ci, e in d["terms"]], qdeg=d["qdeg"])
        rep = api.prop2_check(g, fld.element_at(d["c"]), d["k"])
        out.append({
            "h_permutes": rep.h_verdict.is_permutation,
            "h_witness": _wit(rep.h_verdict),
            "implication_holds": rep.implication_holds,
            "exhaustive": rep.deltas_exhaustive,
            "deltas": len(rep.f_results),
            "f_witnesses": [[di, *_wit(v)] for di, v in rep.f_results if not v.is_permutation],
        })
    return out


def _prop4(spec, api):
    out = []
    for d in spec["draws"]:
        fld = api.get_field(d["p"], d["n"])
        g = api.make_gspec(fld, [(fld.one, d["s"])], qdeg=d["qdeg"])
        rep = api.prop4_check(g)
        cosets = [api.trace_coset(fld, fld.element_at(di), d["qdeg"]).size for di in d["cosets"]]
        out.append({
            "h_permutes": rep.h_verdict.is_permutation,
            "h_witness": _wit(rep.h_verdict),
            "iff_holds": rep.iff_holds,
            "commutes_all": rep.commutes_all,
            "fibers_stable": rep.fibers_stable,
            "exhaustive": rep.deltas_exhaustive,
            "deltas": len(rep.f_results),
            "f_witnesses": [[di, *_wit(v)] for di, v in rep.f_results if not v.is_permutation],
            "coset_sizes": cosets,
        })
    return out


def _invert(spec, api):
    import numpy as np
    out = []
    for d in spec["draws"]:
        fld = api.get_field(d["p"], d["n"])
        one, delta = fld.one, fld.element_at(d["delta"])
        g = api.make_gspec(fld, [(one, d["s"])], qdeg=d["qdeg"])
        h_inv = api.build_inverse_table(api.compose_h(g, one, 1))
        xs = np.array([api.invert_f(g, one, 1, delta, fld.element_at(a), h_inverse=h_inv).index
                       for a in range(fld.order)])
        f_vals = api.evaluate_all(api.compose_f(g, one, 1, delta))
        out.append({
            "alphas": fld.order,
            "roundtrip_failures": int((f_vals[xs] != np.arange(fld.order)).sum()),
            "pairs": [[a, int(xs[a])] for a in d["sample"]],
        })
    return out


def _lemma1(spec, api):
    out = []
    for d in spec["draws"]:
        fld = api.get_field(d["p"], d["n"])
        res = api.lemma1_check(fld, d["r"], [(fld.element_at(ci), e) for ci, e in d["terms"]], d["d"])
        out.append({"consistent": res.consistent, "reduction": res.reduction_verdict,
                    "brute": res.brute_is_permutation})
    return out


def _wit(verdict):
    w = verdict.witness
    return None if w is None else [w[0].index, w[1].index]


# "noop" only imports permlab, so that a run's first timed invocation finds
# the bytecode cache written, as an installed CLI would.
TASKS = {"noop": lambda spec, api: None, "cli": _cli, "prop2": _prop2, "prop4": _prop4,
         "invert": _invert, "lemma1": _lemma1}


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.  VmHWM starts afresh at exec, whereas
    ru_maxrss keeps the high-water mark of the forked parent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    if spec["kind"] == "cli":
        import permlab.cli as api
    else:
        import permlab as api
    from permlab import families
    families.registry()
    setup_s = time.monotonic() - spec["t_spawn"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["id"])
        tracer.install()
    t0 = time.perf_counter()
    output = TASKS[spec["kind"]](spec, api)
    verdict_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "verdict_s": verdict_s, "rss_mb": _peak_rss_mb(),
              "output": output}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
