"""The four workloads: which stored queries a seed selects, how each becomes
a call into ``cfsdim``, and how a result becomes a plain answer record.

A pool (``data/<workload>.json``) is a list of slots, each with variants.
For a seed, one shuffled slot order is drawn for the run and one variant
per slot for every pass, so passes repeat the same amount of work on
different inputs.  The library only ever receives the built inputs.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("measure", "attractor", "exact", "cli")

# kind -> (module, function) of the single library call a query makes
CALLS = {
    "measure_dimension": ("dimension", "measure_dimension"),
    "rw_entropy_closed": ("entropy", "rw_entropy_closed"),
    "phi_lower_bound": ("entropy", "phi_lower_bound"),
    "measure_dimension_4c": ("fourcorner", "measure_dimension_4c"),
    "attractor_dimension": ("dimension", "attractor_dimension"),
    "similarity_dimension": ("dimension", "similarity_dimension"),
    "gd_dimension": ("dimension", "gd_dimension"),
    "natural_p": ("fourcorner", "natural_p"),
    "set_dimension_4c": ("fourcorner", "set_dimension_4c"),
    "esc_probe": ("separation", "esc_probe"),
    "rw_entropy_bruteforce": ("entropy", "rw_entropy_bruteforce"),
}


def load_pool(workload):
    with open(os.path.join(HERE, "data", f"{workload}.json")) as fh:
        return json.load(fh)["slots"]


class Plan:
    """The seeded query stream: ``order`` is the slot order used by every
    pass, ``variants(i)`` the variant per slot in pass ``i``."""

    def __init__(self, pool, seed):
        self.pool = pool
        self.seed = seed
        rng = random.Random(f"order-{seed}")
        self.order = list(range(len(pool)))
        rng.shuffle(self.order)

    def variants(self, pass_index):
        rng = random.Random(f"pass-{self.seed}-{pass_index}")
        return [(s, rng.randrange(len(self.pool[s]["variants"]))) for s in self.order]


def build(cfsdim, query):
    """(args tuple) for the query's library call, built from its descriptor."""
    kind, a = query["kind"], query["args"]
    if kind in ("natural_p", "set_dimension_4c", "measure_dimension_4c"):
        sys4 = cfsdim.FourCornerSystem(a["gamma"], a["lambda"])
        if kind == "measure_dimension_4c":
            return (sys4, cfsdim.FourCornerProb(a["p"]))
        return (sys4,)
    if kind == "similarity_dimension":
        return (a["ratios"],)
    sys = cfsdim.CFSystem(a["fixed_points"], a["ratios"], a.get("mode", "float"))
    if kind == "attractor_dimension":
        return (sys,)
    if kind == "gd_dimension":
        return (sys, a["depth"])
    if kind == "esc_probe":
        return (sys, a["n_max"])
    p = cfsdim.ProbVector(a["p"])
    if kind == "rw_entropy_bruteforce":
        return (sys, p, a["n"])
    return (sys, p)


def validate(cfsdim, query, args):
    """Validation errors of a built query (empty when it is well formed)."""
    kind = query["kind"]
    if kind in ("natural_p", "set_dimension_4c", "measure_dimension_4c"):
        rep = cfsdim.validate_4c(args[0])
        return rep["open_set_violations"]
    if kind == "similarity_dimension":
        return [] if all(0 < r < 1 for r in args[0]) else ["ratio out of (0,1)"]
    errs = cfsdim.validate_system(args[0])
    if len(args) > 1 and isinstance(args[1], cfsdim.ProbVector):
        errs += cfsdim.validate_probabilities(args[0], args[1])
    return errs


def build_all(cfsdim, pool):
    """Built args per (slot, variant); raises ValueError on an invalid query."""
    built = {}
    for s, slot in enumerate(pool):
        for v, query in enumerate(slot["variants"]):
            if query["kind"] == "cli":
                continue
            args = build(cfsdim, query)
            errs = validate(cfsdim, query, args)
            if errs:
                raise ValueError(f"slot {s} variant {v}: {'; '.join(errs)}")
            built[(s, v)] = args
    return built


def summarise(kind, res):
    """The numbers of a library result that the checker and the record use."""
    if kind == "measure_dimension":
        d = res.diagnostics
        return {"dimension": res.dimension, "phi": d.get("phi", 0.0),
                "phi_tail_bound": d.get("phi_tail_bound", 0.0)}
    if kind in ("rw_entropy_closed", "rw_entropy_bruteforce"):
        out = {"value": res.value}
        if kind == "rw_entropy_bruteforce":
            out["last_increment"] = res.increments[-1]
        return out
    if kind in ("phi_lower_bound", "similarity_dimension", "gd_dimension"):
        return {"value": res}
    if kind == "measure_dimension_4c":
        d = res.diagnostics
        return {"dimension": res.dimension, "case": d.get("case"),
                "phi_x": d.get("phi_x"), "phi_y": d.get("phi_y")}
    if kind == "attractor_dimension":
        return {"raw": res.raw, "dimension": res.dimension}
    if kind == "natural_p":
        prob, s = res
        return {"s": s, "p": list(prob.p)}
    if kind == "set_dimension_4c":
        return {"dimension": res.dimension,
                "certified": res.diagnostics.get("certified")}
    if kind == "esc_probe":
        return probe_answer(res.to_json_dict())
    raise KeyError(kind)


def probe_answer(d):
    """Probe JSON (library or CLI) reduced to what the checker compares."""
    return {"verdict": d["verdict"],
            "rows": [{"depth": r["depth"], "class_count": r["class_count"],
                      "min_gap": r["min_gap"], "exact_zero": r["exact_zero"],
                      "witness_words": r["witness_words"]} for r in d["rows"]]}
