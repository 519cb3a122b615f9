"""Build the stored query pools and their reference answers.

    python3 perfbench/make_refs.py [workload ...]

Writes ``perfbench/data/<workload>.json``.  Each pool is a list of slots; a
slot fixes the properties that set a query's cost (function, group mass,
group sizes, depth) and holds several variants that differ in the rest
(in-group splits, light groups, fixed points, ratios).  A run's seed picks
one variant per slot per pass, so every seed does the same amount of work
on different inputs.  References come from ``oracles`` only; this script
never imports ``cfsdim``.  It runs once; the pools are committed.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
POOL_SEED = 20250708
VARIANTS = 8

TWO_GROUP_OVERLAP = ([0.0, 1.0], [[0.3, 0.2], [0.25]])
RATIONAL_THREE = (["0", "1"], [["1/2", "1/5"], ["1/7"]])
EXACT_COINCIDENCE = (["0", "1", "1/2"], [["1/2"], ["1/2"], ["1/2"]])
FOUR_CORNER_MAIN = ([[0.8, 0.1], [0.1, 0.8]], [[0.45, 0.09], [0.09, 0.45]])
FOUR_CORNER_S = 1.6430167066350      # the reference point of the 4-corner system

PHI_DEFECT = "phi_series drops underflowed terms and reports a false tail bound (ROADMAP open item 1)"
DP_DEFECT = "rw_entropy_bruteforce overflows in exp(lgamma) at depth >= 171 (ROADMAP open item 5)"
CLI_PROB_DEFECT = "--probabilities JSON list is ignored by the line-system commands (ROADMAP open item 5)"


# --- random pieces -------------------------------------------------------------

def split(rng, mass, members, min_share):
    """``members`` positive weights summing to ``mass``, each at least
    ``min_share`` of it."""
    raw = [rng.random() for _ in range(members)]
    tot = sum(raw)
    free = 1.0 - members * min_share
    return [mass * (min_share + free * r / tot) for r in raw]


def fixed_points(rng, n):
    pts = sorted(rng.sample(range(0, 40), n))
    return [p / 4.0 for p in pts]


def line_ratios(rng, sizes, lo=0.05, hi=0.45):
    return [[round(rng.uniform(lo, hi), 6) for _ in range(m)] for m in sizes]


def normalise(weights):
    """Round to 12 digits and put the rounding residue on the largest weight,
    so the total is 1 to within the library's 1e-12 check."""
    flat = [round(w, 12) for row in weights for w in row]
    i = max(range(len(flat)), key=flat.__getitem__)
    flat[i] = round(flat[i] + 1.0 - math.fsum(flat), 15)
    out, k = [], 0
    for row in weights:
        out.append(flat[k:k + len(row)])
        k += len(row)
    return out


def light_groups(rng, mass_left, cap, count):
    """``count`` one-map groups sharing ``mass_left``, each at most ``cap``."""
    while True:
        raw = [rng.random() + 0.2 for _ in range(count)]
        masses = [mass_left * r / sum(raw) for r in raw]
        if max(masses) <= cap:
            return [[m] for m in masses]


# --- measure -------------------------------------------------------------------

def line_query(rng, kind, mass, members, min_share, zero=False, groups=3):
    """A float line system of ``groups`` groups (more if ``mass`` needs them)
    whose heaviest group has ``mass`` over ``members``; ``min_share`` None
    means one member carries 97-99% of the group.  The other groups have one
    map each, so only the heavy group costs Phi work, and the group count is
    fixed per slot because the library splits its tolerance over the groups,
    which moves the series depth: every variant of a slot costs the same."""
    need = max(2, math.ceil(1.0 / mass - 1e-9))
    n_groups = max(need, groups)
    if min_share is None:
        small = rng.uniform(0.01, 0.03)
        heavy = [mass * (1.0 - small), mass * small]
    else:
        heavy = split(rng, mass, members, min_share)
    rest = light_groups(rng, 1.0 - mass, min(mass, 0.9), n_groups - 1)
    weights = [heavy] + rest
    if zero:
        weights[0] = weights[0] + [0.0]
    pos = rng.randrange(n_groups)
    weights.insert(pos, weights.pop(0))
    weights = normalise(weights)
    sizes = [len(r) for r in weights]
    return {"kind": kind, "args": {"fixed_points": fixed_points(rng, n_groups),
                                   "ratios": line_ratios(rng, sizes),
                                   "p": weights}}


def ref_line(q):
    a = q["args"]
    kind = q["kind"]
    if kind == "measure_dimension":
        dim, ph = oracles.measure_dimension(a["ratios"], a["p"])
        return {"dimension": dim, "phi": ph}
    if kind == "rw_entropy_closed":
        return {"value": oracles.rw_entropy_closed(a["p"])}
    return {"value": oracles.phi_lower_bound(a["p"]), "phi": oracles.phi(a["p"])}


def four_corner_system(rng):
    while True:
        g = [[rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)] for _ in range(2)]
        l = [[rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)] for _ in range(2)]
        g = [[round(v, 6) for v in r] for r in g]
        l = [[round(v, 6) for v in r] for r in l]
        # every pair sum below 1 keeps all open-set inequalities strict
        if all(a + b <= 0.95 for grid in (g, l)
               for a, b in ((grid[0][0], grid[1][0]), (grid[0][1], grid[1][1]),
                            (grid[0][1], grid[1][0]), (grid[0][0], grid[1][1]))):
            return g, l


def four_corner_query(rng, which):
    while True:
        g, l = four_corner_system(rng)
        if which == "uniform":
            p = [0.25] * 4
        elif which == "natural":
            try:
                p, _ = oracles.natural_p(g, l)
            except ValueError:      # no natural root on [0.5, 3]
                continue
        else:
            p = split(rng, 1.0, 4, 0.05)
        p = normalise([p])[0]
        if min(p) < 0.02 or max(p[0] + p[1], p[2] + p[3], p[0] + p[2], p[1] + p[3]) > 0.8:
            continue
        if oracles.case_margin_4c(g, l, p) > 1e-4:
            return {"kind": "measure_dimension_4c",
                    "args": {"gamma": g, "lambda": l, "p": p, "which": which}}


def ref_4c(q):
    a = q["args"]
    dim, case, px, py = oracles.measure_dimension_4c(a["gamma"], a["lambda"], a["p"])
    return {"dimension": dim, "case": case, "phi_x": px, "phi_y": py}


def measure_pool(rng):
    slots = []
    two = ("measure_dimension", "rw_entropy_closed")
    # Cost tiers, cheapest first.  The median and the 90th percentile each
    # fall inside a block of identical slots (tiers B and D), not on a step
    # between two slot costs, so they do not jump with the variants drawn.
    # A (43): Jensen bounds, one-map heavy groups, masses 0.30-0.42, the
    # 0.5 sweep point and the no-overlap systems (one map per group, Phi = 0)
    for i in range(16):
        slots.append({"make": (line_query, "phi_lower_bound", round(0.30 + 0.6 * i / 15, 3),
                               1 + i % 3, 0.15, i % 5 == 2, 2 + i % 3)})
    for i in range(10):
        slots.append({"make": (line_query, two[i % 2], round(0.30 + 0.63 * i / 9, 3),
                               1, 0.15, i % 4 == 1, 2 + i % 3)})
    for i in range(12):
        slots.append({"make": (line_query, two[i % 2], round(0.30 + 0.12 * i / 11, 3),
                               2 + i % 2, 0.15, i % 6 == 3, 2 + i % 3)})
    slots.append({"make": (line_query, "measure_dimension", 0.5, 2, 0.3, False)})
    for i in range(4):
        slots.append({"make": (line_query, two[i % 2], 0.4 + 0.1 * i, 1, 0.15,
                               False, 2 + i % 3)})
    # B (14): the median block
    for i in range(14):
        slots.append({"make": (line_query, two[i % 2], 0.65, 2, 0.3, False)})
    # C (24): 4-corner at uniform, natural and seeded weights; masses 0.72-0.82
    for i in range(16):
        slots.append({"make4c": ("uniform", "natural", "seeded")[i % 3]})
    for i in range(8):
        slots.append({"make": (line_query, two[i % 2], round(0.72 + 0.1 * i / 7, 3),
                               2 + i % 2, 0.15, i % 4 == 2, 2 + i % 3)})
    # D (12): the 90th-percentile block
    for i in range(12):
        slots.append({"make": (line_query, two[i % 2], 0.88, 2, 0.3, False)})
    # E (7): the 0.9 sweep point, skewed in-group splits and the tail
    slots.append({"make": (line_query, "measure_dimension", 0.9, 2, 0.3, False)})
    for mass in (0.91, 0.93):
        slots.append({"make": (line_query, "rw_entropy_closed", mass, 2, None, False, 2)})
        slots[-1]["skew"] = True
    # tail, group mass >= 0.95: the two named cases on two_group_overlap
    # plus seeded tail systems
    for weights in ([[0.9, 0.05], [0.05]], [[0.495, 0.495], [0.01]]):
        fps, ratios = TWO_GROUP_OVERLAP
        slots.append({"fixed": {"kind": "measure_dimension",
                                "args": {"fixed_points": fps, "ratios": ratios,
                                         "p": weights}}})
    slots.append({"make": (line_query, "measure_dimension", 0.95, 2, 0.3, False)})
    # an even split keeps every variant on the same side of the underflow
    slots.append({"make": (line_query, "rw_entropy_closed", 0.97, 2, 0.5, False)})
    out = []
    for slot in slots:
        variants = []
        if "fixed" in slot:
            variants.append(slot["fixed"])
        for _ in range(VARIANTS if "fixed" not in slot else 0):
            if "make4c" in slot:
                variants.append(four_corner_query(rng, slot["make4c"]))
            else:
                fn, *args = slot["make"]
                variants.append(fn(rng, *args))
        for v in variants:
            v["ref"] = ref_4c(v) if v["kind"] == "measure_dimension_4c" else ref_line(v)
            v["mass"] = max((math.fsum(r) for r in v["args"]["p"]), default=0.0) \
                if v["kind"] != "measure_dimension_4c" else None
        tail = variants[0]["mass"] is not None and (
            variants[0]["mass"] >= 0.95 - 1e-12 or slot.get("skew"))
        out.append({"variants": variants,
                    "known_defect": PHI_DEFECT if tail else None})
    return out


# --- attractor -----------------------------------------------------------------

def ratio_class(rng, cls, sizes):
    if cls == "tiny":
        return [[round(10 ** rng.uniform(-4, -2), 8) for _ in range(m)] for m in sizes]
    if cls == "mid":
        return line_ratios(rng, sizes, 0.05, 0.4)
    # near dimension 1: scale a draw so that its similarity dimension is ~0.95
    raw = line_ratios(rng, sizes, 0.2, 1.0)
    flat = [r for row in raw for r in row]
    target = rng.uniform(0.9, 0.99)
    lo, hi = 1e-6, 1.0
    for _ in range(60):
        c = 0.5 * (lo + hi)
        if sum((c * r) ** target for r in flat) > 1.0:
            hi = c
        else:
            lo = c
    return [[round(lo * r, 8) for r in row] for row in raw]


def attractor_query(rng, kind, n_groups, members, cls, depth=None):
    sizes = [members] + [rng.randint(1, 4) for _ in range(n_groups - 1)]
    if kind == "similarity_dimension":
        sizes = [members] + [1] * (n_groups - 1)
    ratios = ratio_class(rng, cls, sizes)
    args = {"fixed_points": fixed_points(rng, n_groups), "ratios": ratios}
    if kind == "gd_dimension":
        args["depth"] = depth
        ref = {"value": oracles.gd_root(ratios, depth)}
    elif kind == "attractor_dimension":
        ref = {"raw": oracles.attractor_root(ratios)}
    else:
        args = {"ratios": [r for row in ratios for r in row]}
        ref = {"value": oracles.similarity_root(args["ratios"])}
    return {"kind": kind, "args": args, "ref": ref}


def four_corner_set_query(rng, kind, fixed=None):
    g, l = fixed or four_corner_system(rng)
    if kind == "natural_p":
        p, s = oracles.natural_p(g, l)
        ref = {"s": s, "p": p}
    else:
        dim, certified = oracles.set_dimension_4c(g, l)
        ref = {"dimension": dim, "certified": certified}
    return {"kind": kind, "args": {"gamma": g, "lambda": l}, "ref": ref}


def attractor_pool(rng):
    classes = ("tiny", "mid", "near1")
    slots = []
    for i in range(12):
        slots.append((attractor_query, "attractor_dimension", 2 + i % 5, 1 + i % 4,
                      classes[i % 3]))
    for i in range(8):
        slots.append((attractor_query, "similarity_dimension", 2 + i % 3, 1 + i % 4,
                      classes[i % 3]))
    for i in range(5):
        slots.append((four_corner_set_query, "natural_p"))
        slots.append((four_corner_set_query, "set_dimension_4c"))
    depths = list(range(1, 21)) + [None]
    i = 0
    for n_groups, count in ((2, 25), (3, 20), (4, 12), (5, 8), (6, 5)):
        for _ in range(count):
            slots.append((attractor_query, "gd_dimension", n_groups, 1 + i % 4,
                          classes[i % 3], depths[i % len(depths)]))
            i += 1
    out = []
    for fn, *args in slots:
        variants = [fn(rng, *args) for _ in range(VARIANTS)]
        out.append({"variants": variants, "known_defect": None})
    # the 4-corner reference point rides in one set-dimension slot
    main = four_corner_set_query(rng, "set_dimension_4c", FOUR_CORNER_MAIN)
    assert abs(main["ref"]["dimension"] - FOUR_CORNER_S) < 1e-12, main
    out.append({"variants": [main], "known_defect": None})
    return out


# --- exact ---------------------------------------------------------------------

RATIONALS = ["1/2", "1/3", "1/4", "1/5", "1/6", "2/5", "2/7", "3/8", "3/10", "1/7"]


def rational_system(rng, sizes):
    n = len(sizes)
    pts = sorted(rng.sample(range(0, 9), n))
    return ([str(Fraction(p, 4)) for p in pts],
            [[rng.choice(RATIONALS) for _ in range(m)] for m in sizes])


def probe_query(fps, ratios, mode, n_max):
    rows = oracles.probe_rows(fps, ratios, n_max, exact=(mode == "rational"))
    violated = mode == "rational" and any(r["exact_zero"] for r in rows)
    if violated:
        verdict = "violated-with-witness"
    elif any(r["exact_zero"] for r in rows):
        verdict = "indeterminate"
    else:
        verdict = f"consistent-up-to-{n_max}"
    return {"kind": "esc_probe",
            "args": {"fixed_points": fps, "ratios": ratios, "mode": mode,
                     "n_max": n_max},
            "ref": {"rows": rows, "verdict": verdict}}


def dp_query(rng, sizes, n):
    n_groups = len(sizes)
    masses = split(rng, 1.0, n_groups, 0.15)
    weights = normalise([split(rng, m, k, 0.1) for m, k in zip(masses, sizes)])
    ents = oracles.rw_entropies(weights, n)
    return {"kind": "rw_entropy_bruteforce",
            "args": {"fixed_points": fixed_points(rng, n_groups),
                     "ratios": line_ratios(rng, sizes), "p": weights, "n": n},
            "ref": {"value": ents[-1] / n, "last_increment": ents[-1] - ents[-2]}}


def exact_pool(rng):
    """Cost tiers as in the measure pool: 20 cheap queries, a median block of
    ten depth-60 DPs, 13 mid-cost probes and DPs, a 90th-percentile block of
    six depth-170/200 DPs, and the depth-9 probe on top."""
    out = []

    def fixed(fps, ratios, mode, n_max):
        out.append({"variants": [probe_query(fps, ratios, mode, n_max)],
                    "known_defect": None})

    def seeded_probe(sizes, n_max):
        variants = [probe_query(*rational_system(rng, sizes), "rational", n_max)
                    for _ in range(VARIANTS)]
        out.append({"variants": variants, "known_defect": None})

    def dp(sizes, n):
        variants = [dp_query(rng, sizes, n) for _ in range(VARIANTS)]
        out.append({"variants": variants,
                    "known_defect": DP_DEFECT if n > 170 else None})

    # cheap
    for sizes in ([2, 1], [1, 1, 1], [3, 1], [2, 2], [2, 1, 1], [1, 3], [1, 1]):
        dp(sizes, 12)
    for n_max in (3, 4, 5):
        fixed(*RATIONAL_THREE, "rational", n_max)
        fixed(*EXACT_COINCIDENCE, "rational", n_max)
    for n_max in (4, 5, 6):
        fixed(*TWO_GROUP_OVERLAP, "float", n_max)
    for sizes, n_max in (([2, 1], 4), ([1, 1, 1], 4), ([2, 1], 5), ([1, 2], 5)):
        seeded_probe(sizes, n_max)
    # median block
    for _ in range(10):
        dp([2, 1], 60)
    # mid-cost
    for n_max in (6, 7, 8):
        fixed(*RATIONAL_THREE, "rational", n_max)
    for n_max in (6, 7):
        fixed(*EXACT_COINCIDENCE, "rational", n_max)
    for n_max in (7, 8):
        fixed(*TWO_GROUP_OVERLAP, "float", n_max)
    for sizes, n_max in (([2, 1], 6), ([1, 1, 1], 6), ([2, 2], 5), ([2, 1, 1], 5)):
        seeded_probe(sizes, n_max)
    for sizes in ([3, 1], [2, 2]):
        dp(sizes, 60)
    # 90th-percentile block and top
    for n in (170, 170, 170, 170, 200, 200):
        dp([2, 1], n)
    fixed(*RATIONAL_THREE, "rational", 9)
    counts = [r["class_count"] for r in out[-1]["variants"][0]["ref"]["rows"]]
    assert counts[4] == 377 and counts[6] == 2584, counts
    return out


# --- cli -----------------------------------------------------------------------

def cli_pool(rng):
    """README examples plus the JSON-probability and depth-200 runs.  Paths
    are relative to the repository root; outputs go to the run directory."""
    fps, ratios = TWO_GROUP_OVERLAP
    uniform = [[1 / 3, 1 / 3], [1 / 3]]
    gd = [oracles.gd_root([[1 / 3, 1 / 3], [1 / 3]], d) for d in range(1, 11)]
    all_third = oracles.attractor_root([[1 / 3, 1 / 3], [1 / 3]])
    two_dim, two_phi = oracles.measure_dimension(ratios, uniform)
    ents = oracles.rw_entropies(uniform, 12)
    p_nat, s_nat = oracles.natural_p(*FOUR_CORNER_MAIN)
    assert abs(s_nat - FOUR_CORNER_S) < 1e-12, s_nat
    set_dim, certified = oracles.set_dimension_4c(*FOUR_CORNER_MAIN)
    md4c, case, _, _ = oracles.measure_dimension_4c(*FOUR_CORNER_MAIN, p_nat)
    probe = probe_query(*RATIONAL_THREE, "rational", 8)
    probe = dict(probe["ref"], args=probe["args"])
    c = "configs/"
    cmds = [
        {"name": "measure-dim",
         "argv": ["measure-dim", c + "two_group_overlap.json", "--probabilities", "uniform"],
         "ref": {"dimension": two_dim, "phi": two_phi}},
        {"name": "attractor-dim",
         "argv": ["attractor-dim", c + "all_third.json", "--gd-depth", "10", "--box", "16"],
         # the two group-1 maps coincide, so the set is the middle-thirds
         # Cantor set and box counting must find log 2 / log 3
         "ref": {"raw": all_third, "gd_sequence": gd,
                 "box_dimension": math.log(2) / math.log(3)}},
        {"name": "phi",
         "argv": ["phi", c + "two_group_overlap.json", "--mc-samples", "1000000", "--seed", "7"],
         "ref": {"phi": two_phi, "lower_bound": oracles.phi_lower_bound(uniform)}},
        {"name": "rw-entropy",
         "argv": ["rw-entropy", c + "two_group_overlap.json", "--depth", "12"],
         "ref": {"closed": oracles.rw_entropy_closed(uniform), "value": ents[-1] / 12}},
        {"name": "esc-probe",
         "argv": ["esc-probe", c + "rational_three_symbol.json", "--n-max", "8",
                  "--csv", "{run}/probe.csv"],
         "ref": probe},
        {"name": "fourcorner",
         "argv": ["fourcorner", c + "four_corner_main.json", "--probabilities", "natural"],
         "ref": {"s": s_nat, "natural_p": p_nat, "set_dimension": set_dim,
                 "certified": certified, "measure_dimension": md4c, "case": case}},
        {"name": "render",
         "argv": ["render", c + "four_corner_main.json", "--mode", "attractor",
                  "--points", "1000000", "--seed", "0", "--out", "{run}/attractor.ppm"],
         "ref": {"gamma": FOUR_CORNER_MAIN[0], "lambda": FOUR_CORNER_MAIN[1],
                 "size": 600}},
        {"name": "estimate-box1d",
         "argv": ["estimate", c + "cantor_quarter.json", "--kind", "box1d",
                  "--m-lo", "6", "--m-hi", "16"],
         "ref": {"dimension": 0.5, "slope_tol": 0.05}},
        {"name": "estimate-entropy",
         "argv": ["estimate", c + "two_group_overlap.json", "--kind", "entropy",
                  "--m-lo", "4", "--m-hi", "12"],
         "ref": {"dimension": two_dim, "slope_tol": 0.05}},
        {"name": "rw-entropy-200",
         "argv": ["rw-entropy", c + "two_group_overlap.json", "--depth", "200"],
         "ref": {"closed": oracles.rw_entropy_closed(uniform),
                 "value": oracles.rw_entropies(uniform, 200)[-1] / 200},
         "known_defect": DP_DEFECT},
    ]
    # measure-dim with an explicit JSON weight list, seeded per variant and
    # kept far from uniform so the ignored-flag defect cannot read as right
    variants = []
    while len(variants) < VARIANTS:
        w = normalise([split(rng, 0.75, 2, 0.2), [0.25]])
        w[1] = [round(1.0 - sum(w[0]), 12)]
        dim, ph = oracles.measure_dimension(ratios, w)
        if abs(dim - two_dim) > 1e-3:
            variants.append({"name": "measure-dim-json",
                             "argv": ["measure-dim", c + "two_group_overlap.json",
                                      "--probabilities", json.dumps(w)],
                             "ref": {"dimension": dim, "phi": ph}})
    out = []
    for cmd in cmds:
        defect = cmd.pop("known_defect", None)
        out.append({"variants": [dict(cmd, kind="cli")], "known_defect": defect})
    for v in variants:
        v["kind"] = "cli"
    out.append({"variants": variants, "known_defect": CLI_PROB_DEFECT})
    return out


POOLS = {"measure": measure_pool, "attractor": attractor_pool,
         "exact": exact_pool, "cli": cli_pool}


def main(argv):
    names = argv or list(POOLS)
    os.makedirs(DATA, exist_ok=True)
    for name in names:
        rng = random.Random(f"{POOL_SEED}-{name}")
        pool = POOLS[name](rng)
        path = os.path.join(DATA, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "pool_seed": POOL_SEED, "slots": pool},
                      fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        n = sum(len(s["variants"]) for s in pool)
        print(f"{name}: {len(pool)} slots, {n} queries -> {os.path.relpath(path)}")


if __name__ == "__main__":
    main(sys.argv[1:])
