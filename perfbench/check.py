"""Answer checker: compares an answer record with the stored reference.

``check(query, answer)`` returns None when the answer is right, else a
one-line reason.  Tolerances are fixed here, stated once, and never depend
on the library's own claims except that a reported error bound must cover
the actual error.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import oracles

TOL_PHI = 1e-10        # the tolerance the benchmark asks the Phi series for
TOL_DIM = 1e-9         # dimensions derived from Phi or from a root
TOL_ROOT = 1e-10       # roots the library brackets to 1e-12
TOL_GD = 1e-9          # graph-directed roots (bisection tolerance 1e-10)
TOL_DP = 1e-9          # H_n / n from the signature DP
ROUNDING = 1e-12       # float rounding a reported tail bound need not cover
GAP_RTOL = 1e-9        # float-mode probe gaps against exact arithmetic


def _far(x, ref, tol):
    return x is None or not math.isfinite(x) or abs(x - ref) > tol


def _phi_with_bound(phi, bound, ref):
    err = abs(phi - ref)
    if err > TOL_PHI:
        return f"phi off by {err:.3g}"
    if bound is not None and err > bound + ROUNDING:
        return f"phi error {err:.3g} exceeds reported bound {bound:.3g}"
    return None


def check(query, ans):
    kind, ref = query["kind"], query["ref"]
    fn = CHECKS["cli" if kind == "cli" else kind]
    return fn(query, ref, ans)


def _measure(q, ref, ans):
    if _far(ans["dimension"], ref["dimension"], TOL_DIM):
        return f"dimension {ans['dimension']!r} != {ref['dimension']!r}"
    return _phi_with_bound(ans["phi"], ans.get("phi_tail_bound"), ref["phi"])


def _value(tol):
    def fn(q, ref, ans):
        if _far(ans["value"], ref["value"], tol):
            return f"value {ans['value']!r} != {ref['value']!r}"
        return None
    return fn


def _lower_bound(q, ref, ans):
    if _far(ans["value"], ref["value"], ROUNDING):
        return f"bound {ans['value']!r} != {ref['value']!r}"
    if ans["value"] > ref["phi"] + ROUNDING:
        return "Jensen bound above Phi"
    return None


def _fourcorner(q, ref, ans):
    if ans["case"] != ref["case"]:
        return f"case {ans['case']} != {ref['case']}"
    for key in ("phi_x", "phi_y"):
        if _far(ans[key], ref[key], TOL_PHI):
            return f"{key} {ans[key]!r} != {ref[key]!r}"
    if _far(ans["dimension"], ref["dimension"], TOL_DIM):
        return f"dimension {ans['dimension']!r} != {ref['dimension']!r}"
    return None


def _attractor(q, ref, ans):
    if _far(ans["raw"], ref["raw"], TOL_ROOT):
        return f"root {ans['raw']!r} != {ref['raw']!r}"
    if ans["dimension"] != min(1.0, ans["raw"]):
        return "dimension is not min(1, root)"
    return None


def _natural(q, ref, ans):
    if _far(ans["s"], ref["s"], TOL_ROOT):
        return f"s {ans['s']!r} != {ref['s']!r}"
    if max(abs(a - b) for a, b in zip(ans["p"], ref["p"])) > TOL_DIM:
        return "natural weights differ"
    return None


def _set4c(q, ref, ans):
    if _far(ans["dimension"], ref["dimension"], TOL_ROOT):
        return f"dimension {ans['dimension']!r} != {ref['dimension']!r}"
    if ans["certified"] != ref["certified"]:
        return f"certified {ans['certified']} != {ref['certified']}"
    return None


def _dp(q, ref, ans):
    if _far(ans["value"], ref["value"], TOL_DP):
        return f"H_n/n {ans['value']!r} != {ref['value']!r}"
    if _far(ans["last_increment"], ref["last_increment"], 10 * TOL_DP):
        return "last increment differs"
    return None


def _witness_gap(args, words, exact):
    """Recompose both witness words map by map; return (equal products,
    distinct signatures, gap)."""
    fps = [Fraction(t) for t in args["fixed_points"]]
    rs = [[Fraction(l) for l in row] for row in args["ratios"]]
    w1, w2 = (tuple(tuple(s) for s in w) for w in words)
    (r1, c1), (r2, c2) = (oracles.word_map(fps, rs, w) for w in (w1, w2))
    if exact:
        same = r1 == r2
    else:
        same = sorted(w1) == sorted(w2)      # float mode buckets by count vector
    return same, oracles.signature(w1) != oracles.signature(w2), abs(c2 - c1)


def _probe(q, ref, ans):
    args = q["args"]
    exact = args["mode"] == "rational"
    if ans["verdict"] != ref["verdict"]:
        return f"verdict {ans['verdict']} != {ref['verdict']}"
    if len(ans["rows"]) != len(ref["rows"]):
        return "row count differs"
    for row, want in zip(ans["rows"], ref["rows"]):
        n = want["depth"]
        if row["class_count"] != want["class_count"]:
            return f"n={n}: {row['class_count']} classes, want {want['class_count']}"
        if row["exact_zero"] != want["exact_zero"]:
            return f"n={n}: exact_zero {row['exact_zero']}"
        gap, ref_gap = row["min_gap"], want["min_gap"]
        if (gap is None) != (ref_gap is None):
            return f"n={n}: min gap {gap!r}, want {ref_gap!r}"
        if gap is None:
            continue
        if abs(gap - ref_gap) > GAP_RTOL * ref_gap + (0.0 if exact else 1e-15):
            return f"n={n}: min gap {gap!r}, want {ref_gap!r}"
        same, distinct, wgap = _witness_gap(args, row["witness_words"], exact)
        if not (same and distinct):
            return f"n={n}: witnesses are not a same-bucket pair of classes"
        if abs(float(wgap) - gap) > GAP_RTOL * gap + (0.0 if exact else 1e-15):
            return f"n={n}: witness gap {float(wgap)!r} != reported {gap!r}"
    return None


# --- CLI commands -------------------------------------------------------------

def _cli_measure(ref, out, files):
    return _measure(None, ref, {"dimension": out["dimension"],
                                "phi": out["diagnostics"]["phi"],
                                "phi_tail_bound": out["diagnostics"]["phi_tail_bound"]})


def _cli_attractor(ref, out, files):
    if _far(out["raw"], ref["raw"], TOL_ROOT):
        return f"root {out['raw']!r} != {ref['raw']!r}"
    for d, (s, want) in enumerate(zip(out["gd_sequence"], ref["gd_sequence"]), 1):
        if _far(s, want, TOL_GD):
            return f"s_{d} {s!r} != {want!r}"
    if abs(out["box_fit"]["slope"] - ref["box_dimension"]) > 0.05:
        return f"box slope {out['box_fit']['slope']:.4f} != {ref['box_dimension']:.4f}"
    return None


def _cli_phi(ref, out, files):
    s = out["series"]
    bad = _phi_with_bound(s["value"], s["tail_bound"], ref["phi"])
    if bad:
        return bad
    if _far(out["lower_bound"], ref["lower_bound"], ROUNDING):
        return "Jensen bound differs"
    mc = out["monte_carlo"]
    if abs(mc["value"] - ref["phi"]) > 5 * mc["stderr"]:
        return f"Monte-Carlo {mc['value']:.6f} beyond 5 stderr of {ref['phi']:.6f}"
    return None


def _cli_rw(ref, out, files):
    if _far(out["closed_form"]["value"], ref["closed"], TOL_PHI):
        return "closed form differs"
    if _far(out["brute_force"]["value"], ref["value"], TOL_DP):
        return f"H_n/n {out['brute_force']['value']!r} != {ref['value']!r}"
    return None


def _cli_probe(ref, out, files):
    bad = _probe({"args": ref["args"]}, ref, out)
    if bad:
        return bad
    lines = files.get("probe.csv", "").splitlines()
    if len(lines) != len(ref["rows"]) + 1 or lines[0] != "n,min_gap,implied_b":
        return "probe CSV malformed"
    for line, row in zip(lines[1:], out["rows"]):
        n, gap, _ = line.split(",")
        if int(n) != row["depth"] or float(gap) != row["min_gap"]:
            return "probe CSV disagrees with the JSON"
    return None


def _cli_fourcorner(ref, out, files):
    if _far(out["s"], ref["s"], TOL_ROOT):
        return f"s {out['s']!r} != {ref['s']!r}"
    if max(abs(a - b) for a, b in zip(out["natural_p"], ref["natural_p"])) > TOL_DIM:
        return "natural weights differ"
    sd = out["set_dimension"]
    if _far(sd["dimension"], ref["set_dimension"], TOL_ROOT):
        return "set dimension differs"
    if sd["diagnostics"]["certified"] != ref["certified"]:
        return "certification differs"
    md = out["measure_dimension"]
    if md["diagnostics"]["case"] != ref["case"]:
        return "measure case differs"
    if _far(md["dimension"], ref["measure_dimension"], TOL_DIM):
        return "measure dimension differs"
    return None


def _cli_render(ref, out, files):
    data = files.get("attractor.ppm", b"")
    size = ref["size"]
    header = f"P6\n{size} {size}\n255\n".encode()
    if not data.startswith(header) or len(data) != len(header) + 3 * size * size:
        return "PPM header or size wrong"
    img = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(size, size, 3)
    rows, cols = np.nonzero(img[:, :, 0] == 0)
    if rows.size < 1000:
        return f"only {rows.size} black pixels"
    # every black pixel must touch a depth-3 cylinder of the attractor
    rects = oracles.cylinders(ref["gamma"], ref["lambda"], 3)
    x0, x1 = cols / size, (cols + 1) / size
    y0, y1 = 1.0 - (rows + 1) / size, 1.0 - rows / size
    touch = np.zeros(rows.size, dtype=bool)
    for rx, ry, w, h in rects:
        touch |= (x1 >= rx) & (x0 <= rx + w) & (y1 >= ry) & (y0 <= ry + h)
    if not touch.all():
        return f"{int((~touch).sum())} pixels outside the attractor"
    return None


def _cli_estimate(ref, out, files):
    if abs(out["slope"] - ref["dimension"]) > ref["slope_tol"]:
        return f"slope {out['slope']:.4f} far from dimension {ref['dimension']:.4f}"
    return None


CLI = {"measure-dim": _cli_measure, "measure-dim-json": _cli_measure,
       "attractor-dim": _cli_attractor, "phi": _cli_phi, "rw-entropy": _cli_rw,
       "rw-entropy-200": _cli_rw, "esc-probe": _cli_probe,
       "fourcorner": _cli_fourcorner, "render": _cli_render,
       "estimate-box1d": _cli_estimate, "estimate-entropy": _cli_estimate}


def _cli(q, ref, ans):
    """``ans`` holds the command's stdout and the files it wrote."""
    try:
        out = json.loads(ans["stdout"])
    except ValueError:
        return "stdout is not JSON"
    try:
        return CLI[q["name"]](ref, out, ans.get("files", {}))
    except (KeyError, TypeError, ValueError) as exc:
        return f"output malformed: {exc!r}"


CHECKS = {
    "measure_dimension": _measure,
    "rw_entropy_closed": _value(TOL_PHI),
    "phi_lower_bound": _lower_bound,
    "measure_dimension_4c": _fourcorner,
    "attractor_dimension": _attractor,
    "similarity_dimension": _value(TOL_ROOT),
    "gd_dimension": _value(TOL_GD),
    "natural_p": _natural,
    "set_dimension_4c": _set4c,
    "esc_probe": _probe,
    "rw_entropy_bruteforce": _dp,
    "cli": _cli,
}
