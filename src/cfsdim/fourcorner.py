"""Dimensions and cylinder picture of the generalised 4-corner system
(``ifs.FourCornerSystem``: four affine maps at the unit square's corners).

Both coordinate projections are common-fixed-point systems on the line
(x: maps 1,2 fixed at 0 and 3,4 at 1; y: maps 1,3 at 0 and 2,4 at 1).  The
measure dimension combines their two line measure-dimension reports by the
Ledrappier-Young rule, in four cases.
"""

from __future__ import annotations

import math

from .dimension import DimensionReport, _root, measure_dimension
from .ifs import (BudgetExceeded, CFSystem, FourCornerProb, FourCornerSystem,
                  ValidationError, _total, validate_4c)

# The SVG holds only the 4**(d-1) rectangles of its last level but one, at
# about 220 B each, and writes the last as it forms it: about 14 MB traced
# (33 MB resident) and a 28 MB file at the cap, which bounds the file and
# the time
CYLINDER_CAP = 4**9


def _open_set_report(sys: FourCornerSystem) -> dict:
    """validate_4c's report of ``sys``; raises ValidationError naming the
    violated rectangular open-set inequalities, if any."""
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ValidationError("; ".join(rep["open_set_violations"]))
    return rep


def measure_dimension_4c(sys: FourCornerSystem, p: FourCornerProb,
                         tol: float = 1e-12) -> DimensionReport:
    """Four-case self-affine measure dimension on the 4-corner set, from
    measure_dimension's reports of the two projections at the regrouped
    weights, each on {0, 1} with its coordinate's ratio rows.  h is the x
    report's, as the y report sums it in another order.  Ledrappier-Young:
    the less contracted coordinate a carries the projection's dimension,
    (h + Phi_a)/chi_a when chi_a >= h + Phi_a and 1 otherwise; the other
    coordinate b carries the entropy left over, at rate chi_b.
    """
    _open_set_report(sys)
    x, y = (measure_dimension(CFSystem([0.0, 1.0], rows), q, tol).diagnostics
            for rows, q in ((sys.gamma, p.x_grouping()),
                            (sys.lam, p.y_grouping())))
    h = x["entropy"]
    a, diag_a, diag_b = (("x", x, y) if y["lyapunov"] >= x["lyapunov"]
                         else ("y", y, x))
    chi_a, phi_a = diag_a["lyapunov"], diag_a["phi"]
    case = a + ("-saturating" if chi_a >= h + phi_a else "-overflow")
    dim_a = min(1.0, (h + phi_a) / chi_a)    # 1 exactly when it overflows
    raw = dim_a + (h - chi_a * dim_a) / diag_b["lyapunov"]
    return DimensionReport(
        dimension=min(2.0, max(0.0, raw)), raw=raw, method="4corner-case",
        tolerance=tol,
        diagnostics={"case": case, "entropy": h, "chi_x": x["lyapunov"],
                     "chi_y": y["lyapunov"], "phi_x": x["phi"],
                     "phi_y": y["phi"],
                     "phi_x_tail_bound": x["phi_tail_bound"],
                     "phi_y_tail_bound": y["phi_tail_bound"]})


def _natural_root(sys: FourCornerSystem, tol: float) -> tuple:
    """(FourCornerProb, (s, bracket, evaluations)): the affinity-natural
    weights p_i = gamma_i * lambda_i^{s-1} and _root's report of s, the root
    of their sum = 1.  The excess sum - 1 strictly decreases in s towards
    -1, so a root exists, and is positive, exactly when the excess at 0 is
    positive; _root brackets it from 0 by doubling.  Below s = 1 a term is
    gamma_i / lambda_i^{1-s}: the power of a base in (0, 1) to an exponent
    in [0, 1] stays in the doubles, and the quotient goes to +inf past
    them.  A power below the normals has lost digits, so there the term
    divides twice by the half-power, which is at least sqrt(lambda_i) >
    1e-162."""
    def term(g, l, s):
        if s >= 1.0:
            return g * l ** (s - 1)
        power = l ** (1 - s)
        if power >= 2.0 ** -1022:
            return g / power
        half = l ** ((1 - s) / 2)
        return g / half / half

    def weights(s):
        return [term(g, l, s) for (g, _), (l, _) in sys.maps()]

    def excess(s):
        return _total(weights(s)) - 1.0

    if excess(0.0) <= 0.0:
        raise ValidationError("the natural-weight equation has no positive "
                              "root: sum gamma_i / lambda_i <= 1")
    root = _root(excess, 0.0, 1.0, tol)
    w = weights(root[0])
    total = _total(w)
    return FourCornerProb(tuple(v / total for v in w)), root


def natural_p(sys: FourCornerSystem, tol: float = 1e-14) -> tuple:
    """(FourCornerProb, s): the affinity-natural weights and their root s
    (_natural_root); ValidationError when s would not be positive."""
    prob, (s, _, _) = _natural_root(sys, tol)
    return prob, s


def _suff_value(sys: FourCornerSystem, p: FourCornerProb) -> float:
    """The sufficiency expression sum_i p_i log((1 - p_j) gamma_i / p_i) at
    the natural weights p, through lambda_i^{s-1} = p_i / gamma_i, where j
    is the other map of i's column.  A term is 0 at p_i = 0, its limit;
    else it sums the logs, 1 - p_j as the fsum of the other weights, so no
    quotient leaves the doubles."""
    g, p = sum(sys.gamma, ()), p.p

    def term(i, j):
        if p[i] == 0.0:
            return 0.0
        return p[i] * (math.log(math.fsum(p[:j] + p[j + 1:]))
                       + (math.log(g[i]) - math.log(p[i])))

    return term(0, 1) + term(1, 0) + term(2, 3) + term(3, 2)


def set_dimension_4c(sys: FourCornerSystem, tol: float = 1e-12) -> DimensionReport:
    """Hausdorff dimension s of the generalised 4-corner set when the open
    set, domination, and sufficiency conditions all hold.  Where only
    sufficiency fails, s is an upper bound only; where domination fails, s
    bounds nothing, as a Bernoulli measure's measure_dimension_4c can exceed
    it.  Either is flagged in a note.  The sufficiency expression is
    evaluated at the reported s; diagnostics carry the final bracket of s
    and the evaluations it took."""
    rep = _open_set_report(sys)
    prob, (s, bracket, evaluations) = _natural_root(sys, tol)
    value = _suff_value(sys, prob)
    diagnostics = {"conditions": rep, "s": s, "natural_p": list(prob.p),
                   "bracket": list(bracket), "evaluations": evaluations,
                   "suff_value": value,
                   "certified": rep["domination_ok"] and value > 0.0}
    if not rep["domination_ok"]:
        diagnostics["note"] = "domination fails: s bounds nothing"
    elif value <= 0.0:
        diagnostics["note"] = "sufficiency fails: s is an upper bound only"
    return DimensionReport(dimension=min(2.0, s), raw=s, method="4corner-set",
                           tolerance=tol, diagnostics=diagnostics)


def _images(maps, rects):
    """The (x0, y0, w, h) images of ``rects`` under each map in turn."""
    return ((rx * x0 + cx, ry * y0 + cy, rx * w, ry * h)
            for (rx, cx), (ry, cy) in maps for x0, y0, w, h in rects)


def _cylinders(sys: FourCornerSystem, depth: int):
    """Depth-d images of the unit square as (x0, y0, w, h) rectangles;
    depth 0 is the unit square itself.  The depth is checked on the call;
    the levels before d are built as lists, and the iterator returned forms
    the last level as it is read."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    if 4 ** min(depth, 64) > CYLINDER_CAP:     # no huge int for a huge depth
        raise BudgetExceeded(f"depth {depth} needs 4**{depth} rectangles, "
                             f"cap {CYLINDER_CAP}")
    maps = sys.maps()
    rects = [(0.0, 0.0, 1.0, 1.0)]
    for _ in range(depth - 1):
        rects = list(_images(maps, rects))
    return _images(maps, rects) if depth else iter(rects)


def render_cylinders_svg(sys: FourCornerSystem, depth: int, out_path: str,
                         size: int = 600) -> None:
    """SVG of all depth-d cylinder rectangles (y axis flipped to screen),
    each line written as its rectangle is formed."""
    rects = _cylinders(sys, depth)
    with open(out_path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
                 f'<rect x="0" y="0" width="{size}" height="{size}" '
                 f'fill="white"/>\n')
        fh.writelines(
            f'<rect x="{x0 * size:.4f}" y="{(1.0 - y0 - h) * size:.4f}" '
            f'width="{w * size:.4f}" height="{h * size:.4f}" fill="none" '
            f'stroke="black" stroke-width="1"/>\n'
            for x0, y0, w, h in rects)
        fh.write("</svg>\n")
