"""Dimensions and cylinder picture of the generalised 4-corner system
(``ifs.FourCornerSystem``: four affine maps at the unit square's corners).

Both coordinate projections are common-fixed-point systems on the line
(x: maps 1,2 fixed at 0 and 3,4 at 1; y: maps 1,3 at 0 and 2,4 at 1).  The
measure dimension follows from their Lyapunov exponents and overlap
corrections by the Ledrappier-Young rule, in four cases.
"""

from __future__ import annotations

import math

from .dimension import DimensionReport, _root
from .ifs import (BudgetExceeded, CFSystem, FourCornerProb, FourCornerSystem,
                  ValidationError, _total, validate_4c)

# The SVG holds only the 4**(d-1) rectangles of its last level but one, at
# about 220 B each, and writes the last as it forms it: about 14 MB traced
# (33 MB resident) and a 28 MB file at the cap, which bounds the file and
# the time
CYLINDER_CAP = 4**9


def _projections(sys: FourCornerSystem, p: FourCornerProb) -> tuple:
    """((x system, x weights), (y system, y weights)): each coordinate
    projection is the common-fixed-point line system on {0, 1} whose group
    rows are that coordinate's ratio rows."""
    return ((CFSystem([0.0, 1.0], sys.gamma), p.x_grouping()),
            (CFSystem([0.0, 1.0], sys.lam), p.y_grouping()))


def _open_set_report(sys: FourCornerSystem) -> dict:
    """validate_4c's report of ``sys``; raises ValidationError naming the
    violated rectangular open-set inequalities, if any."""
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ValidationError("; ".join(rep["open_set_violations"]))
    return rep


def measure_dimension_4c(sys: FourCornerSystem, p: FourCornerProb,
                         tol: float = 1e-12) -> DimensionReport:
    """Four-case self-affine measure dimension on the 4-corner set.

    Ledrappier-Young: the less contracted coordinate a carries the
    projection's dimension, (h + Phi_a)/chi_a when chi_a >= h + Phi_a and 1
    otherwise; the other coordinate b carries the entropy left over, at
    rate chi_b.  entropy loads here, not with the cylinder picture.
    """
    from .entropy import lyapunov, phi_series, shannon_entropy
    _open_set_report(sys)
    h = shannon_entropy(p.x_grouping())
    (chi_x, rx), (chi_y, ry) = ((lyapunov(line, q), phi_series(line, q, tol))
                                for line, q in _projections(sys, p))
    phi_x, phi_y = rx.value, ry.value
    if chi_y >= chi_x:
        a, chi_a, phi_a, chi_b = "x", chi_x, phi_x, chi_y
    else:
        a, chi_a, phi_a, chi_b = "y", chi_y, phi_y, chi_x
    case = a + ("-saturating" if chi_a >= h + phi_a else "-overflow")
    dim_a = min(1.0, (h + phi_a) / chi_a)    # 1 exactly when it overflows
    raw = dim_a + (h - chi_a * dim_a) / chi_b
    return DimensionReport(
        dimension=min(2.0, max(0.0, raw)), raw=raw, method="4corner-case",
        tolerance=tol,
        diagnostics={"case": case, "entropy": h, "chi_x": chi_x,
                     "chi_y": chi_y, "phi_x": phi_x, "phi_y": phi_y,
                     "phi_x_tail_bound": rx.tail_bound,
                     "phi_y_tail_bound": ry.tail_bound})


def _natural_root(sys: FourCornerSystem, tol: float) -> tuple:
    """(FourCornerProb, (s, bracket, evaluations)): the affinity-natural
    weights p_i = gamma_i * lambda_i^{s-1} and _root's report of s, the root
    of their sum = 1.  The excess sum - 1 strictly decreases in s towards
    -1, so a root exists, and is positive, exactly when the excess at 0 is
    positive; _root brackets it from 0 by doubling.  A term whose power
    lambda_i^{s-1} leaves the doubles is taken in logs, +inf past them."""
    def term(g, l, s):
        try:
            return g * l ** (s - 1)
        except OverflowError:   # a subnormal lambda_i: e^709 < DBL_MAX
            x = math.log(g) + (s - 1) * math.log(l)
            return math.exp(x) if x < 709.0 else math.inf

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
    is the other map of i's column.  A term is 0 at p_i = 0, its limit, and
    goes through logs when the quotient leaves the doubles, with 1 - p_j
    summed from the other weights."""
    g, p = sum(sys.gamma, ()), p.p

    def term(i, j):
        if p[i] == 0.0:
            return 0.0
        x = (1.0 - p[j]) * g[i] / p[i]
        return p[i] * (math.log(x) if 0.0 < x < math.inf else math.log(
            math.fsum(p[:j] + p[j + 1:])) + math.log(g[i]) - math.log(p[i]))

    return term(0, 1) + term(1, 0) + term(2, 3) + term(3, 2)


def set_dimension_4c(sys: FourCornerSystem, tol: float = 1e-12) -> DimensionReport:
    """Hausdorff dimension s of the generalised 4-corner set when the open
    set, domination, and sufficiency conditions all hold; otherwise s is
    only an upper bound and is flagged as such.  The sufficiency expression
    is evaluated at the reported s; diagnostics carry the final bracket of s
    and the evaluations it took."""
    rep = _open_set_report(sys)
    prob, (s, bracket, evaluations) = _natural_root(sys, tol)
    value = _suff_value(sys, prob)
    diagnostics = {"conditions": rep, "s": s, "natural_p": list(prob.p),
                   "bracket": list(bracket), "evaluations": evaluations,
                   "suff_value": value,
                   "certified": rep["domination_ok"] and value > 0.0}
    if not rep["domination_ok"]:
        diagnostics["note"] = "domination fails: s is an upper bound only"
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
