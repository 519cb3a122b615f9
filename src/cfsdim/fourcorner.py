"""The generalised 4-corner self-affine system: four axis-aligned affine
maps placed at the corners of the unit square.

Both coordinate projections are common-fixed-point systems on the line
(x: maps 1,2 fixed at 0 and 3,4 at 1; y: maps 1,3 at 0 and 2,4 at 1).  The
measure dimension follows from their Lyapunov exponents and overlap
corrections by the Ledrappier-Young rule, in four cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .dimension import DimensionReport, _root
from .entropy import lyapunov, phi_series, shannon_entropy
from .ifs import (BudgetExceeded, CFSystem, ProbVector, ValidationError,
                  _refuse, check_samples, weight_errors)

CHAOS_BURN_IN = 100
CHAOS_CHAINS = 4096
# The SVG holds only the 4**(d-1) rectangles of its last level but one, at
# about 220 B each, and writes the last as it forms it: about 14 MB traced
# (33 MB resident) and a 28 MB file at the cap, which bounds the file and
# the time
CYLINDER_CAP = 4**9


class ConditionsNotMet(ValidationError):
    """The rectangular open-set inequalities fail."""


class RootOutsideBracket(ValidationError):
    """The natural-weight equation has no positive root."""


@dataclass(frozen=True)
class FourCornerSystem:
    """gamma are the x-contractions, lam the y-contractions, both 2x2:
    row 1 holds the ratios of the maps fixed at coordinate 0."""

    gamma: tuple
    lam: tuple

    def __init__(self, gamma: Sequence[Sequence[float]],
                 lam: Sequence[Sequence[float]]):
        object.__setattr__(self, "gamma",
                           tuple(tuple(float(v) for v in row) for row in gamma))
        object.__setattr__(self, "lam",
                           tuple(tuple(float(v) for v in row) for row in lam))
        for grid, name in ((self.gamma, "gamma"), (self.lam, "lambda")):
            if len(grid) != 2 or any(len(r) != 2 for r in grid):
                raise ValidationError("gamma and lambda must be 2x2")
            for i in range(2):
                for j in range(2):
                    if not (0 < grid[i][j] < 1):
                        raise ValidationError(
                            f"{name}[{i+1}][{j+1}] not in (0,1)")

    def maps(self):
        """The four affine maps as ((rx, cx), (ry, cy)) per map index 1..4."""
        g, l = self.gamma, self.lam
        return (
            ((g[0][0], 0.0), (l[0][0], 0.0)),
            ((g[0][1], 0.0), (l[1][0], 1.0 - l[1][0])),
            ((g[1][0], 1.0 - g[1][0]), (l[0][1], 0.0)),
            ((g[1][1], 1.0 - g[1][1]), (l[1][1], 1.0 - l[1][1])),
        )

    def to_json_dict(self) -> dict:
        return {"type": "four_corner",
                "gamma": [list(r) for r in self.gamma],
                "lambda": [list(r) for r in self.lam]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourCornerSystem":
        if d.get("type") != "four_corner":
            raise ValidationError(f"not a four_corner descriptor: {d.get('type')!r}")
        return cls(d["gamma"], d["lambda"])


@dataclass(frozen=True)
class FourCornerProb:
    p: tuple

    def __init__(self, p: Sequence[float]):
        vals = tuple(float(v) for v in p)
        _refuse(weight_errors(vals) if len(vals) == 4
                else [f"ShapeMismatch: p needs 4 weights, got {len(vals)}"])
        object.__setattr__(self, "p", vals)

    @classmethod
    def uniform(cls) -> "FourCornerProb":
        return cls((0.25, 0.25, 0.25, 0.25))

    def x_grouping(self) -> ProbVector:
        """Groups {F1,F2} at x=0 and {F3,F4} at x=1."""
        return ProbVector([[self.p[0], self.p[1]], [self.p[2], self.p[3]]])

    def y_grouping(self) -> ProbVector:
        """Groups {F1,F3} at y=0 and {F2,F4} at y=1."""
        return ProbVector([[self.p[0], self.p[2]], [self.p[1], self.p[3]]])


def validate_4c(sys: FourCornerSystem) -> dict:
    """Check the rectangular-open-set inequalities and (separately) the
    domination inequalities; report-style output."""
    g, l = sys.gamma, sys.lam
    base = []
    if g[0][0] + g[1][0] > 1:
        base.append("gamma11 + gamma21 > 1")
    if g[0][1] + g[1][1] > 1:
        base.append("gamma12 + gamma22 > 1")
    if l[0][0] + l[1][0] > 1:
        base.append("lambda11 + lambda21 > 1")
    if l[0][1] + l[1][1] > 1:
        base.append("lambda12 + lambda22 > 1")
    if min(g[0][1] + g[1][0], l[0][1] + l[1][0]) > 1:
        base.append("min(gamma12+gamma21, lambda12+lambda21) > 1")
    if min(g[0][0] + g[1][1], l[0][0] + l[1][1]) > 1:
        base.append("min(gamma11+gamma22, lambda11+lambda22) > 1")
    dom = []
    if l[0][0] > g[0][0]:
        dom.append("lambda11 > gamma11")
    if l[1][1] > g[1][1]:
        dom.append("lambda22 > gamma22")
    if l[0][1] > g[1][0]:
        dom.append("lambda12 > gamma21")
    if l[1][0] > g[0][1]:
        dom.append("lambda21 > gamma12")
    return {"open_set_ok": not base, "open_set_violations": base,
            "domination_ok": not dom, "domination_violations": dom}


def _projections(sys: FourCornerSystem, p: FourCornerProb) -> tuple:
    """((x system, x weights), (y system, y weights)): each coordinate
    projection is the common-fixed-point line system on {0, 1} whose group
    rows are that coordinate's ratio rows."""
    return ((CFSystem([0.0, 1.0], sys.gamma), p.x_grouping()),
            (CFSystem([0.0, 1.0], sys.lam), p.y_grouping()))


def chis(sys: FourCornerSystem, p: FourCornerProb) -> tuple:
    """(chi_x, chi_y): the Lyapunov exponents of the two projections."""
    return tuple(lyapunov(line, q) for line, q in _projections(sys, p))


def phi_xy(sys: FourCornerSystem, p: FourCornerProb,
           tol: float = 1e-12) -> tuple:
    """(Phi_x, Phi_y): the Phi series of the two projections."""
    return tuple(phi_series(line, q, tol).value
                 for line, q in _projections(sys, p))


def measure_dimension_4c(sys: FourCornerSystem, p: FourCornerProb,
                         tol: float = 1e-12) -> DimensionReport:
    """Four-case self-affine measure dimension on the 4-corner set.

    Ledrappier-Young: the less contracted coordinate a carries the
    projection's dimension, (h + Phi_a)/chi_a when chi_a >= h + Phi_a and 1
    otherwise; the other coordinate b carries the entropy left over, at
    rate chi_b.
    """
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ConditionsNotMet("; ".join(rep["open_set_violations"]))
    h = shannon_entropy(p.x_grouping())
    chi_x, chi_y = chis(sys, p)
    phi_x, phi_y = phi_xy(sys, p, tol)
    eps = 1e-12
    if chi_y >= chi_x - eps:
        a, chi_a, phi_a, chi_b = "x", chi_x, phi_x, chi_y
    else:
        a, chi_a, phi_a, chi_b = "y", chi_y, phi_y, chi_x
    if chi_a >= h + phi_a - eps:
        case, dim_a = f"{a}-saturating", (h + phi_a) / chi_a
    else:
        case, dim_a = f"{a}-overflow", 1.0
    raw = dim_a + (h - chi_a * dim_a) / chi_b
    return DimensionReport(
        dimension=min(2.0, max(0.0, raw)), raw=raw, method="4corner-case",
        tolerance=tol,
        diagnostics={"case": case, "entropy": h, "chi_x": chi_x,
                     "chi_y": chi_y, "phi_x": phi_x, "phi_y": phi_y})


def _natural_root(sys: FourCornerSystem, tol: float) -> tuple:
    """(FourCornerProb, (s, bracket, evaluations)): the affinity-natural
    weights p_i = gamma_i * lambda_i^{s-1} and _root's report of s, the root
    of their sum = 1.  The excess sum - 1 strictly decreases in s towards
    -1, so a root exists, and is positive, exactly when the excess at 0 is
    positive; _root brackets it from 0 by doubling."""
    pairs = [(g, l) for (g, _), (l, _) in sys.maps()]

    def weights(s):
        return [g * l ** (s - 1) for g, l in pairs]

    def excess(s):
        return sum(weights(s)) - 1.0

    if excess(0.0) <= 0.0:
        raise RootOutsideBracket("the natural-weight equation has no positive "
                                 "root: sum gamma_i / lambda_i <= 1")
    root = _root(excess, 0.0, 1.0, tol)
    w = weights(root[0])
    total = sum(w)
    return FourCornerProb(tuple(v / total for v in w)), root


def natural_p(sys: FourCornerSystem, tol: float = 1e-14) -> tuple:
    """(FourCornerProb, s): the affinity-natural weights and their root s
    (_natural_root); RootOutsideBracket when s would not be positive."""
    prob, (s, _, _) = _natural_root(sys, tol)
    return prob, s


def _suff_value(sys: FourCornerSystem, p: FourCornerProb) -> float:
    """The sufficiency expression at the natural weights p, through
    lambda_i^{s-1} = p_i / gamma_i."""
    (g1, g2), (g3, g4) = sys.gamma
    p1, p2, p3, p4 = p.p
    return (p1 * math.log((1.0 - p2) * g1 / p1)
            + p2 * math.log((1.0 - p1) * g2 / p2)
            + p3 * math.log((1.0 - p4) * g3 / p3)
            + p4 * math.log((1.0 - p3) * g4 / p4))


def set_dimension_4c(sys: FourCornerSystem, tol: float = 1e-12) -> DimensionReport:
    """Hausdorff dimension s of the generalised 4-corner set when the open
    set, domination, and sufficiency conditions all hold; otherwise s is
    only an upper bound and is flagged as such.  The sufficiency expression
    is evaluated at the reported s; diagnostics carry the final bracket of s
    and the evaluations it took."""
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ConditionsNotMet("; ".join(rep["open_set_violations"]))
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


def _chaos_steps(sys: FourCornerSystem, points: int, seed: int,
                 weights: Optional[Sequence[float]] = None):
    """Yield the chaos game one recorded step at a time as (x, y) arrays over
    the chains, the last step cut so that ``points`` points come out.

    Map choice is uniform unless ``weights`` is given.  Many independent
    chains (CHAOS_CHAINS) advance in lockstep so the recursion vectorizes;
    each chain is burned in for CHAOS_BURN_IN steps before any point is
    recorded.  Deterministic given seed; callers check the sample rule.
    """
    import numpy as np
    maps = sys.maps()
    rx = np.array([m[0][0] for m in maps])
    cx = np.array([m[0][1] for m in maps])
    ry = np.array([m[1][0] for m in maps])
    cy = np.array([m[1][1] for m in maps])
    w = None if weights is None else np.asarray(weights, dtype=float)
    rng = np.random.default_rng(seed)
    chains = min(CHAOS_CHAINS, points)
    steps = -(-points // chains)  # ceil
    x = np.full(chains, 0.5)
    y = np.full(chains, 0.5)
    for i in range(CHAOS_BURN_IN + steps):
        c = rng.choice(4, size=chains, p=w)
        x = rx[c] * x + cx[c]
        y = ry[c] * y + cy[c]
        if i >= CHAOS_BURN_IN:
            left = points - (i - CHAOS_BURN_IN) * chains
            yield (x, y) if left >= chains else (x[:left], y[:left])


def chaos_game_points(sys: FourCornerSystem, points: int, seed: int,
                      weights: Optional[Sequence[float]] = None):
    """(points, 2) numpy array of chaos-game samples: the steps of
    _chaos_steps, one after the other."""
    check_samples(points, seed)
    import numpy as np
    out = np.empty((points, 2))
    j = 0
    for x, y in _chaos_steps(sys, points, seed, weights):
        out[j:j + len(x), 0] = x
        out[j:j + len(x), 1] = y
        j += len(x)
    return out


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


def render_attractor_ppm(sys: FourCornerSystem, points: int, seed: int,
                         out_path: str, size: int = 600) -> None:
    """Binary PPM (P6) raster of chaos-game points, marked step by step:
    memory does not grow with ``points``."""
    check_samples(points, seed)
    import numpy as np
    img = np.full((size, size), 255, dtype=np.uint8)
    for x, y in _chaos_steps(sys, points, seed):
        xi = np.clip((x * size).astype(int), 0, size - 1)
        yi = np.clip(((1.0 - y) * size).astype(int), 0, size - 1)
        img[yi, xi] = 0
    header = f"P6\n{size} {size}\n255\n".encode()
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    with open(out_path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())
