"""The generalised 4-corner self-affine system: four axis-aligned affine
maps placed at the corners of the unit square.

Both coordinate projections are common-fixed-point systems on the line
(x: maps 1,2 fixed at 0 and 3,4 at 1; y: maps 1,3 at 0 and 2,4 at 1), which
yields a four-case dimension formula from the coordinate entropies and
overlap corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dimension import DimensionReport, _bisect
from .entropy import phi_series
from .ifs import CFSystem, ProbVector, ValidationError


class ConditionsNotMet(ValidationError):
    """The rectangular open-set inequalities fail."""


class RootOutsideBracket(ValidationError):
    """The natural-weight equation has no sign change on its bracket."""


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
        if len(vals) != 4 or any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValidationError("p must be 4 finite nonnegative reals")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValidationError(f"p must sum to 1, got {sum(vals)!r}")
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


def chis(sys: FourCornerSystem, p: FourCornerProb) -> tuple:
    """(chi_x, chi_y): coordinate Lyapunov exponents.  Note the y pairing:
    p2 goes with lambda[2][1] and p3 with lambda[1][2]."""
    g, l = sys.gamma, sys.lam
    p1, p2, p3, p4 = p.p
    chi_x = -(p1 * math.log(g[0][0]) + p2 * math.log(g[0][1])
              + p3 * math.log(g[1][0]) + p4 * math.log(g[1][1]))
    chi_y = -(p1 * math.log(l[0][0]) + p2 * math.log(l[1][0])
              + p3 * math.log(l[0][1]) + p4 * math.log(l[1][1]))
    return chi_x, chi_y


# Phi depends on the weights and their grouping only, so one line system of
# the projections' shape (two groups of two maps) serves both coordinates.
_PROJECTION_SHAPE = CFSystem([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])


def phi_xy(p: FourCornerProb, tol: float = 1e-12) -> tuple:
    """(Phi_x, Phi_y): the line-system Phi series of the x and y groupings."""
    return (phi_series(_PROJECTION_SHAPE, p.x_grouping(), tol).value,
            phi_series(_PROJECTION_SHAPE, p.y_grouping(), tol).value)


def measure_dimension_4c(sys: FourCornerSystem, p: FourCornerProb,
                         tol: float = 1e-12) -> DimensionReport:
    """Four-case self-affine measure dimension on the 4-corner set."""
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ConditionsNotMet("; ".join(rep["open_set_violations"]))
    if max(p.p) >= 1.0 - 1e-15:
        return DimensionReport(dimension=0.0, raw=0.0, method="4corner-case",
                               tolerance=tol, diagnostics={"degenerate": True})
    h = -sum(v * math.log(v) for v in p.p if v > 0)
    chi_x, chi_y = chis(sys, p)
    phi_x, phi_y = phi_xy(p, tol)
    eps = 1e-12
    # Exhaustive for finite inputs: a failed saturation test implies the
    # overflow condition h + phi > chi + eps of the same coordinate.
    if chi_y >= chi_x - eps and chi_x >= h + phi_x - eps:
        case = "x-saturating"
        raw = (h + phi_x) / chi_x - phi_x / chi_y
    elif chi_y >= chi_x - eps:
        case = "x-overflow"
        raw = 1.0 + (h - chi_x) / chi_y
    elif chi_y >= h + phi_y - eps:
        case = "y-saturating"
        raw = (h + phi_y) / chi_y - phi_y / chi_x
    else:
        case = "y-overflow"
        raw = 1.0 + (h - chi_y) / chi_x
    return DimensionReport(
        dimension=min(2.0, max(0.0, raw)), raw=raw, method="4corner-case",
        tolerance=tol,
        diagnostics={"case": case, "entropy": h, "chi_x": chi_x,
                     "chi_y": chi_y, "phi_x": phi_x, "phi_y": phi_y})


def _natural_equation(sys: FourCornerSystem, s: float) -> float:
    g, l = sys.gamma, sys.lam
    return (g[0][0] * l[0][0] ** (s - 1) + g[0][1] * l[1][0] ** (s - 1)
            + g[1][0] * l[0][1] ** (s - 1) + g[1][1] * l[1][1] ** (s - 1)) - 1.0


def natural_p(sys: FourCornerSystem, tol: float = 1e-14) -> tuple:
    """(FourCornerProb, s): the affinity-natural weights p_i = gamma_i *
    lambda_i^{s-1} with s the root of their sum = 1 on [1,2] (widened to
    [0.5, 3] when needed)."""
    lo, hi = 1.0, 2.0
    if _natural_equation(sys, lo) * _natural_equation(sys, hi) > 0:
        lo, hi = 0.5, 3.0
        if _natural_equation(sys, lo) * _natural_equation(sys, hi) > 0:
            raise RootOutsideBracket("no sign change on [0.5, 3]")
    s = _bisect(lambda v: _natural_equation(sys, v), lo, hi, tol)[0]
    g, l = sys.gamma, sys.lam
    weights = (g[0][0] * l[0][0] ** (s - 1), g[0][1] * l[1][0] ** (s - 1),
               g[1][0] * l[0][1] ** (s - 1), g[1][1] * l[1][1] ** (s - 1))
    total = sum(weights)
    return FourCornerProb(tuple(w / total for w in weights)), s


def _suff_value(sys: FourCornerSystem, p: FourCornerProb) -> float:
    """The sufficiency expression at the natural weights p, through
    lambda_i^{s-1} = p_i / gamma_i."""
    (g1, g2), (g3, g4) = sys.gamma
    p1, p2, p3, p4 = p.p
    return (p1 * math.log((1.0 - p2) * g1 / p1)
            + p2 * math.log((1.0 - p1) * g2 / p2)
            + p3 * math.log((1.0 - p4) * g3 / p3)
            + p4 * math.log((1.0 - p3) * g4 / p4))


def suff_check(sys: FourCornerSystem) -> tuple:
    """Evaluate the sufficiency expression at the natural weights; the set
    dimension certificate needs it strictly positive."""
    value = _suff_value(sys, natural_p(sys)[0])
    return value, value > 0.0


def set_dimension_4c(sys: FourCornerSystem, tol: float = 1e-12) -> DimensionReport:
    """Hausdorff dimension s of the generalised 4-corner set when the open
    set, domination, and sufficiency conditions all hold; otherwise s is
    only an upper bound and is flagged as such.  The sufficiency expression
    is evaluated at the reported s."""
    rep = validate_4c(sys)
    if not rep["open_set_ok"]:
        raise ConditionsNotMet("; ".join(rep["open_set_violations"]))
    prob, s = natural_p(sys, tol=tol)
    value = _suff_value(sys, prob)
    diagnostics = {"conditions": rep, "s": s, "natural_p": list(prob.p),
                   "suff_value": value,
                   "certified": rep["domination_ok"] and value > 0.0}
    if not rep["domination_ok"]:
        diagnostics["note"] = "domination fails: s is an upper bound only"
    elif value <= 0.0:
        diagnostics["note"] = "sufficiency fails: s is an upper bound only"
    return DimensionReport(dimension=min(2.0, s), raw=s, method="4corner-set",
                           tolerance=tol, diagnostics=diagnostics)


def chaos_game_points(sys: FourCornerSystem, points: int, seed: int,
                      burn_in: int = 100,
                      weights: Optional[Sequence[float]] = None,
                      chains: int = 4096) -> np.ndarray:
    """(points, 2) array of chaos-game samples.

    Map choice is uniform unless ``weights`` is given.  Many independent
    chains advance in lockstep so the recursion vectorizes; each chain is
    burned in before any point is recorded.  Deterministic given seed.
    """
    if points < 1:
        raise ValidationError(f"points must be >= 1, got {points}")
    maps = sys.maps()
    rx = np.array([m[0][0] for m in maps])
    cx = np.array([m[0][1] for m in maps])
    ry = np.array([m[1][0] for m in maps])
    cy = np.array([m[1][1] for m in maps])
    w = None if weights is None else np.asarray(weights, dtype=float)
    rng = np.random.default_rng(seed)
    chains = min(chains, points)
    steps = -(-points // chains)  # ceil
    x = np.full(chains, 0.5)
    y = np.full(chains, 0.5)
    out = np.empty((steps * chains, 2))
    for i in range(burn_in + steps):
        c = rng.choice(4, size=chains, p=w)
        x = rx[c] * x + cx[c]
        y = ry[c] * y + cy[c]
        if i >= burn_in:
            j = (i - burn_in) * chains
            out[j:j + chains, 0] = x
            out[j:j + chains, 1] = y
    return out[:points]


def _cylinders(sys: FourCornerSystem, depth: int):
    """Depth-d images of the unit square as (x0, y0, w, h) rectangles;
    depth 0 is the unit square itself."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    maps = sys.maps()
    rects = [(0.0, 0.0, 1.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for (rx, cx), (ry, cy) in maps:
            for x0, y0, w, h in rects:
                nxt.append((rx * x0 + cx, ry * y0 + cy, rx * w, ry * h))
        rects = nxt
    return rects


def render_cylinders_svg(sys: FourCornerSystem, depth: int, out_path: str,
                         size: int = 600) -> None:
    """SVG of all depth-d cylinder rectangles (y axis flipped to screen)."""
    rects = _cylinders(sys, depth)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    for x0, y0, w, h in rects:
        px = x0 * size
        py = (1.0 - y0 - h) * size
        lines.append(
            f'<rect x="{px:.4f}" y="{py:.4f}" width="{w * size:.4f}" '
            f'height="{h * size:.4f}" fill="none" stroke="black" '
            f'stroke-width="1"/>')
    lines.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def render_attractor_ppm(sys: FourCornerSystem, points: int, seed: int,
                         out_path: str, size: int = 600,
                         burn_in: int = 100) -> None:
    """Binary PPM (P6) raster of chaos-game points."""
    pts = chaos_game_points(sys, points, seed, burn_in=burn_in)
    img = np.full((size, size), 255, dtype=np.uint8)
    xi = np.clip((pts[:, 0] * size).astype(int), 0, size - 1)
    yi = np.clip(((1.0 - pts[:, 1]) * size).astype(int), 0, size - 1)
    img[yi, xi] = 0
    header = f"P6\n{size} {size}\n255\n".encode()
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    with open(out_path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())
