"""Independent empirical oracles: box counting on cylinder covers (1-D),
chaos-game box counting (2-D), and dyadic entropy slopes for measures.

These validate the closed-form dimensions at loose tolerances; they never
define them.  All attractors are affinely rescaled into [0,1] before
counting so the dyadic grids are anchored consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ifs import (BudgetExceeded, CFSystem, ProbVector, ValidationError,
                  check_valid, map_of)

DEFAULT_COVER_BUDGET = 5_000_000


@dataclass(frozen=True)
class ScalingFit:
    scales: tuple
    counts: tuple             # box counts or entropies per scale
    slope: float
    r2: float
    window: tuple             # (m_lo, m_hi) actually used in the fit

    def to_json_dict(self) -> dict:
        return {"scales": list(self.scales), "counts": list(self.counts),
                "slope": self.slope, "r2": self.r2,
                "window": list(self.window)}


def _fit(xs, ys) -> tuple:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _window(m_range: Sequence[int], points: int = 1) -> tuple:
    """(sorted scales, fit window): the window drops the two coarsest and two
    finest scales when enough remain.  A slope needs two distinct scales in
    the window, and a sampled fit at least one point."""
    ms = sorted(m_range)
    window = ms[2:-2] if len(ms) > 6 else ms
    if len(set(window)) < 2 or points < 1:
        raise ValidationError(f"a scaling fit needs 2 or more scales and "
                              f"points >= 1, got scales {ms}, points {points}")
    return ms, window


def _attractor_interval(sys: CFSystem) -> tuple:
    t_min = float(min(sys.fixed_points))
    t_max = float(max(sys.fixed_points))
    return t_min, t_max


def cover_boxes_1d(sys: CFSystem, m: int,
                   budget: int = DEFAULT_COVER_BUDGET) -> tuple:
    """(upper, lower) dyadic box counts at scale 2^-m.

    Cylinder intervals f_w([t_min, t_max]) are refined until shorter than
    2^-m (after rescaling the attractor into [0,1]); the upper count marks
    every box meeting a cylinder, the lower count only the box holding each
    cylinder's left endpoint.
    """
    check_valid(sys)
    t_min, t_max = _attractor_interval(sys)
    diam = t_max - t_min
    maps = [map_of(sys, s) for s in sys.symbols()]
    target = 2.0 ** (-m)
    scale = 2 ** m

    upper: set = set()
    lower: set = set()
    visited = 0
    # iterative DFS over cylinder maps as (ratio, intercept)
    stack = [(1.0, 0.0)]
    while stack:
        r, c = stack.pop()
        # rescaled cylinder is [lo, lo + r]: lengths divide out the diameter
        lo = (c + r * t_min - t_min) / diam
        if r >= target:
            visited += len(maps)
            if visited > budget:
                raise BudgetExceeded(f"cover refinement exceeded {budget}")
            for mp in maps:
                stack.append((r * float(mp.ratio),
                              r * float(mp.intercept) + c))
            continue
        hi = lo + r          # rescaled cylinder [lo, lo + r]
        b0 = int(math.floor(lo * scale))
        b1 = int(math.floor(min(hi, 1.0 - 1e-15) * scale))
        upper.update(range(b0, b1 + 1))
        lower.add(b0)
    return len(upper), len(lower)


def box_dimension_1d(sys: CFSystem, m_range: Sequence[int],
                     budget: int = DEFAULT_COVER_BUDGET) -> ScalingFit:
    """Least-squares slope of log2 N_m against m over the trimmed window."""
    ms, window = _window(m_range)
    counts = [cover_boxes_1d(sys, m, budget=budget)[0] for m in ms]
    ys = [math.log2(counts[ms.index(m)]) for m in window]
    slope, r2 = _fit(window, ys)
    return ScalingFit(scales=tuple(ms), counts=tuple(counts), slope=slope,
                      r2=r2, window=(window[0], window[-1]))


def box_dimension_2d(sys, m_range: Sequence[int], points: int,
                     seed: int, weights=None) -> ScalingFit:
    """Chaos-game box counting for the 4-corner set; biased down at finite
    sample sizes, so only loose cross-checks should be asserted.  ``weights``
    reweights the map choice (the natural weights spread points far more
    evenly over the set than the uniform default)."""
    from .fourcorner import chaos_game_points
    ms, window = _window(m_range, points)
    pts = chaos_game_points(sys, points, seed, weights=weights)
    counts = []
    for m in ms:
        scale = 2 ** m
        xi = np.clip((pts[:, 0] * scale).astype(np.int64), 0, scale - 1)
        yi = np.clip((pts[:, 1] * scale).astype(np.int64), 0, scale - 1)
        counts.append(int(np.unique(xi * scale + yi).size))
    ys = [math.log2(counts[ms.index(m)]) for m in window]
    slope, r2 = _fit(window, ys)
    return ScalingFit(scales=tuple(ms), counts=tuple(counts), slope=slope,
                      r2=r2, window=(window[0], window[-1]))


def sample_measure_points(sys: CFSystem, p: ProbVector, samples: int,
                          min_scale: int, seed: int) -> np.ndarray:
    """Sample x = Pi(w) with symbols drawn from p, extending each word until
    its contraction drops below 2^-min_scale."""
    rng = np.random.default_rng(seed)
    flat_p = np.array([float(w) for w in p.flat()])
    maps = [map_of(sys, s) for s in sys.symbols()]
    ratios = np.array([float(mp.ratio) for mp in maps])
    intercepts = np.array([float(mp.intercept) for mp in maps])
    target = 2.0 ** (-min_scale)

    r = np.ones(samples)
    c = np.zeros(samples)
    active = np.ones(samples, dtype=bool)
    while np.any(active):
        idx = rng.choice(len(maps), size=int(active.sum()), p=flat_p)
        c[active] = c[active] + r[active] * intercepts[idx]
        r[active] = r[active] * ratios[idx]
        active = r >= target
    t_min = float(min(sys.fixed_points))
    return c + r * t_min  # f_w(t_min): an exact attractor point per word


def entropy_slope(sys: CFSystem, p: ProbVector, samples: int,
                  m_range: Sequence[int], seed: int) -> ScalingFit:
    """Dyadic entropy slope of the empirical self-similar measure; estimates
    dim(mu) as H(mu_hat, D_m) / (m log 2)."""
    check_valid(sys)
    ms, window = _window(m_range, samples)
    t_min, t_max = _attractor_interval(sys)
    diam = t_max - t_min
    xs = sample_measure_points(sys, p, samples, min_scale=max(ms) + 2,
                               seed=seed)
    xs = (xs - t_min) / diam
    entropies = []
    for m in ms:
        scale = 2 ** m
        bins = np.clip((xs * scale).astype(np.int64), 0, scale - 1)
        _, freq = np.unique(bins, return_counts=True)
        q = freq / samples
        entropies.append(float(-(q * np.log(q)).sum()))
    ys = [entropies[ms.index(m)] / math.log(2) for m in window]
    slope, r2 = _fit(window, ys)
    return ScalingFit(scales=tuple(ms), counts=tuple(entropies), slope=slope,
                      r2=r2, window=(window[0], window[-1]))
