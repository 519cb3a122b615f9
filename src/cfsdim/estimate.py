"""Independent empirical oracles: box counting on cylinder covers (1-D),
chaos-game box counting (2-D), and dyadic entropy slopes for measures.

These validate the closed-form dimensions at loose tolerances; they never
define them.  All attractors are affinely rescaled into [0,1] before
counting so the dyadic grids are anchored consistently.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .ifs import (MC_RUN_CAP, BudgetExceeded, CFSystem, ProbVector,
                  ValidationError, _json_value, _total, check_samples,
                  check_shape)

DEFAULT_COVER_BUDGET = 5_000_000
# the largest scale exponent m for which box2d's cell key x * 2^m + y fits
# in int64
MAX_SCALE = 31


class ScalingFit(NamedTuple):
    scales: tuple
    counts: tuple             # box counts or entropies per scale
    slope: float
    r2: float
    window: tuple             # (m_lo, m_hi) actually used in the fit
    to_json_dict = _json_value    # a report's JSON, by ifs._json_value


def _fit(xs, ys) -> tuple:
    """(slope, r2) of the least-squares line through the points (x, y)."""
    n = len(xs)
    mx = _total(xs) / n
    my = _total(ys) / n
    sxx = _total((x - mx) ** 2 for x in xs)
    sxy = _total((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = _total((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = _total((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2


def _window(m_range: Sequence[int]) -> tuple:
    """(sorted scales, fit window): the window drops the two coarsest and two
    finest scales when enough remain.  Every scale lies in 0..MAX_SCALE, and
    a slope needs two distinct scales in the window."""
    ms = sorted(m_range)
    if ms and not 0 <= ms[0] <= ms[-1] <= MAX_SCALE:
        raise ValidationError(f"scale exponents must lie in 0..{MAX_SCALE}, "
                              f"got {ms[0]}..{ms[-1]}")
    window = ms[2:-2] if len(ms) > 6 else ms
    if len(set(window)) < 2:
        raise ValidationError(f"a scaling fit needs 2 or more scales, got {ms}")
    return ms, window


def _scaling_fit(ms: list, window: list, counts: list,
                 bits=math.log2) -> ScalingFit:
    """The least-squares fit of bits(count) against m over the window: log2
    of a box count by default."""
    ys = [bits(counts[ms.index(m)]) for m in window]
    slope, r2 = _fit(window, ys)
    return ScalingFit(scales=tuple(ms), counts=tuple(counts), slope=slope,
                      r2=r2, window=(window[0], window[-1]))


def cover_boxes_1d(sys: CFSystem, m: int) -> int:
    """The dyadic boxes of side 2^-m that meet a cylinder cover.

    Cylinder intervals f_w([t_min, t_max]) are refined until shorter than
    2^-m (after rescaling the attractor into [0,1]), and every box meeting
    one is counted.  Maps with the same ratio at the same fixed point are
    the same map and have the same subtree, so each distinct (ratio,
    intercept) pair is refined once.
    """
    t_min, t_max = float(min(sys.fixed_points)), float(max(sys.fixed_points))
    diam = t_max - t_min
    maps = {(float(r), float(c)) for r, c in sys.maps()}
    target = 2.0 ** (-m)
    scale = 2 ** m

    boxes: set = set()
    visited = 0
    # iterative DFS over cylinder maps as (ratio, intercept)
    stack = [(1.0, 0.0)]
    while stack:
        r, c = stack.pop()
        # rescaled cylinder is [lo, lo + r]: lengths divide out the diameter
        lo = (c + r * t_min - t_min) / diam
        if r >= target:
            visited += len(maps)
            if visited > DEFAULT_COVER_BUDGET:
                raise BudgetExceeded(
                    f"cover refinement exceeded {DEFAULT_COVER_BUDGET}")
            for ratio, intercept in maps:
                stack.append((r * ratio, r * intercept + c))
            continue
        hi = lo + r          # rescaled cylinder [lo, lo + r]
        b0 = int(math.floor(lo * scale))
        b1 = int(math.floor(min(hi, 1.0 - 1e-15) * scale))
        boxes.update(range(b0, b1 + 1))
    return len(boxes)


def box_dimension_1d(sys: CFSystem, m_range: Sequence[int]) -> ScalingFit:
    """Least-squares slope of log2 N_m against m over the trimmed window."""
    ms, window = _window(m_range)
    return _scaling_fit(ms, window, [cover_boxes_1d(sys, m) for m in ms])


def box_dimension_2d(sys, m_range: Sequence[int], points: int,
                     seed: int, weights=None) -> ScalingFit:
    """Chaos-game box counting for the 4-corner set; biased down at finite
    sample sizes, so only loose cross-checks should be asserted.  ``weights``
    reweights the map choice (the natural weights spread points far more
    evenly over the set than the uniform default)."""
    import numpy as np
    from .fourcorner import chaos_game_points
    ms, window = _window(m_range)
    pts = chaos_game_points(sys, points, seed, weights=weights)
    counts = []
    for m in ms:
        scale = 2 ** m
        xi = np.clip((pts[:, 0] * scale).astype(np.int64), 0, scale - 1)
        yi = np.clip((pts[:, 1] * scale).astype(np.int64), 0, scale - 1)
        counts.append(int(np.unique(xi * scale + yi).size))
    return _scaling_fit(ms, window, counts)


def sample_measure_points(sys: CFSystem, p: ProbVector, samples: int,
                          min_scale: int, seed: int):
    """numpy array of samples x = Pi(w) with symbols drawn from p, extending
    each word until its contraction drops below 2^-min_scale.  So no word
    is longer than min_scale log 2 / -log lam, lam the largest ratio drawn,
    which must not pass ifs.MC_RUN_CAP, the cap on a sampled run."""
    check_samples(samples, seed)
    check_shape(sys, p)
    maps = sys.maps()
    lam = max(float(r) for (r, _), w in zip(maps, p.flat()) if w > 0)
    if min_scale * math.log(2.0) > -math.log(lam) * MC_RUN_CAP:
        raise BudgetExceeded(f"a word of ratio {lam} may need over "
                             f"{MC_RUN_CAP} maps to reach 2^-{min_scale}")
    import numpy as np
    rng = np.random.default_rng(seed)
    flat_p = np.array([float(w) for w in p.flat()])
    ratios = np.array([float(r) for r, _ in maps])
    intercepts = np.array([float(c) for _, c in maps])
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
    import numpy as np
    ms, window = _window(m_range)
    t_min, t_max = float(min(sys.fixed_points)), float(max(sys.fixed_points))
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
    return _scaling_fit(ms, window, entropies,
                        bits=lambda nats: nats / math.log(2))
