"""Independent empirical oracles: box counting on cylinder covers (1-D),
chaos-game box counting (2-D), and dyadic entropy slopes for measures; and
the chaos game they sample with, which also draws the 4-corner raster.

These validate the closed-form dimensions at loose tolerances; they never
define them.  All attractors are affinely rescaled into [0,1] before
counting so the dyadic grids are anchored consistently.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .ifs import (MC_RUN_CAP, SAMPLE_CHUNK, BudgetExceeded, CFSystem,
                  FourCornerProb, ProbVector, ValidationError, _json_value,
                  _total, check_samples, check_shape)

DEFAULT_COVER_BUDGET = 5_000_000
CHAOS_CHAINS = 4096     # the chaos game's chains, advanced in lockstep
# the largest scale exponent m for which a 2-D cell key, the bits of its
# two bins interleaved (_keys), fits in int64
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

    On the hull [t_min, t_max] rescaled to [0, 1], each cylinder [lo, hi]
    of ratio r >= 2^-m is refined: f_i(u) = lam u + u_i (1 - lam), u_i the
    rescaled fixed point, gives the child [lo + r a_i, hi - r b_i] of ratio
    r lam, a_i = f_i(0) and b_i = 1 - f_i(1) rounded from the system's
    mode.  a_i is 0 at t_min and b_i at t_max, so an end shared with the
    parent keeps its bits and the hull's ends stay 0 and 1.  Each box that
    meets a leaf is counted, its index clipped into 0..2^m - 1 as _keys
    clips the chaos game's cells.  Equal maps are refined once.
    """
    t_min = min(sys.fixed_points)
    diam = max(sys.fixed_points) - t_min
    maps = set()
    for t, row in zip(sys.fixed_points, sys.ratios):
        u = (t - t_min) / diam
        maps.update((float(lam), float(u * (1 - lam)),
                     float((1 - u) * (1 - lam))) for lam in row)
    target = 2.0 ** (-m)
    scale, last = 2 ** m, 2 ** m - 1

    boxes: set = set()
    visited = 0
    # iterative DFS over the cylinders as (ratio, lo, hi)
    stack = [(1.0, 0.0, 1.0)]
    while stack:
        r, lo, hi = stack.pop()
        if r >= target:
            visited += len(maps)
            if visited > DEFAULT_COVER_BUDGET:
                raise BudgetExceeded(
                    f"cover refinement exceeded {DEFAULT_COVER_BUDGET}")
            for ratio, a, b in maps:
                stack.append((r * ratio, lo + r * a, hi - r * b))
            continue
        boxes.update(range(math.floor(lo * scale),
                           math.floor(hi * scale) + 1))
    # clipping is monotone: a clipped range is the range of clipped ends
    return len({min(max(b, 0), last) for b in boxes})


def box_dimension_1d(sys: CFSystem, m_range: Sequence[int]) -> ScalingFit:
    """Least-squares slope of log2 N_m against m over the trimmed window."""
    ms, window = _window(m_range)
    return _scaling_fit(ms, window, [cover_boxes_1d(sys, m) for m in ms])


def _spread(v):
    """v < 2^32 with its bits moved to the even places: 1011 -> 1000101."""
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << shift)) & mask
    return v


def _keys(top: int, x, y=None):
    """int64 keys of the dyadic cells of side 2^-top holding the points,
    clipped into the grid: the bin of x in 1-D, the bins of x and y with
    their bits interleaved in 2-D (Morton order), so that the key of a cell
    of side 2^-m is the key of any cell inside it shifted right by
    dims * (top - m) bits, and shifting keeps the keys in order."""
    import numpy as np
    last = (1 << top) - 1
    xi = np.clip((x * (1 << top)).astype(np.int64), 0, last)
    if y is None:
        return xi
    yi = np.clip((y * (1 << top)).astype(np.int64), 0, last)
    return (_spread(xi) << 1) | _spread(yi)


def _occupancy(key_chunks, ms: list, dims: int, measure) -> list:
    """measure(counts) per scale m of the sorted ms, where counts are the
    exact point counts of the occupied cells of side 2^-m in key order,
    counted from chunks of _keys at the finest scale, top = ms[-1].

    One sorted array of the distinct finest keys with their counts is kept
    (int32 where the keys fit; a count is at most SAMPLE_CAP).  Chunks wait
    until they hold an eighth as many keys and at least SAMPLE_CHUNK (so one
    np.unique takes several chaos-game steps), then join it, so a key moves
    O(1) times on average and memory follows the occupied cells, not the
    samples: it is bounded in the sample count only while the finest grid
    has fewer occupied cells than there are samples (at top = 31 nearly
    every point has a cell of its own).  The scales are then taken finest
    first, each by shifting the keys in place and merging the runs of equal
    keys: shifting keeps them sorted, and floor(x 2^top) >> (top - m) is
    floor(x 2^m), also for the clipped bins."""
    import numpy as np
    top = ms[-1]
    keys = np.empty(0, dtype=np.int32 if dims * top < 32 else np.int64)
    counts = np.empty(0, dtype=np.int32)
    waiting, size = [], 0

    def join():
        nonlocal keys, counts, waiting, size
        new, freq = np.unique(np.concatenate(waiting, dtype=keys.dtype),
                              return_counts=True)
        waiting, size = [], 0
        pos = np.searchsorted(keys, new)
        seen = pos < len(keys)
        seen[seen] = keys[pos[seen]] == new[seen]
        counts[pos[seen]] += freq[seen]
        fresh = ~seen
        pos, new, freq = pos[fresh], new[fresh], freq[fresh]
        # each old array is dropped as soon as its successor is built
        keys = np.insert(keys, pos, new)
        counts = np.insert(counts, pos, freq)

    for chunk in key_chunks:
        waiting.append(chunk)
        size += len(chunk)
        if 8 * size >= len(keys) and size >= SAMPLE_CHUNK:
            join()
    if waiting:
        join()
    found, scale = [], top
    for m in reversed(ms):
        if m < scale:
            keys >>= dims * (scale - m)
            last = np.empty(len(keys), dtype=bool)    # a run's last key
            last[-1] = True
            np.not_equal(keys[:-1], keys[1:], out=last[:-1])
            keys = keys[last]
            # a run's count: the difference of the running totals at the
            # ends of this run and the one before
            np.cumsum(counts, out=counts)
            counts = counts[last]
            counts[1:] -= counts[:-1]
            del last
            scale = m
        found.append(measure(counts))
    return found[::-1]


def _chaos_steps(maps: Sequence, weights, start: Sequence, points: int,
                 seed: int, scale: int):
    """The chaos game, one recorded step at a time: each step a tuple of
    one array over the chains per coordinate, the last step cut so that
    ``points`` points come out.

    ``maps`` holds one (ratio, intercept) pair per coordinate for each map;
    a step's map is drawn with ``weights``, uniformly when None, by the
    inverse of their normalised cumulative sum at a uniform draw (the
    indices ``Generator.choice(n, size, p=weights)`` returns), found by a
    branch-free binary search over its first n - 1 entries, padded with
    +inf to a power of two.
    CHAOS_CHAINS chains start at ``start`` and advance in lockstep, so the
    recursion vectorizes.  Each chain is burned in for B steps, the larger
    of 1 (for an m_a that underflows to 0) and (scale + 42) log 2 / -log m_a
    over the coordinates a, m_a = sum_i p_i r_{i,a} the expected ratio.  By
    Markov's inequality a product of B ratios then exceeds 2^-(scale+2)
    with probability at most m_a^B 2^(scale+2) <= 2^-40, so B needs no
    floor; below it, each coordinate of a recorded point lies within
    2^-(scale+2) hull widths of a point drawn from the invariant measure, as
    the chain and the backward composition have the same law at each
    step.  A B past MC_RUN_CAP raises BudgetExceeded.  The sample rule and
    the burn-in are checked on the call; the iterator returned draws.
    Deterministic given seed."""
    check_samples(points, seed)
    n = len(maps)
    p = [1.0 / n] * n if weights is None else [float(w) for w in weights]
    need = (scale + 42) * math.log(2.0)
    burn_in = 1
    for pairs in zip(*maps):
        m = _total(w * r for w, (r, _) in zip(p, pairs))
        rate = -math.log(m) if m > 0 else math.inf   # m may underflow to 0
        if not need < rate * MC_RUN_CAP:
            raise BudgetExceeded(
                f"a burn-in at expected ratio {m} may need over {MC_RUN_CAP} "
                f"steps to reach 2^-{scale + 2}")
        burn_in = max(burn_in, math.ceil(need / rate))
    import numpy as np
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    # as u < 1 = cdf[-1], the count of cdf[:-1] <= u is searchsorted's index
    halves = [1 << j for j in reversed(range((n - 1).bit_length()))]
    edges = np.full(1 << len(halves), math.inf)
    edges[:n - 1] = cdf[:-1]
    coords = [np.array(pairs).T for pairs in zip(*maps)]  # (ratios, intercepts)
    chains = min(CHAOS_CHAINS, points)
    steps = -(-points // chains)  # ceil

    def run():
        xs = [np.full(chains, float(s)) for s in start]
        for i in range(burn_in + steps):
            u = rng.random(chains)
            c = np.zeros(chains, dtype=np.intp)
            for half in halves:
                c += (edges[half - 1:].take(c) <= u) * half
            xs = [r[c] * x + k[c] for (r, k), x in zip(coords, xs)]
            if i >= burn_in:
                left = points - (i - burn_in) * chains
                yield tuple(x[:left] for x in xs) if left < chains \
                    else tuple(xs)

    return run()


def box_dimension_2d(sys, m_range: Sequence[int], points: int,
                     seed: int, weights=None) -> ScalingFit:
    """Chaos-game box counting for the 4-corner set; biased down at finite
    sample sizes, so only loose cross-checks should be asserted.  ``weights``
    reweights the map choice (the natural weights spread points far more
    evenly over the set than the uniform default); FourCornerProb refuses
    weights that break its rule.  The chaos game, from (0.5, 0.5), is
    counted step by step (_occupancy), so memory follows the occupied cells
    at the finest scale, not ``points``."""
    ms, window = _window(m_range)
    p = (FourCornerProb.uniform() if weights is None
         else FourCornerProb(weights))
    top = ms[-1]
    steps = _chaos_steps(sys.maps(), p.p, (0.5, 0.5), points, seed, top)
    counts = _occupancy((_keys(top, x, y) for x, y in steps), ms, 2, len)
    return _scaling_fit(ms, window, counts)


def render_attractor_ppm(sys, points: int, seed: int, out_path: str,
                         size: int = 600) -> None:
    """Binary PPM (P6) raster of chaos-game points, marked step by step in
    a flat image: memory does not grow with ``points``.  The RGB body is
    written a block of rows at a time, never as a full RGB copy.  The chaos
    game runs from (0.5, 0.5), burned in for the pixel scale."""
    steps = _chaos_steps(sys.maps(), None, (0.5, 0.5), points, seed,
                         (size - 1).bit_length())
    import numpy as np
    img = np.full(size * size, 255, dtype=np.uint8)
    for x, y in steps:
        xi = (x * size).astype(int)
        yi = ((1.0 - y) * size).astype(int)
        np.minimum(np.maximum(xi, 0, out=xi), size - 1, out=xi)
        np.minimum(np.maximum(yi, 0, out=yi), size - 1, out=yi)
        yi *= size
        yi += xi
        img[yi] = 0
    block = max(1, (1 << 16) // size) * size    # whole rows, ~64 K pixels
    with open(out_path, "wb") as fh:
        fh.write(f"P6\n{size} {size}\n255\n".encode())
        for start in range(0, size * size, block):
            fh.write(np.repeat(img[start:start + block], 3))


def entropy_slope(sys: CFSystem, p: ProbVector, samples: int,
                  m_range: Sequence[int], seed: int) -> ScalingFit:
    """Dyadic entropy slope of the empirical self-similar measure; estimates
    dim(mu) as H(mu_hat, D_m) / (m log 2).  The samples are the chaos game
    on the line from t_min with the weights p, counted step by step
    (_occupancy), so memory follows the occupied bins at the finest scale,
    not ``samples``."""
    import numpy as np
    ms, window = _window(m_range)
    check_shape(sys, p)
    t_min, t_max = float(min(sys.fixed_points)), float(max(sys.fixed_points))
    diam = t_max - t_min
    top = ms[-1]
    maps = [((float(r), float(c)),) for r, c in sys.maps()]
    steps = _chaos_steps(maps, p.flat(), (t_min,), samples, seed, top)

    def entropy(freq) -> float:
        q = freq / samples
        return float(-(q * np.log(q)).sum())

    entropies = _occupancy((_keys(top, (x - t_min) / diam) for x, in steps),
                           ms, 1, entropy)
    return _scaling_fit(ms, window, entropies,
                        bits=lambda nats: nats / math.log(2))
