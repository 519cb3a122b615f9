"""Word-level brute force, kept only to check the library.

Words with the same block signature compose to the same map, so the library
computes over signature classes and never enumerates words.  Enumerating
every word of a length, decomposing it into its signature and composing its
maps one at a time is the independent check of the signature walk, the
signature DP and the separation probe.  It shares no word or map code with
the library: a word is a tuple of (group, member) pairs, both 1-based, a
signature a tuple of (group, ((member, count), ...)) blocks (equal to the
library's ``Block`` tuples), and maps are composed here from ``sys.ratios``
and ``sys.fixed_points``.

The untrimmed binomial-row kernel, every row carried in full, is the
independent check of ``entropy._log_moments``, which trims each row where
its entries fall below that row's floor.

Dyadic cell counting over materialised points, one clip and ``np.unique``
per scale, is likewise the independent check of the streamed cell counter
of the entropy and box-counting estimators.

The power iteration with two 1-norms and two products a step, with its
own step count and error, is the reference of ``dimension._gd_radius``,
which takes one product a step.

The cylinder cover refined in ``Fraction``s, each box read from the exact
ends of a cylinder, is the check of ``estimate.cover_boxes_1d``, which
refines in doubles and clips its box indices into the grid.

Drawing each Monte-Carlo run and its count one by one, every sample held
at once, is the independent check of ``entropy.phi_monte_carlo``, which
draws most samples as a (run, count) histogram row by row.
The measure sampler that masks a whole chunk at every step and the PPM
writer that builds the full RGB image are the references of the library's
sampler and writer, which must give the same bytes.  The chaos game's
points held in one array, on the line and in the plane, are what the
library's counters and raster read one step at a time.
"""

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from cfsdim import BudgetExceeded, ValidationError

ENUM_BUDGET = 10**8     # the most words enumerate_words gives: L**n
POWER_STEPS = 100_000   # the most steps spectral_radius takes


class Unsettled(RuntimeError):
    """spectral_radius did not settle in POWER_STEPS steps."""


class EmptyWord(ValidationError):
    pass


class Map(NamedTuple):
    """The similarity x -> ratio*x + intercept."""

    ratio: object
    intercept: object


def word(*pairs) -> tuple:
    """word((1, 1), (2, 1)): the word of these (group, member) symbols."""
    return tuple(pairs)


def decompose(w) -> tuple:
    """Unique block representation: maximal same-group runs with counts."""
    blocks = []
    for group, run in itertools.groupby(w, key=lambda s: s[0]):
        counts: dict = {}
        for _, member in run:
            counts[member] = counts.get(member, 0) + 1
        blocks.append((group, tuple(sorted(counts.items()))))
    return tuple(blocks)


def representative(sig) -> tuple:
    """One word of the class ``sig``: each block's members in sorted order."""
    return tuple((group, member) for group, counts in sig
                 for member, count in counts for _ in range(count))


def compose(sys, w) -> Map:
    """Left-to-right composition f_{w_1} o f_{w_2} o ... o f_{w_n}: each map
    f(x) = lam*x + t*(1 - lam) takes (r, c) to (r*lam, r*(t*(1 - lam)) + c)."""
    if len(w) == 0:
        raise EmptyWord("cannot compose the empty word")
    ratio, intercept = 1, 0
    for group, member in w:
        lam, t = sys.ratios[group - 1][member - 1], sys.fixed_points[group - 1]
        ratio, intercept = ratio * lam, ratio * (t * (1 - lam)) + intercept
    return Map(ratio, intercept)


def count_vector(w) -> dict:
    """Per-symbol occurrence counts {(group, member): count}."""
    counts: dict = {}
    for s in w:
        counts[s] = counts.get(s, 0) + 1
    return counts


def class_weight(sig, p):
    """Total p-weight of all words sharing this signature.

    Equals p_w times the product over blocks of |b|! / prod (counts!).
    Multinomials go through log-space in float mode; exact in rational mode.
    """
    if p.mode == "rational":
        from fractions import Fraction
        total = Fraction(1)
        for group, counts in sig:
            total *= math.factorial(sum(c for _, c in counts))
            for member, count in counts:
                total /= math.factorial(count)
                total *= p.weights[group - 1][member - 1] ** count
        return total
    log_total = 0.0
    for group, counts in sig:
        log_total += math.lgamma(sum(c for _, c in counts) + 1)
        for member, count in counts:
            log_total -= math.lgamma(count + 1)
            w = p.weights[group - 1][member - 1]
            if w == 0.0:
                return 0.0
            log_total += count * math.log(w)
    return math.exp(log_total)


def enumerate_words(sys, n: int):
    """All words of length n in lexicographic order."""
    L = sys.n_maps
    if L**n > ENUM_BUDGET:
        raise BudgetExceeded(f"L^n = {L}^{n} exceeds budget {ENUM_BUDGET}")
    symbols = [(i + 1, j + 1) for i, row in enumerate(sys.ratios)
               for j in range(len(row))]
    return itertools.product(symbols, repeat=n)


def enumerate_signatures(sys, n: int):
    """All block signatures realized by words of length n, each once, in
    the order of their first word."""
    return list(dict.fromkeys(map(decompose, enumerate_words(sys, n))))


def word_records(sys, n: int, p=None):
    """(signature, composed map, weight) of every word of length n, in
    lexicographic order.  The weight is the product of the word's symbol
    weights under p, and None without p."""
    for w in enumerate_words(sys, n):
        weight = None if p is None else math.prod(
            p.weights[g - 1][m - 1] for g, m in w)
        yield decompose(w), compose(sys, w), weight


def fraction_min_gap(records, n: int) -> dict:
    """The rational probe's depth-n report fields from the walk's records
    (signature, product, Pi), computed on the Fractions themselves: bucket
    by the exact product, sort each bucket by Pi, and take the first
    smallest adjacent difference in bucket order; ``implied_b`` is
    -log2 of that gap as a double, over n."""
    buckets: dict = {}
    for sig, prod, pi in records:
        buckets.setdefault(prod, []).append((pi, sig))
    best = witness = None
    for bucket in buckets.values():
        bucket.sort(key=lambda rec: rec[0])
        for (pa, sig_a), (pb, sig_b) in zip(bucket, bucket[1:]):
            if best is None or pb - pa < best:
                best, witness = pb - pa, (sig_a, sig_b)
                if best == 0:
                    break
        if best == 0:
            break
    gap = None if best is None else float(best)
    return {"class_count": sum(map(len, buckets.values())), "min_gap": gap,
            "exact_zero": best == 0, "witness": witness,
            "witness_words": None if witness is None else
            tuple(map(representative, witness)),
            "implied_b": -math.log2(gap) / n if gap else None}


def log_moments_untrimmed(row, rho, n, logs) -> list:
    """D_k = sum_j q_j E log(Y_jk + 1) - log(k + 1), Y_jk ~ Bin(k, q_j), for
    k < n over the members p_j = rho q_j of a group, with logs[c] =
    log(c + 1): every row k carries all k + 1 entries of Pascal's rule, and
    a pair reads one row forwards for Y and backwards for k - Y."""
    ps = [float(w) for w in row]
    members = ps[:len(ps) if len(ps) > 2 else len(ps) - 1]
    d = [0.0] * n
    for w in members:
        b = 1.0 - w / rho
        q = 1.0 - b
        v = [1.0]
        for k in range(1, n):
            v = [b * x + q * y for x, y in zip(v + [0.0], [0.0] + v)]
            d[k] += q * sum(map(mul, v, logs))
            if len(ps) == 2:
                d[k] += b * sum(map(mul, reversed(v), logs))
    return [x - lg for x, lg in zip(d, logs)] if members else d


def phi_monte_carlo_per_sample(sys, p, samples: int, seed: int) -> tuple:
    """(mean, stderr) of log(Y / (k - 1)) over ``samples`` runs drawn one
    by one, for positive weights p: the symbols' histogram by one
    multinomial draw, then per symbol each run k - 1 ~ Geometric(1 - rho)
    on 1, 2, ... and its count Y = 1 + Bin(k - 2, w / rho)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    flat = np.array([float(w) for row in p.weights for w in row])
    histogram = iter(rng.multinomial(samples, flat / flat.sum()).tolist())
    vals = []
    for row in p.weights:
        rho = math.fsum(map(float, row))
        for w in row:
            drawn = next(histogram)
            if len(row) == 1:
                vals.append(np.zeros(drawn))
                continue
            run = rng.geometric(1.0 - rho, size=drawn)
            y = 1 + rng.binomial(run - 1, float(w) / rho)
            vals.append(np.log(y / run))
    v = np.concatenate(vals)
    return float(v.mean()), float(v.std(ddof=1)) / math.sqrt(samples)


def cell_counts(ms, x, y=None) -> list:
    """Per scale m of ms, the point counts of the occupied dyadic cells of
    side 2^-m, in increasing order: each coordinate's bin floor(v 2^m) is
    clipped into 0..2^m - 1, and a 2-D cell is the pair of bins."""
    import numpy as np
    out = []
    for m in ms:
        scale = 2 ** m
        cell = np.clip((x * scale).astype(np.int64), 0, scale - 1)
        if y is not None:
            cell = cell * scale + np.clip((y * scale).astype(np.int64), 0,
                                          scale - 1)
        out.append(sorted(np.unique(cell, return_counts=True)[1].tolist()))
    return out


def spectral_radius(M, tol: float = 1e-12) -> float:
    """Perron root by power iteration on the matrix over its largest row sum
    plus Id: each step takes y = shifted @ x and its 1-norm, then the
    residual's product and 1-norm, all with numpy."""
    import numpy as np
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    sigma = float(A.sum(axis=1).max())
    if sigma == 0.0:
        return 0.0
    shifted = A / sigma + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_STEPS):
        y = shifted @ x
        lam = float(np.linalg.norm(y, 1))
        if lam == 0.0:
            return 0.0
        x = y / lam
        res = float(np.linalg.norm(shifted @ x - lam * x, 1))
        if res <= max(tol, 1e-15) * lam:
            return (lam - 1.0) * sigma
    raise Unsettled(f"power iteration did not settle in {POWER_STEPS} steps")


def cover_count(sys, m: int) -> int:
    """The dyadic boxes of side 2^-m that meet the cylinder cover, in exact
    arithmetic on the inputs as doubles: each distinct map x -> lam x +
    t (1 - lam) and every composition as Fractions, cylinders refined while
    their rescaled length is at least 2^-m, and each cylinder [lo, hi]
    meeting the boxes floor(lo 2^m) to floor(hi 2^m), the right end 1 in
    the last box.  Exactly, 0 <= lo and hi <= 1."""
    fixed = [Fraction(float(t)) for t in sys.fixed_points]
    maps = {(Fraction(float(lam)), t * (1 - Fraction(float(lam))))
            for t, row in zip(fixed, sys.ratios) for lam in row}
    t_min, diam = min(fixed), max(fixed) - min(fixed)
    scale = 2**m
    boxes = set()
    stack = [(Fraction(1), Fraction(0))]
    while stack:
        r, c = stack.pop()
        if r * scale >= 1:
            stack.extend((r * lam, r * b + c) for lam, b in maps)
            continue
        lo = (c + r * t_min - t_min) / diam
        boxes.update(range(math.floor(lo * scale),
                           min(math.floor((lo + r) * scale), scale - 1) + 1))
    return len(boxes)


def measure_samples(sys, p, samples, min_scale, seed, chunk_size):
    """numpy array of ``samples`` words' points f_w(t_min), ``chunk_size``
    at a time from one generator seeded with ``seed``: every step draws the
    symbols of a chunk's unfinished words with ``rng.choice`` and masks all
    its entries, until every word's ratio is below 2^-min_scale."""
    import numpy as np
    rng = np.random.default_rng(seed)
    maps = sys.maps()
    flat_p = np.array([float(w) for w in p.flat()])
    ratios = np.array([float(r) for r, _ in maps])
    intercepts = np.array([float(c) for _, c in maps])
    target = 2.0 ** (-min_scale)
    t_min = float(min(sys.fixed_points))

    def chunk(n):
        r = np.ones(n)
        c = np.zeros(n)
        active = np.ones(n, dtype=bool)
        while np.any(active):
            idx = rng.choice(len(maps), size=int(active.sum()), p=flat_p)
            c[active] = c[active] + r[active] * intercepts[idx]
            r[active] = r[active] * ratios[idx]
            active = r >= target
        return c + r * t_min

    return np.concatenate([chunk(min(chunk_size, samples - i))
                           for i in range(0, samples, chunk_size)])


def line_chaos_points(sys, p, samples: int, scale: int, seed: int):
    """numpy array of the points of the chaos game on the line that
    estimate.entropy_slope counts: its _chaos_steps from t_min with the
    weights p, burned in for ``scale``, one step after the other."""
    import numpy as np
    from cfsdim.estimate import _chaos_steps
    maps = [((float(r), float(c)),) for r, c in sys.maps()]
    steps = _chaos_steps(maps, p.flat(), (float(min(sys.fixed_points)),),
                         samples, seed, scale)
    return np.concatenate([x for x, in steps])


def chaos_game_points(sys, points: int, seed: int, scale: int,
                      weights=None):
    """(points, 2) numpy array of the points of the 4-corner chaos game that
    box_dimension_2d and render_attractor_ppm read step by step:
    estimate._chaos_steps from (0.5, 0.5), burned in for ``scale`` (the
    raster's is (size - 1).bit_length(), 6 for 64 pixels), one step after
    the other."""
    import numpy as np
    from cfsdim.estimate import _chaos_steps
    steps = _chaos_steps(sys.maps(), weights, (0.5, 0.5), points, seed,
                         scale)
    return np.concatenate([np.column_stack(step) for step in steps])


def attractor_ppm(sys, points: int, seed: int, size: int) -> bytes:
    """The binary PPM (P6) of the chaos game's points on a size x size grid
    as a 2-D image: each chunk's pixels marked black, then the whole image
    repeated into RGB."""
    import numpy as np
    from cfsdim.estimate import _chaos_steps
    img = np.full((size, size), 255, dtype=np.uint8)
    for x, y in _chaos_steps(sys.maps(), None, (0.5, 0.5), points, seed,
                             (size - 1).bit_length()):
        xi = np.clip((x * size).astype(int), 0, size - 1)
        yi = np.clip(((1.0 - y) * size).astype(int), 0, size - 1)
        img[yi, xi] = 0
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    return f"P6\n{size} {size}\n255\n".encode() + rgb.tobytes()
