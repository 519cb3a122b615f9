"""Domain model for IFSs on the line whose maps share fixed points.

A system is a family of similarities f_{i,j}(x) = lam[i][j]*x + t[i]*(1 - lam[i][j]):
group ``i`` collects the maps fixed at t[i].  All values may be floats or
exact rationals (``fractions.Fraction``); symbolic operations honour the
rational mode, root-finding always runs in floating point.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Sequence

PROB_SUM_TOL = 1e-12
# The samplers draw and count their samples a chunk at a time (SAMPLE_CHUNK
# runs, CHAOS_CHAINS chaos-game points), so no sampler keeps its samples;
# the cell counters of the entropy slope and box2d keep the occupied cells
# at the finest scale, which grow with the sample count while that grid
# has more cells than there are samples
SAMPLE_CAP = 10**7
SAMPLE_CHUNK = 1 << 14
MC_RUN_CAP = 10**6      # the longest sampled run: in one group, or a burn-in
CHAOS_CHAINS = 4096


class ValidationError(ValueError):
    """A system or probability vector violates a structural invariant."""


class BudgetExceeded(RuntimeError):
    """An enumeration would visit more states than the configured budget."""


def _json_value(v):
    """``v`` as plain JSON data.  A ``Block`` converts through ``to_json``;
    any other named tuple (a report) gives the dict of its fields: a
    required field always appears, as null when None, and one whose default
    is None only while it is not None.  Dicts, tuples and lists convert
    recursively."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if hasattr(v, "_fields"):
        defaults = v._field_defaults
        return {k: _json_value(x) for k, x in zip(v._fields, v)
                if not (x is None and k in defaults and defaults[k] is None)}
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return v


class _Value:
    """Base of the value types whose constructors coerce or validate: the
    ``__slots__`` are the fields, compared, hashed and shown in order, set
    once by ``__init__`` through ``object.__setattr__``; as the constructor
    takes them in order, a copy or a pickle rebuilds through it."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return (self._key() == other._key()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def _as_mode(value, mode: str):
    if mode == "rational":
        from fractions import Fraction   # so a float run never loads it
        if isinstance(value, (Fraction, int, str)):
            return Fraction(value)
        raise ValidationError(
            f"rational mode requires exact inputs, got {value!r}")
    return float(value)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = ulp(0.5) the unit roundoff."""
    return n * math.ulp(0.5) / (1.0 - n * math.ulp(0.5))


def _total(xs):
    """The sum of ``xs`` from 0, left to right: the same double on every
    interpreter (built-in ``sum`` compensates floats from 3.12 on), and an
    exact total of ints or Fractions."""
    return reduce(add, xs, 0)


def _refuse(errors: list) -> None:
    """Raise one ValidationError naming every violated invariant, if any."""
    if errors:
        raise ValidationError("; ".join(errors))


class CFSystem(_Value):
    """Common-fixed-point system: ``fixed_points[i]`` is shared by the maps
    with ratios ``ratios[i]`` (a ragged tuple of tuples); ``mode`` is
    "float" or "rational".  Building one that breaks validate_system's
    rules raises ValidationError."""

    __slots__ = ("fixed_points", "ratios", "mode")

    def __init__(self, fixed_points: Sequence, ratios: Sequence[Sequence],
                 mode: str = "float"):
        if mode not in ("float", "rational"):
            raise ValidationError(f"unknown mode {mode!r}")
        object.__setattr__(self, "fixed_points",
                           tuple(_as_mode(t, mode) for t in fixed_points))
        object.__setattr__(self, "ratios",
                           tuple(tuple(_as_mode(r, mode) for r in row)
                                 for row in ratios))
        object.__setattr__(self, "mode", mode)
        _refuse(validate_system(self))

    @property
    def n_groups(self) -> int:
        return len(self.fixed_points)

    @property
    def group_sizes(self) -> tuple:
        return tuple(len(row) for row in self.ratios)

    @property
    def n_maps(self) -> int:
        return sum(self.group_sizes)

    def maps(self) -> tuple:
        """The similarities as (ratio, intercept) pairs, group by group and
        member by member: f_{i,j}(x) = ratio*x + intercept."""
        return tuple((lam, t * (1 - lam))
                     for t, row in zip(self.fixed_points, self.ratios)
                     for lam in row)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CFSystem":
        if d.get("type", "cfs") != "cfs":
            raise ValidationError(f"not a cfs descriptor: {d.get('type')!r}")
        return cls(d["fixed_points"], d["ratios"], d.get("mode", "float"))


class ProbVector(_Value):
    """Probability weights aligned with a CFSystem's ragged shape.  Building
    one that breaks weight_errors' rule raises ValidationError."""

    __slots__ = ("weights", "mode")

    def __init__(self, weights: Sequence[Sequence], mode: str = "float"):
        object.__setattr__(self, "weights",
                           tuple(tuple(_as_mode(p, mode) for p in row)
                                 for row in weights))
        object.__setattr__(self, "mode", mode)
        _refuse(weight_errors(self.flat()))

    def flat(self) -> list:
        return [p for row in self.weights for p in row]

    @classmethod
    def uniform(cls, sys: CFSystem) -> "ProbVector":
        L = sys.n_maps
        if sys.mode == "rational":
            from fractions import Fraction
            return cls([[Fraction(1, L)] * n for n in sys.group_sizes],
                       mode="rational")
        return cls([[1.0 / L] * n for n in sys.group_sizes])


def _double(v) -> float:
    """``v`` as a double; a rational past the range as a signed infinity."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def validate_system(sys: CFSystem) -> list:
    """Return the list of violated invariants (empty means ok), read on the
    doubles every formula computes with: each ratio in (0, 1), the fixed
    points finite, pairwise distinct and spanning a finite length."""
    errors = []
    if sys.n_groups < 2:
        errors.append("EmptyGroup: need at least 2 fixed points")
    for i, row in enumerate(sys.ratios):
        if len(row) == 0:
            errors.append(f"EmptyGroup: group {i + 1} has no maps")
        for j, lam in enumerate(row):
            if not (0 < _double(lam) < 1):
                errors.append(f"RatioOutOfRange: lambda[{i + 1}][{j + 1}]={lam}")
    seen = {}
    for i, t in enumerate(map(_double, sys.fixed_points)):
        if not math.isfinite(t):
            errors.append(f"NonFiniteFixedPoint: t[{i + 1}]={sys.fixed_points[i]}")
        elif t in seen:
            errors.append(f"DuplicateFixedPoint: t[{seen[t] + 1}] == t[{i + 1}]")
        else:
            seen[t] = i
    if seen and not math.isfinite(max(seen) - min(seen)):
        errors.append("InfiniteSpan: max t - min t overflows a double")
    if len(sys.ratios) != len(sys.fixed_points):
        errors.append("ShapeMismatch: ratios rows != fixed points")
    return errors


def check_tol(tol: float) -> None:
    """The one tolerance rule: a tolerance must be finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance must be finite and > 0, got {tol}")


def check_samples(n: int, seed: int) -> None:
    """The one sampling rule: at least one sample, a nonnegative seed and at
    most SAMPLE_CAP samples, checked before anything is allocated."""
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n > SAMPLE_CAP:
        raise BudgetExceeded(f"{n} samples exceed the cap {SAMPLE_CAP}")


def _chaos_steps(maps: Sequence, weights, start: Sequence, points: int,
                 seed: int, scale: int):
    """The chaos game, one recorded step at a time: each step a tuple of
    one array over the chains per coordinate, the last step cut so that
    ``points`` points come out.

    ``maps`` holds one (ratio, intercept) pair per coordinate for each map;
    a step's map is drawn with ``weights``, uniformly when None, by the
    inverse of their normalised cumulative sum at a uniform draw (the
    indices ``Generator.choice(n, size, p=weights)`` returns).
    CHAOS_CHAINS chains start at ``start`` and advance in lockstep, so the
    recursion vectorizes.  Each chain is burned in for B steps, the larger
    of 1 (for an m_a that underflows to 0) and (scale + 42) log 2 / -log m_a
    over the coordinates a, m_a = sum_i p_i r_{i,a} the expected ratio.  By
    Markov's inequality a product of B ratios then exceeds 2^-(scale+2)
    with probability at most m_a^B 2^(scale+2) <= 2^-40, so B needs no
    floor; below it, each coordinate of a recorded point lies within
    2^-(scale+2) hull widths of a point drawn from the invariant measure, as
    the chain and the backward composition have the same law at each
    step.  A B past MC_RUN_CAP raises BudgetExceeded.  The
    sample rule and the burn-in are checked on the call; the iterator
    returned draws.  Deterministic given seed."""
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
    coords = [np.array(pairs).T for pairs in zip(*maps)]  # (ratios, intercepts)
    chains = min(CHAOS_CHAINS, points)
    steps = -(-points // chains)  # ceil

    def run():
        xs = [np.full(chains, float(s)) for s in start]
        for i in range(burn_in + steps):
            c = cdf.searchsorted(rng.random(chains), side="right")
            xs = [r[c] * x + k[c] for (r, k), x in zip(coords, xs)]
            if i >= burn_in:
                left = points - (i - burn_in) * chains
                yield tuple(x[:left] for x in xs) if left < chains \
                    else tuple(xs)

    return run()


def weight_errors(weights: Sequence) -> list:
    """The one weight rule: every weight finite and nonnegative, the total
    1 (exactly in rational mode, within PROB_SUM_TOL in floats)."""
    errors = []
    for w in weights:
        if not math.isfinite(w):
            errors.append(f"NonFiniteWeight: {w}")
        elif w < 0:
            errors.append(f"NegativeWeight: {w}")
    tot = _total(weights)
    # a float total is checked within PROB_SUM_TOL, any other (Fraction) exactly
    if abs(tot - 1) > (PROB_SUM_TOL if isinstance(tot, float) else 0):
        errors.append(f"SumNotOne: total={tot}")
    return errors


def validate_probabilities(sys: CFSystem, p: ProbVector) -> list:
    """The shape rule, the one rule that needs a system and weights together:
    one weight per map, group by group (empty means ok)."""
    if tuple(len(r) for r in p.weights) != sys.group_sizes:
        return ["ShapeMismatch: weights do not match system shape"]
    return []


def check_shape(sys: CFSystem, p: ProbVector) -> None:
    """Raise ValidationError unless ``p`` has ``sys``'s shape."""
    _refuse(validate_probabilities(sys, p))


def prune_zeros(sys: CFSystem, p: ProbVector) -> ProbVector:
    """``p`` without its zero weights and emptied groups, after checking
    that ``p`` has ``sys``'s shape.  One group left means the self-similar
    measure is a point mass at that group's fixed point."""
    check_shape(sys, p)
    rows = [[w for w in row if w > 0] for row in p.weights]
    return ProbVector([row for row in rows if row], mode=p.mode)


def load_system(d: dict) -> tuple:
    """(system, probabilities-or-None) from a JSON system descriptor dict."""
    sys, weights = CFSystem.from_json_dict(d), d.get("probabilities")
    return sys, None if weights is None else ProbVector(weights, mode=sys.mode)
