"""Domain model for IFSs on the line whose maps share fixed points.

A system is a family of similarities f_{i,j}(x) = lam[i][j]*x + t[i]*(1 - lam[i][j]):
group ``i`` collects the maps fixed at t[i].  All values may be floats or
exact rationals (``fractions.Fraction``); symbolic operations honour the
rational mode, root-finding always runs in floating point.  The 4-corner
system of ``fourcorner`` and its weights are modelled here too.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Sequence

PROB_SUM_TOL = 1e-12
# The samplers draw and count their samples a chunk at a time (SAMPLE_CHUNK
# runs, estimate.CHAOS_CHAINS chaos-game points), so none keeps its samples;
# the cell counters of the entropy slope and box2d keep the occupied cells
# at the finest scale, which grow with the sample count while that grid
# has more cells than there are samples
SAMPLE_CAP = 10**7
SAMPLE_CHUNK = 1 << 14
MC_RUN_CAP = 10**6      # the longest sampled run: in one group, or a burn-in


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


class FourCornerSystem(_Value):
    """gamma are the x-contractions, lam the y-contractions, both 2x2:
    row 1 holds the ratios of the maps fixed at coordinate 0."""

    __slots__ = ("gamma", "lam")

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourCornerSystem":
        if d.get("type") != "four_corner":
            raise ValidationError(f"not a four_corner descriptor: {d.get('type')!r}")
        return cls(d["gamma"], d["lambda"])


class FourCornerProb(_Value):
    __slots__ = ("p",)

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
    base = [text for broken, text in (
        (g[0][0] + g[1][0] > 1, "gamma11 + gamma21 > 1"),
        (g[0][1] + g[1][1] > 1, "gamma12 + gamma22 > 1"),
        (l[0][0] + l[1][0] > 1, "lambda11 + lambda21 > 1"),
        (l[0][1] + l[1][1] > 1, "lambda12 + lambda22 > 1"),
        (min(g[0][1] + g[1][0], l[0][1] + l[1][0]) > 1,
         "min(gamma12+gamma21, lambda12+lambda21) > 1"),
        (min(g[0][0] + g[1][1], l[0][0] + l[1][1]) > 1,
         "min(gamma11+gamma22, lambda11+lambda22) > 1")) if broken]
    dom = [text for broken, text in (
        (l[0][0] > g[0][0], "lambda11 > gamma11"),
        (l[1][1] > g[1][1], "lambda22 > gamma22"),
        (l[0][1] > g[1][0], "lambda12 > gamma21"),
        (l[1][0] > g[0][1], "lambda21 > gamma12")) if broken]
    return {"open_set_ok": not base, "open_set_violations": base,
            "domination_ok": not dom, "domination_violations": dom}


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
