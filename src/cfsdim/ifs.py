"""Domain model for IFSs on the line whose maps share fixed points.

A system is a family of similarities f_{i,j}(x) = lam[i][j]*x + t[i]*(1 - lam[i][j]):
group ``i`` collects the maps fixed at t[i].  All values may be floats or
exact rationals (``fractions.Fraction``); symbolic operations honour the
rational mode, root-finding always runs in floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Number = Union[float, Fraction]

PROB_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """A system or probability vector violates a structural invariant."""


class DegenerateMeasure(ValidationError):
    """All probability mass sits in a single fixed-point group."""


class BudgetExceeded(RuntimeError):
    """An enumeration would visit more states than the configured budget."""


@dataclass(frozen=True, order=True)
class Symbol:
    """One map of the system: ``group`` indexes the fixed point, ``member``
    the contraction ratio within that group.  Both are 1-based."""

    group: int
    member: int


@dataclass(frozen=True)
class AffineMap1D:
    """A 1-D similarity x -> ratio*x + intercept.  Two maps are equal iff
    their (ratio, intercept) pairs are."""

    ratio: Number
    intercept: Number

    def __call__(self, x: Number) -> Number:
        return self.ratio * x + self.intercept

    def compose(self, other: "AffineMap1D") -> "AffineMap1D":
        """self after other: (self o other)(x)."""
        return AffineMap1D(self.ratio * other.ratio,
                           self.ratio * other.intercept + self.intercept)


def _as_mode(value, mode: str):
    if mode == "rational":
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ValidationError(
            f"rational mode requires exact inputs, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CFSystem:
    """Common-fixed-point system: ``fixed_points[i]`` is shared by the maps
    with ratios ``ratios[i]``."""

    fixed_points: tuple
    ratios: tuple          # tuple of tuples, ragged
    mode: str = "float"    # "float" | "rational"

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

    @property
    def n_groups(self) -> int:
        return len(self.fixed_points)

    @property
    def group_sizes(self) -> tuple:
        return tuple(len(row) for row in self.ratios)

    @property
    def n_maps(self) -> int:
        return sum(self.group_sizes)

    def symbols(self):
        """All symbols in lexicographic order."""
        return [Symbol(i + 1, j + 1)
                for i, row in enumerate(self.ratios)
                for j in range(len(row))]

    def ratio(self, s: Symbol) -> Number:
        return self.ratios[s.group - 1][s.member - 1]

    def fixed_point(self, s: Symbol) -> Number:
        return self.fixed_points[s.group - 1]

    def flat_ratios(self) -> list:
        return [r for row in self.ratios for r in row]

    def to_json_dict(self, probabilities: "ProbVector | None" = None) -> dict:
        def enc(v):
            return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v
        d = {
            "type": "cfs",
            "fixed_points": [enc(t) for t in self.fixed_points],
            "ratios": [[enc(r) for r in row] for row in self.ratios],
            "mode": self.mode,
        }
        if probabilities is not None:
            d["probabilities"] = [[enc(p) for p in row]
                                  for row in probabilities.weights]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CFSystem":
        if d.get("type", "cfs") != "cfs":
            raise ValidationError(f"not a cfs descriptor: {d.get('type')!r}")
        return cls(d["fixed_points"], d["ratios"], d.get("mode", "float"))


@dataclass(frozen=True)
class ProbVector:
    """Probability weights aligned with a CFSystem's ragged shape."""

    weights: tuple
    mode: str = "float"

    def __init__(self, weights: Sequence[Sequence], mode: str = "float"):
        object.__setattr__(self, "weights",
                           tuple(tuple(_as_mode(p, mode) for p in row)
                                 for row in weights))
        object.__setattr__(self, "mode", mode)

    def weight(self, s: Symbol) -> Number:
        return self.weights[s.group - 1][s.member - 1]

    def total(self) -> Number:
        return sum(p for row in self.weights for p in row)

    def flat(self) -> list:
        return [p for row in self.weights for p in row]

    @classmethod
    def uniform(cls, sys: CFSystem) -> "ProbVector":
        L = sys.n_maps
        if sys.mode == "rational":
            return cls([[Fraction(1, L)] * n for n in sys.group_sizes],
                       mode="rational")
        return cls([[1.0 / L] * n for n in sys.group_sizes])


def validate_system(sys: CFSystem) -> list:
    """Return the list of violated invariants (empty means ok)."""
    errors = []
    if sys.n_groups < 2:
        errors.append("EmptyGroup: need at least 2 fixed points")
    for i, row in enumerate(sys.ratios):
        if len(row) == 0:
            errors.append(f"EmptyGroup: group {i + 1} has no maps")
        for j, lam in enumerate(row):
            if not (0 < lam < 1):
                errors.append(f"RatioOutOfRange: lambda[{i + 1}][{j + 1}]={lam}")
    seen = {}
    for i, t in enumerate(sys.fixed_points):
        if t in seen:
            errors.append(f"DuplicateFixedPoint: t[{seen[t] + 1}] == t[{i + 1}]")
        else:
            seen[t] = i
    if len(sys.ratios) != len(sys.fixed_points):
        errors.append("ShapeMismatch: ratios rows != fixed points")
    return errors


def check_valid(sys: CFSystem) -> None:
    errs = validate_system(sys)
    if errs:
        raise ValidationError("; ".join(errs))


def validate_probabilities(sys: CFSystem, p: ProbVector) -> list:
    errors = []
    if tuple(len(r) for r in p.weights) != sys.group_sizes:
        errors.append("ShapeMismatch: weights do not match system shape")
        return errors
    for row in p.weights:
        for w in row:
            if not math.isfinite(w):
                errors.append(f"NonFiniteWeight: {w}")
            elif w < 0:
                errors.append(f"NegativeWeight: {w}")
    tot = p.total()
    if isinstance(tot, Fraction):
        if tot != 1:
            errors.append(f"SumNotOne: total={tot}")
    elif abs(tot - 1.0) > PROB_SUM_TOL:
        errors.append(f"SumNotOne: total={tot!r}")
    return errors


def map_of(sys: CFSystem, s: Symbol) -> AffineMap1D:
    """The similarity attached to symbol ``s``."""
    lam = sys.ratio(s)
    t = sys.fixed_point(s)
    return AffineMap1D(lam, t * (1 - lam))


def prune_zeros(sys: CFSystem, p: ProbVector) -> tuple:
    """Drop zero-weight symbols (and emptied groups).

    Returns (system, probabilities, degenerate) where ``degenerate`` is True
    when all mass sits in a single group, i.e. the self-similar measure is a
    point mass at that group's fixed point.
    """
    errs = validate_probabilities(sys, p)
    if errs:
        raise ValidationError("; ".join(errs))
    fps, rows, wrows = [], [], []
    for t, lams, ws in zip(sys.fixed_points, sys.ratios, p.weights):
        kept = [(lam, w) for lam, w in zip(lams, ws) if w > 0]
        if kept:
            fps.append(t)
            rows.append([lam for lam, _ in kept])
            wrows.append([w for _, w in kept])
    new_sys = CFSystem(fps, rows, mode=sys.mode)
    new_p = ProbVector(wrows, mode=p.mode)
    degenerate = len(fps) <= 1
    return new_sys, new_p, degenerate


def load_system(path_or_dict) -> tuple:
    """Read a JSON system descriptor; returns (system, probabilities-or-None)."""
    if isinstance(path_or_dict, dict):
        d = path_or_dict
    else:
        with open(path_or_dict) as fh:
            d = json.load(fh)
    sys = CFSystem.from_json_dict(d)
    p = None
    if "probabilities" in d and d["probabilities"] is not None:
        p = ProbVector(d["probabilities"], mode=sys.mode)
    return sys, p
