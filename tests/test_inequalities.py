"""Inequalities between the paper's quantities, checked by hypothesis
wherever they hold, separated system or not.

An inequality needs no reference value, so it can be checked on any input.
Each one allows only the error that the library reports or that its
rounding is proven to stay within.
"""

import math

from hypothesis import given, reject, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ProbVector, attractor_dimension,
                    ifs, measure_dimension, phi_lower_bound, phi_series)

# log-uniform over four decades: one map may hold almost all of its
# group's mass, and one group almost all of the system's
SKEWED_WEIGHT = st.floats(-4.0, 0.0).map(lambda t: 10.0 ** t)


@st.composite
def weighted_systems(draw):
    """(system, weights): 2-4 groups of 1-3 maps with ratios in
    [0.02, 0.6], and skewed positive weights."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    ratios = [[draw(st.floats(0.02, 0.6)) for _ in range(k)] for k in sizes]
    raw = [[draw(SKEWED_WEIGHT) for _ in range(k)] for k in sizes]
    total = math.fsum(map(math.fsum, raw))
    sys = CFSystem([float(i) for i in range(len(sizes))], ratios)
    return sys, ProbVector([[w / total for w in row] for row in raw])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weighted_systems())
def test_measure_dimension_at_most_attractor_dimension(case):
    """min{1, (h_p + Phi)/chi} <= min{1, s_0}: the measure lives on the
    attractor K.  Both formulas give the true dimensions under weak
    exponential separation, which holds on a dense set of parameters, and
    both are continuous, so the inequality holds everywhere.

    The left side may read high by the Phi bound over chi.  The right side
    is the upper end b of s_0's bracket, where the library's F(b) - (N - 1)
    exceeds the rounding bound of F, so s_0 lies below b.  Equality holds
    for the natural weights of single-map groups (ratios 0.02 and 0.02 with
    equal weights), where b has to hold s_0 to the last bit."""
    sys, p = case
    try:
        rep = measure_dimension(sys, p)
    except BudgetExceeded:
        reject()
    d = rep.diagnostics
    lower = rep.raw - d["phi_tail_bound"] / d["lyapunov"]
    b = attractor_dimension(sys).diagnostics["bracket"][1]
    assert min(1.0, lower) <= min(1.0, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weighted_systems())
def test_phi_between_jensen_bound_and_zero(case):
    """phi_lower_bound(p) <= Phi <= 0.  The lower end is Jensen's
    inequality, the upper one h_RW <= h_p.  The series value may read off
    by its tail bound.  phi_lower_bound sums n terms w log(w + 1 - rho):
    rho, 1 - rho and the sum inside the log move its argument, at least
    w, by at most 3u, so each term by 3u; the log (2u), the product and
    the n - 1 sums add at most gamma_{n+2} of the total.  gamma_{4n}
    (1 + |bound|) covers both."""
    sys, p = case
    try:
        res = phi_series(sys, p)
    except BudgetExceeded:
        reject()
    lower = phi_lower_bound(sys, p)
    rounding = ifs._gamma(4 * len(p.flat())) * (1.0 + abs(lower))
    assert lower - rounding <= res.value + res.tail_bound
    assert res.value - res.tail_bound <= 0.0
