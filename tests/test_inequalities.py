"""Inequalities between the paper's quantities, checked by hypothesis
wherever they hold, separated system or not.

An inequality needs no reference value, so it can be checked on any input.
Each one allows only the error that the library reports or that its
rounding is proven to stay within.
"""

import math

from hypothesis import assume, given, reject, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, FourCornerProb,
                    FourCornerSystem, ProbVector, attractor_dimension, ifs,
                    measure_dimension, measure_dimension_4c, phi_lower_bound,
                    phi_series, validate_4c)

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


@st.composite
def four_corner_cases(draw):
    """(system, weights): a 4-corner system that meets the rectangular
    open-set condition, each column pair of gamma and of lambda drawn in
    [0.02, 0.96] with its sum at most 0.98, and four weights, each 0 or
    skewed positive, not all 0."""
    def column():
        u = draw(st.floats(0.02, 0.96))
        pair = [u, draw(st.floats(0.02, 0.98 - u))]
        return pair[::-1] if draw(st.booleans()) else pair

    gamma, lam = (list(zip(column(), column())) for _ in range(2))
    sys = FourCornerSystem(gamma, lam)
    assume(validate_4c(sys)["open_set_ok"])
    raw = [draw(st.one_of(st.just(0.0), SKEWED_WEIGHT)) for _ in range(4)]
    total = math.fsum(raw)
    assume(total > 0.0)
    return sys, FourCornerProb([w / total for w in raw])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(four_corner_cases())
def test_4c_measure_dimension_between_line_dimension_and_entropy_rate(case):
    """dim_a <= raw <= h/chi_a for the 4-corner measure, a the less
    contracted coordinate (chi_a <= chi_b) and dim_a the measure dimension
    of its projection.  raw = dim_a + (h - chi_a dim_a)/chi_b, and
    chi_a dim_a <= h + Phi_a <= h, so the added term lies between 0 and
    (h - chi_a dim_a)/chi_a.

    Phi_a <= 0 holds only within its reported bound, which may move either
    side by that bound over chi_a.  gamma_8 (h/chi_a + 1) covers the
    rounding: when a is y, dim_a's report sums h in the y order (2 gamma_3 h
    apart from the x order), and each side takes a few operations more."""
    sys, p = case
    try:
        rep = measure_dimension_4c(sys, p)
    except BudgetExceeded:     # the Phi series' cell cap near group mass 1
        assume(False)
    d = rep.diagnostics
    a, rows, q = (("x", sys.gamma, p.x_grouping()) if d["chi_y"] >= d["chi_x"]
                  else ("y", sys.lam, p.y_grouping()))
    dim_a = measure_dimension(CFSystem([0.0, 1.0], rows), q, 1e-12).dimension
    h, chi_a = d["entropy"], d[f"chi_{a}"]
    slack = (d[f"phi_{a}_tail_bound"] + ifs._gamma(8) * (h + chi_a)) / chi_a
    assert dim_a - slack <= rep.raw <= h / chi_a + slack
