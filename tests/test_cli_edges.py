"""The CLI over the edges of its input range, driven in-process.

Every run must end in one of the documented ways: exit 0 with a stdout that
is strict JSON (no NaN or Infinity), or exit 2 (validation) or 3 (budget)
with a one-line message.  A traceback, a warning (an error in this suite),
or any other exit fails.  The cylinder-cover and power-iteration caps are
lowered so that a run that ends at a cap ends in well under a second.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from cfsdim import dimension, estimate
from cfsdim.cli import main

LINE_COMMANDS = [
    ["measure-dim"],
    ["phi"],
    ["rw-entropy", "--depth", "4"],
    ["attractor-dim", "--gd-depth", "2", "--box", "6"],
    ["esc-probe", "--n-max", "3"],
    ["estimate", "--kind", "box1d", "--m-lo", "2", "--m-hi", "6"],
    ["estimate", "--kind", "entropy", "--points", "2000", "--m-lo", "2",
     "--m-hi", "6"],
]
FOUR_CORNER_COMMANDS = [
    ["fourcorner"],
    ["estimate", "--kind", "box2d", "--points", "2000", "--m-lo", "2",
     "--m-hi", "6"],
]

# the ends of the double range and of (0, 1), and some ordinary values
FLOAT_POINTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1e308, 1e308, 5e-324, -2.5e-308, 1e-300]),
    st.floats(-1e308, 1e308, allow_nan=False))
FLOAT_RATIOS = st.one_of(
    st.sampled_from([5e-324, 1e-309, 1e-300, 0.5, 1 - 2**-53, 1 - 1e-12]),
    st.floats(5e-324, 1 - 2**-53))
BIG = st.integers(1, 10**400)


@st.composite
def rational_values(draw, unit: bool):
    """A rational "num/den" with numbers of up to 400 digits: in (0, 1) when
    ``unit``, else of either sign."""
    a, b = draw(BIG), draw(BIG)
    if unit:
        return f"{a}/{a + b}"
    return f"{draw(st.sampled_from([-1, 1])) * a}/{b}"


def _weights(draw, sizes, rational: bool):
    """A weight list of the shape ``sizes``: uniform (None), or counts from
    0 up, one group possibly holding all but a sliver of the mass."""
    if draw(st.booleans()):
        return None
    counts = [[draw(st.sampled_from([0, 1, 2, 10**16]))
               for _ in range(k)] for k in sizes]
    total = sum(map(sum, counts))
    if total == 0:
        return None
    if rational:
        return [[f"{c}/{total}" for c in row] for row in counts]
    return [[c / total for c in row] for row in counts]


@st.composite
def line_systems(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    rational = draw(st.booleans())
    if rational:
        points = draw(st.lists(rational_values(False), min_size=len(sizes),
                               max_size=len(sizes), unique=True))
        ratios = [[draw(rational_values(True)) for _ in range(k)]
                  for k in sizes]
    else:
        points = draw(st.lists(FLOAT_POINTS, min_size=len(sizes),
                               max_size=len(sizes), unique=True))
        ratios = [[draw(FLOAT_RATIOS) for _ in range(k)] for k in sizes]
    desc = {"type": "cfs", "fixed_points": points, "ratios": ratios,
            "mode": "rational" if rational else "float"}
    return desc, _weights(draw, sizes, rational)


@st.composite
def four_corner_systems(draw):
    grid = st.lists(st.lists(FLOAT_RATIOS, min_size=2, max_size=2),
                    min_size=2, max_size=2)
    desc = {"type": "four_corner", "gamma": draw(grid), "lambda": draw(grid)}
    spec = draw(st.sampled_from([None, "natural", "[0.5, 0.5, 0, 0]",
                                 "[1e-17, 0.25, 0.25, 0.5]"]))
    return desc, spec


@st.composite
def runs(draw):
    """(descriptor, argv after the descriptor's path)."""
    if draw(st.integers(0, 3)) == 0:
        desc, spec = draw(four_corner_systems())
        argv = list(draw(st.sampled_from(FOUR_CORNER_COMMANDS)))
    else:
        desc, weights = draw(line_systems())
        argv = list(draw(st.sampled_from(LINE_COMMANDS)))
        spec = None if weights is None else json.dumps(weights)
    if spec is not None and argv[0] not in ("attractor-dim", "esc-probe"):
        argv += ["--probabilities", spec]
    return desc, argv


def _strict(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_run_ends_documented(run):
    desc, argv = run
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(estimate, "DEFAULT_COVER_BUDGET", 10**5), \
            mock.patch.object(dimension, "POWER_ITER_CAP", 10**4):
        path = os.path.join(tmp, "sys.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict)
    else:
        assert code in (2, 3), (code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
