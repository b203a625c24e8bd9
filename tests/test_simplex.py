import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit.errors import LpInfeasible, LpUnbounded
from momentkit.scalars import FloatMode, RationalMode
from momentkit.simplex import measure_bounds
from oracles import maximize, minimize

R = RationalMode()


def test_basic_max():
    res = maximize(R, [1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert res.value == 4
    assert res.x[0] + res.x[1] == 4


def test_negative_rhs_phase1():
    # x >= 2 and x <= 5
    res = maximize(R, [1], [[-1], [1]], [-2, 5])
    assert res.value == 5
    res = minimize(R, [1], [[-1], [1]], [-2, 5])
    assert res.value == 2


def test_free_variables():
    res = minimize(R, [1], [[-1]], [3])  # x >= -3
    assert res.value == -3


def test_unbounded_detected():
    with pytest.raises(LpUnbounded):
        maximize(R, [1], [[-1]], [0])


def test_infeasible_detected():
    # x <= -1 and -x <= -1 (x >= 1): empty
    with pytest.raises(LpInfeasible):
        maximize(R, [1], [[1], [-1]], [-1, -1])


def test_exact_rational_solution():
    # max x + y st 3x + y <= 7/2, x + 2y <= 5/3 (x, y free): the optimum is
    # the constraint intersection x = 16/15, y = 3/10, value 41/30 exactly
    res = maximize(R, [1, 1], [[3, 1], [1, 2]], [F(7, 2), F(5, 3)])
    x, y = res.x
    assert 3 * x + y <= F(7, 2) and x + 2 * y <= F(5, 3)
    assert res.value == x + y == F(41, 30)
    assert (x, y) == (F(16, 15), F(3, 10))


def test_degenerate_ties_terminate():
    # multiple optima / degenerate pivots must not cycle (Bland's rule)
    res = maximize(R, [1, 1], [[1, 1], [1, 1], [1, 0]], [1, 1, 1])
    assert res.value == 1


def test_float_mode():
    fm = FloatMode(64)
    res = maximize(fm, [1, 2], [[1, 1], [1, -1], [-1, 0], [0, -1]], [4, 2, 0, 0])
    assert fm.to_float(res.value) == pytest.approx(8.0)  # x=0, y=4


# ---------------------------------------------------------------------------
# the moment-space engine: min and max over the nonnegative grid measures


def _columns(grid, degree):
    return [[F(g) ** k for k in range(degree + 1)] for g in grid]


def test_measure_bounds_known_polytope():
    # probability measures on {0, 1, 2} with mean 1: the second moment ranges
    # from 1 (the point mass at 1) to 2 (half at 0, half at 2)
    grid = [0, 1, 2]
    assert measure_bounds(R, _columns(grid, 1), [1, 1], [g * g for g in grid]) == (1, 2)


def test_measure_bounds_empty_set_raises_unbounded():
    # no probability measure on {0, 1} has mean 2
    with pytest.raises(LpUnbounded, match="2-point grid"):
        measure_bounds(R, _columns([0, 1], 1), [1, 2], [0, 1])


def test_measure_bounds_unbounded_objective_raises_infeasible():
    # y_0 - y_1 = 0 leaves the mass free, so y_0 grows without bound
    with pytest.raises(LpInfeasible):
        measure_bounds(R, [[1], [-1]], [0], [1, 0])


def test_measure_bounds_redundant_rows():
    # the two-atom measure (delta_0 + delta_1)/2 on a 3-point grid: five
    # moment rows of rank three, a unique grid measure, min == max
    grid = [0, 1, 2]
    moments = [F(1)] + [F(1, 2)] * 4
    values = [F(math.cos(g)).limit_denominator(10 ** 15) for g in grid]
    low, high = measure_bounds(R, _columns(grid, 4), moments, values)
    assert low == high == (values[0] + values[1]) / 2


def test_measure_bounds_float_agrees_with_rational():
    fm = FloatMode(64)
    grid = [F(k, 3) for k in range(-6, 7)]
    moments = [F(1), F(0), F(1, 2), F(0), F(3, 8)]
    objective = [1 / (1 + g * g) for g in grid]
    exact = measure_bounds(R, _columns(grid, 4), moments, objective)
    approx = measure_bounds(fm, _columns(grid, 4), moments, objective)
    assert exact[0] < exact[1]
    for e, a in zip(exact, approx):
        assert fm.to_float(a) == pytest.approx(float(e), rel=1e-12)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def grid_lps(draw):
    """Small rational LPs in measure form: G columns of length n, often with
    a constant entry (a mass row), zero entries and repeated values for ties
    and degeneracy, and moments that are either a nonnegative combination of
    the columns (feasible) or arbitrary (often infeasible)."""
    size = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(F(0)), st.just(F(1)), small)
    cols = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(size)]
    if draw(st.booleans()):
        cols = [[F(1)] + col[1:] for col in cols]
    if draw(st.booleans()):
        y = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(2)]),
                          min_size=size, max_size=size))
        moments = [sum(yg * col[i] for yg, col in zip(y, cols)) for i in range(n)]
    else:
        moments = draw(st.lists(small, min_size=n, max_size=n))
    objective = draw(st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)]),
                              min_size=size, max_size=size))
    return cols, moments, objective


@given(grid_lps())
@settings(max_examples=150, deadline=None)
def test_measure_bounds_match_primal_oracle(lp):
    # by LP duality the least and greatest objective over the grid measures
    # are the primal optima of max m.x st x.col_g <= f_g and min m.x st
    # x.col_g >= f_g; either both sides solve, to equal values, or both raise
    cols, moments, objective = lp
    try:
        low = maximize(R, moments, cols, objective).value
        high = -maximize(R, [-m for m in moments], [[-v for v in col] for col in cols],
                         [-f for f in objective]).value
        oracle = (low, high)
    except (LpUnbounded, LpInfeasible):
        oracle = None
    try:
        engine = measure_bounds(R, cols, moments, objective)
    except (LpUnbounded, LpInfeasible):
        engine = None
    assert engine == oracle
