import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import gaps, simplex
from momentkit.errors import DimensionMismatch, LpInfeasible, LpUnbounded
from momentkit.moments import (Exponential1D, GaussianProduct, LogNormal1D, Product,
                               QLattice1D, apply_polynomial_weight, generate_moments)
from momentkit.scalars import FloatMode, RationalMode, exact_fraction
from momentkit.simplex import measure_bounds
from oracles import grid_lp_unreduced, maximize, minimize

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


def _float_bounds(fm, cols, moments, objective):
    """The bounds of the LP on the data rounded into ``fm`` entry by entry,
    as ``gaps.grid_gap_lp`` solves a float LP: measure_bounds on the exact
    values of the rounded data, each bound rounded into ``fm`` once."""
    def exact(values):
        return [exact_fraction(fm.convert(v)) for v in values]
    return tuple(map(fm.convert, measure_bounds([exact(col) for col in cols], exact(moments),
                                                exact(objective))))


def test_measure_bounds_known_polytope():
    # probability measures on {0, 1, 2} with mean 1: the second moment ranges
    # from 1 (the point mass at 1) to 2 (half at 0, half at 2)
    grid = [0, 1, 2]
    assert measure_bounds(_columns(grid, 1), [1, 1], [g * g for g in grid]) == (1, 2)


def test_measure_bounds_empty_set_raises_unbounded():
    # no probability measure on {0, 1} has mean 2
    with pytest.raises(LpUnbounded, match="2-point grid"):
        measure_bounds(_columns([0, 1], 1), [1, 2], [0, 1])


def test_measure_bounds_unbounded_objective_raises_infeasible():
    # y_0 - y_1 = 0 leaves the mass free, so y_0 grows without bound
    with pytest.raises(LpInfeasible):
        measure_bounds([[1], [-1]], [0], [1, 0])


def test_measure_bounds_redundant_rows():
    # the two-atom measure (delta_0 + delta_1)/2 on a 3-point grid: five
    # moment rows of rank three, a unique grid measure, min == max
    grid = [0, 1, 2]
    moments = [F(1)] + [F(1, 2)] * 4
    values = [F(math.cos(g)).limit_denominator(10 ** 15) for g in grid]
    low, high = measure_bounds(_columns(grid, 4), moments, values)
    assert low == high == (values[0] + values[1]) / 2


def test_measure_bounds_float_agrees_with_rational():
    fm = FloatMode(64)
    grid = [F(k, 3) for k in range(-6, 7)]
    moments = [F(1), F(0), F(1, 2), F(0), F(3, 8)]
    objective = [1 / (1 + g * g) for g in grid]
    exact = measure_bounds(_columns(grid, 4), moments, objective)
    approx = _float_bounds(fm, _columns(grid, 4), moments, objective)
    assert exact[0] < exact[1]
    for e, a in zip(exact, approx):
        assert fm.to_float(a) == pytest.approx(float(e), rel=1e-12)


def _primal_bounds(cols, moments, objective):
    """The two primal polynomial LPs through the oracle: max m.x st
    x.col_g <= f_g, and min m.x st x.col_g >= f_g."""
    low = maximize(R, moments, cols, objective).value
    high = -maximize(R, [-m for m in moments], [[-v for v in col] for col in cols],
                     [-f for f in objective]).value
    return low, high


def _qlattice_log_grid_lp():
    """The q = 2 lattice to degree 16, degree-8 LP on the 43-point grid
    +-2**j (j = -4..16) plus 0: column entries up to 2**128, and phi(t) =
    t / (t^2 + 1) with denominators up to 2**32 + 1."""
    grid = sorted([F(0)] + [F(2) ** j for j in range(-4, 17)]
                  + [-(F(2) ** j) for j in range(-4, 17)])
    seq = generate_moments(QLattice1D(F(2)), 1, 16, R)
    moments = [seq.entries[(k,)] for k in range(9)]
    return grid, seq, moments, [t / (t * t + 1) for t in grid]


def test_measure_bounds_qlattice_log_grid_matches_primal_oracle():
    grid, seq, moments, objective = _qlattice_log_grid_lp()
    bounds = measure_bounds(_columns(grid, 8), moments, objective)
    assert bounds == _primal_bounds(_columns(grid, 8), moments, objective)
    phi = gaps.Sampled(tuple((t,) for t in grid), tuple(objective))
    est = gaps.grid_gap_lp(seq, phi, 8, [(t,) for t in grid])
    assert (est.sup_side, est.inf_side) == bounds
    assert bounds[0] < bounds[1]


def test_measure_bounds_negative_drive_out_pivot_and_redundant_row(monkeypatch):
    # rows y_a + y_b + y_c = 2 and twice y_a + y_b - y_c = 2: phase 1 enters
    # column a on the first row and leaves both artificials of the copies
    # basic at level zero, each row now reading -2 y_c = 0.  Driving the
    # first out pivots on that -2 (its row is negated to keep the common
    # denominator positive), and the copy becomes all zero and is dropped.
    # Then y_c = 0 and y_a + y_b = 2, so y_a + 2 y_b ranges over [2, 4].
    pivots = []
    real = simplex._Basis.pivot

    def pivot(tab, leave, enter, column, row):
        pivots.append(column[leave])
        real(tab, leave, enter, column, row)

    monkeypatch.setattr(simplex._Basis, "pivot", pivot)
    cols = [[1, 1, 1], [1, 1, 1], [1, -1, -1]]
    moments, objective = [2, 2, 2], [1, 2, 2]
    assert measure_bounds(cols, moments, objective) == (2, 4)
    assert pivots[:2] == [1, -2]
    assert _primal_bounds(cols, moments, objective) == (2, 4)
    low, high = _float_bounds(FloatMode(64), cols, moments, objective)
    assert (low, high) == (2, 4)


@pytest.mark.parametrize("columns, moments, objective", [
    ([[], []], [], [1, 2]),  # no moment rows
    ([[1, 0], [1]], [1, 0], [1, 2]),  # a short column
    ([[1, 0], [1, 1]], [1, 0], [1]),  # a short objective
])
def test_measure_bounds_rejects_inconsistent_shapes(columns, moments, objective):
    with pytest.raises(DimensionMismatch):
        measure_bounds(columns, moments, objective)


def _gridlp_ql16():
    grid, _seq, moments, objective = _qlattice_log_grid_lp()
    return measure_bounds(_columns(grid, 8), moments, objective)


def _hyperplane(measure, dimension, degree):
    seq = generate_moments(measure, dimension, degree, R)
    return gaps.hyperplane_gap(seq, (1,) * dimension, min(6, degree))


def _hyperplane_whole_grid(measure, dimension, degree):
    """``_hyperplane``'s LP with one column per point of its default grid:
    the Fantappie LP of nu = (1.x + 1) L at degree min(6, N) - 1."""
    seq = generate_moments(measure, dimension, degree, R)
    lp_degree = min(6, degree) - 1
    form = {tuple(int(i == j) for i in range(dimension)): 1 for j in range(dimension)}
    form[(0,) * dimension] = 1
    return grid_lp_unreduced(apply_polynomial_weight(seq, form, lp_degree),
                             gaps.Fantappie((1,) * dimension), lp_degree,
                             gaps.default_grid(seq.support, dimension, R))


def _kappa_gauss2d8():
    seq = generate_moments(GaussianProduct((F(1), F(1))), 2, 8, R)
    return gaps.poisson_kappa_estimate(seq, (F(0), F(0)), F(1), 2)


def _kappa_gauss2d8_whole_grid():
    seq = generate_moments(GaussianProduct((F(1), F(1))), 2, 8, R)
    return grid_lp_unreduced(seq, gaps.PoissonKernel((F(0), F(0)), F(1)), 2,
                             gaps.default_grid(seq.support, 2, R, points_per_axis=7))


EXPO2 = Product(((Exponential1D(), 1), (Exponential1D(), 1)))


@pytest.mark.parametrize("lp, pivots", [
    (_gridlp_ql16, [38, 11, 10]),
    (lambda: _hyperplane_whole_grid(EXPO2, 2, 4), [16, 6, 5]),
    (lambda: _hyperplane_whole_grid(EXPO2, 2, 8), [39]),
    (_kappa_gauss2d8_whole_grid, [10, 19, 11]),
    (lambda: _hyperplane(EXPO2, 2, 4), [7, 4, 3]),
    (lambda: _hyperplane(EXPO2, 2, 8), [18]),
    (_kappa_gauss2d8, [2, 0, 1]),
    (lambda: _hyperplane(Exponential1D(), 1, 20), [16, 3, 1]),
    (lambda: _hyperplane(QLattice1D(F(2)), 1, 20), [15, 9, 0]),
], ids=["gridlp-ql16", "hyperplane-expo2d4", "hyperplane-expo2d8", "kappa-gauss2d8",
        "hyperplane-expo2d4-orbits", "hyperplane-expo2d8-orbits", "kappa-gauss2d8-orbits",
        "hyperplane-expo20", "hyperplane-ql20"])
def test_benchmark_lps_keep_their_pivot_counts(monkeypatch, lp, pivots):
    # the grid LPs of the perfbench gap-lp workload, each symmetric one
    # both on its whole grid and on the orbits that grid_gap_lp solves it
    # on, and two of the 1D hyperplane LPs of its rational workload, with
    # the pivots counted per run: phase 1 with the drive-out, then the min
    # and the max run; a phase 1 alone has no grid measure (LpUnbounded).
    # Pricing that keeps the bounds but walks a longer path fails here, and
    # names its run
    runs = []
    real_run, real_pivot = simplex._run, simplex._Basis.pivot

    def run(tab, weights):
        runs.append(0)
        real_run(tab, weights)

    def pivot(tab, *args):
        runs[-1] += 1
        real_pivot(tab, *args)

    monkeypatch.setattr(simplex, "_run", run)
    monkeypatch.setattr(simplex._Basis, "pivot", pivot)
    if len(pivots) == 1:
        with pytest.raises(LpUnbounded):
            lp()
    else:
        lp()
    assert runs == pivots


def test_phase_one_enters_the_steepest_edge(monkeypatch):
    # at B = I the edge of column j is (e_j, -a_j): the first entering
    # column maximizes profit^2 / (1 + |a_j|^2), profit the column sum,
    # over columns whose norms differ by orders of magnitude (the greatest
    # profit alone would enter the last one)
    cols = [[1, 0, 1], [1, 1, 0], [1, 1, 1], [1, 100, 3], [1, 2000, 1000]]
    moments, objective = [4, 102, 5], [0, 1, 2, 3, 4]  # y = (1, 1, 1, 1, 0)
    entered = []
    real = simplex._Basis.pivot

    def pivot(tab, leave, enter, column, row):
        entered.append(tab.nonbasic[enter])
        real(tab, leave, enter, column, row)

    def score(col):
        return F(sum(col) ** 2, 1 + sum(v * v for v in col))

    monkeypatch.setattr(simplex._Basis, "pivot", pivot)
    bounds = measure_bounds(cols, moments, objective)
    assert entered[0] == max(range(len(cols)), key=lambda g: score(cols[g]))
    assert max(range(len(cols)), key=lambda g: sum(cols[g])) != entered[0]
    assert bounds == _primal_bounds(cols, moments, objective)


def _beale_lp():
    """Beale's example of cycling under the largest-coefficient rule (1955),
    in measure form: the rows 1/4 x4 - 8 x5 - x6 + 9 x7 + x1 = 0, 1/2 x4 -
    12 x5 - 1/2 x6 + 3 x7 + x2 = 0 and x6 + x3 = 1, plus a mass row sum x +
    s = 10, one column per variable x4..x7, x1..x3, s, and the objective
    3/4 x4 - 20 x5 + 1/2 x6 - 6 x7.  Two right-hand sides are zero, so
    many of its vertices are degenerate."""
    cols = [[F(1, 4), F(1, 2), 0, 1], [-8, -12, 0, 1], [-1, F(-1, 2), 1, 1], [9, 3, 0, 1],
            [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return cols, [0, 0, 1, 10], [F(3, 4), -20, F(1, 2), -6, 0, 0, 0, 0]


def test_measure_bounds_beale_degenerate_lp_terminates():
    # Beale's maximum is 5/4 (x4 = x6 = 1, x1 = 3/4); the mass row bounds
    # the minimum
    cols, moments, objective = _beale_lp()
    oracle = _primal_bounds(cols, moments, objective)
    assert oracle == (F(-2052, 101), F(5, 4))
    assert measure_bounds(cols, moments, objective) == oracle
    # the data is binary, so float:64 rounds the same optimum once
    fm = FloatMode(64)
    assert _float_bounds(fm, cols, moments, objective) == tuple(map(fm.convert, oracle))


def test_measure_bounds_columns_beyond_float_range():
    # the degree-2 columns at t = +-2**1500 and +-2**-1500 hold entries
    # from 2**-3000 to 2**3000, and the integer rows the ratio 2**6000
    # between them: no float holds a pivoting weight here, their
    # logarithms do
    big = F(2) ** 1500
    grid = [F(0), F(1), big, -big, 1 / big, -1 / big]
    cols = _columns(grid, 2)
    y = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 32)]
    moments = [sum(w * col[i] for w, col in zip(y, cols)) for i in range(3)]
    objective = [F(1), F(0), F(1, 3), F(2), F(-1), F(1, 2)]
    bounds = measure_bounds(cols, moments, objective)
    assert bounds == _primal_bounds(cols, moments, objective)
    assert bounds[0] < bounds[1]


#: the fractions in [-3, 3] with denominators up to 3, sampled from a list
#: (as cheap to draw as the many entries of a wide LP need)
small = st.sampled_from(sorted({F(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)}))
#: entries whose denominators make the lcm row scaling and the exact
#: divisions of the integer tableau work
odd = st.sampled_from([F(1, 2 ** 20), F(-3, 2 ** 20), F(1, 3), F(-1, 7), F(22, 7)])


@st.composite
def grid_lps(draw):
    """Small rational LPs in measure form: G columns of length n, often with
    a constant entry (a mass row), zero entries and repeated values for ties
    and degeneracy, and moments that are either a nonnegative combination of
    the columns (feasible) or arbitrary (often infeasible)."""
    size = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), st.just(F(1)), small, odd)
    cols = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(size)]
    if draw(st.booleans()):
        cols = [[F(1)] + col[1:] for col in cols]
    if draw(st.booleans()):
        y = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(2), F(1, 7)]),
                          min_size=size, max_size=size))
        moments = [sum(yg * col[i] for yg, col in zip(y, cols)) for i in range(n)]
    else:
        moments = draw(st.lists(small, min_size=n, max_size=n))
    objective = draw(st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2),
                                               F(1, 3), F(-1, 2 ** 20)]),
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
        oracle = _primal_bounds(cols, moments, objective)
    except (LpUnbounded, LpInfeasible):
        oracle = None
    try:
        engine = measure_bounds(cols, moments, objective)
    except (LpUnbounded, LpInfeasible):
        engine = None
    assert engine == oracle


def _rounded(fm, lp):
    cols, moments, objective = lp
    return ([[fm.convert(v) for v in col] for col in cols],
            [fm.convert(v) for v in moments], [fm.convert(v) for v in objective])


def _exact(values):
    return [exact_fraction(v) for v in values]


@given(grid_lps(), st.sampled_from([64, 128]))
@settings(max_examples=100, deadline=None)
def test_float_measure_bounds_are_the_exact_optimum_of_their_data(lp, bits):
    # a float LP is solved exactly on its binary data: the primal oracle on
    # the exact values of the rounded data, each optimum rounded once,
    # gives the same bounds, or both sides raise
    fm = FloatMode(bits)
    cols, moments, objective = _rounded(fm, lp)
    try:
        oracle = tuple(fm.convert(v) for v in _primal_bounds(
            [_exact(col) for col in cols], _exact(moments), _exact(objective)))
    except (LpUnbounded, LpInfeasible):
        oracle = None
    try:
        engine = _float_bounds(fm, cols, moments, objective)
    except (LpUnbounded, LpInfeasible):
        engine = None
    assert engine == oracle


@pytest.mark.parametrize("bits", [64, 128, 208])
def test_float_qlattice_log_grid_lp_is_the_rational_optimum(bits):
    # the grid and the moments are binary, so only phi is rounded into the
    # mode: the float bounds are the rational optimum over the rounded phi,
    # rounded once, and within one unit in the last place of the rational
    # bounds of the unrounded LP
    fm = FloatMode(bits)
    grid, _seq, moments, objective = _qlattice_log_grid_lp()
    cols = _columns(grid, 8)
    low, high = _float_bounds(fm, cols, moments, objective)
    rounded = [exact_fraction(fm.convert(f)) for f in objective]
    assert (low, high) == tuple(fm.convert(v) for v in
                                measure_bounds(cols, moments, rounded))
    for got, want in zip((low, high), measure_bounds(cols, moments, objective)):
        assert abs(exact_fraction(got) - want) <= abs(want) / 2 ** (bits - 1)


def test_lognormal_hyperplane_gap_keeps_its_value_across_precisions():
    # log-normal s = 1, N = 20: the degree-6 hyperplane LP at 104 bits
    # agrees with the one at 1664 bits to half its working bits
    values = []
    for bits in (104, 1664):
        fm = FloatMode(bits)
        seq = generate_moments(LogNormal1D(F(1)), 1, 20, fm)
        res = gaps.hyperplane_gap(seq, [fm.one()], 6)
        values.append([exact_fraction(res[k]) for k in ("value_plus", "value_minus")])
    for low, high in zip(*values):
        assert high > 0
        assert abs(low - high) <= high / 2 ** 52
