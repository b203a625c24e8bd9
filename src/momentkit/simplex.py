"""Moment-space LP engine over grid measures, generic over the scalar mode.

On a finite grid both sides of the variational gap,
``sup { L(p) : p <= phi }`` and ``inf { L(q) : q >= phi }``, are linear
programs over polynomial coefficients.  Their LP duals range over one set,
the nonnegative grid measures that reproduce the moments,

    Y = { y >= 0 : sum_g y_g g^alpha = m_alpha },

the grid's representing measures (the moment-space duality of Karlin and
Studden, *Tchebycheff Systems*, 1966).  The sup side is ``min_Y sum_g y_g
phi(g)`` and the inf side ``max_Y``.  ``measure_bounds`` solves both in
standard form on one n x (G + n) tableau, one row per moment and one column
per grid point plus one artificial per row: phase 1 finds a vertex of Y
once, then two phase-2 runs from copies of it give the min and the max.

Pivoting follows Bland's rule (no cycling), and one engine serves both
modes; only the elimination step differs.  Rational mode pivots exactly on
integers, with no gcd per entry (Edmonds' fraction-free Gauss-Jordan, the
Bareiss idea applied to the simplex): each moment row is scaled to integers
by the lcm of its denominators, the objective by the lcm ``den`` of its
own, and every tableau and profit entry is an integer numerator over one
common denominator ``D > 0``, the current basis determinant.  A pivot on
``p`` takes each entry ``u`` of another row to ``(u * p - f * v) // D``,
exactly, where ``f`` is that row's entry in the pivot column and ``v`` the
pivot row's; the pivot row stays as it is and ``D`` becomes ``p``.  Ratios
are compared by cross-multiplication, and an optimum is read off as
``Fraction(-profit[-1], D * den)``.  Float mode keeps ``D = 1``, divides
the pivot row by the pivot, and works at the context precision with a
relative pivot tolerance; since rounding can carry it to a wrong vertex, it
re-checks each optimal grid measure against the moments and raises
PrecisionExhausted when the measure misses them.  Problem sizes here are
small (tens of moments, at most a few hundred grid points), so no
factorization machinery is carried around: one tableau, eliminated in
place.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import LpInfeasible, LpUnbounded, PrecisionExhausted
from .scalars import Mode, RationalMode

#: pivots per run; Bland's rule cannot cycle, so only float rounding reaches it
MAX_ITERATIONS = 100_000


def measure_bounds(mode: Mode, columns: Sequence[Sequence], moments: Sequence,
                   objective: Sequence) -> tuple:
    """(min, max) of sum_g y_g objective[g] over y >= 0 with
    sum_g y_g columns[g] = moments.

    Raises LpUnbounded when no such y exists (the primal polynomial LPs are
    then unbounded: the grid is too sparse for the moments), LpInfeasible
    when the objective is unbounded over them, which cannot happen when
    every column has a positive constant entry (the mass is then bounded).
    In float mode that case, and an optimal measure with a negative weight
    or a missed moment beyond half the working bits, raise
    PrecisionExhausted instead.
    """
    cols = [[mode.convert(v) for v in col] for col in columns]
    rhs = [mode.convert(v) for v in moments]
    obj = [mode.convert(v) for v in objective]
    size, n = len(cols), len(rhs)
    if len(obj) != size or any(len(col) != n for col in cols):
        raise LpInfeasible("inconsistent LP shapes")
    exact = isinstance(mode, RationalMode)
    try:
        return _solve(mode, exact, cols, rhs, obj)
    except LpInfeasible:
        if exact or not (n and all(col[0] > 0 for col in cols)):
            raise
        raise PrecisionExhausted("the grid measures lost their bounded mass; "
                                 "numerically stuck") from None


def _solve(mode: Mode, exact: bool, cols, rhs, obj) -> tuple:
    size = len(cols)
    zero = 0 if exact else mode.zero()
    tol = 0 if exact else _tolerance(mode, cols, rhs, obj)

    # row i reads sum_g y_g columns[g][i] = moments[i], scaled to integers in
    # rational mode and signed so that its right-hand side (index -1) is
    # nonnegative; basis entry size + i is the artificial of row i.  An
    # artificial that leaves the basis never returns, so its column is not
    # stored.
    rows = []
    for i, m in enumerate(rhs):
        row = [col[i] for col in cols] + [m]
        if exact:
            row = _integers(row)[0]
        rows.append([-v for v in row] if m < 0 else row)
    obj, den = _integers(obj) if exact else (obj, 1)
    tab = _Tableau(rows, [size + i for i in range(len(rows))], exact)

    # phase 1: maximize minus the artificial mass; with every artificial
    # basic, the reduced profits are the column sums and profit[-1] is the
    # mass still carried by the artificials
    tab.profit = [sum(entries, zero) for entries in zip(*rows)]
    _run(tab, tol)
    if tab.profit[-1] > tol:
        raise LpUnbounded(f"no nonnegative measure on the {size}-point grid "
                          "reproduces the moments")
    tab.profit = None
    _drive_out_artificials(tab, size, tol)

    bounds = []
    for sign in (-1, 1):  # maximize -objective, then objective
        t = tab.copy()
        # reduced profits sign * (objective - objective_B B^-1 A), over det
        profit = [sign * t.det * v for v in obj] + [zero]
        for row, col in zip(t.rows, t.basis):
            coeff = sign * obj[col]
            if coeff:
                profit = [u - coeff * v for u, v in zip(profit, row)]
        t.profit = profit
        _run(t, tol)
        if exact:
            bounds.append(sign * Fraction(-t.profit[-1], t.det * den))
        else:
            _check_measure(mode, cols, rhs, t)
            bounds.append(sign * -t.profit[-1])
    return bounds[0], bounds[1]


def _integers(values) -> tuple:
    """Fractions scaled to integers by the lcm of their denominators:
    (the integers, the lcm)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _tolerance(mode: Mode, cols, rhs, obj):
    scale = mode.one()
    for v in [v for col in cols for v in col] + list(rhs) + list(obj):
        if abs(v) > scale:
            scale = abs(v)
    return mode.ctx.ldexp(scale, -(mode.precision_bits // 2))


def _check_measure(mode: Mode, cols, rhs, tab) -> None:
    """Float mode: the optimal grid measure must be nonnegative and
    reproduce every moment, both to half the working bits.  Each basic
    value carries rounding relative to the largest one, so a value's floor
    is scaled by ``max_g |y_g|`` and moment i's by ``|m_i| + max_g |y_g| *
    sum_g |columns[g][i]|``, over the basic g."""
    y = [(row[-1], g) for row, g in zip(tab.rows, tab.basis)]
    y_max = max((abs(v) for v, _ in y), default=mode.zero())
    half = -(mode.precision_bits // 2)
    if any(v < -mode.ctx.ldexp(y_max, half) for v, _ in y):
        raise PrecisionExhausted("the optimal grid measure has a negative weight "
                                 "beyond half the working bits")
    for i, m in enumerate(rhs):
        residual = sum((v * cols[g][i] for v, g in y), -m)
        scale = abs(m) + y_max * sum(abs(cols[g][i]) for _, g in y)
        if abs(residual) > mode.ctx.ldexp(scale, half):
            raise PrecisionExhausted(
                f"the optimal grid measure misses moment {i} by more than "
                "half the working bits")


class _Tableau:
    """Constraint rows (right-hand side last), their basis and one profit
    row, every entry a numerator over the common denominator ``det``: the
    basis determinant on exact (integer) tableaux, 1 on float ones.  A pivot
    replaces rows rather than changing them, so a copy shares them."""

    def __init__(self, rows, basis, exact, det=1):
        self.rows, self.basis, self.exact, self.det = rows, basis, exact, det
        self.profit = None

    def copy(self) -> "_Tableau":
        return _Tableau(list(self.rows), list(self.basis), self.exact, self.det)

    def pivot(self, leave: int, enter: int) -> None:
        pivot_row = self.rows[leave]
        p = pivot_row[enter]
        if self.exact:
            if p < 0:  # only a drive-out pivot; negating its row keeps det > 0
                p, pivot_row = -p, [-v for v in pivot_row]
                self.rows[leave] = pivot_row
            det, self.det = self.det, p

            def update(row):
                f = row[enter]
                return [(u * p - f * v) // det for u, v in zip(row, pivot_row)]
        else:
            pivot_row = self.rows[leave] = [v / p for v in pivot_row]

            def update(row):
                f = row[enter]
                return [u - f * v for u, v in zip(row, pivot_row)] if f else row
        self.rows = [row if i == leave else update(row) for i, row in enumerate(self.rows)]
        if self.profit is not None:
            self.profit = update(self.profit)
        self.basis[leave] = enter


def _run(tab: _Tableau, tol) -> None:
    """Maximize the objective whose reduced profits are ``tab.profit`` (its
    last entry is minus the current value); pivots update it in place."""
    for _ in range(MAX_ITERATIONS):
        basic = set(tab.basis)
        profit = tab.profit
        enter = next((j for j in range(len(profit) - 1)  # Bland: first improving
                      if profit[j] > tol and j not in basic), None)
        if enter is None:
            return
        # least ratio row[-1] / row[enter], compared by cross-multiplication
        # (both denominators positive); ties go to the least basic index
        leave = None
        for i, row in enumerate(tab.rows):
            a = row[enter]
            if a > tol:
                if leave is None:
                    leave, rhs, piv = i, row[-1], a
                    continue
                lhs, cut = row[-1] * piv, rhs * a
                if lhs < cut or (lhs == cut and tab.basis[i] < tab.basis[leave]):
                    leave, rhs, piv = i, row[-1], a
        if leave is None:
            raise LpInfeasible("the objective is unbounded over the grid measures")
        tab.pivot(leave, enter)
    raise PrecisionExhausted("simplex iteration limit hit; numerically stuck")


def _drive_out_artificials(tab: _Tableau, size: int, tol) -> None:
    """Pivot every artificial still basic (at level zero) out on a grid
    column; a row with no such column is a redundant equality and is
    dropped."""
    redundant = set()
    for i in range(len(tab.rows)):
        if tab.basis[i] >= size:
            row = tab.rows[i]
            enter = next((j for j in range(size) if abs(row[j]) > tol), None)
            if enter is None:
                redundant.add(i)
            else:
                tab.pivot(i, enter)
    keep = [i for i in range(len(tab.rows)) if i not in redundant]
    tab.rows = [tab.rows[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
