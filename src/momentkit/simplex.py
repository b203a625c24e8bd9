"""Moment-space LP engine over grid measures, exact in both scalar modes.

On a finite grid both sides of the variational gap,
``sup { L(p) : p <= phi }`` and ``inf { L(q) : q >= phi }``, are linear
programs over polynomial coefficients.  Their LP duals range over one set,
the nonnegative grid measures that reproduce the moments,

    Y = { y >= 0 : sum_g y_g g^alpha = m_alpha },

the grid's representing measures (the moment-space duality of Karlin and
Studden, *Tchebycheff Systems*, 1966).  The sup side is ``min_Y sum_g y_g
phi(g)`` and the inf side ``max_Y``.  ``measure_bounds`` solves both in
standard form, one row per moment, one variable per grid point and one
artificial per row: phase 1 finds a vertex of Y once, then two phase-2
runs from copies of it give the min and the max.

There is one arithmetic.  Every float scalar is a dyadic rational, so a
float-mode LP is solved exactly on the data it is given
(``scalars.exact_fraction``) and each bound is rounded into the mode once;
no tolerance is needed and none is kept.  The moments go over their lcm
``delta`` (``scalars.integers``) and the grid measure is scaled by it,
``y' = delta * y``, so the right-hand side is integral and the moments'
denominators do not widen the rows; ``delta = 1`` for integer moments.
Each moment row is then scaled to integers by the lcm of its column
denominators and the objective by the lcm ``den`` of its own.

The tableau is condensed (Tucker's form): one row per basic variable and
one integer column per nonbasic variable, the right-hand side last, so the
columns of basic variables, which read ``D`` on their own row and 0
elsewhere, are not stored.  Every tableau and profit entry is an integer
numerator over one common denominator ``D > 0``, the current basis
determinant, and a pivot on ``p`` at (row r, position k) keeps it so with
no gcd per entry (Edmonds' fraction-free Gauss-Jordan, the Bareiss idea
applied to the simplex):

* every entry ``u`` off row r and position k becomes ``(u * p - f * v) //
  D``, exactly, where ``f`` is its row's entry at k and ``v`` row r's in
  its column;
* position k now holds the leaving variable: ``D`` in row r and ``-f`` in
  every other row;
* the rest of row r stays as it is, and ``D`` becomes ``p``.

An artificial that leaves never returns, so its column is deleted instead.

The entering variable is chosen by Devex pricing (Harris, "Pivot selection
methods of the Devex LP code", *Math. Programming* 5, 1973): the greatest
``profit_j^2 / w_j`` over the improving columns, where the reference
weights ``w_j`` approximate the squared norms of the edge directions and
are updated from the pivot row.  They are kept as base-2 logarithms, so
they neither overflow nor underflow however wide the integers get; they
steer the choice only, while the ratio test and the arithmetic stay exact.
When the chosen step is degenerate (its leaving row's right-hand side is
0), Bland's pivot is taken instead ("New finite pivoting rules for the
simplex method", *Math. Oper. Res.* 2, 1977): the least improving
variable, ties in the ratio test to the least basic variable.  Every other
pivot strictly raises the objective, so a cycle could only be made of
degenerate Bland pivots, and Bland's rule admits none: the method is
finite.  An optimum is read off as ``Fraction(-profit[-1], D * den *
delta)``; an optimal value does not depend on the pivots taken, so
neither do the bounds.  Problem sizes here are small (tens of moments, at
most a few hundred grid points), so no factorization machinery is carried
around: one tableau, eliminated in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2
from typing import Sequence

from .errors import LpInfeasible, LpUnbounded
from .scalars import Mode, RationalMode, exact_fraction, integers


def measure_bounds(mode: Mode, columns: Sequence[Sequence], moments: Sequence,
                   objective: Sequence) -> tuple:
    """(min, max) of sum_g y_g objective[g] over y >= 0 with
    sum_g y_g columns[g] = moments, each the exact optimum over the data
    as the mode holds it, rounded once into the mode.

    Raises LpUnbounded when no such y exists (the primal polynomial LPs are
    then unbounded: the grid is too sparse for the moments), LpInfeasible
    when the objective is unbounded over them, which cannot happen when
    every column has a positive constant entry (the mass is then bounded).
    """
    def exact(v):
        v = mode.convert(v)
        return v if isinstance(mode, RationalMode) else exact_fraction(v)
    cols = [[exact(v) for v in col] for col in columns]
    rhs = [exact(v) for v in moments]
    obj = [exact(v) for v in objective]
    size = len(cols)
    if len(obj) != size or any(len(col) != len(rhs) for col in cols):
        raise LpInfeasible("inconsistent LP shapes")

    # row i reads sum_g y'_g columns[g][i] = delta * moments[i], scaled to
    # integers and signed so that its right-hand side (index -1) is
    # nonnegative; variable g < size is grid point g, and size + i, the
    # artificial of row i, starts basic there
    rhs, delta = integers(rhs)
    rows = []
    for i, m in enumerate(rhs):
        row = integers([col[i] for col in cols] + [m])[0]
        rows.append([-v for v in row] if m < 0 else row)
    obj, den = integers(obj)
    tab = _Tableau(rows, [size + i for i in range(len(rows))], list(range(size)), size)

    # phase 1: maximize minus the artificial mass; with every artificial
    # basic, the reduced profits are the column sums and profit[-1] is the
    # mass still carried by the artificials
    tab.profit = [sum(entries) for entries in zip(*rows)]
    _run(tab)
    if tab.profit[-1] > 0:
        raise LpUnbounded(f"no nonnegative measure on the {size}-point grid "
                          "reproduces the moments")
    tab.profit = None
    _drive_out_artificials(tab)

    bounds = []
    for sign in (-1, 1):  # maximize -objective, then objective
        t = tab.copy()
        # reduced profits sign * (objective - objective_B B^-1 A), over det
        profit = [sign * t.det * obj[g] for g in t.nonbasic] + [0]
        for row, var in zip(t.rows, t.basis):
            coeff = sign * obj[var]
            if coeff:
                profit = [u - coeff * v for u, v in zip(profit, row)]
        t.profit = profit
        _run(t)
        bounds.append(mode.convert(sign * Fraction(-t.profit[-1], t.det * den * delta)))
    return bounds[0], bounds[1]


class _Tableau:
    """Condensed tableau: constraint rows (right-hand side last) with their
    basic variables, the nonbasic variable of each column, and one profit
    row, every entry an integer numerator over the common denominator
    ``det``, the basis determinant.  Variables from ``size`` on are
    artificials.  A pivot replaces rows rather than changing them, so a
    copy shares them."""

    def __init__(self, rows, basis, nonbasic, size, det=1):
        self.rows, self.basis, self.nonbasic, self.size, self.det = (
            rows, basis, nonbasic, size, det)
        self.profit = None

    def copy(self) -> "_Tableau":
        return _Tableau(list(self.rows), list(self.basis), list(self.nonbasic),
                        self.size, self.det)

    def pivot(self, leave: int, enter: int) -> None:
        """Pivot on row ``leave`` at column position ``enter``."""
        pivot_row = self.rows[leave]
        p = pivot_row[enter]
        if p < 0:  # only a drive-out pivot; negating its row keeps det > 0
            p, pivot_row = -p, [-v for v in pivot_row]
        det, self.det = self.det, p

        def update(row):
            f = row[enter]
            row = [(u * p - f * v) // det for u, v in zip(row, pivot_row)]
            row[enter] = -f
            return row
        rows = [row if i == leave else update(row) for i, row in enumerate(self.rows)]
        rows[leave] = pivot_row = list(pivot_row)
        pivot_row[enter] = det
        if self.profit is not None:
            self.profit = update(self.profit)
        left, self.basis[leave] = self.basis[leave], self.nonbasic[enter]
        if left >= self.size:  # an artificial leaves for good
            for row in rows:
                del row[enter]
            if self.profit is not None:
                del self.profit[enter]
            del self.nonbasic[enter]
        else:
            self.nonbasic[enter] = left
        self.rows = rows


def _run(tab: _Tableau) -> None:
    """Maximize the objective whose reduced profits are ``tab.profit`` (its
    last entry is minus the current value); pivots update it in place.
    Devex weights start at 1 (log 0) for every column."""
    weights = {}  # log2 Devex reference weight by variable
    while True:
        profit = tab.profit
        best, enter = None, None
        for k, d in enumerate(profit[:-1]):
            if d > 0:
                score = 2 * log2(d) - weights.get(tab.nonbasic[k], 0)
                if best is None or score > best:
                    best, enter = score, k
        if enter is None:
            return
        leave = _ratio_test(tab, enter)
        if leave is not None and tab.rows[leave][-1] == 0:
            # a degenerate step: Bland's pivot instead, the least improving
            # variable
            enter = min((var, k) for k, var in enumerate(tab.nonbasic) if profit[k] > 0)[1]
            leave = _ratio_test(tab, enter)
        if leave is None:
            raise LpInfeasible("the objective is unbounded over the grid measures")

        # Devex update from the pivot row: w_j = max(w_j, (a_rj / a_rk)^2 w_k)
        # for the other columns, and w = max(w_k / alpha_rk^2, 1) for the
        # leaving variable, alpha_rk = a_rk / det the pivot's true value
        row, nonbasic = tab.rows[leave], tab.nonbasic
        w_enter = weights.get(nonbasic[enter], 0)
        log_p = log2(row[enter])
        for k, a in enumerate(row[:-1]):
            if a and k != enter:
                w = 2 * (log2(abs(a)) - log_p) + w_enter
                if w > weights.get(nonbasic[k], 0):
                    weights[nonbasic[k]] = w
        weights[tab.basis[leave]] = max(w_enter - 2 * (log_p - log2(tab.det)), 0)
        tab.pivot(leave, enter)


def _ratio_test(tab: _Tableau, enter: int):
    """Row of the least ratio row[-1] / row[enter] over row[enter] > 0,
    compared by cross-multiplication (both denominators positive), ties to
    the least basic variable; None when the column has no positive entry."""
    leave = None
    for i, row in enumerate(tab.rows):
        a = row[enter]
        if a > 0:
            if leave is None:
                leave, rhs, piv = i, row[-1], a
                continue
            lhs, cut = row[-1] * piv, rhs * a
            if lhs < cut or (lhs == cut and tab.basis[i] < tab.basis[leave]):
                leave, rhs, piv = i, row[-1], a
    return leave


def _drive_out_artificials(tab: _Tableau) -> None:
    """Pivot every artificial still basic (at level zero) out on a grid
    column; a row with no such column is a redundant equality and is
    dropped."""
    redundant = set()
    for i in range(len(tab.rows)):
        if tab.basis[i] >= tab.size:
            row = tab.rows[i]
            enter = next((k for k in range(len(row) - 1) if row[k]), None)
            if enter is None:
                redundant.add(i)
            else:
                tab.pivot(i, enter)
    keep = [i for i in range(len(tab.rows)) if i not in redundant]
    tab.rows = [tab.rows[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
