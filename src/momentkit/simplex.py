"""Moment-space LP engine over grid measures, exact on rational data.

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

There is one arithmetic: the data are rationals and the bounds exact
Fractions.  Every float scalar is a dyadic rational, so a float-mode
caller hands over the exact values of its data
(``scalars.exact_fraction``) and rounds each bound into its mode once, as
``gaps.grid_gap_lp`` does; no tolerance is needed and none is kept.  The
moments go over their lcm ``delta`` (``scalars.integers``) and the grid
measure is scaled by it, ``y' = delta * y``, so the right-hand side is
integral and the moments' denominators do not widen the rows; ``delta =
1`` for integer moments.  Each moment row is then scaled to integers by
the lcm of its column denominators and the objective by the lcm ``den``
of its own.  Integer columns, as the grid LPs of ``gaps`` pass them (each
moment scaled by its row's denominator instead), go to the rows as they
are.

The simplex is revised and fraction-free (Chvatal, *Linear Programming*,
1983, ch. 7, with Edmonds' integer pivots, the Bareiss idea applied to
the simplex).  Its state is the integer adjugate ``D * B^-1`` of the
basis matrix ``B``, one row per basic variable, the right-hand side ``D *
B^-1 b``, the basic and nonbasic lists and one profit entry per nonbasic
variable, every entry an integer numerator over one common denominator
``D > 0``, the current basis determinant.  The constraint columns stay as
given, at input size.  A pivot builds what it needs from them: the
entering column ``D * B^-1 a_k`` and the pivot row ``D * (B^-1 A_N)_r`` as
dot products of adjugate rows with the integer columns.  Then a pivot on
``p`` at (row r, entering position k) keeps every entry integral with no
gcd per entry:

* every adjugate and right-hand-side entry ``u`` off row r, and every
  profit entry off position k, becomes ``(u * p - f * v) // D``, exactly,
  where ``f`` is its row's entry in the entering column (the profit's at
  k) and ``v`` row r's in its column (the pivot row's, for the profit);
* position k now holds the leaving variable, with profit ``-f``;
* row r stays as it is, and ``D`` becomes ``p``.

A drive-out pivot may be negative; its row is negated first, which keeps
``D > 0``.  With m moment rows a pivot so updates m(m+1) entries of
basis-determinant size plus one profit entry per nonbasic variable, where
a tableau would update one entry per row and per nonbasic column, each as
wide as the determinant times a column entry.  An artificial that leaves
never returns, so it leaves the nonbasic list.

The entering variable is chosen by Devex pricing (Harris, "Pivot selection
methods of the Devex LP code", *Math. Programming* 5, 1973): the greatest
``profit_j^2 / w_j`` over the improving columns, where the reference
weights ``w_j`` approximate the squared norms of the edge directions and
are updated from the pivot row.  They are kept as base-2 logarithms, so
they neither overflow nor underflow however wide the integers get; they
steer the choice only, while the ratio test and the arithmetic stay exact.
Phase 1 starts from B = I, where the edge of column j is (e_j, -a_j), so
its exact steepest-edge weight ``1 + |a_j|^2`` (Forrest and Goldfarb,
"Steepest-edge simplex algorithms for linear programming", *Math.
Programming* 57, 1992) seeds the reference weight; the drive-out pivots
update the weights as the other pivots do, and both phase-2 runs start
from copies of the weights phase 1 left, which describe the same basis.
When the chosen step is degenerate (its leaving row's right-hand side is
0), Bland's pivot is taken instead ("New finite pivoting rules for the
simplex method", *Math. Oper. Res.* 2, 1977): the least improving
variable, ties in the ratio test to the least basic variable.  Every other
pivot strictly raises the objective, so a cycle could only be made of
degenerate Bland pivots, and Bland's rule admits none: the method is
finite.  An optimum is read off as ``Fraction(-profit[-1], D * den *
delta)``; an optimal value does not depend on the pivots taken, so
neither do the bounds.  A phase-2 profit row is priced from the dual
``y = c_B D B^-1`` alone, one dot product per nonbasic column.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, LpInfeasible, LpUnbounded
from .scalars import integers


def measure_bounds(columns: Sequence[Sequence], moments: Sequence,
                   objective: Sequence) -> tuple:
    """(min, max) of sum_g y_g objective[g] over y >= 0 with
    sum_g y_g columns[g] = moments, each the exact optimum as a Fraction.
    The data are rationals, ints or Fractions (a binary float's exact
    value is ``scalars.exact_fraction``).

    Raises LpUnbounded when no such y exists (the primal polynomial LPs are
    then unbounded: the grid is too sparse for the moments), LpInfeasible
    when the objective is unbounded over them, which cannot happen when
    every column has a positive constant entry (the mass is then bounded),
    and DimensionMismatch when there are no moments or a column or the
    objective does not match them in length.
    """
    def exact(v):  # an int goes to the rows as it is
        return v if type(v) is int else Fraction(v)
    cols = [[exact(v) for v in col] for col in columns]
    rhs = [exact(v) for v in moments]
    obj = [exact(v) for v in objective]
    size = len(cols)
    if not rhs:
        raise DimensionMismatch("the LP has no moment rows")
    if len(obj) != size or any(len(col) != len(rhs) for col in cols):
        raise DimensionMismatch(f"{size} grid columns and {len(obj)} objective values "
                                f"for {len(rhs)} moments")

    # row i reads sum_g y'_g columns[g][i] = delta * moments[i], scaled to
    # integers and signed so that its right-hand side (index -1) is
    # nonnegative; variable g < size is grid point g, and size + i, the
    # artificial of row i, starts basic there with B = I
    rhs, delta = integers(rhs)
    rows = []
    for i, m in enumerate(rhs):
        row = integers([col[i] for col in cols] + [m])[0]
        rows.append([-v for v in row] if m < 0 else row)
    obj, den = integers(obj)
    n = len(rows)
    tab = _Basis(list(zip(*rows))[:size],
                 [[int(i == j) for j in range(n)] for i in range(n)],
                 [row[-1] for row in rows], [size + i for i in range(n)],
                 list(range(size)))

    # phase 1: maximize minus the artificial mass; with every artificial
    # basic, the reduced profits are the column sums and profit[-1] is the
    # mass still carried by the artificials.  At B = I the edge of column j
    # is (e_j, -a_j), so the steepest-edge weight 1 + |a_j|^2 is exact there
    # and seeds its Devex weight; an artificial never enters, so its weight
    # is never read
    tab.profit = [sum(entries) for entries in zip(*rows)]
    weights = [log2(1 + sum(v * v for v in col)) for col in tab.columns] + [0.0] * n
    _run(tab, weights)
    if tab.profit[-1] > 0:
        raise LpUnbounded(f"no nonnegative measure on the {size}-point grid "
                          "reproduces the moments")
    tab.profit = None
    _drive_out_artificials(tab, weights)

    bounds = []
    for sign in (-1, 1):  # maximize -objective, then objective
        t = tab.copy()
        # reduced profits over det, sign * det * objective - y A, from the
        # dual y = sign * objective_B det B^-1; the last entry is -y b
        y = [0] * n
        for inv_row, var in zip(t.inv, t.basis):
            coeff = sign * obj[var]
            if coeff:
                y = [u + coeff * v for u, v in zip(y, inv_row)]
        t.profit = [sign * t.det * obj[g] - sum(map(mul, y, t.columns[g]))
                    for g in t.nonbasic]
        t.profit.append(-sum(sign * obj[var] * v for var, v in zip(t.basis, t.rhs)))
        # the weights phase 1 left describe the edges of this same basis
        _run(t, list(weights))
        bounds.append(sign * Fraction(-t.profit[-1], t.det * den * delta))
    return bounds[0], bounds[1]


class _Basis:
    """Revised fraction-free simplex state: the integer grid columns, kept
    as given; the rows of the adjugate ``det * B^-1`` and the right-hand
    side ``det * B^-1 b``, one per basic variable; the nonbasic variables;
    and one profit row over the nonbasic positions, its last entry minus
    ``det`` times the current value.  ``det`` is the basis determinant.
    Variables from ``size`` on are artificials, whose columns are unit
    vectors and never enter.  A pivot replaces rows rather than changing
    them, so a copy shares them."""

    def __init__(self, columns, inv, rhs, basis, nonbasic, det=1):
        self.columns, self.inv, self.rhs, self.basis, self.nonbasic, self.det = (
            columns, inv, rhs, basis, nonbasic, det)
        self.size = len(columns)
        self.profit = None

    def copy(self) -> "_Basis":
        return _Basis(self.columns, list(self.inv), list(self.rhs), list(self.basis),
                      list(self.nonbasic), self.det)

    def column(self, var: int) -> list:
        """``det * B^-1`` times the column of grid variable ``var``."""
        col = self.columns[var]
        return [sum(map(mul, row, col)) for row in self.inv]

    def row(self, i: int) -> list:
        """Row ``i`` of ``det * B^-1 A`` at the nonbasic positions."""
        inv_row, columns = self.inv[i], self.columns
        return [sum(map(mul, inv_row, columns[g])) for g in self.nonbasic]

    def pivot(self, leave: int, enter: int, column: list, row: list) -> None:
        """Pivot on row ``leave`` at nonbasic position ``enter``, given the
        entering ``column`` (``column(nonbasic[enter])``) and the pivot
        ``row`` (``row(leave)``)."""
        p = column[leave]
        inv_row, b = self.inv[leave], self.rhs[leave]
        if p < 0:  # only a drive-out pivot; negating its row keeps det > 0
            p, inv_row, b, row = -p, [-v for v in inv_row], -b, [-v for v in row]
        det, self.det = self.det, p
        inv, rhs = [], []
        for i, (r, u, f) in enumerate(zip(self.inv, self.rhs, column)):
            if i == leave:
                inv.append(inv_row)
                rhs.append(b)
            else:
                inv.append([(w * p - f * v) // det for w, v in zip(r, inv_row)])
                rhs.append((u * p - f * b) // det)
        self.inv, self.rhs = inv, rhs
        if self.profit is not None:
            f = self.profit[enter]
            self.profit = [(u * p - f * v) // det for u, v in zip(self.profit, [*row, b])]
            self.profit[enter] = -f
        left, self.basis[leave] = self.basis[leave], self.nonbasic[enter]
        if left >= self.size:  # an artificial leaves for good
            if self.profit is not None:
                del self.profit[enter]
            del self.nonbasic[enter]
        else:
            self.nonbasic[enter] = left


def _run(tab: _Basis, weights: list) -> None:
    """Maximize the objective whose reduced profits are ``tab.profit`` (its
    last entry is minus the current value); pivots update it in place.
    ``weights`` holds the log2 Devex reference weight of every variable, as
    the caller seeded or an earlier run left it, and is updated in place."""
    while True:
        profit, nonbasic = tab.profit, tab.nonbasic
        best, enter = None, None
        for k, d in enumerate(profit[:-1]):
            if d > 0:
                score = 2 * log2(d) - weights[nonbasic[k]]
                if best is None or score > best:
                    best, enter = score, k
        if enter is None:
            return
        column = tab.column(nonbasic[enter])
        leave = _ratio_test(tab, column)
        if leave is not None and tab.rhs[leave] == 0:
            # a degenerate step: Bland's pivot instead, the least improving
            # variable
            enter = min((var, k) for k, var in enumerate(nonbasic) if profit[k] > 0)[1]
            column = tab.column(nonbasic[enter])
            leave = _ratio_test(tab, column)
        if leave is None:
            raise LpInfeasible("the objective is unbounded over the grid measures")
        _devex_pivot(tab, weights, leave, enter, column, tab.row(leave))


def _devex_pivot(tab: _Basis, weights: list, leave: int, enter: int, column: list,
                 row: list) -> None:
    """Pivot on row ``leave`` at nonbasic position ``enter`` after the Devex
    update from the pivot row: w_j = max(w_j, (a_rj / a_rk)^2 w_k) for the
    other columns, and w = max(w_k / alpha_rk^2, 1) for the leaving
    variable, alpha_rk = a_rk / det the pivot's true value.  ``column`` and
    ``row`` are as ``_Basis.pivot`` takes them."""
    nonbasic = tab.nonbasic
    w_enter = weights[nonbasic[enter]]
    log_p = log2(abs(column[leave]))
    for k, a in enumerate(row):
        if a and k != enter:
            w = 2 * (log2(abs(a)) - log_p) + w_enter
            if w > weights[nonbasic[k]]:
                weights[nonbasic[k]] = w
    weights[tab.basis[leave]] = max(w_enter - 2 * (log_p - log2(tab.det)), 0)
    tab.pivot(leave, enter, column, row)


def _ratio_test(tab: _Basis, column: list):
    """Row of the least ratio rhs[i] / column[i] over column[i] > 0,
    compared by cross-multiplication (both denominators positive), ties to
    the least basic variable; None when the column has no positive entry."""
    leave = None
    for i, a in enumerate(column):
        if a > 0:
            if leave is None:
                leave, rhs, piv = i, tab.rhs[i], a
                continue
            lhs, cut = tab.rhs[i] * piv, rhs * a
            if lhs < cut or (lhs == cut and tab.basis[i] < tab.basis[leave]):
                leave, rhs, piv = i, tab.rhs[i], a
    return leave


def _drive_out_artificials(tab: _Basis, weights: list) -> None:
    """Pivot every artificial still basic (at level zero) out on a grid
    column, keeping the Devex ``weights`` current; a row with no such
    column is a redundant equality and is dropped."""
    redundant = set()
    for i in range(len(tab.basis)):
        if tab.basis[i] >= tab.size:
            row = tab.row(i)
            enter = next((k for k, a in enumerate(row) if a), None)
            if enter is None:
                redundant.add(i)
            else:
                _devex_pivot(tab, weights, i, enter, tab.column(tab.nonbasic[enter]), row)
    keep = [i for i in range(len(tab.basis)) if i not in redundant]
    tab.inv = [tab.inv[i] for i in keep]
    tab.rhs = [tab.rhs[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
