"""Moment-space LP engine over grid measures, exact in both scalar modes.

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

There is one arithmetic.  Every float scalar is a dyadic rational, so a
float-mode LP is solved exactly on the data it is given
(``scalars.exact_fraction``) and each bound is rounded into the mode once;
no tolerance is needed and none is kept.  Pivoting follows Bland's rule (no
cycling) on integers, with no gcd per entry (Edmonds' fraction-free
Gauss-Jordan, the Bareiss idea applied to the simplex).  The moments go
over their lcm ``delta`` (``scalars.integers``) and the grid measure is
scaled by it, ``y' = delta * y``, so the right-hand side is integral and the
moments' denominators do not widen the rows; ``delta = 1`` for integer
moments.  Each moment row is then scaled to integers by the lcm of its
column denominators and the objective by the lcm ``den`` of its own, and
every tableau and profit entry is an integer numerator over one common
denominator ``D > 0``, the current basis determinant.  A pivot on ``p``
takes each entry ``u`` of another row to ``(u * p - f * v) // D``,
exactly, where ``f`` is that row's entry in the pivot column and ``v`` the
pivot row's; the pivot row stays as it is and ``D`` becomes ``p``.  Ratios
are compared by cross-multiplication, and an optimum is read off as
``Fraction(-profit[-1], D * den * delta)``.  Problem sizes here are small
(tens of moments, at most a few hundred grid points), so no factorization
machinery is carried around: one tableau, eliminated in place.
"""

from __future__ import annotations

from fractions import Fraction
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
    # nonnegative; basis entry size + i is the artificial of row i.  An
    # artificial that leaves the basis never returns, so its column is not
    # stored.
    rhs, delta = integers(rhs)
    rows = []
    for i, m in enumerate(rhs):
        row = integers([col[i] for col in cols] + [m])[0]
        rows.append([-v for v in row] if m < 0 else row)
    obj, den = integers(obj)
    tab = _Tableau(rows, [size + i for i in range(len(rows))])

    # phase 1: maximize minus the artificial mass; with every artificial
    # basic, the reduced profits are the column sums and profit[-1] is the
    # mass still carried by the artificials
    tab.profit = [sum(entries) for entries in zip(*rows)]
    _run(tab)
    if tab.profit[-1] > 0:
        raise LpUnbounded(f"no nonnegative measure on the {size}-point grid "
                          "reproduces the moments")
    tab.profit = None
    _drive_out_artificials(tab, size)

    bounds = []
    for sign in (-1, 1):  # maximize -objective, then objective
        t = tab.copy()
        # reduced profits sign * (objective - objective_B B^-1 A), over det
        profit = [sign * t.det * v for v in obj] + [0]
        for row, col in zip(t.rows, t.basis):
            coeff = sign * obj[col]
            if coeff:
                profit = [u - coeff * v for u, v in zip(profit, row)]
        t.profit = profit
        _run(t)
        bounds.append(mode.convert(sign * Fraction(-t.profit[-1], t.det * den * delta)))
    return bounds[0], bounds[1]


class _Tableau:
    """Constraint rows (right-hand side last), their basis and one profit
    row, every entry an integer numerator over the common denominator
    ``det``, the basis determinant.  A pivot replaces rows rather than
    changing them, so a copy shares them."""

    def __init__(self, rows, basis, det=1):
        self.rows, self.basis, self.det = rows, basis, det
        self.profit = None

    def copy(self) -> "_Tableau":
        return _Tableau(list(self.rows), list(self.basis), self.det)

    def pivot(self, leave: int, enter: int) -> None:
        pivot_row = self.rows[leave]
        p = pivot_row[enter]
        if p < 0:  # only a drive-out pivot; negating its row keeps det > 0
            p, pivot_row = -p, [-v for v in pivot_row]
            self.rows[leave] = pivot_row
        det, self.det = self.det, p

        def update(row):
            f = row[enter]
            return [(u * p - f * v) // det for u, v in zip(row, pivot_row)]
        self.rows = [row if i == leave else update(row) for i, row in enumerate(self.rows)]
        if self.profit is not None:
            self.profit = update(self.profit)
        self.basis[leave] = enter


def _run(tab: _Tableau) -> None:
    """Maximize the objective whose reduced profits are ``tab.profit`` (its
    last entry is minus the current value); pivots update it in place."""
    while True:
        basic = set(tab.basis)
        profit = tab.profit
        enter = next((j for j in range(len(profit) - 1)  # Bland: first improving
                      if profit[j] > 0 and j not in basic), None)
        if enter is None:
            return
        # least ratio row[-1] / row[enter], compared by cross-multiplication
        # (both denominators positive); ties go to the least basic index
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
        if leave is None:
            raise LpInfeasible("the objective is unbounded over the grid measures")
        tab.pivot(leave, enter)


def _drive_out_artificials(tab: _Tableau, size: int) -> None:
    """Pivot every artificial still basic (at level zero) out on a grid
    column; a row with no such column is a redundant equality and is
    dropped."""
    redundant = set()
    for i in range(len(tab.rows)):
        if tab.basis[i] >= size:
            row = tab.rows[i]
            enter = next((j for j in range(size) if row[j]), None)
            if enter is None:
                redundant.add(i)
            else:
                tab.pivot(i, enter)
    keep = [i for i in range(len(tab.rows)) if i not in redundant]
    tab.rows = [tab.rows[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
