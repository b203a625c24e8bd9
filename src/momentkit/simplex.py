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

Pivoting follows Bland's rule (no cycling).  Rational mode pivots exactly;
float mode uses the context precision with a relative pivot tolerance.
Problem sizes here are small (tens of moments, at most a few hundred grid
points), so no factorization machinery is carried around: one tableau,
eliminated in place.
"""

from __future__ import annotations

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
    """
    cols = [[mode.convert(v) for v in col] for col in columns]
    rhs = [mode.convert(v) for v in moments]
    obj = [mode.convert(v) for v in objective]
    size, n = len(cols), len(rhs)
    if len(obj) != size or any(len(col) != n for col in cols):
        raise LpInfeasible("inconsistent LP shapes")
    zero = mode.zero()
    tol = _tolerance(mode, cols, rhs, obj)

    # row i reads sum_g y_g columns[g][i] = moments[i], signed so that its
    # right-hand side (index -1) is nonnegative; basis entry size + i is the
    # artificial of row i.  An artificial that leaves the basis never
    # returns, so its column is not stored.
    tableau = []
    for i, m in enumerate(rhs):
        row = [col[i] for col in cols] + [m]
        tableau.append([-v for v in row] if m < zero else row)
    basis = [size + i for i in range(n)]

    # phase 1: maximize minus the artificial mass; with every artificial
    # basic, the reduced profits are the column sums and profit[-1] is the
    # mass still carried by the artificials
    profit = [sum(entries, zero) for entries in zip(*tableau)]
    _run(tableau, basis, profit, tol)
    if profit[-1] > tol:
        raise LpUnbounded(f"no nonnegative measure on the {size}-point grid "
                          "reproduces the moments")
    tableau, basis = _drive_out_artificials(tableau, basis, size, tol)

    bounds = []
    for sign in (-1, 1):  # maximize -objective, then objective
        t, b = [list(row) for row in tableau], list(basis)
        profit = [sign * v for v in obj] + [zero]
        for row, col in zip(t, b):
            coeff = profit[col]
            if coeff:
                profit = [u - coeff * v for u, v in zip(profit, row)]
        _run(t, b, profit, tol)
        bounds.append(sign * -profit[-1])
    return bounds[0], bounds[1]


def _tolerance(mode: Mode, cols, rhs, obj):
    if isinstance(mode, RationalMode):
        return mode.zero()
    scale = mode.one()
    for v in [v for col in cols for v in col] + list(rhs) + list(obj):
        if abs(v) > scale:
            scale = abs(v)
    return mode.ctx.ldexp(scale, -(mode.precision_bits // 2))


def _run(tableau, basis, profit, tol) -> None:
    """Maximize the objective whose reduced profits are ``profit`` (its last
    entry is minus the current value); pivots update it in place."""
    for _ in range(MAX_ITERATIONS):
        basic = set(basis)
        enter = next((j for j in range(len(profit) - 1)  # Bland: first improving
                      if profit[j] > tol and j not in basic), None)
        if enter is None:
            return
        leave, best = None, None
        for i, row in enumerate(tableau):
            aij = row[enter]
            if aij > tol:
                ratio = row[-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise LpInfeasible("the objective is unbounded over the grid measures")
        _pivot(tableau, basis, profit, leave, enter)
    raise PrecisionExhausted("simplex iteration limit hit; numerically stuck")


def _pivot(tableau, basis, profit, leave, enter) -> None:
    piv = tableau[leave][enter]
    row = tableau[leave] = [v / piv for v in tableau[leave]]
    for i, other in enumerate(tableau):
        f = other[enter]
        if i != leave and f:
            tableau[i] = [u - f * v for u, v in zip(other, row)]
    f = profit[enter] if profit is not None else 0
    if f:
        profit[:] = [u - f * v for u, v in zip(profit, row)]
    basis[leave] = enter


def _drive_out_artificials(tableau, basis, size, tol):
    """Pivot every artificial still basic (at level zero) out on a grid
    column; a row with no such column is a redundant equality and is
    dropped."""
    redundant = set()
    for i in range(len(tableau)):
        if basis[i] >= size:
            row = tableau[i]
            enter = next((j for j in range(size) if abs(row[j]) > tol), None)
            if enter is None:
                redundant.add(i)
            else:
                _pivot(tableau, basis, None, i, enter)
    keep = [i for i in range(len(tableau)) if i not in redundant]
    return [tableau[i] for i in keep], [basis[i] for i in keep]
