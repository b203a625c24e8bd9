"""Independent oracles for the test suite.

``hankel`` builds the Hankel matrix ``H[i][j] = m_{i+j}`` read by
``christoffel_direct`` and ``admissibility_check``.  ``christoffel_direct``
computes the Christoffel function as ``1 / (v* H_n^{-1} v)`` by
complex-rational Gaussian elimination, sharing no code with the recurrence
path.  ``reconstruct_moments`` maps a recurrence back to moments, so a
round trip checks the moment-to-recurrence transform exactly.

``admissibility_check`` classifies a Hankel matrix by diagonal-pivoted
symmetric elimination, O(n^3).  The library decides positivity, rank and
flatness from the O(n^2) moment-to-recurrence transform instead; this
elimination shares no code with it and serves as its cross-check, the role
``christoffel_direct`` plays for the Christoffel function.

The elimination sees only positive semidefiniteness: it does not check the
flat-extension condition, so on singular data such as ``(1, 0, 0, 0, 1)``
it reports "positive_semidefinite" where the library rightly raises
NotAdmissible.

``weyl_disk_circumcircle`` builds the Weyl disk as the circle through the
pencil values at the parameters {0, 1, inf}: three complex divisions and a
circumcenter.  The library uses the closed forms of the Casoratian and
Christoffel-Darboux identities instead; in rational mode both are exact, so
they must agree with ``==``.

``maximize``/``minimize`` solve the primal grid LPs, ``max c.x`` subject to
``A x <= b`` with x free, by a dense two-phase simplex that splits each free
variable into a difference of nonnegatives and adds one slack per
constraint.  The library solves the same LPs through their moment-space dual
(``simplex.measure_bounds``); by LP duality the optimal values agree, so
this solver is the reference the dual engine is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from momentkit.errors import (DegreeInsufficient, LpInfeasible, LpUnbounded,
                              NotPositiveDefinite, PrecisionExhausted)
from momentkit.hamburger import Recurrence, WeylDisk, ortho_eval
from momentkit.moments import MomentSequence
from momentkit.scalars import ComplexScalar, Mode, RationalMode


# ---------------------------------------------------------------------------
# Hankel matrices


@dataclass(frozen=True)
class HankelMatrix:
    """H[i][j] = m_{i+j} for 0 <= i, j <= order."""

    order: int
    rows: tuple
    mode: Mode


def hankel(seq: MomentSequence, n: int, shift: int = 0) -> HankelMatrix:
    """Hankel matrix of order n (size n+1), optionally on shifted moments."""
    if 2 * n + shift > seq.max_degree:
        raise DegreeInsufficient(f"Hankel order {n} needs degree {2 * n + shift}")
    m = seq.moments_1d()
    rows = tuple(tuple(m[i + j + shift] for j in range(n + 1)) for i in range(n + 1))
    return HankelMatrix(n, rows, seq.mode)


def christoffel_direct(seq: MomentSequence, z: ComplexScalar, n: int):
    """Independent oracle: rho_n(z) = 1 / (v* H_n^{-1} v) with
    v = (1, z, ..., z^n), solved by complex-rational Gaussian elimination.
    Deliberately shares no code with the recurrence path."""
    h = hankel(seq, n)
    mode = seq.mode
    size = n + 1
    one, zero = mode.one(), mode.zero()
    a = [[ComplexScalar(h.rows[i][j], zero) for j in range(size)] for i in range(size)]
    v = [ComplexScalar(one, zero)]
    for _ in range(n):
        v.append(v[-1] * z)
    rhs = [x.conj() for x in v]
    # solve H y = conj(v)
    for col in range(size):
        piv_row = None
        for r in range(col, size):
            if a[r][col].abs2() != 0:
                piv_row = r
                break
        if piv_row is None:
            raise NotPositiveDefinite("Hankel matrix is singular")
        a[col], a[piv_row] = a[piv_row], a[col]
        rhs[col], rhs[piv_row] = rhs[piv_row], rhs[col]
        piv = a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / piv
            for c in range(col, size):
                a[r][c] = a[r][c] - f * a[col][c]
            rhs[r] = rhs[r] - f * rhs[col]
    y = [ComplexScalar(zero, zero)] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, size):
            acc = acc - a[r][c] * y[c]
        y[r] = acc / a[r][r]
    kernel = ComplexScalar(zero, zero)
    for vi, yi in zip(v, y):
        kernel = kernel + vi * yi
    return 1 / kernel.re


def reconstruct_moments(rec: Recurrence, upto: int) -> list:
    """Rebuild m_0..m_upto from the recurrence, exactly for upto <= 2*order.

    Expand x^l in the monic orthogonal basis (exact: the expansion of x^l
    needs pi_0..pi_l only, so no truncation error for l <= order), then read
    off m_{a+b} = sum_j c^a_j c^b_j ||pi_j||^2.
    """
    K = rec.order
    if upto > 2 * K:
        raise DegreeInsufficient(f"order {K} reconstructs at most degree {2 * K}")
    mode = rec.mode
    vecs = [[mode.one()]]
    for l in range(min(upto, K)):
        cur = vecs[-1]
        nxt = [mode.zero()] * (l + 2)
        for j, c in enumerate(cur):
            if not c:
                continue
            nxt[j + 1] = nxt[j + 1] + c
            nxt[j] = nxt[j] + rec.alpha[j] * c
            if j >= 1:
                nxt[j - 1] = nxt[j - 1] + rec.beta[j] * c
        vecs.append(nxt)
    norm_sq = [rec.beta[0]]
    for k in range(1, K + 1):
        norm_sq.append(norm_sq[-1] * rec.beta[k])
    out = []
    for l in range(upto + 1):
        a = min(l, K)
        b = l - a
        va, vb = vecs[a], vecs[b]
        total = mode.zero()
        for j in range(min(len(va), len(vb))):
            total = total + va[j] * vb[j] * norm_sq[j]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Hankel elimination


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the pivoted symmetric factorization."""

    classification: str          # "positive_definite" | "positive_semidefinite" | "indefinite"
    rank: int
    pivots: tuple                # pivot values in elimination order


def admissibility_check(h: HankelMatrix) -> Admissibility:
    """Classify H by diagonal-pivoted symmetric elimination, exactly (the
    oracle is for rational mode only)."""
    if not isinstance(h.mode, RationalMode):
        raise TypeError("the elimination oracle needs exact arithmetic")
    n = h.order + 1
    a = [list(row) for row in h.rows]
    active = list(range(n))
    pivots = []
    while active:
        if all(a[i][j] == 0 for i in active for j in active):
            return Admissibility("positive_semidefinite", len(pivots), tuple(pivots))
        best = max(active, key=lambda i: a[i][i])
        piv = a[best][best]
        if piv <= 0:
            # a PSD matrix with vanishing maximal diagonal has a zero block;
            # surviving off-diagonal mass means the form takes both signs
            return Admissibility("indefinite", len(pivots), tuple(pivots + [piv]))
        pivots.append(piv)
        active.remove(best)
        prow = list(a[best])  # freeze the pivot row before eliminating with it
        for i in active:
            ratio = a[i][best] / piv
            if ratio:
                for j in active:
                    a[i][j] = a[i][j] - ratio * prow[j]
    return Admissibility("positive_definite", n, tuple(pivots))


# ---------------------------------------------------------------------------
# Weyl disk through three pencil values


def weyl_disk_circumcircle(rec: Recurrence, z: ComplexScalar, n: int) -> WeylDisk:
    """Disk at truncation n as the circumcircle of the pencil values at
    parameters {0, 1, inf}; the caller ensures Im z != 0 and n < rec.order."""
    mode = rec.mode
    ev = ortho_eval(rec, z, n + 1)
    p_top, p_low = ev.first[n + 1], ev.first[n]
    q_top, q_low = ev.second[n + 1], ev.second[n]
    if rec.beta[n + 1] == 0:
        center = -(q_top / p_top)
        return WeylDisk(z, n, center, mode.zero(), mode, degenerate=True)
    w0 = -(q_top / p_top)
    w1 = -((q_top + q_low) / (p_top + p_low))
    winf = -(q_low / p_low)
    center = _circumcenter(mode, w0, w1, winf)
    return WeylDisk(z, n, center, (w0 - center).abs2(), mode)


def _circumcenter(mode: Mode, w0: ComplexScalar, w1: ComplexScalar,
                  w2: ComplexScalar) -> ComplexScalar:
    a1, b1 = 2 * (w1.re - w0.re), 2 * (w1.im - w0.im)
    r1 = w1.abs2() - w0.abs2()
    a2, b2 = 2 * (w2.re - w0.re), 2 * (w2.im - w0.im)
    r2 = w2.abs2() - w0.abs2()
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise PrecisionExhausted("degenerate circumcircle; boundary points collinear")
    return ComplexScalar((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det)


# ---------------------------------------------------------------------------
# primal grid-LP solver


@dataclass(frozen=True)
class LpResult:
    value: object
    x: tuple
    iterations: int


def maximize(mode: Mode, c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence,
             max_iterations: int = 100_000) -> LpResult:
    """max c.x st A x <= b, x free.  Raises LpUnbounded / LpInfeasible."""
    c = [mode.convert(v) for v in c]
    a = [[mode.convert(v) for v in row] for row in a_ub]
    b = [mode.convert(v) for v in b_ub]
    n = len(c)
    m = len(a)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LpInfeasible("inconsistent LP shapes")

    zero, one = mode.zero(), mode.one()
    tol = _tolerance(mode, a, b, c)

    # columns: n plus-parts, n minus-parts, m slacks, then artificials
    def split_row(row):
        return [v for v in row] + [-v for v in row]

    ncols = 2 * n + m
    tableau = []
    basis = []
    artificial_cols = []
    for i in range(m):
        row = split_row(a[i]) + [zero] * m + [b[i]]
        row[2 * n + i] = one
        if b[i] < zero:
            row = [-v for v in row]
        tableau.append(row)
    # phase 1: rows whose slack got negated need an artificial basis column
    for i in range(m):
        if tableau[i][2 * n + i] == one:
            basis.append(2 * n + i)
        else:
            col = ncols + len(artificial_cols)
            artificial_cols.append(col)
            for j, row in enumerate(tableau):
                row.insert(-1, one if j == i else zero)
            basis.append(col)
    ncols += len(artificial_cols)

    iterations = 0
    if artificial_cols:
        # minimize the sum of artificials
        obj = [zero] * (ncols + 1)
        for col in artificial_cols:
            obj[col] = -one
        _price_out(obj, tableau, basis)
        iterations += _run(mode, tableau, basis, obj, ncols, tol, max_iterations)
        if obj[-1] > tol:  # obj[-1] tracks -z, so this is the artificial mass
            raise LpInfeasible("phase 1 failed to zero the artificials")
        _drive_out_artificials(mode, tableau, basis, artificial_cols, tol)

    obj = [zero] * (ncols + 1)
    for j in range(n):
        obj[j] = c[j]
        obj[n + j] = -c[j]
    for col in artificial_cols:
        obj[col] = None  # blocked
    _price_out(obj, tableau, basis)
    iterations += _run(mode, tableau, basis, obj, ncols, tol, max_iterations)

    x = [zero] * n
    values = {col: tableau[i][-1] for i, col in enumerate(basis)}
    for j in range(n):
        x[j] = values.get(j, zero) - values.get(n + j, zero)
    return LpResult(value=-obj[-1], x=tuple(x), iterations=iterations)


def minimize(mode: Mode, c: Sequence, a_ub, b_ub, **kw) -> LpResult:
    res = maximize(mode, [-v for v in (mode.convert(u) for u in c)], a_ub, b_ub, **kw)
    return LpResult(value=-res.value, x=res.x, iterations=res.iterations)


def _tolerance(mode: Mode, a, b, c):
    if isinstance(mode, RationalMode):
        return mode.zero()
    scale = mode.one()
    for row in a:
        for v in row:
            if abs(v) > scale:
                scale = abs(v)
    for v in list(b) + list(c):
        if abs(v) > scale:
            scale = abs(v)
    return mode.ctx.ldexp(scale, -(mode.precision_bits // 2))


def _price_out(obj, tableau, basis):
    """Express the objective in terms of the current nonbasic columns."""
    for i, col in enumerate(basis):
        coeff = obj[col]
        if coeff is None or not coeff:
            continue
        row = tableau[i]  # rhs sits at index -1 of both obj and rows
        for j in range(len(obj)):
            if obj[j] is not None:
                obj[j] = obj[j] - coeff * row[j]


def _run(mode, tableau, basis, obj, ncols, tol, max_iterations) -> int:
    it = 0
    while True:
        it += 1
        if it > max_iterations:
            raise PrecisionExhausted("simplex iteration limit hit; numerically stuck")
        enter = None
        for j in range(ncols):  # Bland: first improving column
            coeff = obj[j]
            if coeff is not None and coeff > tol and j not in basis:
                enter = j
                break
        if enter is None:
            return it
        leave, best = None, None
        for i, row in enumerate(tableau):
            aij = row[enter]
            if aij > tol:
                ratio = row[-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise LpUnbounded("improving direction is unbounded; grid too sparse "
                              "for the requested degree")
        _pivot(tableau, basis, obj, leave, enter)


def _pivot(tableau, basis, obj, leave, enter):
    row = tableau[leave]
    piv = row[enter]
    tableau[leave] = [v / piv for v in row]
    row = tableau[leave]
    for i, other in enumerate(tableau):
        if i != leave and other[enter]:
            f = other[enter]
            tableau[i] = [u - f * v for u, v in zip(other, row)]
    f = obj[enter]
    if f:
        for j in range(len(obj)):
            if obj[j] is not None:
                obj[j] = obj[j] - f * row[j]
    basis[leave] = enter


def _drive_out_artificials(mode, tableau, basis, artificial_cols, tol):
    art = set(artificial_cols)
    for i, col in enumerate(basis):
        if col not in art:
            continue
        row = tableau[i]
        enter = None
        for j in range(len(row) - 1):
            if j not in art and abs(row[j]) > tol and j not in basis:
                enter = j
                break
        if enter is not None:
            dummy = [None] * len(row)
            _pivot(tableau, basis, dummy, i, enter)
        # a fully zero row stays; its artificial is at value 0 and harmless
    for row in tableau:
        for col in art:
            row[col] = mode.zero()
