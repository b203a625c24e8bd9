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

``factorize_fractions`` and ``forward_pass_fractions`` are the
moment-to-recurrence transform and the forward pass of the three-term
recurrence carried out entry by entry in the mode's own scalars (reduced
``Fraction``s in rational mode, the ``mpf`` operators in float mode, with
``eps * |x|`` an mpf product).  In rational mode the library runs the same
loops on integer numerators over one denominator per row or level, taking
only the gcds that cancel: each row is content-reduced, while a level may
keep a rare common factor that reduced ``Fraction``s cancel at once; in
float mode its recurrence rows are raw mpmath tuples and its noise floors
binary64 ``log2`` magnitudes.  The values, the float pivots, the errors
and their messages must be equal, and float values bit-identical; the
floors here are ``mpf`` values, which the library's ``log2`` floors must
match to within 1e-9 relative in ``log2``.

``christoffel_fractions`` and ``weyl_radius_sq_fractions`` are the
Christoffel value and the Weyl radius as chains of the mode's scalar
operations on a ``forward_pass_fractions`` pass: the Christoffel-Darboux
form of the sum below n plus the top term, in reduced ``Fraction``s, at
non-real z in rational mode, the sum of |p_k(z)|^2 elsewhere, and ``rho *
rho / (4 Im z^2)``.  The library builds one ``Fraction`` per value from the
integer levels and exact pivots, with Christoffel-Darboux at the next
level below the order; rational values must be equal, float values
bit-identical, and the errors and messages the same.

``convergents_radau`` is ``hamburger.stieltjes_convergents`` the long way:
the even value ``-Q_n/pi_n`` from a forward pass at z, a second pass at 0
for the Gauss-Radau top coefficient ``alpha* = -beta_n pi_{n-1}(0) /
pi_n(0)``, the odd value from the modified top level, and a separate walk
over the chain sequence q, e for positivity; for finitely atomic data of
rank r at most the level it checks that pi_r's coefficients alternate in
sign, so that no atom lies below 0.  In rational mode the library takes
the same Radau step off one real pass over integer levels that carry
pi_k(z), Q_k(z) and pi_k(0) together, and reads positivity and the atoms'
sign off the signs of pi_k(0) (``q_k = -pi_k(0) / pi_{k-1}(0)``) instead;
the values, the errors and their messages must be equal.

``convergents_wallis`` is the Wallis loop over the Stieltjes continued
fraction on four reduced numerators and denominators in the mode's scalars
(``Fraction``s in rational mode, the ``mpf`` operators in float mode),
updated at every step, and for finitely atomic data a loop of its own to
the rank r, whose even value is the transform.  The library runs this loop
in float mode only, on plain ``mpf`` values (a Radau step cancels bits
there), the finitely atomic case included, and the one pass above in
rational mode; the values, their types, the errors and their messages must
be equal, and float mode bit-identical.

``christoffel_on_curve`` is the curve-side Christoffel value the plain way:
the weighted lift's moments factorized with no base recurrence.
``curves.lift_and_test`` factorizes the same lift by modification, from
the lift's own recurrence and the banded modified moments of the weight;
in rational mode both routes give equal values.

``grid_columns_entrywise`` builds the grid-LP columns entry by entry,
``g^alpha`` as a product of the mode's scalars, each row over 1.  The
library writes each grid axis over one denominator and makes every entry
an integer monomial over its row's denominator (``gaps._grid_columns``);
each entry over its denominator must equal the oracle's, and the bounds of
``gaps.grid_gap_lp`` and the errors it raises must be the same on both.
Given the weight ``a.x + 1``, its columns with ``simplex.measure_bounds``
are the hyperplane LP as written, over grid measures of mass sum_g y_g;
``gaps.hyperplane_gap`` solves it as a Fantappie grid LP (see the ``gaps``
module docstring), and rational values must be equal.

``compose_univariates_termwise`` substitutes univariate polynomials into
a multivariate one term by term, each power ``u_i**e`` by repeated
squaring; the library builds each component's powers once, one product
per degree (``polynomials.mpoly_compose_univariates``), and the results
must be equal.  ``product_entries`` builds the entries of a product
measure from its factors' sequences, each entry from ``mode.one()`` through
every factor, zeros included; ``moments.generate_moments`` starts at the
first factor and stops at a zero, and the entries must be equal with the
same types, float mode bit-identical.

``monomial`` is x**alpha by plain repeated multiplication, from 1, axis
by axis.  The library builds every graded power as one product on the
slice below, along the links of ``polynomials.lowerings``
(``polynomials.power_slices``); rational values must be equal.

``mpoly_pow`` expands a polynomial power by repeated squaring, so
``apply_linear_functional(seq, mpoly_pow(form, k, d))`` is the direct
reference for push-forward moments.  ``image_moments_fractions`` builds
them degree by degree, each ``u**beta`` as ``u**(beta - e_i) * u_i`` on the
mode's scalars, and applies L one scalar term at a time.  The library runs
the same products on integer numerators over one denominator
(``moments.image_moments``); the values, the errors and their messages must
be equal, and float mode bit-identical.

``orthant_slack_patterns`` is the translated-orthant slack summed one
sign pattern at a time: for each of the 2^d patterns I it builds H_I(x -
a) = prod_j h(+-(x_j - a_j)) and applies the functional of the translated
sequence (``affine_map`` by x -> x - a) to it.  The library applies L once,
to the product prod_j (h(t) + h(-t)) that the patterns sum to, expanded in
x (``gaps.orthant_criterion``); rational values must be equal, float
values agree to rounding.

``contains_basis_elimination`` decides whether vectors span the space by
Gaussian elimination with a column search and row swaps: in each column
the first remaining row whose entry clears ``half_floor(mode, 1)`` is
swapped up and eliminated below.  The library reduces each vector once
against the rows kept so far, with no search and no swap
(``gaps._contains_basis``); the answers must be the same.

``convolve_binomial`` is the additive convolution by the binomial
expansion of ``(x + y)**gamma``, one box of indices at a time.  The
library takes the ``affine_map`` image of the product functional under
``(x, y) -> x + y`` instead (``moments.convolve``); rational entries must
be equal, float entries agree to rounding, and the support, certificate
and errors must be the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from momentkit.errors import (DegreeInsufficient, DimensionMismatch, InvalidParameter,
                              LpInfeasible, LpUnbounded, ModeMismatch, NonRealPointRequired,
                              NotAdmissible, NotPositiveDefinite, NotStieltjesAdmissible,
                              PrecisionExhausted)
from momentkit.curves import PolynomialCurve, _weighted_lift
from momentkit.hamburger import (FLOAT_PIVOT_GUARD_BITS, ConvergentPair, OrthoEval, Recurrence,
                                 WeylDisk, christoffel, monic_coefficients, ortho_eval,
                                 recurrence_from_moments)
from momentkit.moments import (FullSpace, MomentSequence, NonnegativeOrthant, affine_map,
                               apply_linear_functional)
from momentkit.polynomials import (compositions, mpoly_degree, mpoly_mul, multi_indices,
                                   poly_add, poly_mul, poly_pow)
from momentkit.scalars import (ComplexScalar, FloatMode, Mode, RationalMode, complex_scalar,
                               half_floor)


# ---------------------------------------------------------------------------
# polynomial powers


def monomial(point, alpha):
    """point**alpha = prod x_i**alpha_i by plain repeated multiplication,
    from 1, axis by axis."""
    out = 1
    for x, e in zip(point, alpha):
        for _ in range(e):
            out = out * x
    return out


def mpoly_pow(p: dict, n: int, dimension: int) -> dict:
    """p**n for a polynomial {alpha: coefficient} in ``dimension`` variables."""
    out = {(0,) * dimension: 1}
    base = dict(p)
    while n:
        if n & 1:
            out = mpoly_mul(out, base)
        n >>= 1
        if n:
            base = mpoly_mul(base, base)
    return out


def compose_univariates_termwise(p: dict, components) -> tuple:
    """p(u_1(t), ..., u_k(t)) term by term, each u_i**e by ``poly_pow``."""
    out: tuple = ()
    for alpha, c in p.items():
        term: tuple = (c,)
        for u, e in zip(components, alpha):
            if e:
                term = poly_mul(term, poly_pow(u, e))
        out = poly_add(out, term)
    return out


def product_entries(factors, dims, max_degree: int, mode: Mode) -> dict:
    """The moments of a product measure from its factors' sequences (each
    of dimension ``dims[i]``): every entry starts at ``mode.one()`` and is
    multiplied by every factor's moment, zeros included."""
    entries = {}
    for alpha in multi_indices(sum(dims), max_degree):
        val, pos = mode.one(), 0
        for s, dim in zip(factors, dims):
            val = val * s.entries[tuple(alpha[pos:pos + dim])]
            pos += dim
        entries[alpha] = val
    return entries


def convolve_binomial(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the additive convolution by the binomial expansion
    m_gamma = sum_{beta <= gamma} C(gamma, beta) m_beta(a) m_{gamma-beta}(b),
    one box of beta at a time, with ``moments.convolve``'s degree, support
    and certificate rules and its errors."""
    if a.dimension != b.dimension:
        raise DimensionMismatch("convolution needs equal dimensions")
    if a.mode != b.mode:
        raise ModeMismatch("convolution needs one shared mode")
    N = min(a.max_degree, b.max_degree)
    mode = a.mode
    entries = {}
    for gamma in multi_indices(a.dimension, N):
        total = mode.zero()
        for beta in _boxed_indices(gamma):
            coeff = 1
            for g, bb in zip(gamma, beta):
                coeff *= comb(g, bb)
            rest = tuple(g - bb for g, bb in zip(gamma, beta))
            total = total + coeff * a.entries[beta] * b.entries[rest]
        entries[gamma] = total
    both_orthant = (isinstance(a.support, NonnegativeOrthant)
                    and isinstance(b.support, NonnegativeOrthant))
    support = NonnegativeOrthant() if both_orthant else FullSpace()
    certified = a.is_certified_carleman() and b.is_certified_carleman()
    return MomentSequence(a.dimension, N, mode, entries, support,
                          meta={"carleman_growth_certified": certified})


def _boxed_indices(gamma: tuple):
    """Every beta with 0 <= beta <= gamma, lexicographically."""
    if len(gamma) == 1:
        for i in range(gamma[0] + 1):
            yield (i,)
        return
    for head in range(gamma[0] + 1):
        for rest in _boxed_indices(gamma[1:]):
            yield (head,) + rest


def orthant_slack_patterns(seq: MomentSequence, a):
    """sum over sign patterns I of L(H_I(x - a)) - m_0, one pattern at a
    time, with h(t) = t^2 + t + 1."""
    mode, d = seq.mode, seq.dimension
    h = (mode.one(),) * 3
    h_flip = tuple(c if k % 2 == 0 else -c for k, c in enumerate(h))
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    translated = affine_map(seq, identity, [-mode.convert(c) for c in a])
    total = mode.zero()
    for pattern in range(1 << d):
        poly = {(0,) * d: mode.one()}
        for j in range(d):
            fac = h_flip if (pattern >> j) & 1 else h
            poly = mpoly_mul(poly, {tuple(k if i == j else 0 for i in range(d)): c
                                    for k, c in enumerate(fac) if c})
        total = total + apply_linear_functional(translated, poly)
    return total - seq.entries[(0,) * d]


def image_moments_fractions(seq: MomentSequence, forms, max_degree: int) -> dict:
    """``moments.image_moments`` on the mode's scalars: each u**beta built as
    u**(beta - e_i) * u_i, i the first axis with beta_i > 0, and L applied
    term by term."""
    mode = seq.mode
    forms = [{tuple(a): mode.convert(c) for a, c in u.items() if c} for u in forms]
    if any(len(a) != seq.dimension for u in forms for a in u):
        raise DimensionMismatch("polynomial dimension mismatch")
    need = max_degree * max((mpoly_degree(u) for u in forms), default=0)
    if need > seq.max_degree:
        raise DegreeInsufficient(
            f"degree {max_degree} images need degree {need}, "
            f"truncation is {seq.max_degree}"
        )
    k = len(forms)
    level = {(0,) * k: {(0,) * seq.dimension: mode.one()}}
    out = {(0,) * k: seq.entries[(0,) * seq.dimension]}
    for n in range(1, max_degree + 1):
        products = {}
        for beta in compositions(n, k):
            i = next(j for j, e in enumerate(beta) if e)
            prev = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            products[beta] = mpoly_mul(level[prev], forms[i])
            out[beta] = apply_linear_functional(seq, products[beta])
        level = products
    return out


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


def factorize_fractions(seq: MomentSequence, n: int, rows: list | None = None) -> Recurrence:
    """The moment-to-recurrence transform of ``hamburger._factorize``, with
    each sigma_{k,l} a scalar of the mode: the same pivots, noise floors,
    checks and messages.  Each (sigma row, noise row) for k >= 1 is appended
    to ``rows`` when it is given."""
    if n < 1:
        raise InvalidParameter("recurrence order must be at least 1")
    if 2 * n > seq.max_degree:
        raise DegreeInsufficient(f"order {n} needs moments to degree {2 * n}")
    m = seq.moments_1d()
    mode = seq.mode
    if not m[0] > 0:
        raise NotPositiveDefinite("m_0 must be positive")
    eps = None
    if isinstance(mode, FloatMode):
        eps = mode.ctx.ldexp(mode.one(), -(mode.precision_bits - FLOAT_PIVOT_GUARD_BITS))
    zero = mode.zero()
    alpha = [m[1] / m[0]]
    beta = [m[0]]
    pivots = [mode.to_float(m[0])]
    sig_prev2: list = []
    sig_prev = list(m)
    noi_prev2: list = []
    noi_prev = [(eps * abs(x) if eps is not None else zero) for x in m]
    for k in range(1, n + 1):
        sig = [zero] * len(m)
        noi = [zero] * len(m)
        hi = 2 * n - k
        for l in range(k, hi + 1):
            v = sig_prev[l + 1] - alpha[k - 1] * sig_prev[l]
            if k >= 2:
                v = v - beta[k - 1] * sig_prev2[l]
            sig[l] = v
            if eps is not None:
                carried = noi_prev[l + 1] + abs(alpha[k - 1]) * noi_prev[l] \
                    + eps * abs(alpha[k - 1] * sig_prev[l])
                if k >= 2:
                    carried = carried + abs(beta[k - 1]) * noi_prev2[l] \
                        + eps * abs(beta[k - 1] * sig_prev2[l])
                noi[l] = carried + eps * abs(v)
        if rows is not None:
            rows.append((sig, noi))
        piv = sig[k]
        tol = noi[k]
        pivots.append(mode.to_float(piv))
        if piv < -tol:
            raise NotAdmissible(f"functional is not positive on squares: ||pi_{k}||^2 < 0")
        if piv <= tol:
            if any(abs(sig[l]) > noi[l] for l in range(k, hi + 1)):
                if isinstance(mode, FloatMode):
                    raise PrecisionExhausted(
                        f"pivot at step {k} lost all significant bits"
                    )
                raise NotAdmissible(
                    f"||pi_{k}||^2 = 0 but L(pi_{k} x^l) != 0 for some l: "
                    "no flat extension, so no representing measure"
                )
            beta.append(zero)
            return Recurrence(mode, tuple(alpha), tuple(beta), tuple(pivots))
        if eps is not None and half_floor(mode, piv) <= tol:
            raise PrecisionExhausted(
                f"pivot at step {k} keeps fewer than half the working bits"
            )
        beta.append(piv / sig_prev[k - 1])
        if k < n:
            alpha.append(sig[k + 1] / piv - sig_prev[k] / sig_prev[k - 1])
        sig_prev2, sig_prev = sig_prev, sig
        noi_prev2, noi_prev = noi_prev, noi
    return Recurrence(mode, tuple(alpha), tuple(beta), tuple(pivots))


def forward_pass_fractions(rec: Recurrence, z: ComplexScalar) -> OrthoEval:
    """pi_k(z), Q_k(z) and ||pi_k||^2 to the full order, as
    ``hamburger._forward_pass``, with ComplexScalar arithmetic throughout."""
    mode = rec.mode
    one, zero = mode.one(), mode.zero()
    first = [ComplexScalar(one, zero)]
    second = [ComplexScalar(zero, zero)]
    if rec.order >= 1:
        first.append(z - ComplexScalar(rec.alpha[0], zero))
        second.append(ComplexScalar(rec.beta[0], zero))
    for k in range(1, rec.order):
        zk = z - ComplexScalar(rec.alpha[k], zero)
        first.append(zk * first[k] - first[k - 1].scale(rec.beta[k]))
        second.append(zk * second[k] - second[k - 1].scale(rec.beta[k]))
    norms = [rec.beta[0]]
    for k in range(1, rec.order + 1):
        norms.append(norms[-1] * rec.beta[k])
    return OrthoEval(z, tuple(first), tuple(norms), lambda: tuple(second))


def christoffel_fractions(rec: Recurrence, ev: OrthoEval, n: int):
    """``hamburger.christoffel(rec, ev.z, n)`` as a chain of the mode's
    scalar operations on the pass ``ev = forward_pass_fractions(rec, z)``:
    the sum of |p_k(z)|^2 at real z and in float mode, else the
    Christoffel-Darboux form of the sum below n plus the top term, with the
    same errors and messages."""
    z = ev.z
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    r = rec.rank
    if r <= min(n, rec.order):
        if ev.first[r].abs2() != 0:
            return rec.mode.zero()
        return 1 / ev.kernel_diagonal(r - 1)
    if n > rec.order:
        raise DegreeInsufficient(f"recurrence order {rec.order} < {n}")
    if z.im == 0 or n == 0 or isinstance(rec.mode, FloatMode):
        return 1 / ev.kernel_diagonal(n)
    p1, p0 = ev.first[n], ev.first[n - 1]
    cross = p1.im * p0.re - p1.re * p0.im
    return 1 / (cross / (z.im * ev.norm_sq[n - 1]) + ev.first[n].abs2() / ev.norm_sq[n])


def weyl_radius_sq_fractions(rec: Recurrence, ev: OrthoEval, n: int, rho=None):
    """``hamburger.weyl_radius_sq(rec, ev.z, n, rho)`` as ``rho * rho / (4
    Im z^2)`` with rho from ``christoffel_fractions`` on the same pass
    unless given, with the same errors and messages."""
    z = ev.z
    if z.im == 0:
        raise NonRealPointRequired("Weyl disks need Im z != 0")
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    if n + 1 > rec.order:
        raise DegreeInsufficient(f"disk at {n} needs recurrence order {n + 1}")
    mode = rec.mode
    if rec.beta[n + 1] == 0:
        return mode.zero()
    p_top, p_low = ev.first[n + 1], ev.first[n]
    if isinstance(mode, FloatMode) and not (p_top.im * p_low.re - p_top.re * p_low.im) * z.im > 0:
        raise PrecisionExhausted("Weyl disk: Im(pi_{n+1} conj pi_n) lost its sign")
    if rho is None:
        rho = christoffel_fractions(rec, ev, n)
    return rho * rho / (4 * z.im * z.im)


def christoffel_on_curve(sigma: MomentSequence, curve: PolynomialCurve, alpha: ComplexScalar,
                         n: int):
    """Christoffel value of the weight**2-weighted lift sigma at alpha,
    the curve-side evaluation-bound surrogate at the point u(alpha), from
    the plain factorization of the weighted moments."""
    weighted = _weighted_lift(sigma, curve.weight)
    if 2 * n > weighted.max_degree:
        raise DegreeInsufficient(f"level {n} needs weighted degree {2 * n}")
    rec = recurrence_from_moments(weighted, max(n, 1))
    return christoffel(rec, alpha, min(n, rec.rank - 1))


def convergents_radau(seq: MomentSequence, z, n: int) -> ConvergentPair:
    """Even and odd Stieltjes convergents at level n by two forward passes
    and a Radau change to the top coefficient, with the positivity checks,
    errors and messages of ``hamburger.stieltjes_convergents``."""
    mode = seq.mode
    if not isinstance(seq.support, NonnegativeOrthant):
        raise NotStieltjesAdmissible("convergents need support on [0, inf)")
    zv = mode.convert(z)
    if not zv < 0:
        raise InvalidParameter("evaluation point must be a negative real")
    rec = recurrence_from_moments(seq, seq.max_degree // 2)
    r = rec.rank
    if r <= min(n, rec.order):
        # pi_r = prod (x - x_i) has its roots on [0, inf) iff its
        # coefficients alternate in sign, zeros allowed (Vieta, Descartes)
        zc = complex_scalar(mode, zv)
        ev = ortho_eval(rec, zc)
        pi = monic_coefficients(rec, r)[-1]
        if any((-1) ** (r - j) * c < 0 for j, c in enumerate(pi)):
            raise NotStieltjesAdmissible("an atom lies below 0")
        val = -(ev.second[rec.rank].re / ev.first[rec.rank].re)
        return ConvergentPair(val, val, mode.zero())
    if rec.order < n:
        raise DegreeInsufficient(f"recurrence order {rec.order} < level {n}")
    _assert_stieltjes_positive(seq, rec, n)
    zc = complex_scalar(mode, zv)
    ev = ortho_eval(rec, zc)
    even = -(ev.second[n].re / ev.first[n].re)
    # fixed node at 0: modified top diagonal alpha* = 0 - beta_n pi_{n-1}(0)/pi_n(0)
    zero_c = complex_scalar(mode, 0)
    at0 = ortho_eval(rec, zero_c)
    if n:
        p_low, q_low, pn10 = ev.first[n - 1], ev.second[n - 1], at0.first[n - 1].re
    else:
        # below level 0 pi_{-1} = 0 and Q_{-1} = -1, which gives Q_1 = beta_0
        p_low, q_low, pn10 = zero_c, -complex_scalar(mode, 1), mode.zero()
    pn0 = at0.first[n].re
    if pn0 == 0:
        raise NotStieltjesAdmissible("pi_n(0) = 0; roots touch the endpoint")
    alpha_star = -rec.beta[n] * pn10 / pn0
    zk = zc - complex_scalar(mode, alpha_star)
    p_top = zk * ev.first[n] - p_low.scale(rec.beta[n])
    q_top = zk * ev.second[n] - q_low.scale(rec.beta[n])
    odd = -(q_top.re / p_top.re)
    width = odd - even if odd >= even else even - odd
    return ConvergentPair(even, odd, width)


def convergents_wallis(seq: MomentSequence, z, n: int) -> ConvergentPair:
    """``hamburger.stieltjes_convergents`` with its Wallis numerators and
    denominators as four scalars of the mode, each updated by the mode's
    operators at every step."""
    mode = seq.mode
    if not isinstance(seq.support, NonnegativeOrthant):
        raise NotStieltjesAdmissible("convergents need support on [0, inf)")
    zv = mode.convert(z)
    if not zv < 0:
        raise InvalidParameter("evaluation point must be a negative real")
    rec = recurrence_from_moments(seq, seq.max_degree // 2)
    r = rec.rank
    s = -zv
    if r <= min(n, rec.order):
        # the chain q_1 .. q_r of the r atoms: every q positive, except
        # that the last may be 0 (an atom at 0), in float mode to within
        # half the working bits of e; the even value at level r is the
        # transform
        even_num, even_den = mode.zero(), mode.one()
        odd_num, odd_den = rec.beta[0], s
        e = mode.zero()
        for k in range(r - 1):
            q = rec.alpha[k] - e
            if not q > 0:
                raise NotStieltjesAdmissible("an atom lies below 0")
            even_num, even_den = odd_num + q * even_num, odd_den + q * even_den
            e = rec.beta[k + 1] / q
            odd_num, odd_den = s * even_num + e * odd_num, s * even_den + e * odd_den
        q = rec.alpha[r - 1] - e
        if q < -half_floor(mode, e):
            raise NotStieltjesAdmissible("an atom lies below 0")
        val = (odd_num + q * even_num) / (odd_den + q * even_den)
        return ConvergentPair(val, val, mode.zero())
    if rec.order < n:
        raise DegreeInsufficient(f"recurrence order {rec.order} < level {n}")
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    even_num, even_den = mode.zero(), mode.one()
    odd_num, odd_den = rec.beta[0], s
    e = mode.zero()
    for k in range(n):
        q = rec.alpha[k] - e
        if not q > 0:
            raise NotStieltjesAdmissible("shifted Hankel form is not positive definite")
        even_num, even_den = odd_num + q * even_num, odd_den + q * even_den
        e = rec.beta[k + 1] / q
        if not e > 0:
            raise NotStieltjesAdmissible("shifted Hankel form is not positive definite")
        odd_num, odd_den = s * even_num + e * odd_num, s * even_den + e * odd_den
    even, odd = even_num / even_den, odd_num / odd_den
    width = odd - even if odd >= even else even - odd
    return ConvergentPair(even, odd, width)


def _assert_stieltjes_positive(seq: MomentSequence, rec: Recurrence, n: int) -> None:
    """Both Hankel forms positive to the needed order, through the chain
    splitting: with e_0 = 0, q_{k+1} = alpha_k - e_k and e_{k+1} = beta_{k+1}
    / q_{k+1}, every q and e must be positive."""
    if any(b <= 0 for b in rec.beta[:n + 1]):
        raise NotStieltjesAdmissible("Hankel form not positive to the needed order")
    e = seq.mode.zero()
    for k in range(n):
        q = rec.alpha[k] - e
        if not q > 0:
            raise NotStieltjesAdmissible("shifted Hankel form is not positive definite")
        e = rec.beta[k + 1] / q
        if not e > 0:
            raise NotStieltjesAdmissible("shifted Hankel form is not positive definite")


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
    ev = ortho_eval(rec, z)
    p_top, p_low = ev.first[n + 1], ev.first[n]
    q_top, q_low = ev.second[n + 1], ev.second[n]
    if rec.beta[n + 1] == 0:
        center = -(q_top / p_top)
        return WeylDisk(center, mode.zero(), degenerate=True)
    w0 = -(q_top / p_top)
    w1 = -((q_top + q_low) / (p_top + p_low))
    winf = -(q_low / p_low)
    center = _circumcenter(mode, w0, w1, winf)
    return WeylDisk(center, (w0 - center).abs2())


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
# grid-LP columns


def grid_columns_entrywise(mode: Mode, grid, degree: int, weight=None) -> tuple:
    """``gaps._grid_columns`` entry by entry in the mode's scalars: each
    entry ``w(g) * monomial(g, alpha)`` for |alpha| <= degree, with w the
    polynomial ``weight`` (default 1) evaluated at g, a chain of reduced
    Fraction products in rational mode and of rounded mpf products in float
    mode.  Returned in the library's shape, (columns, row denominators),
    every denominator 1."""
    monomials = list(multi_indices(len(grid[0]), degree))
    columns = []
    for g in grid:
        w = mode.one()
        if weight is not None:
            w = sum((c * monomial(g, alpha) for alpha, c in weight.items()), mode.zero())
        columns.append([w * monomial(g, alpha) for alpha in monomials])
    return columns, [1] * len(monomials)


# ---------------------------------------------------------------------------
# span test by elimination


def contains_basis_elimination(mode: Mode, vectors: list, dimension: int) -> bool:
    """Whether the vectors span the space: the rank by column-pivoted
    Gaussian elimination, entries at most ``half_floor(mode, 1)`` counting
    as zero."""
    if len(vectors) < dimension:
        return False
    rows = [list(v) for v in vectors]
    tol = half_floor(mode, mode.one())
    col = 0
    rank = 0
    while rank < len(rows) and col < dimension:
        piv = None
        for i in range(rank, len(rows)):
            if abs(rows[i][col]) > tol:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            for j in range(col, dimension):
                rows[i][j] = rows[i][j] - f * rows[rank][j]
        rank += 1
        col += 1
    return rank == dimension


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
