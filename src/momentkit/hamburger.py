"""The one-variable engine every multivariate criterion reduces to.

From a 1D moment sequence this module builds the monic three-term
recurrence, first and second kind orthogonal polynomial values,
Christoffel functions, Weyl disks of truncated Cauchy-transform values,
Carleman sums, Stieltjes continued-fraction convergents, and a synthesized
verdict.

Normalization conventions (pinned here because textbooks differ and the Weyl
parametrization depends on them):

* Monic first kind: ``pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}`` with
  ``pi_{-1} = 0``, ``pi_0 = 1`` and ``beta_0 = m_0``; then
  ``||pi_k||^2 = beta_0 beta_1 ... beta_k``.
* Monic second kind: same recurrence with ``Q_0 = 0``, ``Q_1 = m_0``.  After
  dividing by the norms this is the orthonormal convention ``q_0 = 0``,
  ``q_1 = sqrt(m_0)/a_1`` (``1/a_1`` for unit mass), where ``a_k =
  sqrt(beta_k)`` is the off-diagonal recurrence entry.
* The Weyl disk at truncation n is the image of ``tau in R u {inf}`` under
  ``tau -> -(Q_{n+1} + tau sqrt(beta_{n+1}) Q_n) / (pi_{n+1} + tau
  sqrt(beta_{n+1}) pi_n)`` evaluated at z.  For ``beta_{n+1} > 0`` this
  Moebius map has determinant ``Q_{n+1} pi_n - Q_n pi_{n+1} = ||pi_n||^2``
  (the Casoratian identity), so with ``s = Im(pi_{n+1} conj pi_n)`` the disk
  has radius ``||pi_n||^2 / (2 |s|)`` and its center is the image of the
  mirror point of the pole; both are closed forms, exact in rational mode.
  For ``beta_{n+1} = 0`` the pencil degenerates and the disk is the single
  point ``-Q_{n+1}(z)/pi_{n+1}(z)``, the Cauchy transform of the finitely
  atomic representing measure.
* The Christoffel function at non-real z comes, in rational mode, from the
  Christoffel-Darboux identity ``sum_{k<n} |pi_k(z)|^2 / ||pi_k||^2 =
  Im(pi_n conj pi_{n-1}) / (Im z ||pi_{n-1}||^2)``.  Since ``s / Im z =
  ||pi_n||^2 K_n(z, conj z)``, the Weyl radius equals ``rho_n(z) / (2 |Im
  z|)``: at one point the two are one quantity, not independent evidence.
* The Stieltjes convergents are the Gauss and Gauss-Radau values of
  Stieltjes' continued fraction, whose partial numerators q_k, e_k split
  the recurrence (``alpha_k = q_{k+1} + e_k``, ``beta_k = q_k e_k``, and
  ``q_k = -pi_k(0) / pi_{k-1}(0)``).  In rational mode one real pass over
  integer levels of pi_k(z), Q_k(z) and pi_k(0) checks both Hankel forms
  by the signs of pi_k(0) and gives both values, the Radau one by a step
  off the top two levels; in float mode that step cancels bits, so a real
  Wallis loop over q and e, which adds positive terms only, gives them.
  Neither is the forward pass of ``ortho_eval``, so a verdict evaluates
  orthogonal polynomials at z = i only, and a Recurrence keeps the
  forward pass at its last point only.  The pass builds the
  second kind only when ``OrthoEval.second`` is first read, which no
  verdict does.
* The recurrence comes from the mixed moments ``sigma_{k,l} = L(pi_k
  p_l)`` (the modified Chebyshev algorithm), where the p_l are the monic
  polynomials of an optional base recurrence ``(a_l, b_l)``: the monomials
  when there is none.  A curve lift w^2 sigma passes sigma's own
  recurrence: its modified moments ``nu_l = L_sigma(w^2 p_l)`` vanish for
  l > 2r = deg w^2, so each row is a band of at most 2r + 1 entries, and
  the values are those of the plain route.

Everything is exact in rational mode.  Quantities that are inherently
irrational (Carleman roots, kappa values) are computed through binary floats
at a documented precision and converted back, except that exact zeros stay
exact.

The exact engine runs on integers and takes only the gcds that
cancel.  Each sigma row of the recurrence is a list of integer numerators
over one positive denominator, divided by its content after every step; a
base recurrence's terms join over their common denominators, each row's
multipliers are the cofactors of the one gcd inside its lcm, and beta's
numerator is first cancelled against the row k - 2 denominator it
holds.  Each level of the forward pass, pi_k(z) or Q_k(z) as an integer
(re, im) pair, and each level of the convergents' pass, pi_k(z), Q_k(z)
and pi_k(0), is integer numerators over one denominator, made by the one
level step ``_level_step`` and reduced the way ``Fraction`` reduces a sum
but without the crosswise gcds of its products, which almost never cancel:
a level may keep a rare common factor, which the ``Fraction``s built once
for the outputs drop.  Every content goes through ``_divide_out``, a
division per entry by a running gcd and a gcd only of a nonzero remainder,
started by a row (``_content``) at one gcd with its first entry, about one
gcd per row where reduced ``Fraction`` entries take several each, and by a
level at the gcd of its two denominators, often all of its content.  The
rows stay smaller than those of the Bareiss form, which grow into Hankel
determinants.  In float mode the sigma rows are raw mpmath tuples run
through mpmath's tuple arithmetic (``scalars.raw_mul`` and its siblings)
at the working precision, so every value is bit-identical to the ``mpf``
operators'.  Their noise floors, estimates that need no working
precision, are binary64 ``log2`` magnitudes within about 1e-12 of the
``mpf`` floors' logs, and on a precision sweep of seven families every
pivot decision and message is theirs.  Only the row arithmetic and the
pivot checks differ by mode.
The forward pass runs on ``(value, 1)`` levels in float mode, through
the same ``_level_step``: every denominator is 1, so no gcd is taken and a
level is the plain products, in the order of the plain recurrence; the
convergents' Wallis loop runs on plain ``mpf`` values.

In float mode the recurrence measures its own headroom: a positive pivot
that clears its first-order noise floor by fewer than half the working bits
raises PrecisionExhausted, the same half-precision rule
(``scalars.half_floor``) the scan's basis test uses.  A caller that can
regenerate its data (the CLI for a measure spec without a mode) answers by
doubling the precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, lcm, log2
from typing import Any, Callable

from .errors import (
    DegreeInsufficient,
    InvalidParameter,
    NonpositiveEvenMoment,
    NonRealPointRequired,
    NotAdmissible,
    NotPositiveDefinite,
    NotStieltjesAdmissible,
    PrecisionExhausted,
)
from .moments import MomentSequence, NonnegativeOrthant
from .scalars import (NEAREST, RATIONAL_APPROX_BITS, RAW_ZERO, ComplexScalar, FloatMode, Mode,
                      RationalMode, complex_scalar, fixed_context, from_context, half_floor,
                      integers, ratio_to_float, raw_add, raw_mul, raw_sub, to_context)
from .verdicts import Evidence, Flavor, Leaning, Sufficiency, Verdict, synthesize

#: float-mode pivots within 2**(-prec + guard) of zero are undecidable
FLOAT_PIVOT_GUARD_BITS = 12

# Verdict thresholds.  Christoffel values and Weyl disks are read at z = i,
# the Stieltjes convergents at z = STIELTJES_POINT.

#: a diverging Carleman slope has every last-quarter term t_k clear c/k
CARLEMAN_SLOPE = 0.2
#: rho_top(i)/rho_half(i) above this is a plateau (indeterminate side); the
#: Weyl radius ratio is the same quantity (radius = rho / (2 |Im z|))
PLATEAU_RATIO = 0.9
#: ratios below this decay; determinate catalog references reach it by degree 40
DECAY_RATIO = 0.7
#: width_top/width_low of the Stieltjes bracket above this is a plateau
WIDTH_PLATEAU_RATIO = 0.5
STIELTJES_POINT = -1


# ---------------------------------------------------------------------------
# recurrence (moments -> monic three-term coefficients)


@dataclass(frozen=True)
class Recurrence:
    """Monic recurrence data to a given order.

    ``alpha[k]`` for k < order, ``beta[k]`` for k <= order (``beta[0] = m_0``,
    ``beta[order]`` present so disk degeneracy at the top level is visible).
    ``rank`` is the first k with ``beta[k] = 0`` (== order + 1 if none), i.e.
    the number of atoms when the measure is finitely atomic.
    ``pivot_log`` records the elimination pivots ``sigma_{k,k} = ||pi_k||^2``
    as floats, for diagnostics of the (notoriously unstable) moment-to-
    recurrence transform.  ``norm_sq`` holds the norms ``||pi_k||^2 =
    beta_0 ... beta_k``, built on their first read.  ``evals`` holds the
    forward pass of ``ortho_eval`` at the last point it visited (a verdict
    reads z = i only; a kappa field visits one point at a time); neither
    is part of the value.
    """

    mode: Mode
    alpha: tuple
    beta: tuple
    pivot_log: tuple = ()
    evals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.alpha)

    @cached_property
    def norm_sq(self) -> tuple:
        """||pi_0||^2 .. ||pi_order||^2; they do not depend on z."""
        return tuple(accumulate(self.beta, operator.mul))

    @property
    def rank(self) -> int:
        for k, b in enumerate(self.beta):
            if b == 0:
                return k
        return len(self.beta)


def recurrence_from_moments(seq: MomentSequence, n: int, base: tuple | None = None) -> Recurrence:
    """Moment-to-recurrence transform, O(n^2) on the mixed moments
    sigma_{k,l} = L(pi_k p_l), by the modified Chebyshev algorithm (Gautschi,
    *Orthogonal Polynomials: Computation and Approximation*, 2004, 2.1.7;
    Sack and Donovan 1972).

    The p_l are the monic polynomials of a base recurrence ``(a_l, b_l)``:
    ``p_{l+1} = (x - a_l) p_l - b_l p_{l-1}``.  With no base they are the
    monomials (a = b = 0) and row 0 holds the moments.  ``base = (rec,
    width)`` says that the sequence is the measure sigma of ``rec`` times a
    polynomial w of degree ``width`` (a curve lift times its weight**2, say):
    then row 0 holds the modified moments ``nu_l = L(p_l) = L_sigma(w p_l)``,
    which vanish for l > width since p_l is sigma-orthogonal to lower
    degrees, and every row is a band, ``sigma_{k,l} = 0`` for l > k + width.
    The row update is ``sigma_{k,l} = sigma_{k-1,l+1} - (alpha_{k-1} - a_l)
    sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l} + b_l sigma_{k-1,l-1}``, and
    ``alpha_k = a_k + sigma_{k,k+1}/sigma_{k,k} -
    sigma_{k-1,k}/sigma_{k-1,k-1}``, ``beta_k = sigma_{k,k} /
    sigma_{k-1,k-1}``.  A band-edge entry reads b_l only, so sigma's
    recurrence to order ``(2n + width) // 2`` is enough; a shorter base is
    an InvalidParameter.  Both routes give the same exact values.

    The result is kept on the sequence (``seq.recurrences``, one per order),
    so every criterion that asks for the same order shares one
    factorization.  Criteria ask for order ``seq.max_degree // 2``, whose
    coefficients contain every lower order as an exact prefix.

    The pivots ``sigma_{k,k} = ||pi_k||^2`` are the LDL^T pivots of the
    Hankel matrix H_n, so this one pass also decides positivity on squares:
    a negative pivot raises NotAdmissible.  A vanishing pivot confines any
    representing measure to the k zeros of pi_k, where L(pi_k x^l) = 0 for
    every l, so the whole remaining row ``sigma_{k,k..2n-k}`` must vanish
    with it (the flat-extension, or recursively generated, condition of
    Curto and Fialkow; p_l is x^l plus lower terms, so the modified row
    vanishes with the plain one).  If it does, the input is finitely atomic
    and the recurrence stops early with the trailing beta equal to zero; if
    not, no measure has these moments and NotAdmissible is raised.

    In rational mode row 0 is scaled to integers by the lcm of its
    denominators (``scalars.integers``), and row k is kept as integers
    ``T_l`` over one denominator ``D``.  With ``alpha_{k-1} = an/ad``,
    ``beta_{k-1} = bn/bd`` and the base terms over their common
    denominator pq = lcm(pd, qd), ``D = lcm(d_{k-1} lcm(ad, pq), d_{k-2}
    bd / h)``, where h = gcd(bn, d_{k-2}) cancels the d_{k-2} that beta's
    numerator carries, and every term of the update has an integer
    multiplier, a product of the cofactors of the one gcd inside each lcm.
    The row and D are then divided by their content ``gcd(D, T_k, ...,
    T_hi)`` (``_content``: one gcd with the first entry, then a division
    per entry and a gcd only where the running gcd leaves a remainder).
    The outputs are ratios in which the row denominators cancel: ``alpha_k
    = a_k + T_{k+1}/T_k - S1_k/S1_{k-1}`` and ``beta_k = T_k d_{k-1} / (D
    S1_{k-1})``.  The pivot tests are integer sign and zero tests.

    Rational mode is exact and is mandatory for the acceptance runs on
    integer-moment measures.  Float mode carries first-order noise floors
    (for nu_l, that of the terms it sums) as ``log2`` magnitudes and cannot
    tell a surviving row from lost bits, so there a pivot that is neither
    clearly signed nor part of a vanished row raises PrecisionExhausted
    rather than returning garbage.  So does a positive pivot that clears
    its floor ``tol`` by fewer than half the working bits (``tol < piv``
    and ``half_floor(mode, piv) <= tol``, that is ``log2 piv - prec // 2
    <= log2 tol``): the headroom ``log2(piv / tol)`` tracks the correct
    bits of alpha and beta, and a recurrence that keeps fewer than half of
    them is not worth reading a verdict from.  The floors carry no error of
    a float base: its zeros beyond the band are taken as exact.
    """
    rec = seq.recurrences.get(n)
    if rec is None:
        rec = seq.recurrences[n] = _factorize(seq, n, base)
    return rec


def _factorize(seq: MomentSequence, n: int, base: tuple | None = None) -> Recurrence:
    if n < 1:
        raise InvalidParameter("recurrence order must be at least 1")
    if 2 * n > seq.max_degree:
        raise DegreeInsufficient(f"order {n} needs moments to degree {2 * n}")
    m = seq.moments_1d()[:2 * n + 1]
    mode = seq.mode
    if not m[0] > 0:
        raise NotPositiveDefinite("m_0 must be positive")
    exact = isinstance(mode, RationalMode)
    ratio = Fraction if exact else operator.truediv
    nu, scale, a, b, width = m, m, None, None, 2 * n
    if base is not None:
        width = base[1]
        nu, scale, a, b = _modified_moments(m, n, *base)
    lead = nu[1] / nu[0]            # sigma_{k-1,k} / sigma_{k-1,k-1}
    alpha = [lead if a is None else a[0] + lead]
    beta = [m[0]]
    pivots = [mode.to_float(m[0])]
    # row k holds sigma_{k,l} = row[l] / d for k <= l <= hi: integers over
    # one positive denominator in rational mode; in float mode raw mpf
    # tuples over d = 1, with log2 of their first-order noise floors in noi
    row_prev2: list = []
    noi_prev2: list = []
    d_prev2 = 1
    if exact:
        nums, den = integers(nu)
        d_prev, row_prev = _content(den, nums)
        terms = None
        if base is not None:
            # the base terms over pq = lcm(pd, qd), and its cofactors
            (pn, pd), (qn, qd) = integers(a), integers(b)
            pq = lcm(pd, qd)
            terms = (pn, qn, pq, pq // pd, pq // qd)
    else:
        value, prec = mode.ctx.make_mpf, mode.precision_bits
        row_prev, d_prev = [x._mpf_ for x in nu], 1
        noi_prev = [_log2(x._mpf_) + FLOAT_PIVOT_GUARD_BITS - prec for x in scale]
        terms = None if base is None else ([x._mpf_ for x in a], [x._mpf_ for x in b])
    piv_prev = row_prev[0] if exact else nu[0]
    for k in range(1, n + 1):
        hi = min(2 * n - k, k + width)
        if exact:
            row, d = _exact_row(k, hi, alpha[k - 1], beta[k - 1],
                                row_prev, d_prev, row_prev2, d_prev2, terms)
            piv, above = row[k], row[k + 1]
            negative, dead = piv < 0, piv == 0
        else:
            d = 1
            row, noi = _float_row(k, hi, alpha[k - 1], beta[k - 1], row_prev, noi_prev,
                                  row_prev2, noi_prev2, prec, terms)
            piv, above, size = value(row[k]), value(row[k + 1]), _log2(row[k])
            # |piv| clear of its floor, or at or under it
            negative, dead = piv < 0 and size > noi[k], size <= noi[k]
        pivots.append(ratio_to_float(piv, d))
        if negative:
            raise NotAdmissible(f"functional is not positive on squares: ||pi_{k}||^2 < 0")
        if dead:
            # rank degeneracy only if the whole row died with the pivot
            if (any(row[k:hi + 1]) if exact else
                    any(_log2(row[l]) > noi[l] for l in range(k, hi + 1))):
                if not exact:
                    raise PrecisionExhausted(
                        f"pivot at step {k} lost all significant bits"
                    )
                raise NotAdmissible(
                    f"||pi_{k}||^2 = 0 but L(pi_{k} x^l) != 0 for some l: "
                    "no flat extension, so no representing measure"
                )
            beta.append(mode.zero())
            return Recurrence(mode, tuple(alpha), tuple(beta), tuple(pivots))
        if not exact and size - prec // 2 <= noi[k]:
            # half_floor(mode, piv) <= floor, in log2
            raise PrecisionExhausted(
                f"pivot at step {k} keeps fewer than half the working bits"
            )
        # the row denominators cancel from both ratios
        beta.append(ratio(piv * d_prev, d * piv_prev))
        if k < n:
            nxt = ratio(above, piv)
            alpha.append(nxt - lead if a is None else a[k] + (nxt - lead))
            lead = nxt
        row_prev2, row_prev, d_prev2, d_prev = row_prev, row, d_prev, d
        if not exact:
            noi_prev2, noi_prev = noi_prev, noi
        piv_prev = piv
    return Recurrence(mode, tuple(alpha), tuple(beta), tuple(pivots))


def _modified_moments(m: list, n: int, rec: Recurrence, width: int) -> tuple:
    """(nu, scale, a, b) for order n from moments m of w sigma, rec
    sigma's recurrence and width = deg w: nu_l = L(p_l) = sum_j c_{l,j}
    m_j for l <= width and 0 above, scale_l = sum_j |c_{l,j} m_j| (what
    nu_l cancels, for its float floor), and the base terms a_l, b_l up to
    the last the band reads; a_l is 0 where it multiplies a zero of the
    band edge."""
    # the last l of any row, and the last whose sigma_{k-1,l} is in the band
    top = max(min(2 * n - k, k + width) for k in range(1, n + 1))
    top_a = max(min(2 * n - k, k - 1 + width) for k in range(1, n + 1))
    need = max(top, top_a + 1)      # a Recurrence holds beta to its order
    if rec.order < need:
        raise InvalidParameter(f"a base recurrence for order {n} and width {width} "
                               f"needs order {need}, not {rec.order}")
    zero = rec.mode.zero()
    products = [[c * x for c, x in zip(p, m)]
                for p in monic_coefficients(rec, min(width, 2 * n))]
    nu = [sum(t, zero) for t in products] + [zero] * (2 * n + 1 - len(products))
    scale = [sum(map(abs, t), zero) for t in products] + nu[len(products):]
    a = list(rec.alpha[:top_a + 1]) + [zero] * (top - top_a)
    return nu, scale, a, rec.beta[:top + 1]


def monic_coefficients(rec: Recurrence, r: int) -> list:
    """Coefficients, constant term first, of the monic pi_0 .. pi_r of
    ``rec`` in its mode's scalars: the p_l of the modified moments, and for
    a rank-r recurrence the polynomial pi_r whose roots are the atoms."""
    zero = rec.mode.zero()
    polys = [(rec.mode.one(),)]
    for k in range(r):
        nxt = [zero, *polys[-1]]
        for j, c in enumerate(polys[-1]):
            nxt[j] -= rec.alpha[k] * c
        if k:
            for j, c in enumerate(polys[-2]):
                nxt[j] -= rec.beta[k] * c
        polys.append(tuple(nxt))
    return polys


def _exact_row(k: int, hi: int, alpha_prev, beta_prev, row_prev: list, d_prev: int,
               row_prev2: list, d_prev2: int, terms: tuple | None) -> tuple:
    """Rational row k: sigma_k = sigma_{k-1} x - alpha_{k-1} sigma_{k-1} -
    beta_{k-1} sigma_{k-2}, plus a_l sigma_{k-1,l} + b_l sigma_{k-1,l-1}
    when ``terms = (pn, qn, pq, pq // pd, pq // qd)`` holds a base
    recurrence a_l = pn_l/pd, b_l = qn_l/qd over pq = lcm(pd, qd); over d =
    lcm(d_{k-1} e, d_{k-2} bd / h) with e = lcm(ad, pq), divided by its
    content; (the row, d): beta_{k-1} = piv_{k-1} d_{k-2} / (d_{k-1}
    piv_{k-2}) keeps d_{k-2} in bn, so h = gcd(bn, d_{k-2}) cancels it.
    Each lcm takes one gcd, and every multiplier is a product of its
    cofactors: for g = gcd(x, y), ``lcm(x, y) // x = y // g``."""
    an, ad = _pair(alpha_prev)
    bn, bd = _pair(beta_prev)
    if terms is None:
        e, e_ad = ad, 1                 # e and e // ad
    else:
        pn, qn, pq, fp, fq = terms
        h = gcd(ad, pq)
        e_ad, e_pq = pq // h, ad // h
        e = ad * e_ad
    x = d_prev * e
    if k == 1:
        # no sigma_{k-2} term: c = 0 (row_prev stands in for the empty row)
        d, u, c, row_prev2 = x, 1, 0, row_prev
    else:
        h = gcd(bn, d_prev2)
        bn, y = bn // h, d_prev2 // h * bd
        g = gcd(x, y)
        u = y // g                      # d // x; d // y is x // g
        d, c = x * u, bn * (x // g)
    a, b = u * e, an * (u * e_ad)
    rows = range(k, hi + 1)
    if terms is None:
        band = [a * row_prev[l + 1] - b * row_prev[l] - c * row_prev2[l] for l in rows]
    else:
        f, g = u * e_pq * fp, u * e_pq * fq
        band = [a * row_prev[l + 1] - (b - f * pn[l]) * row_prev[l]
                + g * qn[l] * row_prev[l - 1] - c * row_prev2[l] for l in rows]
    row = [0] * len(row_prev)
    d, row[k:hi + 1] = _content(d, band)
    return row, d


def _float_row(k: int, hi: int, alpha_prev, beta_prev, row_prev: list, noi_prev: list,
               row_prev2: list, noi_prev2: list, prec: int, terms: tuple | None = None) -> tuple:
    """Float row k on raw mpf tuples, with log2 of its first-order noise
    floors (-inf for 0); (the row, the floors).  ``terms = (a, b)`` holds
    the raw base terms, which replace alpha_{k-1} by alpha_{k-1} - a_l and
    add b_l sigma_{k-1,l-1}.  Every operation on a value is the one the mpf
    operators of a ``prec``-bit context perform, in the same order, so
    every value is theirs bit for bit.  A floor is an estimate and needs no
    working precision: |c| * floor is log2|c| + floor, eps * |x| is
    log2|x| + log2(eps) with eps = 2**(guard - prec), and a sum is a
    log-add in binary64."""
    mul, add, sub, rnd = raw_mul, raw_add, raw_sub, NEAREST
    eps = FLOAT_PIVOT_GUARD_BITS - prec
    an, bn = alpha_prev._mpf_, beta_prev._mpf_
    log_an, log_bn = _log2(an), _log2(bn)
    row = [RAW_ZERO] * len(row_prev)
    noi = [-inf] * len(row_prev)
    for l in range(k, hi + 1):
        a_l, log_a = an, log_an                 # alpha_{k-1} - a_l
        if terms is not None:
            a_l = sub(an, terms[0][l], prec, rnd)
            log_a = _log2(a_l)
        bs = mul(a_l, row_prev[l], prec, rnd)
        v = sub(row_prev[l + 1], bs, prec, rnd)
        parts = [noi_prev[l + 1], log_a + noi_prev[l], _log2(bs) + eps]
        if k >= 2:
            cs = mul(bn, row_prev2[l], prec, rnd)
            v = sub(v, cs, prec, rnd)
            parts += log_bn + noi_prev2[l], _log2(cs) + eps
        if terms is not None:
            b_l = terms[1][l]
            es = mul(b_l, row_prev[l - 1], prec, rnd)
            v = add(v, es, prec, rnd)
            parts += _log2(b_l) + noi_prev[l - 1], _log2(es) + eps
        row[l] = v
        parts.append(_log2(v) + eps)
        top = max(parts)                        # the log-add of the parts
        noi[l] = top if top == -inf else top + log2(sum([2.0 ** (t - top) for t in parts]))
    return row, noi


def _log2(x: tuple) -> float:
    """log2|x| of a raw mpf tuple; -inf for 0."""
    _, man, exp, _ = x
    return log2(man) + exp if man else -inf


def _pair(x) -> tuple:
    """(numerator, denominator) of a Fraction; (x, 1) for a float."""
    if type(x) is Fraction:
        return x.numerator, x.denominator
    return x, 1


def _content(d: int, parts) -> tuple:
    """``(d // g, [v // g for v in parts])`` for g = gcd(d, *parts), d > 0
    and parts not empty: the one content reduction of the exact engine.
    The running gcd starts at gcd(d, parts[0]), then ``_divide_out``.
    ``(d, parts)`` comes back at once when d = 1, as in float mode, whose
    parts are not integers, and as soon as the gcd reaches 1."""
    if d == 1:
        return d, parts
    g, parts = _divide_out(gcd(d, parts[0]), parts)
    return d // g, parts


def _divide_out(g: int, parts) -> tuple:
    """``(h, [v // h for v in parts])`` for h = gcd(g, *parts), g > 0: each
    entry is divided by the running gcd once, and only a nonzero remainder
    r takes a gcd (gcd(g, r) = gcd(g, v)), after which the quotients taken
    so far are scaled by g / gcd(g, r).  So an entry that g divides costs
    one division and no gcd, and no entry is divided twice.  ``(1,
    parts)`` comes back as soon as the gcd reaches 1."""
    if g == 1:
        return g, parts
    out = []
    for v in parts:
        q, r = divmod(v, g)
        if r:
            h = gcd(g, r)
            if h == 1:
                return h, parts
            f = g // h
            out = [p * f for p in out]
            q, g = q * f + r // h, h
        out.append(q)
    return g, out


# ---------------------------------------------------------------------------
# orthogonal polynomial evaluation (first and second kind)


@dataclass(frozen=True)
class OrthoEval:
    """Values of the monic first kind pi_k(z) and second kind Q_k(z) for k
    up to the recurrence order, together with the norms; orthonormal values
    are the monic ones over sqrt(norm_sq), so |p_k(z)|^2 stays exactly
    representable in rational mode.

    ``second`` is built on its first read (a cached property): no verdict
    reads it (the Christoffel values and the Weyl radius read the first
    kind and the norms), only the Weyl center, the float atomic convergents
    and their oracles do."""

    z: ComplexScalar
    first: tuple          # pi_0(z) .. pi_order(z)
    norm_sq: tuple        # ||pi_0||^2 .. ||pi_order||^2
    _build_second: Callable = field(repr=False, compare=False)

    @cached_property
    def second(self) -> tuple:
        """Q_0(z) .. Q_order(z)."""
        return self._build_second()

    def first_normalized_abs2(self, k: int):
        """|p_k(z)|^2 = |pi_k(z)|^2 / ||pi_k||^2."""
        return self.first[k].abs2() / self.norm_sq[k]

    def kernel_diagonal(self, n: int):
        """K_n(z, conj z) = sum_{k<=n} |p_k(z)|^2."""
        total = self.first_normalized_abs2(0)
        for k in range(1, n + 1):
            total = total + self.first_normalized_abs2(k)
        return total


def ortho_eval(rec: Recurrence, z: ComplexScalar) -> OrthoEval:
    """pi_k(z) and Q_k(z) for every k up to the order; total for any
    recurrence.  The forward pass at z is kept in ``rec.evals`` until the
    next point, so every level a caller reads at one point comes from one
    pass; the caller checks its level against ``rec.order``."""
    ev = rec.evals.get(z)
    if ev is None:
        ev = _forward_pass(rec, z)
        rec.evals.clear()
        rec.evals[z] = ev
    return ev


def _forward_pass(rec: Recurrence, z: ComplexScalar) -> OrthoEval:
    """The first kind at z, and the second kind from the same loop started
    at (Q_{-1}, Q_0) = (-1, 0) when it is first read."""
    # the builder holds the coefficients, not rec, whose evals keep the pass
    return OrthoEval(z, _levels(rec.mode, rec.alpha, rec.beta, z, True), rec.norm_sq,
                     partial(_levels, rec.mode, rec.alpha, rec.beta, z, False))


def _levels(mode: Mode, alpha: tuple, beta: tuple, z: ComplexScalar, first_kind: bool) -> tuple:
    """pi_k(z) (first kind) or Q_k(z) for k <= len(alpha), the order, from
    levels -1 and 0: (0, 1) for the first kind, (-1, 0) for the second,
    whose Q_1 is then beta_0 = m_0."""
    exact = isinstance(mode, RationalMode)
    one, zero = (1, 0) if exact else (mode.one(), mode.zero())
    # z = (xr + i xi) / w; level k is (re + i im) / e
    (xr, xi), w = integers((z.re, z.im))
    start = (zero, one) if first_kind else (-one, zero)
    prev, cur = ((v, zero, 1) for v in start)
    levels = [cur]
    for a, b in zip(alpha, beta):
        # z - alpha_k = (xr ad - an w + i xi ad) / (w ad)
        an, ad = _pair(a)
        bn, bd = _pair(b)
        prev, cur = cur, _level_step(_complex_products, (xr * ad - an * w, xi * ad), w * ad,
                                     bn, bd, cur, prev)
        levels.append(cur)
    return _complex_values(levels, exact)


def _complex_products(m: tuple, level: tuple) -> tuple:
    """The numerators of (x + i y) (re + i im) for m = (x, y)."""
    (x, y), (re, im, _) = m, level
    return x * re - y * im, x * im + y * re


def _level_step(products: Callable, m: tuple, w: int, bn: int, bd: int,
                cur: tuple, prev: tuple) -> tuple:
    """m/w * cur - (bn/bd) * prev on integer levels ``(*numerators, e)``,
    the numerators over one denominator e > 0, where ``products(m, cur)``
    gives the numerators of m * cur: the one level step of the forward
    pass, in both modes, and of the convergents' pass.  Only gcds that
    cancel are taken: bn against prev's denominator, and the gcd of the two
    denominators for the difference.  A Fraction product's crosswise gcds
    almost never cancel: a level may keep a rare common factor, and is read
    as Fractions.  Float levels have every denominator 1, so ``_content``
    and ``_divide_out`` return at once and the level is the plain products."""
    e0, (bn,) = _content(prev[-1], (bn,))
    d1, d0 = w * cur[-1], bd * e0
    g = gcd(d1, d0)
    s1, s0 = d0 // g, d1 // g
    if s1 != 1:
        m = tuple(v * s1 for v in m)
    if s0 != 1:
        bn = bn * s0
    parts = [p - bn * v for p, v in zip(products(m, cur), prev)]
    # with reduced products the gcd of the parts and the lcm s0 d0 divides
    # g, and is often all of it: divide by g first, take gcds on a remainder
    h, parts = _divide_out(g, parts)
    return (*parts, s0 * (d0 // h))


def _complex_values(levels: list, exact: bool) -> tuple:
    """The levels as ComplexScalars: Fractions in rational mode; in float
    mode every denominator is 1."""
    if exact:
        return tuple(ComplexScalar(Fraction(re, e), Fraction(im, e)) for re, im, e in levels)
    return tuple(ComplexScalar(re, im) for re, im, _ in levels)


# ---------------------------------------------------------------------------
# Christoffel function


def christoffel(rec: Recurrence, z: ComplexScalar, n: int):
    """rho_n(z) = 1 / sum_{k<=n} |p_k(z)|^2, the minimum of L(|p|^2) over
    polynomials of degree <= n with p(z) = 1.

    In rational mode, for non-real z and n >= 1, the sum below n is the
    Christoffel-Darboux closed form ``Im(pi_n conj pi_{n-1}) / (Im z
    ||pi_{n-1}||^2)``, so only pi_{n-1} and pi_n are read.  At real z (where
    the atoms are) and in float mode the sum is taken term by term: in
    floats the closed form's difference cancels the leading bits the two
    values share (about 57 of 100 on the q = 3 lattice at N = 40), while a
    sum of positive terms keeps them.  For a rank-degenerate (r-atomic)
    recurrence and n >= r the minimum is 0 off the atoms (a degree-r
    polynomial vanishes on all atoms while hitting p(z) = 1) and the atom's
    weight at an atom.  A negative level is an InvalidParameter.
    """
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    r = rec.rank
    if r <= min(n, rec.order):
        ev = ortho_eval(rec, z)
        if ev.first[r].abs2() != 0:
            return rec.mode.zero()
        return 1 / ev.kernel_diagonal(r - 1)
    if n > rec.order:
        raise DegreeInsufficient(f"recurrence order {rec.order} < {n}")
    ev = ortho_eval(rec, z)
    if z.im == 0 or n == 0 or isinstance(rec.mode, FloatMode):
        return 1 / ev.kernel_diagonal(n)
    p1, p0 = ev.first[n], ev.first[n - 1]
    cross = p1.im * p0.re - p1.re * p0.im
    return 1 / (cross / (z.im * ev.norm_sq[n - 1]) + ev.first_normalized_abs2(n))


# ---------------------------------------------------------------------------
# Weyl disks


@dataclass(frozen=True)
class WeylDisk:
    """Closed disk of truncated Cauchy-transform values at a non-real point.

    ``radius_sq`` is the exact in-mode square of the radius; the radius
    itself would take a square root, approximate in rational mode."""

    z: ComplexScalar
    degree: int
    center: ComplexScalar
    radius_sq: Any
    degenerate: bool = False

    def contains(self, value: ComplexScalar) -> bool:
        return (value - self.center).abs2() <= self.radius_sq


def weyl_disk(rec: Recurrence, z: ComplexScalar, n: int) -> WeylDisk:
    """Disk at truncation n (moment data through degree 2n+2).

    With P_1, P_0 = pi_{n+1}(z), pi_n(z), Q_1, Q_0 the second kind values
    and s = Im(P_1 conj P_0), the pencil is a Moebius map of determinant
    ||pi_n||^2 (Casoratian), so the radius is ``||pi_n||^2 / (2 |s|)`` and
    the center, the image of the pole's mirror point, is ``-(Q_1 conj P_0 -
    Q_0 conj P_1) / (2 i s)``.  Christoffel-Darboux gives ``s / Im z > 0``;
    a float pass that breaks that sign has lost its bits.  The radius is
    read as ``rho_n(z) / (2 |Im z|)``, the same value: ``radius_sq = rho^2
    / (4 Im z^2)`` is equal in rational mode, and in float mode ``rho``'s
    sum of positive terms keeps the bits that ``s`` cancels away.
    """
    radius_sq = weyl_radius_sq(rec, z, n)
    ev = ortho_eval(rec, z)
    p_top, p_low = ev.first[n + 1], ev.first[n]
    q_top, q_low = ev.second[n + 1], ev.second[n]
    if rec.beta[n + 1] == 0:
        # degenerate pencil: every parameter gives the same point, the
        # Cauchy transform of the unique (atomic) representing measure
        return WeylDisk(z, n, -(q_top / p_top), radius_sq, degenerate=True)
    s = _casoratian_im(ev, n)
    num = q_top * p_low.conj() - q_low * p_top.conj()
    center = ComplexScalar(-num.im / (2 * s), num.re / (2 * s))
    return WeylDisk(z, n, center, radius_sq)


def weyl_radius_sq(rec: Recurrence, z: ComplexScalar, n: int, rho=None):
    """``radius_sq`` of ``weyl_disk(rec, z, n)`` without its center: 0 for a
    degenerate pencil, else ``rho^2 / (4 Im z^2)`` with ``rho =
    christoffel(rec, z, n)``, which a caller that holds it passes in.  A
    float pass whose ``s / Im z`` is not positive has lost its bits and
    raises PrecisionExhausted; in rational mode Christoffel-Darboux makes it
    positive, so it is not evaluated.  A negative level is an
    InvalidParameter."""
    if z.im == 0:
        raise NonRealPointRequired("Weyl disks need Im z != 0")
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    if n + 1 > rec.order:
        raise DegreeInsufficient(f"disk at {n} needs recurrence order {n + 1}")
    mode = rec.mode
    if rec.beta[n + 1] == 0:
        return mode.zero()
    if isinstance(mode, FloatMode) and not _casoratian_im(ortho_eval(rec, z), n) * z.im > 0:
        raise PrecisionExhausted("Weyl disk: Im(pi_{n+1} conj pi_n) lost its sign")
    if rho is None:
        rho = christoffel(rec, z, n)
    return rho * rho / (4 * z.im * z.im)


def _casoratian_im(ev: OrthoEval, n: int):
    """s = Im(pi_{n+1} conj pi_n), the pencil's sign and scale."""
    p_top, p_low = ev.first[n + 1], ev.first[n]
    return p_top.im * p_low.re - p_top.re * p_low.im


# ---------------------------------------------------------------------------
# Carleman sums


@dataclass(frozen=True)
class CarlemanResult:
    partial_sum: Any
    diverging: bool            # heuristic slope test; see ``carleman``
    horizon: int
    flavor: Flavor


def carleman(seq: MomentSequence, flavor: Flavor, horizon: int) -> CarlemanResult:
    """Partial Carleman sum and a divergence heuristic.

    Hamburger: sum_{k=1..K} m_{2k}^(-1/(2k)); Stieltjes: sum m_k^(-1/(2k)).
    ``diverging`` fires when every last-quarter term satisfies
    ``t_k * k >= CARLEMAN_SLOPE``: such terms dominate a multiple of the
    harmonic series.  The flag alone is a heuristic; paired with a certified
    growth bound on the sequence it becomes rigorous (sum of c/k diverges).
    The roots are irrational, so the terms are evaluated in the shared
    256-bit binary-float context (``RATIONAL_APPROX_BITS``) in both modes:
    a slope heuristic and a sum of positive terms need no more, whatever
    the working precision.
    """
    K = horizon
    if K < 1:
        raise InvalidParameter("Carleman horizon must be at least 1")
    need = 2 * K if flavor is Flavor.HAMBURGER else K
    if need > seq.max_degree:
        raise DegreeInsufficient(f"horizon {K} needs degree {need}")
    m = seq.moments_1d()
    ctx = fixed_context(RATIONAL_APPROX_BITS)
    terms = []
    for k in range(1, K + 1):
        mk = m[2 * k] if flavor is Flavor.HAMBURGER else m[k]
        mkf = to_context(ctx, mk)
        if not mkf > 0:
            raise NonpositiveEvenMoment(f"moment for Carleman term {k} is not positive")
        terms.append(ctx.exp(-ctx.log(mkf) / (2 * k)))
    total = sum(terms, ctx.mpf(0))
    tail_start = (3 * K) // 4
    tail = terms[tail_start:]
    c = ctx.mpf(CARLEMAN_SLOPE)
    diverging = all(t * (tail_start + 1 + i) >= c for i, t in enumerate(tail))
    return CarlemanResult(
        partial_sum=from_context(seq.mode, total),
        diverging=diverging,
        horizon=K,
        flavor=flavor,
    )


# ---------------------------------------------------------------------------
# Stieltjes continued-fraction convergents


@dataclass(frozen=True)
class ConvergentPair:
    """Even/odd convergents of the Stieltjes transform integral of
    1/(x - z) dmu(x) at a negative real z, and the bracketing interval."""

    z: Any
    level: int
    even_value: Any            # n-point quadrature value (lower end, observed)
    odd_value: Any             # value with an extra fixed node at 0 (upper end)
    interval_width: Any


def stieltjes_convergents(seq: MomentSequence, z, n: int) -> ConvergentPair:
    """Even and odd convergents at level n, from Stieltjes' continued
    fraction (the S-fraction) of the transform at ``s = -z > 0``:

        integral dmu(x) / (x + s) = m_0/(s + q_1/(1 + e_1/(s + q_2/(1 + ...)))).

    Its partial numerators are the chain sequence that splits the
    recurrence: with ``e_0 = 0``, ``q_{k+1} = alpha_k - e_k`` and ``e_{k+1}
    = beta_{k+1} / q_{k+1}``, so ``alpha_k = q_{k+1} + e_k`` and ``beta_k =
    q_k e_k``.  Both Hankel forms, plain and shifted, are positive definite
    iff every q and e is positive (otherwise NotStieltjesAdmissible); the
    support hint must be the half line.  Since ``q_k = -pi_k(0) /
    pi_{k-1}(0)``, the q are positive to level n iff ``(-1)^k pi_k(0) > 0``
    for k = 1 .. n.  A finitely atomic sequence of rank r at most n (and
    at most the order, which a positive-definite one exceeds by 1) has
    both values equal to its exact transform once its atoms are on [0,
    inf), that is q_1 .. q_{r-1} > 0 and q_r >= 0 (pi_r(0) = 0 is an atom
    at 0; float mode reads q_r within half the working bits of e_{r-1} as
    0); an atom below 0 is NotStieltjesAdmissible.  Beyond the order a
    positive-definite sequence is DegreeInsufficient for the level asked.

    Convergent 2n stops before ``e_n``; contracting its pairs of levels
    gives the J-fraction of alpha_0..alpha_{n-1} and beta_1..beta_{n-1},
    so it is the n-point Gauss value ``-Q_n(z)/pi_n(z)`` (the even value,
    lower end).  Convergent 2n + 1 stops before ``q_{n+1}``, that is at
    ``alpha_n = e_n = -beta_n pi_{n-1}(0) / pi_n(0)``, the top coefficient
    that puts a root of pi_{n+1} at 0: it is the Gauss-Radau value with a
    fixed node at the support endpoint (the odd value, upper end).  For
    Stieltjes-determinate sequences the interval width shrinks to 0; in the
    indeterminate case the two limits differ and the width plateaus at the
    transform gap.

    The mode selects the form.  In rational mode one forward pass over
    integer levels gives everything: level k holds pi_k(z), Q_k(z) and
    pi_k(0), three numerators over one denominator, each step one
    ``_level_step`` (the forward pass's), so no q or e is formed and
    one ``Fraction`` is built per reported value; the odd value is one
    Radau step off levels n and n - 1, and the atomic case reads the same
    pass to the rank.  In float mode the Radau step's difference cancels
    (at float:128 on the q = 3 lattice, N = 60, level 29, the odd value
    keeps 36 of its 128 bits), so the pair comes from the Wallis loop over
    q and e, which adds positive terms only and keeps all 128; it runs on
    plain ``mpf`` values.  In rational mode neither branch calls
    ``ortho_eval``, so the forward pass kept in ``rec.evals`` (a verdict's,
    at z = i) stays; float mode's atomic case reads the pass at z.
    """
    mode = seq.mode
    if not isinstance(seq.support, NonnegativeOrthant):
        raise NotStieltjesAdmissible("convergents need support on [0, inf)")
    zv = mode.convert(z)
    if not zv < 0:
        raise InvalidParameter("evaluation point must be a negative real")
    rec = recurrence_from_moments(seq, seq.max_degree // 2)
    exact = isinstance(mode, RationalMode)
    r = rec.rank
    if r <= min(n, rec.order):
        # finitely atomic: the atoms are the eigenvalues of the Jacobi
        # matrix of order r, whose LDL^T pivots are q_1 .. q_r, so they lie
        # on [0, inf) iff q_1 .. q_{r-1} > 0 <= q_r; then z < 0 is no atom
        # and both convergents equal the exact transform
        if exact:
            _, (p, q, _, _) = _stieltjes_levels(rec, zv, r, "an atom lies below 0")
            val = Fraction(-q, p)
        else:
            ev = ortho_eval(rec, complex_scalar(mode, zv))
            e = mode.zero()
            for k in range(r - 1):
                q = rec.alpha[k] - e
                if not q > 0:
                    raise NotStieltjesAdmissible("an atom lies below 0")
                e = rec.beta[k + 1] / q
            if e - rec.alpha[r - 1] > half_floor(mode, e):
                raise NotStieltjesAdmissible("an atom lies below 0")
            val = -(ev.second[r].re / ev.first[r].re)
        return ConvergentPair(zv, n, val, val, mode.zero())
    if rec.order < n:
        raise DegreeInsufficient(f"recurrence order {rec.order} < level {n}")
    if n < 0:
        raise InvalidParameter("level must be nonnegative")
    even, odd = (_radau_pair if exact else _wallis_pair)(rec, zv, n)
    width = odd - even if odd >= even else even - odd
    return ConvergentPair(zv, n, even, odd, width)


def _stieltjes_levels(rec: Recurrence, z: Fraction, n: int,
                      atoms: str | None = None) -> tuple:
    """Levels n - 1 and n of (pi_k(z), Q_k(z), pi_k(0)), each three integer
    numerators over one denominator, from level -1 = (0, -1, 0), since
    Q_1 = beta_0 = m_0, and level 0 = (1, 0, 1); z - alpha_k and -alpha_k
    share the denominator of ``_level_step``'s multiplier.  Raises
    NotStieltjesAdmissible unless ``(-1)^k pi_k(0) > 0`` for k = 1 .. n;
    ``atoms`` is the message of a rank-n sequence, whose pi_n(0) may
    vanish (an atom at 0).  A pi_k(0) = 0 below the top needs no test of
    its own: then pi_{k+1}(0) = -beta_k pi_{k-1}(0) has the wrong sign."""
    zn, zd = z.numerator, z.denominator
    prev, cur = (0, -1, 0, 1), (1, 0, 1, 1)
    for k in range(n):
        an, ad = _pair(rec.alpha[k])
        bn, bd = _pair(rec.beta[k])
        x0 = -an * zd
        prev, cur = cur, _level_step(_stieltjes_products, (zn * ad + x0, x0), zd * ad,
                                     bn, bd, cur, prev)
        sign = cur[2] if k % 2 else -cur[2]        # (-1)^(k+1) pi_{k+1}(0)
        if sign < 0 or sign == 0 and atoms is None:
            raise NotStieltjesAdmissible(atoms or "shifted Hankel form is not positive definite")
    return prev, cur


def _stieltjes_products(m: tuple, level: tuple) -> tuple:
    """The numerators of (x pi_k(z), x Q_k(z), x0 pi_k(0)) for m = (x, x0)."""
    (x, x0), (p, q, r, _) = m, level
    return x * p, x * q, x0 * r


def _radau_pair(rec: Recurrence, z: Fraction, n: int) -> tuple:
    """(even, odd) in rational mode: the Gauss value -Q_n(z)/pi_n(z) and
    the Radau step off levels n and n - 1.  With alpha_n replaced by e_n =
    -beta_n R_{n-1}/R_n, R_k = pi_k(0), the top level times R_n is ``z R_n
    pi_n + beta_n (R_{n-1} pi_n - R_n pi_{n-1})``, and so for Q; over the
    level denominators both are u P_n - v P_{n-1}, and the odd value is
    their ratio.  As in the level step, beta's numerator is cancelled
    against level n - 1's denominator, and its denominator against level
    n's (on the ql60 lifts each holds the whole level denominator)."""
    (p0, q0, r0, e0), (p1, q1, r1, e1) = _stieltjes_levels(rec, z, n)
    bn, bd = _pair(rec.beta[n])
    e0, (bn,) = _content(e0, (bn,))
    e1, (bd,) = _content(e1, (bd,))
    c = bn * z.denominator * e1
    u, v = z.numerator * bd * e0 * r1 + c * r0, c * r1
    return Fraction(-q1, p1), Fraction(v * q0 - u * q1, u * p1 - v * p0)


def _wallis_pair(rec: Recurrence, z, n: int) -> tuple:
    """(even, odd) in float mode: the Wallis loop of the S-fraction at s =
    -z, whose numerators and denominators add positive terms only."""
    s, zero = -z, rec.mode.zero()
    even_num, even_den = zero, rec.mode.one()
    odd_num, odd_den = rec.beta[0], s
    e = zero
    for k in range(n):
        q = rec.alpha[k] - e
        if not q > zero:
            raise NotStieltjesAdmissible("shifted Hankel form is not positive definite")
        even_num, even_den = odd_num + q * even_num, odd_den + q * even_den
        # beta_{k+1} > 0 (the factorization checked it), so e > 0 with q
        e = rec.beta[k + 1] / q
        odd_num, odd_den = s * even_num + e * odd_num, s * even_den + e * odd_den
    return even_num / even_den, odd_num / odd_den


# ---------------------------------------------------------------------------
# verdict synthesis


def verdict_1d(seq: MomentSequence, flavor: Flavor | None = None) -> Verdict:
    """Run the 1D criterion battery and synthesize a verdict.

    Component failures beyond admissibility itself become neutral evidence
    items instead of aborting the run; input without a representing measure
    raises NotAdmissible (see ``recurrence_from_moments``).  A diverging
    Carleman slope is rigorous only on a sequence whose meta carries
    ``carleman_growth_certified``.
    """
    if seq.dimension != 1:
        raise InvalidParameter("verdict_1d needs a 1D sequence")
    if flavor is None:
        flavor = (Flavor.STIELTJES if isinstance(seq.support, NonnegativeOrthant)
                  else Flavor.HAMBURGER)
    mode = seq.mode
    N = seq.max_degree
    evidence: list[Evidence] = []

    n_max = N // 2
    rec = recurrence_from_moments(seq, n_max)
    if rec.rank <= n_max:
        # finite rank r with a flat extension: the measure is r-atomic,
        # hence determinate
        suff = (Sufficiency.RIGOROUS_SUFFICIENT if isinstance(mode, RationalMode)
                else Sufficiency.LIMIT_RIGOROUS_NUMERIC)
        evidence.append(Evidence("hankel-rank", n_max, rec.rank, suff,
                                 Leaning.DETERMINATE,
                                 f"finite rank {rec.rank}: finitely atomic measure"))
    else:
        evidence.append(Evidence("hankel-admissibility", n_max, rec.rank,
                                 Sufficiency.NECESSARY_ONLY, Leaning.NEUTRAL,
                                 "positive definite"))

        horizon = max(N // 2, 1)
        try:
            car = carleman(seq, flavor, horizon)
            if car.diverging:
                certified = seq.is_certified_carleman()
                suff = (Sufficiency.RIGOROUS_SUFFICIENT if certified
                        else Sufficiency.LIMIT_RIGOROUS_NUMERIC)
                detail = ("divergence slope test fired"
                          + ("; growth class certified" if certified else
                             "; no tail certificate supplied"))
                lean = Leaning.DETERMINATE if certified else Leaning.NEUTRAL
                evidence.append(Evidence("carleman", horizon, car.partial_sum,
                                         suff, lean, detail))
            else:
                evidence.append(Evidence("carleman", horizon, car.partial_sum,
                                         Sufficiency.NECESSARY_ONLY, Leaning.NEUTRAL,
                                         "partial sum bounded; no divergence signal"))
        except (NonpositiveEvenMoment, DegreeInsufficient) as exc:
            evidence.append(Evidence("carleman", horizon, None,
                                     Sufficiency.HEURISTIC, Leaning.NEUTRAL,
                                     f"skipped: {exc}"))

        evidence.extend(_christoffel_weyl_evidence(rec))

        if flavor is Flavor.STIELTJES:
            evidence.extend(_convergent_evidence(seq, rec))

    return synthesize(flavor, evidence)


def _christoffel_weyl_evidence(rec: Recurrence) -> list:
    """Christoffel and Weyl-radius evidence at levels order - 1 and half of
    it, for a positive definite recurrence (rank = order + 1)."""
    mode = rec.mode
    out: list[Evidence] = []
    top = rec.order - 1
    half = top // 2
    if half < 1:
        return out
    z = complex_scalar(mode, 0, 1)
    rho_top = christoffel(rec, z, top)
    rho_half = christoffel(rec, z, half)
    ratio = mode.to_float(rho_top / rho_half)
    if ratio > PLATEAU_RATIO:
        out.append(Evidence("christoffel-plateau", top, rho_top,
                            Sufficiency.LIMIT_RIGOROUS_NUMERIC, Leaning.INDETERMINATE,
                            f"rho_{top}(i)/rho_{half}(i) = {ratio:.6f} "
                            f"> {PLATEAU_RATIO}"))
    elif ratio < DECAY_RATIO:
        out.append(Evidence("christoffel-decay", top, rho_top,
                            Sufficiency.HEURISTIC, Leaning.DETERMINATE,
                            f"rho ratio {ratio:.6f} < {DECAY_RATIO}"))
    else:
        out.append(Evidence("christoffel", top, rho_top,
                            Sufficiency.HEURISTIC, Leaning.NEUTRAL,
                            f"rho ratio {ratio:.6f} in the indecisive band"))
    # radius = rho / (2 |Im z|), so this ratio is the rho ratio above; both
    # radii are positive, since beta_{n+1} != 0 for every n < rank
    radius_sq = weyl_radius_sq(rec, z, top, rho_top)
    radius_sq_half = weyl_radius_sq(rec, z, half, rho_half)
    rratio = mode.to_float(radius_sq / radius_sq_half) ** 0.5
    if rratio > PLATEAU_RATIO:
        out.append(Evidence("weyl-radius-plateau", top, radius_sq,
                            Sufficiency.LIMIT_RIGOROUS_NUMERIC, Leaning.INDETERMINATE,
                            f"radius ratio {rratio:.6f} > {PLATEAU_RATIO}"))
    else:
        out.append(Evidence("weyl-radius", top, radius_sq,
                            Sufficiency.HEURISTIC,
                            Leaning.DETERMINATE if rratio < DECAY_RATIO
                            else Leaning.NEUTRAL,
                            f"radius ratio {rratio:.6f}"))
    return out


def _convergent_evidence(seq: MomentSequence, rec: Recurrence) -> list:
    mode = seq.mode
    out: list[Evidence] = []
    top = rec.order - 1
    if top < 4:
        return out
    low = max(2, top // 2)
    try:
        pair_top = stieltjes_convergents(seq, STIELTJES_POINT, top)
        pair_low = stieltjes_convergents(seq, STIELTJES_POINT, low)
    except (NotStieltjesAdmissible, DegreeInsufficient) as exc:
        out.append(Evidence("stieltjes-convergents", top, None,
                            Sufficiency.HEURISTIC, Leaning.NEUTRAL, f"skipped: {exc}"))
        return out
    w_top, w_low = pair_top.interval_width, pair_low.interval_width
    if w_low > 0 and w_top > 0:
        ratio = mode.to_float(w_top / w_low)
        if ratio > WIDTH_PLATEAU_RATIO:
            out.append(Evidence("stieltjes-width-plateau", top, w_top,
                                Sufficiency.LIMIT_RIGOROUS_NUMERIC, Leaning.INDETERMINATE,
                                f"width_{top}/width_{low} = {ratio:.6f} "
                                f"> {WIDTH_PLATEAU_RATIO}"))
        else:
            out.append(Evidence("stieltjes-width", top, w_top,
                                Sufficiency.HEURISTIC, Leaning.DETERMINATE,
                                f"width ratio {ratio:.6f} shrinking"))
    else:
        out.append(Evidence("stieltjes-width", top, w_top,
                            Sufficiency.HEURISTIC, Leaning.DETERMINATE,
                            "interval width vanished"))
    return out
