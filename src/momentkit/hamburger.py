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

Everything is exact in rational mode.  Quantities that are inherently
irrational (Carleman roots, kappa values) are computed through binary floats
at a documented precision and converted back, except that exact zeros stay
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
from .scalars import (ComplexScalar, FloatMode, Mode, RationalMode, complex_scalar,
                      from_context, to_context, work_context)
from .verdicts import Evidence, Flavor, Leaning, Sufficiency, Verdict, synthesize

#: float-mode pivots within 2**(-prec + guard) of zero are undecidable
FLOAT_PIVOT_GUARD_BITS = 12

#: full-order evaluations a Recurrence keeps, newest last; a verdict visits
#: three points (i, -1, 0), and a kappa field visits one point at a time
ORTHO_MEMO_POINTS = 4

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
    recurrence transform.  ``evals`` holds the forward passes of
    ``ortho_eval`` at the last ``ORTHO_MEMO_POINTS`` points; it is not part
    of the value.
    """

    mode: Mode
    alpha: tuple
    beta: tuple
    pivot_log: tuple = ()
    evals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.alpha)

    @property
    def rank(self) -> int:
        for k, b in enumerate(self.beta):
            if b == 0:
                return k
        return len(self.beta)


def _relative_eps(mode: Mode):
    if isinstance(mode, RationalMode):
        return None
    return mode.ctx.ldexp(mode.one(), -(mode.precision_bits - FLOAT_PIVOT_GUARD_BITS))


def recurrence_from_moments(seq: MomentSequence, n: int) -> Recurrence:
    """Moment-to-recurrence transform, O(n^2) on sigma_{k,l} = L(pi_k x^l).

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
    Curto and Fialkow).  If it does, the input is finitely atomic and the
    recurrence stops early with the trailing beta equal to zero; if not, no
    measure has these moments and NotAdmissible is raised.

    Rational mode is exact and is mandatory for the acceptance runs on
    integer-moment measures.  Float mode carries first-order noise floors
    and cannot tell a surviving row from lost bits, so there a pivot that
    is neither clearly signed nor part of a vanished row raises
    PrecisionExhausted rather than returning garbage.
    """
    rec = seq.recurrences.get(n)
    if rec is None:
        rec = seq.recurrences[n] = _factorize(seq, n)
    return rec


def _factorize(seq: MomentSequence, n: int) -> Recurrence:
    if n < 1:
        raise InvalidParameter("recurrence order must be at least 1")
    if 2 * n > seq.max_degree:
        raise DegreeInsufficient(f"order {n} needs moments to degree {2 * n}")
    m = seq.moments_1d()
    mode = seq.mode
    if not m[0] > 0:
        raise NotPositiveDefinite("m_0 must be positive")
    eps = _relative_eps(mode)
    zero = mode.zero()
    alpha = [m[1] / m[0]]
    beta = [m[0]]
    pivots = [mode.to_float(m[0])]
    sig_prev2: list = []
    sig_prev = list(m)
    # first-order noise floors alongside the sigma rows (zero in exact mode)
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
        piv = sig[k]
        tol = noi[k]
        pivots.append(mode.to_float(piv))
        if piv < -tol:
            raise NotAdmissible(f"functional is not positive on squares: ||pi_{k}||^2 < 0")
        if piv <= tol:
            # rank degeneracy only if the whole row died with the pivot
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
        beta.append(piv / sig_prev[k - 1])
        if k < n:
            alpha.append(sig[k + 1] / piv - sig_prev[k] / sig_prev[k - 1])
        sig_prev2, sig_prev = sig_prev, sig
        noi_prev2, noi_prev = noi_prev, noi
    return Recurrence(mode, tuple(alpha), tuple(beta), tuple(pivots))


# ---------------------------------------------------------------------------
# orthogonal polynomial evaluation (first and second kind)


@dataclass(frozen=True)
class OrthoEval:
    """Values of the monic first kind pi_k(z) and second kind Q_k(z) together
    with the norms; orthonormal values are the monic ones over sqrt(norm_sq),
    so |p_k(z)|^2 stays exactly representable in rational mode."""

    z: ComplexScalar
    first: tuple          # pi_0(z) .. pi_n(z)
    second: tuple         # Q_0(z) .. Q_n(z)
    norm_sq: tuple        # ||pi_0||^2 .. ||pi_n||^2

    def first_normalized_abs2(self, k: int):
        """|p_k(z)|^2 = |pi_k(z)|^2 / ||pi_k||^2."""
        return self.first[k].abs2() / self.norm_sq[k]

    def kernel_diagonal(self, n: int | None = None):
        """K_n(z, conj z) = sum |p_k(z)|^2."""
        top = len(self.first) - 1 if n is None else n
        total = self.first_normalized_abs2(0)
        for k in range(1, top + 1):
            total = total + self.first_normalized_abs2(k)
        return total


def ortho_eval(rec: Recurrence, z: ComplexScalar, n: int | None = None) -> OrthoEval:
    """pi_k(z) and Q_k(z) for k <= n (default: the full order); total for any
    recurrence.  Every level asked for at one point shares one full-order
    forward pass, kept in ``rec.evals``."""
    top = rec.order if n is None else n
    if top > rec.order:
        raise DegreeInsufficient(f"recurrence order {rec.order} < requested {top}")
    full = rec.evals.pop(z, None)
    if full is None:
        full = _forward_pass(rec, z)
        if len(rec.evals) >= ORTHO_MEMO_POINTS:
            del rec.evals[next(iter(rec.evals))]
    rec.evals[z] = full
    if top == rec.order:
        return full
    return OrthoEval(z, full.first[:top + 1], full.second[:top + 1],
                     full.norm_sq[:top + 1])


def _forward_pass(rec: Recurrence, z: ComplexScalar) -> OrthoEval:
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
    return OrthoEval(z, tuple(first), tuple(second), tuple(norms))


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
    weight at an atom.
    """
    if n > rec.order and rec.rank > n:
        raise DegreeInsufficient(f"recurrence order {rec.order} < {n}")
    r = rec.rank
    if r <= n:
        ev = ortho_eval(rec, z, r)
        if ev.first[r].abs2() != 0:
            return rec.mode.zero()
        return 1 / ev.kernel_diagonal(r - 1)
    ev = ortho_eval(rec, z, n)
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

    ``radius_sq`` is the exact in-mode quantity; ``radius`` takes a square
    root and is therefore approximate in rational mode unless the square is
    perfect (in particular an exact 0 stays exact)."""

    z: ComplexScalar
    degree: int
    center: ComplexScalar
    radius_sq: Any
    mode: Mode
    degenerate: bool = False

    @property
    def radius(self):
        return self.mode.sqrt(self.radius_sq)

    @property
    def diameter(self):
        return 2 * self.radius

    def contains(self, value: ComplexScalar) -> bool:
        return (value - self.center).abs2() <= self.radius_sq


def weyl_disk(rec: Recurrence, z: ComplexScalar, n: int) -> WeylDisk:
    """Disk at truncation n (moment data through degree 2n+2).

    With P_1, P_0 = pi_{n+1}(z), pi_n(z), Q_1, Q_0 the second kind values
    and s = Im(P_1 conj P_0), the pencil is a Moebius map of determinant
    ||pi_n||^2 (Casoratian), so ``radius_sq = ||pi_n||^4 / (4 s^2)`` and the
    center, the image of the pole's mirror point, is ``-(Q_1 conj P_0 -
    Q_0 conj P_1) / (2 i s)``.  Christoffel-Darboux gives ``s / Im z > 0``;
    a float pass that breaks that sign has lost its bits.
    """
    if z.im == 0:
        raise NonRealPointRequired("Weyl disks need Im z != 0")
    if n + 1 > rec.order:
        raise DegreeInsufficient(f"disk at {n} needs recurrence order {n + 1}")
    mode = rec.mode
    ev = ortho_eval(rec, z, n + 1)
    p_top, p_low = ev.first[n + 1], ev.first[n]
    q_top, q_low = ev.second[n + 1], ev.second[n]
    if rec.beta[n + 1] == 0:
        # degenerate pencil: every parameter gives the same point, the
        # Cauchy transform of the unique (atomic) representing measure
        center = -(q_top / p_top)
        return WeylDisk(z, n, center, mode.zero(), mode, degenerate=True)
    s = p_top.im * p_low.re - p_top.re * p_low.im
    if not s * z.im > 0:
        raise PrecisionExhausted("Weyl disk: Im(pi_{n+1} conj pi_n) lost its sign")
    num = q_top * p_low.conj() - q_low * p_top.conj()
    center = ComplexScalar(-num.im / (2 * s), num.re / (2 * s))
    norm = ev.norm_sq[n]
    return WeylDisk(z, n, center, norm * norm / (4 * s * s), mode)


# ---------------------------------------------------------------------------
# Carleman sums


@dataclass(frozen=True)
class CarlemanResult:
    partial_sum: Any
    diverging: bool            # heuristic slope test; see ``carleman``
    horizon: int
    flavor: Flavor
    terms_tail: tuple = ()     # last-quarter terms, for evidence records


def carleman(seq: MomentSequence, flavor: Flavor, horizon: int) -> CarlemanResult:
    """Partial Carleman sum and a divergence heuristic.

    Hamburger: sum_{k=1..K} m_{2k}^(-1/(2k)); Stieltjes: sum m_k^(-1/(2k)).
    ``diverging`` fires when every last-quarter term satisfies
    ``t_k * k >= CARLEMAN_SLOPE``: such terms dominate a multiple of the
    harmonic series.  The flag alone is a heuristic; paired with a certified
    growth bound on the sequence it becomes rigorous (sum of c/k diverges).
    Terms are evaluated in binary floats (``scalars.work_context``: the
    mode's own precision, or 256 bits in rational mode) since the roots are
    irrational.
    """
    K = horizon
    if K < 1:
        raise InvalidParameter("Carleman horizon must be at least 1")
    need = 2 * K if flavor is Flavor.HAMBURGER else K
    if need > seq.max_degree:
        raise DegreeInsufficient(f"horizon {K} needs degree {need}")
    m = seq.moments_1d()
    ctx = work_context(seq.mode)
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
        terms_tail=tuple(float(t) for t in tail[:8]),
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
    """Even and odd convergents at level n.

    The even convergent is the plain n-level quadrature value of the
    transform read off the second/first kind ratio; the odd convergent fixes
    an extra node at the support endpoint 0.  For Stieltjes-determinate
    sequences the interval width shrinks to 0; in the indeterminate case the
    two limits differ and the width plateaus at the transform gap.  Requires
    both the plain and the shifted Hankel forms to be positive (otherwise
    NotStieltjesAdmissible) and the support hint to be the half line.
    """
    mode = seq.mode
    if not isinstance(seq.support, NonnegativeOrthant):
        raise NotStieltjesAdmissible("convergents need support on [0, inf)")
    zv = mode.convert(z)
    if not zv < 0:
        raise InvalidParameter("evaluation point must be a negative real")
    rec = recurrence_from_moments(seq, seq.max_degree // 2)
    if rec.rank <= n:
        # finitely atomic: both convergents equal the exact transform
        zc = complex_scalar(mode, zv)
        ev = ortho_eval(rec, zc, rec.rank)
        val = -(ev.second[rec.rank].re / ev.first[rec.rank].re)
        return ConvergentPair(zv, n, val, val, mode.zero())
    if rec.order < n:
        raise DegreeInsufficient(f"recurrence order {rec.order} < level {n}")
    _assert_stieltjes_positive(seq, rec, n)
    zc = complex_scalar(mode, zv)
    ev = ortho_eval(rec, zc, n)
    even = -(ev.second[n].re / ev.first[n].re)
    # fixed node at 0: modified top diagonal alpha* = 0 - beta_n pi_{n-1}(0)/pi_n(0)
    zero_c = complex_scalar(mode, 0)
    at0 = ortho_eval(rec, zero_c, n)
    pn0, pn10 = at0.first[n].re, at0.first[n - 1].re
    if pn0 == 0:
        raise NotStieltjesAdmissible("pi_n(0) = 0; roots touch the endpoint")
    alpha_star = -rec.beta[n] * pn10 / pn0
    p_top = (zc - complex_scalar(mode, alpha_star)) * ev.first[n] - ev.first[n - 1].scale(rec.beta[n])
    q_top = (zc - complex_scalar(mode, alpha_star)) * ev.second[n] - ev.second[n - 1].scale(rec.beta[n])
    odd = -(q_top.re / p_top.re)
    width = odd - even if odd >= even else even - odd
    return ConvergentPair(zv, n, even, odd, width)


def _assert_stieltjes_positive(seq: MomentSequence, rec: Recurrence, n: int) -> None:
    """Positivity of Hankel and shifted Hankel to the needed order.

    Checked through the chain splitting of the recurrence: with e_0 = 0,
    q_{k+1} = alpha_k - e_k and e_{k+1} = beta_{k+1} / q_{k+1}, both Hankel
    forms are positive definite iff every q and e is positive.  This is the
    exact O(n) equivalent of factorizing the shifted Hankel matrix.
    """
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
    mode = rec.mode
    out: list[Evidence] = []
    top = min(rec.order - 1, rec.rank - 1)
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
    # radius = rho / (2 |Im z|), so this ratio is the rho ratio above
    disk = weyl_disk(rec, z, top)
    disk_half = weyl_disk(rec, z, half)
    if disk_half.radius_sq > 0:
        rratio = mode.to_float(disk.radius_sq / disk_half.radius_sq) ** 0.5
        if rratio > PLATEAU_RATIO:
            out.append(Evidence("weyl-radius-plateau", top, disk.radius_sq,
                                Sufficiency.LIMIT_RIGOROUS_NUMERIC, Leaning.INDETERMINATE,
                                f"radius ratio {rratio:.6f} > {PLATEAU_RATIO}"))
        else:
            out.append(Evidence("weyl-radius", top, disk.radius_sq,
                                Sufficiency.HEURISTIC,
                                Leaning.DETERMINATE if rratio < DECAY_RATIO
                                else Leaning.NEUTRAL,
                                f"radius ratio {rratio:.6f}"))
    else:
        out.append(Evidence("weyl-radius", top, mode.zero(),
                            Sufficiency.RIGOROUS_SUFFICIENT if isinstance(mode, RationalMode)
                            else Sufficiency.LIMIT_RIGOROUS_NUMERIC,
                            Leaning.DETERMINATE, "degenerate point disk"))
    return out


def _convergent_evidence(seq: MomentSequence, rec: Recurrence) -> list:
    mode = seq.mode
    out: list[Evidence] = []
    top = min(rec.order - 1, rec.rank - 1)
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
