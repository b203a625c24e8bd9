"""Certified polynomial envelopes from alternating coefficient streams.

For functions whose derivative stream at 0 alternates in sign, consecutive
truncations of the power series bracket the function: on the half line for a
completely monotonic phi (Taylor remainder in integral form has the sign of
the first omitted term), and on the whole line for the cosine stream (even
function, globally alternating remainder).  The bracket difference is a
single monomial term, so the envelope's gap functional against a moment
sequence has the closed form  |c_{2M}| * L(t^{2M}).

These envelopes are *globally certified* brackets on their declared domain;
an envelope gap that shrinks to zero along the order shows the target
function cannot separate the functional (a necessary-condition probe), and a
gap that blows up simply means the envelope family is too weak to decide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .errors import (
    DegreeInsufficient,
    InvalidParameter,
    NotCompletelyMonotonicCoefficients,
    WrongSupport,
)
from .moments import MomentSequence, NonnegativeOrthant, image_moments
from .polynomials import mpoly_degree, poly_trim

#: trend thresholds of ``cm_gap_criterion``, as fractions of the first and
#: the middle gap value
ZERO_RATIO = 0.1
PLATEAU_RATIO = 0.9


class PolynomialEnvelope(NamedTuple):
    """A certified bracket  lower(t) <= phi(t) <= upper(t)  on the domain
    of its builder: all of R for ``cosine_envelope``, [0, inf) for
    ``maclaurin_envelope`` and ``geometric_envelope``.

    ``order`` is the degree of the single monomial making up upper - lower;
    ``gap_functional`` is L(upper - lower) against the sequence the
    envelope was built for.
    """

    lower: tuple
    upper: tuple
    order: int
    gap_functional: Any


def cosine_envelope(seq_1d: MomentSequence, order: int) -> PolynomialEnvelope:
    """Bracket of cos t by consecutive power-series truncations, valid on
    all of R.  ``order`` = M means the bracket pair differs by the
    degree-2M term; gap functional = m_{2M} / (2M)!.
    """
    top_deg = _top_degree(seq_1d, order, "cosine envelope", None)
    mode = seq_1d.mode
    coeffs = [mode.zero()] * (top_deg + 1)
    for j in range(order + 1):
        coeffs[2 * j] = mode.convert((-1) ** j) / math.factorial(2 * j)
    # m_top / top! rounds once in float mode; (1 / top!) * m_top would round twice
    gap = seq_1d.moment((top_deg,)) / math.factorial(top_deg)
    return _bracket(coeffs, gap)


def geometric_envelope(seq_1d: MomentSequence, order: int) -> PolynomialEnvelope:
    """Bracket of 1/(1+s) on s >= 0 by geometric partial sums:
    sum_{k<=2n-1} (-s)^k <= 1/(1+s) <= sum_{k<=2n} (-s)^k, gap = L(s^{2n}).
    The ``maclaurin_envelope`` of ``CompletelyMonotonic.geometric()``, whose
    coefficients k!/k! are exactly +-1 in either mode."""
    return maclaurin_envelope(CompletelyMonotonic.geometric(), seq_1d, order)


def _top_degree(seq_1d: MomentSequence, order: int, name: str,
                half_line: str | None) -> int:
    """The bracket's top degree 2 * order, after the checks every
    envelope makes, in this order: the order, the dimension, the support
    (``half_line`` is the WrongSupport message of an envelope certified on
    [0, inf) only) and the truncation degree."""
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    if seq_1d.dimension != 1:
        raise InvalidParameter(f"{name} needs a 1D sequence")
    if half_line is not None and not isinstance(seq_1d.support, NonnegativeOrthant):
        raise WrongSupport(half_line)
    top_deg = 2 * order
    if top_deg > seq_1d.max_degree:
        raise DegreeInsufficient(f"order {order} needs degree {top_deg}")
    return top_deg


def _bracket(coeffs: list, gap) -> PolynomialEnvelope:
    """The last two partial sums of an alternating coefficient stream, the
    one that ends on a positive term as the upper side; they differ by the
    top term, whose value under L is ``gap``."""
    top_deg = len(coeffs) - 1
    s_prev, s_top = poly_trim(coeffs[:top_deg]), poly_trim(coeffs)
    lower, upper = (s_prev, s_top) if coeffs[top_deg] > 0 else (s_top, s_prev)
    return PolynomialEnvelope(lower, upper, top_deg, gap)


class CompletelyMonotonic(NamedTuple):
    """A completely monotonic target given by its derivative stream at 0.

    ``derivatives(k)`` returns phi^(k)(0) as an exact value (int or
    ``Fraction``); the stream must alternate: (-1)^k phi^(k)(0) >= 0.
    Envelopes divide it by k! exactly and convert each coefficient once.
    """

    derivatives: Callable[[int], Any]

    @staticmethod
    def exponential_decay() -> "CompletelyMonotonic":
        """phi(s) = exp(-s): derivative stream (-1)^k."""
        return CompletelyMonotonic(lambda k: (-1) ** k)

    @staticmethod
    def geometric() -> "CompletelyMonotonic":
        """phi(s) = 1/(1+s): derivative stream (-1)^k k!."""
        return CompletelyMonotonic(lambda k: (-1) ** k * math.factorial(k))


def maclaurin_envelope(phi: CompletelyMonotonic, seq_1d: MomentSequence,
                       order: int) -> PolynomialEnvelope:
    """Power-series bracket M_{2n-1} <= phi <= M_{2n} on s >= 0 for a
    completely monotonic phi; gap = phi^(2n)(0)/(2n)! * L(s^{2n})."""
    top_deg = _top_degree(seq_1d, order, "maclaurin envelope",
                          "the bracket holds on [0, inf) only")
    mode = seq_1d.mode
    coeffs = []
    for k in range(top_deg + 1):
        dk = phi.derivatives(k)
        if (-1) ** k * dk < 0:
            raise NotCompletelyMonotonicCoefficients(
                f"derivative stream fails alternation at k={k}"
            )
        coeffs.append(mode.convert(Fraction(dk, math.factorial(k))))
    return _bracket(coeffs, coeffs[top_deg] * seq_1d.moment((top_deg,)))


class CmGapResult(NamedTuple):
    values: tuple            # v_n = |phi^(2n)(0)|/(2n)! * L(omega^{2n})
    infimum: Any
    trend: str               # "zero-trend" | "positive-plateau" | "indecisive"


def cm_gap_criterion(phi: CompletelyMonotonic, seq: MomentSequence,
                     omega: Sequence | dict, horizon: int) -> CmGapResult:
    """Running infimum of the envelope gap sequence for phi composed with a
    polynomial weight omega.

    A zero trend (last value at most ``ZERO_RATIO`` times the first) says
    phi(omega(x)) admits arbitrarily tight brackets, so it cannot separate
    (necessary-side evidence against indeterminateness via this phi); a
    positive plateau (last value at least ``PLATEAU_RATIO`` times the
    middle one) leaves the criterion value positive.  omega may be
    univariate (coefficient sequence, applied when seq is 1D) or a
    multivariate coefficient dict.
    """
    if horizon < 1:
        raise InvalidParameter("horizon must be >= 1")
    mode = seq.mode
    w = (dict(omega) if isinstance(omega, dict)
         else {(k,): c for k, c in enumerate(poly_trim(omega)) if c})
    if seq.dimension == 1 and w and len(next(iter(w))) != 1:
        raise InvalidParameter("omega dimension mismatch")
    dw = mpoly_degree(w)
    if dw < 0:
        raise InvalidParameter("omega must be non-zero")
    if 2 * horizon * dw > seq.max_degree:
        raise DegreeInsufficient(
            f"horizon {horizon} needs degree {2 * horizon * dw}"
        )
    powers = image_moments(seq, [w], 2 * horizon)
    values = []
    for n in range(1, horizon + 1):
        # the bracket width only sees |phi^(2n)(0)|, so cosine-type streams
        # (alternating even derivatives) are accepted alongside strict
        # complete monotonicity
        coeff = mode.convert(Fraction(abs(phi.derivatives(2 * n)), math.factorial(2 * n)))
        values.append(coeff * powers[(2 * n,)])
    inf_v = values[0]
    for v in values[1:]:
        if v < inf_v:
            inf_v = v
    floats = [mode.to_float(v) for v in values]
    if floats[-1] <= ZERO_RATIO * max(floats[0], 1e-300):
        trend = "zero-trend"
    elif floats[-1] > 0 and floats[-1] >= PLATEAU_RATIO * max(floats[len(floats) // 2], 1e-300):
        trend = "positive-plateau"
    else:
        trend = "indecisive"
    return CmGapResult(tuple(values), inf_v, trend)
