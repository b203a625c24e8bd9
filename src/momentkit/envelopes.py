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

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import (
    DegreeInsufficient,
    InvalidParameter,
    NotCompletelyMonotonicCoefficients,
    WrongSupport,
)
from .moments import MomentSequence, NonnegativeOrthant
from .polynomials import poly_trim


@dataclass(frozen=True)
class PolynomialEnvelope:
    """A certified bracket  lower(t) <= phi(t) <= upper(t)  on ``domain``.

    ``domain`` is "real_line" or "half_line"; ``order`` is the degree of the
    single monomial making up upper - lower; ``gap_functional`` is
    L(upper - lower) against the sequence the envelope was built for.
    """

    lower: tuple
    upper: tuple
    domain: str
    order: int
    gap_functional: Any


def cosine_envelope(seq_1d: MomentSequence, order: int,
                    phase_shifted: bool = False) -> PolynomialEnvelope:
    """Bracket of cos t (or of sin t with ``phase_shifted``) by consecutive
    power-series truncations.

    The cosine bracket is valid on all of R; the phase-shifted (sine) stream
    alternates only for t >= 0, so that envelope is certified on the half
    line and demands matching support.  ``order`` = M means the bracket pair
    differs by the degree-2M term; gap functional = m_{2M} / (2M)!
    (cosine) or m_{2M+1} / (2M+1)! (sine).
    """
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    if seq_1d.dimension != 1:
        raise InvalidParameter("cosine envelope needs a 1D sequence")
    import math

    # sine stream: alternating on the half line only
    if phase_shifted and not isinstance(seq_1d.support, NonnegativeOrthant):
        raise WrongSupport("the phase-shifted envelope is certified on [0, inf) only")
    mode = seq_1d.mode
    parity = 1 if phase_shifted else 0      # the stream's degrees are 2j + parity
    top_deg = 2 * order + parity
    if top_deg > seq_1d.max_degree:
        raise DegreeInsufficient(f"order {order} needs degree {top_deg}")
    coeffs = [mode.zero()] * (top_deg + 1)
    for j in range(order + 1):
        coeffs[2 * j + parity] = mode.convert((-1) ** j) / math.factorial(2 * j + parity)
    # the last two partial sums end at degrees top_deg - 2 and top_deg
    s_prev, s_top = poly_trim(coeffs[: top_deg - 1]), poly_trim(coeffs)
    lower, upper = (s_top, s_prev) if order % 2 == 1 else (s_prev, s_top)
    gap = seq_1d.moment((top_deg,)) / math.factorial(top_deg)
    return PolynomialEnvelope(lower, upper, "half_line" if phase_shifted else "real_line",
                              top_deg, gap)


def geometric_envelope(seq_1d: MomentSequence, order: int) -> PolynomialEnvelope:
    """Bracket of 1/(1+s) on s >= 0 by geometric partial sums:
    sum_{k<=2n-1} (-s)^k <= 1/(1+s) <= sum_{k<=2n} (-s)^k, gap = L(s^{2n})."""
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    if seq_1d.dimension != 1:
        raise InvalidParameter("geometric envelope needs a 1D sequence")
    if not isinstance(seq_1d.support, NonnegativeOrthant):
        raise WrongSupport("geometric envelope is valid on [0, inf) only")
    top_deg = 2 * order
    if top_deg > seq_1d.max_degree:
        raise DegreeInsufficient(f"order {order} needs degree {top_deg}")
    mode = seq_1d.mode
    one = mode.one()
    upper = tuple(one if k % 2 == 0 else -one for k in range(top_deg + 1))
    lower = upper[:top_deg]
    gap = seq_1d.moment((top_deg,))
    return PolynomialEnvelope(poly_trim(lower), poly_trim(upper), "half_line",
                              top_deg, gap)


@dataclass(frozen=True)
class CompletelyMonotonic:
    """A completely monotonic target given by its derivative stream at 0.

    ``derivatives(k)`` returns phi^(k)(0); the stream must alternate:
    (-1)^k phi^(k)(0) >= 0.  ``description`` feeds reports.
    """

    derivatives: Callable[[int], Any]
    description: str = "completely-monotonic"

    @staticmethod
    def exponential_decay() -> "CompletelyMonotonic":
        """phi(s) = exp(-s): derivative stream (-1)^k."""
        return CompletelyMonotonic(lambda k: (-1) ** k, "exp(-s)")

    @staticmethod
    def geometric() -> "CompletelyMonotonic":
        """phi(s) = 1/(1+s): derivative stream (-1)^k k!."""
        import math

        return CompletelyMonotonic(lambda k: (-1) ** k * math.factorial(k), "1/(1+s)")


def maclaurin_envelope(phi: CompletelyMonotonic, seq_1d: MomentSequence,
                       order: int) -> PolynomialEnvelope:
    """Power-series bracket M_{2n-1} <= phi <= M_{2n} on s >= 0 for a
    completely monotonic phi; gap = phi^(2n)(0)/(2n)! * L(s^{2n})."""
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    if not isinstance(seq_1d.support, NonnegativeOrthant):
        raise WrongSupport("the bracket holds on [0, inf) only")
    top_deg = 2 * order
    if top_deg > seq_1d.max_degree:
        raise DegreeInsufficient(f"order {order} needs degree {top_deg}")
    mode = seq_1d.mode
    import math

    coeffs = []
    for k in range(top_deg + 1):
        dk = phi.derivatives(k)
        if (-1) ** k * dk < 0:
            raise NotCompletelyMonotonicCoefficients(
                f"derivative stream fails alternation at k={k}"
            )
        coeffs.append(mode.convert(dk) / math.factorial(k))
    lower = poly_trim(coeffs[:top_deg])          # M_{2n-1}
    upper = poly_trim(coeffs[: top_deg + 1])     # M_{2n}
    gap = coeffs[top_deg] * seq_1d.moment((top_deg,))
    return PolynomialEnvelope(lower, upper, "half_line", top_deg, gap)


@dataclass(frozen=True)
class CmGapResult:
    values: tuple            # v_n = |phi^(2n)(0)|/(2n)! * L(omega^{2n})
    infimum: Any
    trend: str               # "zero-trend" | "positive-plateau" | "indecisive"


def cm_gap_criterion(phi: CompletelyMonotonic, seq: MomentSequence,
                     omega: Sequence | dict, horizon: int,
                     plateau_ratio: float = 0.9,
                     zero_ratio: float = 0.1) -> CmGapResult:
    """Running infimum of the envelope gap sequence for phi composed with a
    polynomial weight omega.

    A zero trend says phi(omega(x)) admits arbitrarily tight brackets, so it
    cannot separate (necessary-side evidence against indeterminateness via
    this phi); a positive plateau leaves the criterion value positive.
    omega may be univariate (coefficient sequence, applied when seq is 1D) or
    a multivariate coefficient dict.
    """
    if horizon < 1:
        raise InvalidParameter("horizon must be >= 1")
    import math

    from .moments import apply_linear_functional
    from .polynomials import mpoly_from_univariate, mpoly_pow, mpoly_degree

    mode = seq.mode
    w = (mpoly_from_univariate(omega) if not isinstance(omega, dict) else dict(omega))
    if seq.dimension == 1 and w and len(next(iter(w))) != 1:
        raise InvalidParameter("omega dimension mismatch")
    dw = mpoly_degree(w)
    if dw < 0:
        raise InvalidParameter("omega must be non-zero")
    if 2 * horizon * dw > seq.max_degree:
        raise DegreeInsufficient(
            f"horizon {horizon} needs degree {2 * horizon * dw}"
        )
    values = []
    for n in range(1, horizon + 1):
        # the bracket width only sees |phi^(2n)(0)|, so cosine-type streams
        # (alternating even derivatives) are accepted alongside strict
        # complete monotonicity
        coeff = mode.convert(abs(phi.derivatives(2 * n))) / math.factorial(2 * n)
        wpow = mpoly_pow(w, 2 * n, seq.dimension)
        values.append(coeff * apply_linear_functional(seq, wpow))
    inf_v = values[0]
    for v in values[1:]:
        if v < inf_v:
            inf_v = v
    floats = [mode.to_float(v) for v in values]
    if floats[-1] <= zero_ratio * max(floats[0], 1e-300):
        trend = "zero-trend"
    elif floats[-1] > 0 and floats[-1] >= plateau_ratio * max(floats[len(floats) // 2], 1e-300):
        trend = "positive-plateau"
    else:
        trend = "indecisive"
    return CmGapResult(tuple(values), inf_v, trend)
