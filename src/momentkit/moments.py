"""Truncated multivariate moment sequences and the operations that preserve them.

A :class:`MomentSequence` is a dense truncation of the moment map
``alpha -> m_alpha = L(x**alpha)`` of a positive linear functional L; every
multi-index with ``|alpha| <= max_degree`` is present, all values live in one
arithmetic mode, and ``m_0 > 0``.  Storage is dense because the criteria
consume full graded slices and desk scale is small (d <= 4, N <= ~60).

The support hint is advisory metadata carried alongside the numbers, never
inferred from them.  Whether the underlying functional really integrates all
polynomials (admissibility) is likewise an assumption recorded in metadata: a
finite truncation cannot certify tail behaviour.  The ``meta`` mapping may
carry a ``carleman_growth_certified`` flag meaning the caller asserts the
even moments satisfy ``m_{2k}**(1/(2k)) = O(k)``, the growth class in which
the Carleman sum provably diverges.  The built-in generators set it where the
closed-form moment laws justify it, and the preserver operations propagate it
exactly where the growth class is stable (see each operation's docstring).

Every affine moment map is one image: ``affine_map`` computes L((A x +
b)**alpha), and push-forwards along a direction, marginals and convolutions
(the image of the product functional under (x, y) -> x + y) are its special
cases, so one rule gives every affine image's support hint: the orthant when
the source lies on a cone, every row of A pairs nonnegatively with every
generator and b >= 0.  The map's shape picks the computation: one row with
b = 0 (every direction of a scan) reads the sequence's multinomial table,
s_n = sum_{|alpha| = n} (n! / alpha!) xi**alpha m_alpha, built once, to
the sequence's degree, for all directions; every other map goes through
``image_moments``.  Every graded power here (an atom's x**alpha, a
direction's p**alpha, an image's u**beta) is one product on the slice
below, along the links of ``polynomials.lowerings``.  Float moments must be
finite, with binary exponents of at most MAX_EXPONENT_BITS bits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, prod
from operator import add, mul
from typing import Any, Mapping, NamedTuple, Sequence

from .errors import (
    DegreeInsufficient,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    ModeMismatch,
    UnrepresentableInMode,
)
from .polynomials import (
    compositions,
    lowerings,
    mpoly_degree,
    mpoly_mul,
    multi_indices,
    poly_trim,
    power_slices,
)
from .scalars import FloatMode, Mode, RationalMode, Record, exact_fraction, integers

# ---------------------------------------------------------------------------
# support hints


class FullSpace(Record):
    __slots__ = ()
    kind = "full_space"


class NonnegativeOrthant(Record):
    __slots__ = ()
    kind = "nonnegative_orthant"


class ConeSupport(NamedTuple):
    """Finitely generated cone; ``generators`` are the extreme rays (rows)."""

    generators: tuple
    kind = "cone"


class CurveSupport(NamedTuple):
    curve_id: str
    kind = "curve"


Support = Any  # one of the four classes above


def support_is_cone(s: Support) -> bool:
    return isinstance(s, (NonnegativeOrthant, ConeSupport))


def dual_interior_contains(s: Support, xi: Sequence) -> bool:
    """Strict interior of the dual cone: xi pairs positively with every
    generator.  The test is exact in rational mode; in float mode a
    direction within rounding of the boundary may fall on either side.
    """
    pairings = _generator_pairings(s, xi)
    return pairings is not None and all(p > 0 for p in pairings)


def dual_contains(s: Support, xi: Sequence) -> bool:
    """Closed dual cone: xi pairs nonnegatively with every generator, so
    the image of a cone under x -> xi . x lies on [0, inf); False off a
    cone."""
    pairings = _generator_pairings(s, xi)
    return pairings is not None and all(p >= 0 for p in pairings)


def _generator_pairings(s: Support, xi: Sequence) -> list | None:
    """xi . g for every generator g of a cone support; None off a cone."""
    if isinstance(s, NonnegativeOrthant):
        return list(xi)
    if isinstance(s, ConeSupport):
        return [sum(gi * xj for gi, xj in zip(g, xi)) for g in s.generators]
    return None


# ---------------------------------------------------------------------------
# moment sequences

#: the most multi-index entries, C(N + d, d) moments times d variables, a
#: document may ask for; the largest benchmark input holds 2925 moments of
#: 3 variables (8775 entries)
MAX_MOMENT_ENTRIES = 10 ** 6
#: an error detail prints at most this many entries of a multi-index
INDEX_PREFIX = 8
#: the most bits the binary exponent of a float moment may have: the float
#: recurrence takes log2 of its values as binary64 floats (its noise
#: floors), which overflows once an exponent reaches 2**1024; the bound
#: keeps a factor 2**24 for the products of moments the recurrence forms
MAX_EXPONENT_BITS = 1000


def check_moment_count(dimension: int, max_degree: int) -> None:
    """InvalidParameter naming the field, before anything is allocated, when
    ``dimension < 1``, ``max_degree < 0``, or the C(N + d, d) moments of d
    variables to degree N hold more than MAX_MOMENT_ENTRIES index entries;
    the count stops as soon as it passes the bound, so 2**70 costs
    nothing."""
    if dimension < 1:
        raise InvalidParameter("field 'dimension': must be at least 1")
    if max_degree < 0:
        raise InvalidParameter("field 'max_degree': must be non-negative")
    big, small = max(dimension, max_degree), min(dimension, max_degree)
    entries = dimension             # d C(big + i, i) after step i, an integer
    for i in range(1, small + 1):
        if entries > MAX_MOMENT_ENTRIES:
            break
        entries = entries * (big + i) // i
    if entries > MAX_MOMENT_ENTRIES:
        name = "dimension" if dimension >= max_degree else "max_degree"
        raise InvalidParameter(f"field {name!r}: C(N + d, d) moments of d variables "
                               f"exceed {MAX_MOMENT_ENTRIES} index entries")


def _index_str(alpha: tuple) -> str:
    """A multi-index for an error detail, cut to INDEX_PREFIX entries."""
    if len(alpha) <= INDEX_PREFIX:
        return str(alpha)
    head = ", ".join(map(str, alpha[:INDEX_PREFIX]))
    return f"({head}, ... {len(alpha)} entries)"


class MomentSequence(Record):
    """Dense truncated moment map; immutable after construction.

    ``recurrences`` keeps the factorizations of
    ``hamburger.recurrence_from_moments``, one per order, ``carlemans`` the
    results of ``hamburger.carleman``, one per flavor and horizon, and
    ``integer_tables`` under "multinomial" the moment table over one
    denominator that push-forwards along directions read, built once;
    none of them is part of the value.
    """

    _fields = ("dimension", "max_degree", "mode", "entries", "support", "meta")

    def __init__(self, dimension: int, max_degree: int, mode: Mode,
                 entries: Mapping[tuple, Any], support: Support = FullSpace(),
                 meta: Mapping[str, Any] | None = None):
        if dimension < 1:
            raise InvalidParameter("dimension must be positive")
        if max_degree < 0:
            raise InvalidParameter("max_degree must be non-negative")
        converted = {}
        for alpha in multi_indices(dimension, max_degree):
            if alpha not in entries:
                raise InvalidParameter(f"missing entry for multi-index {_index_str(alpha)}")
            converted[alpha] = mode.convert(entries[alpha])
        if isinstance(mode, FloatMode):
            isfinite = mode.ctx.isfinite
            for alpha, v in converted.items():
                if not isfinite(v):
                    raise InvalidParameter(f"moment {_index_str(alpha)} is not finite: {v}")
                _, _, exp, bc = v._mpf_
                if abs(exp + bc).bit_length() > MAX_EXPONENT_BITS:
                    raise InvalidParameter(f"moment {_index_str(alpha)} is out of range: its "
                                           f"binary exponent has more than "
                                           f"{MAX_EXPONENT_BITS} bits")
        if len(entries) != len(converted):
            raise InvalidParameter("entries beyond max_degree or wrong dimension")
        # m_0 > 0 for genuine measures; m_0 = 0 is tolerated so that weighting
        # can annihilate an atomic measure, m_0 < 0 never is
        if converted[(0,) * dimension] < 0:
            raise InvalidParameter("total mass m_0 must be non-negative")
        vars(self).update(dimension=dimension, max_degree=max_degree, mode=mode,
                          entries=converted, support=support, meta=dict(meta or {}),
                          recurrences={}, carlemans={}, integer_tables={})

    def moment(self, alpha: Sequence[int]):
        """m_alpha; raises DegreeInsufficient beyond the truncation."""
        alpha = tuple(alpha)
        if len(alpha) != self.dimension:
            raise DimensionMismatch(f"index {_index_str(alpha)} has wrong dimension")
        if sum(alpha) > self.max_degree:
            raise DegreeInsufficient(
                f"|alpha|={sum(alpha)} exceeds max_degree={self.max_degree}"
            )
        return self.entries[alpha]

    def moments_1d(self) -> list:
        """[m_0, ..., m_N] for one-dimensional sequences."""
        if self.dimension != 1:
            raise DimensionMismatch("moments_1d needs a 1D sequence")
        return [self.entries[(k,)] for k in range(self.max_degree + 1)]

    def is_certified_carleman(self) -> bool:
        return bool(self.meta.get("carleman_growth_certified", False))


def sequence_from_1d(values: Sequence, mode: Mode, support: Support = None,
                     meta: Mapping[str, Any] | None = None) -> MomentSequence:
    return MomentSequence(
        dimension=1,
        max_degree=len(values) - 1,
        mode=mode,
        entries={(k,): v for k, v in enumerate(values)},
        support=support if support is not None else FullSpace(),
        meta=meta or {},
    )


def apply_linear_functional(seq: MomentSequence, p: Mapping[tuple, Any]):
    """L(p) for a polynomial given as {multi-index: coefficient}."""
    if mpoly_degree(p) > seq.max_degree:
        raise DegreeInsufficient(
            f"deg p = {mpoly_degree(p)} exceeds max_degree {seq.max_degree}"
        )
    total = seq.mode.zero()
    for alpha, c in p.items():
        if len(alpha) != seq.dimension:
            raise DimensionMismatch("polynomial dimension mismatch")
        total = total + c * seq.entries[alpha]
    return total


def apply_linear_functional_1d(seq: MomentSequence, coeffs: Sequence):
    """L(p) for a univariate polynomial given by its coefficient tuple."""
    coeffs = poly_trim(coeffs)
    return apply_linear_functional(seq, {(k,): c for k, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# measure definitions with closed-form or finitely computable moment rules


class GaussianProduct(NamedTuple):
    """Centered product Gaussian; per-axis moments m_{2k} = (2k-1)!! v**k
    via the recursion m_{2k} = (2k-1) v m_{2k-2}."""

    variances: tuple


class Exponential1D(Record):
    """Unit-rate exponential on [0, inf); m_k = k!."""

    __slots__ = ()


class LogNormal1D(NamedTuple):
    """Log-normal with shape s; m_k = exp(k^2 s^2 / 2).  Not rational."""

    s: Any


class QLattice1D(NamedTuple):
    """Geometric-lattice reference with m_k = q**(k*k), q > 1; the classical
    strongly indeterminate Stieltjes example."""

    q: Any


class Atomic(NamedTuple):
    """Finite atomic measure: points (tuples) with positive weights."""

    points: tuple
    weights: tuple


class Product(NamedTuple):
    """Independent product of lower-dimensional factors."""

    factors: tuple


class WeightedBy(NamedTuple):
    """Base measure multiplied by a polynomial weight w >= 0."""

    base: Any
    weight: Mapping[tuple, Any]


MeasureDefinition = Any


def _gaussian_1d_moments(mode: Mode, variance, N: int) -> list:
    v = mode.convert(variance)
    if not v > 0:
        raise InvalidParameter("variance must be positive")
    m = [mode.one(), mode.zero()]
    for k in range(2, N + 1):
        m.append(m[k - 2] * ((k - 1) * v) if k % 2 == 0 else mode.zero())
    return m[: N + 1]


def _product(factors):
    """The product of the factor values in order, from the first, stopping
    at a zero, which is then the product."""
    factors = iter(factors)
    val = next(factors)
    for f in factors:
        if not val:
            break
        val = val * f
    return val


def _tensor_product(seqs: Sequence[MomentSequence], max_degree: int,
                    mode: Mode) -> MomentSequence:
    """The product functional L_1 x ... x L_k to ``max_degree``: entry alpha
    is the product, in factor order, of each factor's moment at its slice
    of alpha.  On the orthant when every factor is, certified when every
    factor is (the growth class of a product is that of its worst axis)."""
    cuts = [0]
    for s in seqs:
        cuts.append(cuts[-1] + s.dimension)
    entries = {alpha: _product(s.entries[alpha[lo:hi]]
                               for s, lo, hi in zip(seqs, cuts, cuts[1:]))
               for alpha in multi_indices(cuts[-1], max_degree)}
    support = (NonnegativeOrthant()
               if all(isinstance(s.support, NonnegativeOrthant) for s in seqs)
               else FullSpace())
    certified = all(s.is_certified_carleman() for s in seqs)
    return MomentSequence(cuts[-1], max_degree, mode, entries, support,
                          meta={"carleman_growth_certified": certified})


def generate_moments(defn: MeasureDefinition, dimension: int, max_degree: int,
                     mode: Mode) -> MomentSequence:
    """Dense moment sequence of a built-in measure, by its documented rule."""
    if max_degree < 0:
        raise InvalidParameter("max_degree must be non-negative")

    if isinstance(defn, GaussianProduct):
        if len(defn.variances) != dimension:
            raise DimensionMismatch("one variance per axis required")
        per_axis = [_gaussian_1d_moments(mode, v, max_degree) for v in defn.variances]
        # entry alpha: the product of per_axis[i][alpha[i]] over the axes
        entries = {alpha: _product(map(list.__getitem__, per_axis, alpha))
                   for alpha in multi_indices(dimension, max_degree)}
        return MomentSequence(dimension, max_degree, mode, entries, FullSpace(),
                              meta={"carleman_growth_certified": True})

    if isinstance(defn, Exponential1D):
        if dimension != 1:
            raise DimensionMismatch("Exponential1D is one-dimensional")
        m, f = [], mode.one()
        for k in range(max_degree + 1):
            m.append(f)
            f = f * (k + 1)
        return sequence_from_1d(m, mode, NonnegativeOrthant(),
                                meta={"carleman_growth_certified": True})

    if isinstance(defn, LogNormal1D):
        if dimension != 1:
            raise DimensionMismatch("LogNormal1D is one-dimensional")
        if isinstance(mode, RationalMode):
            raise UnrepresentableInMode(
                "log-normal moments exp(k^2 s^2 / 2) are not rational"
            )
        s = mode.convert(defn.s)
        if not s > 0:
            raise InvalidParameter("shape s must be positive")
        ctx = mode.ctx
        m = [ctx.exp(k * k * s * s / 2) for k in range(max_degree + 1)]
        return sequence_from_1d(m, mode, NonnegativeOrthant())

    if isinstance(defn, QLattice1D):
        if dimension != 1:
            raise DimensionMismatch("QLattice1D is one-dimensional")
        q = mode.convert(defn.q)
        if not q > 1:
            raise InvalidParameter("q must exceed 1")
        m = [q ** (k * k) for k in range(max_degree + 1)]
        return sequence_from_1d(m, mode, NonnegativeOrthant())

    if isinstance(defn, Atomic):
        if not defn.points or len(defn.points) != len(defn.weights):
            raise InvalidParameter("points and weights must be non-empty and aligned")
        pts = [tuple(mode.convert(c) for c in p) for p in defn.points]
        wts = [mode.convert(w) for w in defn.weights]
        if any(len(p) != dimension for p in pts):
            raise DimensionMismatch("atom dimension mismatch")
        if any(not w > 0 for w in wts):
            raise InvalidParameter("weights must be positive")
        # each moment summed exactly over the atoms' values in the mode (a
        # float at its binary value), then rounded once: every axis over
        # the lcm Q_i of its denominators and the weights over theirs, W,
        # make each term an integer, and moment alpha is the integer sum
        # over W Q^alpha.  So equal exact sums round alike, and a symmetric
        # measure's odd moments are exactly 0.  In float mode W Q^alpha is
        # a power of two: the sum, its trailing zero bits shifted off, is
        # rounded, then shifted exactly.  Rounding num/den in one step
        # (``FloatMode._ratio``) gives the same value but made a 5-atom 3D
        # measure's float:512 moments through degree 8 about 7x slower
        if isinstance(mode, RationalMode):
            exact, moment = (lambda v: v), Fraction
        else:
            def moment(num, den):
                zeros = (num & -num).bit_length() - 1 if num else 0
                return mode.ctx.ldexp(mode.convert(num >> zeros), zeros + 1 - den.bit_length())
            exact = exact_fraction
        axes = [integers(map(exact, axis)) for axis in zip(*pts)]
        nums, den = integers(map(exact, wts))
        columns = zip(*(chain.from_iterable(power_slices(p, max_degree))
                        for p in zip(*(a for a, _ in axes))))
        dens = chain.from_iterable(power_slices([q for _, q in axes], max_degree))
        entries = {alpha: moment(sum(map(mul, nums, column)), den * q)
                   for alpha, column, q in zip(multi_indices(dimension, max_degree),
                                               columns, dens)}
        on_orthant = all(all(c >= 0 for c in p) for p in pts)
        support = NonnegativeOrthant() if on_orthant else FullSpace()
        return MomentSequence(dimension, max_degree, mode, entries, support,
                              meta={"carleman_growth_certified": True})

    if isinstance(defn, Product):
        seqs = [generate_moments(f_defn, f_dim, max_degree, mode)
                for f_defn, f_dim in defn.factors]
        if sum(s.dimension for s in seqs) != dimension:
            raise DimensionMismatch("factor dimensions must sum to the total")
        return _tensor_product(seqs, max_degree, mode)

    if isinstance(defn, WeightedBy):
        w = {tuple(a): v for a, v in defn.weight.items()}
        base = generate_moments(defn.base, dimension, max_degree + mpoly_degree(w), mode)
        return apply_polynomial_weight(base, w)

    raise InvalidParameter(f"unknown measure definition {type(defn).__name__}")


# ---------------------------------------------------------------------------
# preserver operations


def image_moments(seq: MomentSequence, forms: Sequence[Mapping[tuple, Any]],
                  max_degree: int) -> dict:
    """L(u**beta) for every |beta| <= max_degree, keyed by beta: the moments
    of the image of L under the polynomial map u = (u_1, ..., u_k), where
    ``forms[i]`` is u_i as {alpha: coefficient} in the source variables.

    In rational mode each form is written with integer numerators over one
    denominator ``den_i``, and the moments it reaches (|alpha| <= need) as
    integers over their lcm ``D``.  Push-forwards along one direction do
    not come here (``affine_map`` reads the multinomial table for them);
    the tests hold them against this loop.  Each u**beta is built in
    integers as u**(beta - e_i) * u_i along the links of
    ``polynomials.lowerings``, from the products of the previous degree,
    over ``den**beta``; only one degree's products are kept at a time.  Then
    ``L(u**beta)`` is one integer dot product over ``D * den**beta``,
    reduced once.  In float mode the forms and moments are their own values
    over 1, and the same loop runs without a division, so every product and
    sum is taken in the same order as term by term.
    """
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
    scaled = []
    for u in forms:
        nums, den = integers(u.values())
        scaled.append((dict(zip(u, nums)), den))
    reached = list(multi_indices(seq.dimension, need))
    nums, lcm = integers(seq.entries[a] for a in reached)
    moments = dict(zip(reached, nums))
    exact = isinstance(mode, RationalMode)
    k = len(forms)
    # each product with the denominator of its L value, D * den**beta
    level = [({(0,) * seq.dimension: 1}, lcm)]
    out = {(0,) * k: seq.entries[(0,) * seq.dimension]}
    for n in range(1, max_degree + 1):
        products = []
        for beta, j, i in zip(compositions(n, k), *lowerings(n, k)):
            prev, prev_den = level[j]
            form, form_den = scaled[i]
            power, den = mpoly_mul(prev, form), prev_den * form_den
            products.append((power, den))
            total = sum(c * moments[alpha] for alpha, c in power.items())
            out[beta] = Fraction(total, den) if exact else mode.convert(total)
        level = products
    return out


def _multinomial_table(seq: MomentSequence) -> tuple:
    """(weights, D), the direction-independent table of
    ``_direction_moments``, built once and kept in ``seq.integer_tables``
    under "multinomial": ``weights[n]`` holds, over the slice |alpha| = n in
    ``compositions`` order, W_alpha = (n! / alpha!) M_alpha, with M_alpha
    the moment numerators over their lcm D (the values over 1 in float
    mode)."""
    table = seq.integer_tables.get("multinomial")
    if table is None:
        nums, lcm = integers(seq.entries[a]
                             for a in multi_indices(seq.dimension, seq.max_degree))
        nums = iter(nums)
        weights = [[factorial(n) // prod(map(factorial, alpha)) * next(nums)
                    for alpha in compositions(n, seq.dimension)]
                   for n in range(seq.max_degree + 1)]
        table = seq.integer_tables["multinomial"] = weights, lcm
    return table


def _direction_moments(seq: MomentSequence, xi: Sequence) -> dict:
    """s_n = L((xi . x)**n) for n <= seq.max_degree, keyed by (n,), from the
    sequence's multinomial table: with xi = p / q in integers, s_n is
    sum_{|alpha| = n} W_alpha p**alpha over D q**n, the powers p**alpha
    from ``power_slices``, small-integer products; then one dot product and
    one Fraction per degree.  In float mode xi and the table are their
    values over 1, and the same loop runs without a division."""
    weights, den = _multinomial_table(seq)
    p, q = integers(xi)
    exact = isinstance(seq.mode, RationalMode)
    out = {}
    for n, (w, powers) in enumerate(zip(weights, power_slices(p, seq.max_degree))):
        total = sum(map(mul, w, powers))
        out[(n,)] = Fraction(total, den) if exact else seq.mode.convert(total)
        den *= q
    return out


def pushforward_direction(seq: MomentSequence, xi: Sequence) -> MomentSequence:
    """Moments of the image under x -> x . xi: s_k = L((x . xi)**k), the
    ``affine_map`` image under the one row xi, so its support hint and
    growth certificate follow that map: it lives on [0, inf) when the
    source support is a cone and xi lies in its closed dual cone, xi . g >= 0
    on every generator g, so boundary directions such as an axis of the
    orthant count.
    """
    xiv = [seq.mode.convert(c) for c in xi]
    if len(xiv) != seq.dimension:
        raise DimensionMismatch("direction dimension mismatch")
    if all(not c for c in xiv):
        raise InvalidDirection("direction must be non-zero")
    image = affine_map(seq, [xiv], [0])
    if seq.dimension == 1 and xiv[0] == 1:
        # the identity: same moments, so the same recurrences
        object.__setattr__(image, "recurrences", seq.recurrences)
    return image


def marginal(seq: MomentSequence, axes: Sequence[int]) -> MomentSequence:
    """Marginal onto the selected axes (0-based): the ``affine_map`` image
    under the rows of the identity that select them, so its support hint and
    growth certificate follow that map (the orthant projects to the
    orthant, other hints degrade to full space, the certificate survives).
    """
    axes = tuple(axes)
    if not axes:
        raise InvalidParameter("axes must be non-empty")
    if len(set(axes)) != len(axes) or any(a < 0 or a >= seq.dimension for a in axes):
        raise InvalidParameter("axes must be distinct and in range")
    rows = [[int(j == a) for j in range(seq.dimension)] for a in axes]
    return affine_map(seq, rows, [0] * len(axes))


def convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the additive convolution, L_a x L_b (p(x + y)): the
    ``affine_map`` image of the product functional under (x, y) -> x + y.

    Result degree is min of the truncations.  On the orthant when both
    inputs are; certified iff both inputs are (root growth is sub-additive
    under convolution).
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch("convolution needs equal dimensions")
    if a.mode != b.mode:
        raise ModeMismatch("convolution needs one shared mode")
    N = min(a.max_degree, b.max_degree)
    d = a.dimension
    rows = [[int(j % d == i) for j in range(2 * d)] for i in range(d)]
    return affine_map(_tensor_product([a, b], N, a.mode), rows, [0] * d)


def apply_polynomial_weight(seq: MomentSequence, w: Mapping[tuple, Any],
                            max_degree: int | None = None) -> MomentSequence:
    """Moments of the weighted measure w * mu: m'_alpha = L(x**alpha w),
    for |alpha| <= max_degree, by default all the truncation allows.

    The caller asserts w >= 0 on the support; nothing checks it.  Degree
    drops by deg w.  The growth certificate survives a degree shift.  In
    rational mode the weight's coefficients are integers over one
    denominator and the moments it reaches integers over their lcm, so each
    entry is one integer dot product and one Fraction; float mode sums
    c * m term by term, in the weight's order.
    """
    mode = seq.mode
    w = {tuple(a): mode.convert(c) for a, c in w.items() if c}
    dw = mpoly_degree(w)
    if dw < 0:
        raise InvalidParameter("weight polynomial is zero")
    N_out = seq.max_degree - dw if max_degree is None else max_degree
    if dw + N_out > seq.max_degree or N_out < 0:
        raise DegreeInsufficient("weight degree exceeds the truncation")
    shifts = [(alpha, [tuple(map(add, alpha, beta)) for beta in w])
              for alpha in multi_indices(seq.dimension, N_out)]
    if isinstance(mode, RationalMode):
        coeffs, den = integers(w.values())
        reached = list(multi_indices(seq.dimension, N_out + dw))
        nums, lcm = integers(seq.entries[a] for a in reached)
        moments = dict(zip(reached, nums))
        den *= lcm
        entries = {alpha: Fraction(sum(map(mul, coeffs, map(moments.__getitem__, keys))), den)
                   for alpha, keys in shifts}
    else:
        entries = {}
        for alpha, keys in shifts:
            total = mode.zero()
            for c, key in zip(w.values(), keys):
                total = total + c * seq.entries[key]
            entries[alpha] = total
    return MomentSequence(seq.dimension, N_out, mode, entries, seq.support,
                          meta={"carleman_growth_certified": seq.is_certified_carleman()})


def affine_map(seq: MomentSequence, matrix: Sequence[Sequence],
               offset: Sequence) -> MomentSequence:
    """Moments of the image under x -> A x + b, L((A x + b)**alpha): from
    the sequence's multinomial table (``_direction_moments``) for one row
    and b = 0, from ``image_moments`` for any other shape.  Degree is
    preserved; the certificate survives (an affine image rescales the
    growth class by constants).  The image lies on the orthant when the
    source support is a cone, every row of A pairs nonnegatively with every
    generator (lies in the closed dual cone) and b >= 0; otherwise its hint
    is the full space."""
    mode = seq.mode
    rows = [[mode.convert(c) for c in row] for row in matrix]
    b = [mode.convert(c) for c in offset]
    d_out = len(rows)
    if len(b) != d_out or any(len(r) != seq.dimension for r in rows):
        raise DimensionMismatch("matrix/offset shapes are inconsistent")
    if d_out == 1 and not b[0]:
        entries = _direction_moments(seq, rows[0])
    else:
        # linear forms (A x + b)_i as multivariate polynomials in x: the
        # unit monomials, then the constant
        keys = [tuple(int(i == j) for i in range(seq.dimension))
                for j in range(seq.dimension)] + [(0,) * seq.dimension]
        forms = [dict(zip(keys, row + [c])) for row, c in zip(rows, b)]
        entries = image_moments(seq, forms, seq.max_degree)
    on_orthant = (support_is_cone(seq.support) and all(c >= 0 for c in b)
                  and all(dual_contains(seq.support, row) for row in rows))
    support = NonnegativeOrthant() if on_orthant else FullSpace()
    return MomentSequence(d_out, seq.max_degree, seq.mode, entries, support,
                          meta={"carleman_growth_certified": seq.is_certified_carleman()})
