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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import (
    DegreeInsufficient,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    ModeMismatch,
    NegativeWeightDetected,
    UnrepresentableInMode,
)
from .polynomials import (
    binomial,
    compositions,
    monomial,
    mpoly_constant,
    mpoly_degree,
    mpoly_mul,
    mpoly_pow,
    mpoly_eval,
    multi_indices,
    multinomial,
    poly_trim,
)
from .scalars import FloatMode, Mode, RationalMode

# ---------------------------------------------------------------------------
# support hints


@dataclass(frozen=True)
class FullSpace:
    kind = "full_space"


@dataclass(frozen=True)
class NonnegativeOrthant:
    kind = "nonnegative_orthant"


@dataclass(frozen=True)
class ConeSupport:
    """Finitely generated cone; ``generators`` are the extreme rays (rows)."""

    generators: tuple
    kind = "cone"


@dataclass(frozen=True)
class CurveSupport:
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
    if isinstance(s, NonnegativeOrthant):
        gens = [tuple(1 if j == i else 0 for j in range(len(xi))) for i in range(len(xi))]
    elif isinstance(s, ConeSupport):
        gens = s.generators
    else:
        return False
    for g in gens:
        if sum(gi * xj for gi, xj in zip(g, xi)) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# moment sequences


@dataclass(frozen=True)
class MomentSequence:
    """Dense truncated moment map; immutable after construction.

    ``recurrences`` keeps the factorizations of
    ``hamburger.recurrence_from_moments``, one per order; it is not part of
    the value.
    """

    dimension: int
    max_degree: int
    mode: Mode
    entries: Mapping[tuple, Any]
    support: Support = field(default_factory=FullSpace)
    meta: Mapping[str, Any] = field(default_factory=dict)
    recurrences: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameter("dimension must be positive")
        if self.max_degree < 0:
            raise InvalidParameter("max_degree must be non-negative")
        converted = {}
        for alpha in multi_indices(self.dimension, self.max_degree):
            if alpha not in self.entries:
                raise InvalidParameter(f"missing entry for multi-index {alpha}")
            converted[alpha] = self.mode.convert(self.entries[alpha])
        if isinstance(self.mode, FloatMode):
            isfinite = self.mode.ctx.isfinite
            for alpha, v in converted.items():
                if not isfinite(v):
                    raise InvalidParameter(f"moment {alpha} is not finite: {v}")
        if len(self.entries) != len(converted):
            raise InvalidParameter("entries beyond max_degree or wrong dimension")
        # m_0 > 0 for genuine measures; m_0 = 0 is tolerated so that weighting
        # can annihilate an atomic measure, m_0 < 0 never is
        if converted[(0,) * self.dimension] < 0:
            raise InvalidParameter("total mass m_0 must be non-negative")
        object.__setattr__(self, "entries", converted)
        object.__setattr__(self, "meta", dict(self.meta))

    def moment(self, alpha: Sequence[int]):
        """m_alpha; raises DegreeInsufficient beyond the truncation."""
        alpha = tuple(alpha)
        if len(alpha) != self.dimension:
            raise DimensionMismatch(f"index {alpha} has wrong dimension")
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


@dataclass(frozen=True)
class GaussianProduct:
    """Centered product Gaussian; per-axis moments m_{2k} = (2k-1)!! v**k
    via the recursion m_{2k} = (2k-1) v m_{2k-2}."""

    variances: tuple


@dataclass(frozen=True)
class Exponential1D:
    """Unit-rate exponential on [0, inf); m_k = k!."""


@dataclass(frozen=True)
class LogNormal1D:
    """Log-normal with shape s; m_k = exp(k^2 s^2 / 2).  Not rational."""

    s: Any


@dataclass(frozen=True)
class QLattice1D:
    """Geometric-lattice reference with m_k = q**(k*k), q > 1; the classical
    strongly indeterminate Stieltjes example."""

    q: Any


@dataclass(frozen=True)
class Atomic:
    """Finite atomic measure: points (tuples) with positive weights."""

    points: tuple
    weights: tuple


@dataclass(frozen=True)
class Product:
    """Independent product of lower-dimensional factors."""

    factors: tuple


@dataclass(frozen=True)
class WeightedBy:
    """Base measure multiplied by a polynomial weight w >= 0."""

    base: Any
    weight: Mapping[tuple, Any]


@dataclass(frozen=True)
class CurvePushforward:
    """Image of a 1D base measure under a polynomial curve parametrization."""

    base_1d: Any
    curve: Any


MeasureDefinition = Any


def _gaussian_1d_moments(mode: Mode, variance, N: int) -> list:
    v = mode.convert(variance)
    if not v > 0:
        raise InvalidParameter("variance must be positive")
    m = [mode.one(), mode.zero()]
    for k in range(2, N + 1):
        m.append(m[k - 2] * ((k - 1) * v) if k % 2 == 0 else mode.zero())
    return m[: N + 1]


def generate_moments(defn: MeasureDefinition, dimension: int, max_degree: int,
                     mode: Mode) -> MomentSequence:
    """Dense moment sequence of a built-in measure, by its documented rule."""
    if max_degree < 0:
        raise InvalidParameter("max_degree must be non-negative")

    if isinstance(defn, GaussianProduct):
        if len(defn.variances) != dimension:
            raise DimensionMismatch("one variance per axis required")
        per_axis = [_gaussian_1d_moments(mode, v, max_degree) for v in defn.variances]
        entries = {}
        for alpha in multi_indices(dimension, max_degree):
            val = mode.one()
            for axis, e in enumerate(alpha):
                val = val * per_axis[axis][e]
            entries[alpha] = val
        return MomentSequence(dimension, max_degree, mode, entries, FullSpace(),
                              meta={"carleman_growth_certified": True,
                                    "description": "gaussian_product"})

    if isinstance(defn, Exponential1D):
        if dimension != 1:
            raise DimensionMismatch("Exponential1D is one-dimensional")
        m, f = [], mode.one()
        for k in range(max_degree + 1):
            m.append(f)
            f = f * (k + 1)
        return sequence_from_1d(m, mode, NonnegativeOrthant(),
                                meta={"carleman_growth_certified": True,
                                      "description": "exponential"})

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
        return sequence_from_1d(m, mode, NonnegativeOrthant(),
                                meta={"description": "log_normal"})

    if isinstance(defn, QLattice1D):
        if dimension != 1:
            raise DimensionMismatch("QLattice1D is one-dimensional")
        q = mode.convert(defn.q)
        if not q > 1:
            raise InvalidParameter("q must exceed 1")
        m = [q ** (k * k) for k in range(max_degree + 1)]
        return sequence_from_1d(m, mode, NonnegativeOrthant(),
                                meta={"description": "q_lattice"})

    if isinstance(defn, Atomic):
        if not defn.points or len(defn.points) != len(defn.weights):
            raise InvalidParameter("points and weights must be non-empty and aligned")
        pts = [tuple(mode.convert(c) for c in p) for p in defn.points]
        wts = [mode.convert(w) for w in defn.weights]
        if any(len(p) != dimension for p in pts):
            raise DimensionMismatch("atom dimension mismatch")
        if any(not w > 0 for w in wts):
            raise InvalidParameter("weights must be positive")
        entries = {}
        for alpha in multi_indices(dimension, max_degree):
            total = mode.zero()
            for p, w in zip(pts, wts):
                total = total + w * monomial(p, alpha)
            entries[alpha] = total
        on_orthant = all(all(c >= 0 for c in p) for p in pts)
        support = NonnegativeOrthant() if on_orthant else FullSpace()
        return MomentSequence(dimension, max_degree, mode, entries, support,
                              meta={"carleman_growth_certified": True,
                                    "description": "atomic"})

    if isinstance(defn, Product):
        dims, seqs = [], []
        for f_defn, f_dim in defn.factors:
            seqs.append(generate_moments(f_defn, f_dim, max_degree, mode))
            dims.append(f_dim)
        if sum(dims) != dimension:
            raise DimensionMismatch("factor dimensions must sum to the total")
        entries = {}
        for alpha in multi_indices(dimension, max_degree):
            val, pos = mode.one(), 0
            for s, dim in zip(seqs, dims):
                val = val * s.entries[tuple(alpha[pos:pos + dim])]
                pos += dim
            entries[alpha] = val
        support = (NonnegativeOrthant()
                   if all(isinstance(s.support, NonnegativeOrthant) for s in seqs)
                   else FullSpace())
        certified = all(s.is_certified_carleman() for s in seqs)
        return MomentSequence(dimension, max_degree, mode, entries, support,
                              meta={"carleman_growth_certified": certified,
                                    "description": "product"})

    if isinstance(defn, WeightedBy):
        w = {tuple(a): v for a, v in defn.weight.items()}
        base = generate_moments(defn.base, dimension, max_degree + mpoly_degree(w), mode)
        return apply_polynomial_weight(base, w)

    if isinstance(defn, CurvePushforward):
        from .curves import pushforward_to_curve  # cycle kept local

        if defn.curve.dimension != dimension:
            raise DimensionMismatch("curve dimension mismatch")
        max_comp_deg = max(len(poly_trim(u)) - 1 for u in defn.curve.components)
        base = generate_moments(defn.base_1d, 1, max_degree * max_comp_deg, mode)
        return pushforward_to_curve(base, defn.curve, max_degree).curve_moments

    raise InvalidParameter(f"unknown measure definition {type(defn).__name__}")


# ---------------------------------------------------------------------------
# preserver operations


def pushforward_direction(seq: MomentSequence, xi: Sequence) -> MomentSequence:
    """Moments of the image under x -> x . xi:
    s_k = sum_{|alpha|=k} multinomial(k; alpha) xi**alpha m_alpha.

    The result lives on [0, inf) when the source support is a cone and xi is
    strictly interior to its dual (checked on generators).  Carleman growth
    certification survives: the directional even moments are dominated by a
    fixed multiple of the axis moments, which preserves the O(k) root-growth
    class.
    """
    xiv = [seq.mode.convert(c) for c in xi]
    if len(xiv) != seq.dimension:
        raise DimensionMismatch("direction dimension mismatch")
    if all(not c for c in xiv):
        raise InvalidDirection("direction must be non-zero")
    out = []
    for k in range(seq.max_degree + 1):
        total = seq.mode.zero()
        for alpha in compositions(k, seq.dimension):
            total = total + seq.entries[alpha] * multinomial(k, alpha) * monomial(xiv, alpha)
        out.append(total)
    stieltjes = support_is_cone(seq.support) and dual_interior_contains(seq.support, xiv)
    support = NonnegativeOrthant() if stieltjes else FullSpace()
    meta = {"carleman_growth_certified": seq.is_certified_carleman()}
    return sequence_from_1d(out, seq.mode, support, meta)


def marginal(seq: MomentSequence, axes: Sequence[int]) -> MomentSequence:
    """Marginal onto the selected axes (0-based): zeros inserted elsewhere.

    Orthant support projects to the orthant; other hints degrade to full
    space.  The growth certificate survives (marginal moments are a subset).
    """
    axes = tuple(axes)
    if not axes:
        raise InvalidParameter("axes must be non-empty")
    if len(set(axes)) != len(axes) or any(a < 0 or a >= seq.dimension for a in axes):
        raise InvalidParameter("axes must be distinct and in range")
    d_out = len(axes)
    entries = {}
    for beta in multi_indices(d_out, seq.max_degree):
        alpha = [0] * seq.dimension
        for pos, axis in enumerate(axes):
            alpha[axis] = beta[pos]
        entries[beta] = seq.entries[tuple(alpha)]
    support = NonnegativeOrthant() if isinstance(seq.support, NonnegativeOrthant) else FullSpace()
    return MomentSequence(d_out, seq.max_degree, seq.mode, entries, support,
                          meta={"carleman_growth_certified": seq.is_certified_carleman()})


def convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the additive convolution:
    m_gamma = sum_{beta <= gamma} C(gamma, beta) m_beta(a) m_{gamma-beta}(b),
    the moment expansion of integrating p(x + y).

    Result degree is min of the truncations.  Certified iff both inputs are
    (root growth is sub-additive under convolution).
    """
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
                coeff *= binomial(g, bb)
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
    if len(gamma) == 1:
        for i in range(gamma[0] + 1):
            yield (i,)
        return
    for head in range(gamma[0] + 1):
        for rest in _boxed_indices(gamma[1:]):
            yield (head,) + rest


def apply_polynomial_weight(seq: MomentSequence, w: Mapping[tuple, Any],
                            check_nonneg: bool = False,
                            check_grid: Sequence | None = None) -> MomentSequence:
    """Moments of the weighted measure w * mu: m'_alpha = L(x**alpha w).

    The caller asserts w >= 0 on the support; with ``check_nonneg`` the
    assertion is spot-checked on a grid (default grid from the support hint)
    and a violation raises NegativeWeightDetected.  Degree drops by deg w.
    The growth certificate survives a degree shift.
    """
    w = {tuple(a): seq.mode.convert(c) for a, c in w.items() if c}
    dw = mpoly_degree(w)
    if dw < 0:
        raise InvalidParameter("weight polynomial is zero")
    if dw > seq.max_degree:
        raise DegreeInsufficient("weight degree exceeds the truncation")
    if check_nonneg:
        grid = check_grid if check_grid is not None else _weight_check_grid(seq)
        for point in grid:
            pt = tuple(seq.mode.convert(x) for x in point)
            if seq.mode.to_float(mpoly_eval(w, pt)) < 0:
                raise NegativeWeightDetected(f"w < 0 at grid point {point}")
    N_out = seq.max_degree - dw
    entries = {}
    for alpha in multi_indices(seq.dimension, N_out):
        total = seq.mode.zero()
        for beta, c in w.items():
            total = total + c * seq.entries[tuple(x + y for x, y in zip(alpha, beta))]
        entries[alpha] = total
    return MomentSequence(seq.dimension, N_out, seq.mode, entries, seq.support,
                          meta={"carleman_growth_certified": seq.is_certified_carleman()})


def _weight_check_grid(seq: MomentSequence) -> list:
    one_d = ([Fraction(j, 4) for j in range(0, 65)]
             if isinstance(seq.support, NonnegativeOrthant)
             else [Fraction(j, 4) for j in range(-32, 33)])
    if seq.dimension == 1:
        return [(x,) for x in one_d]
    coarse = one_d[:: max(1, len(one_d) // 9)]
    grid = [()]
    for _ in range(seq.dimension):
        grid = [g + (x,) for g in grid for x in coarse]
    return grid


def affine_map(seq: MomentSequence, matrix: Sequence[Sequence], offset: Sequence,
               out_degree: int | None = None) -> MomentSequence:
    """Moments of the image under x -> A x + b, by polynomial expansion of
    (A x + b)**alpha.  Degree is preserved; the certificate survives (an
    affine image rescales the growth class by constants)."""
    N = seq.max_degree if out_degree is None else out_degree
    if N > seq.max_degree:
        raise DegreeInsufficient("requested output degree exceeds the truncation")
    mode = seq.mode
    rows = [[mode.convert(c) for c in row] for row in matrix]
    b = [mode.convert(c) for c in offset]
    d_out = len(rows)
    if len(b) != d_out or any(len(r) != seq.dimension for r in rows):
        raise DimensionMismatch("matrix/offset shapes are inconsistent")
    # linear forms (A x + b)_i as multivariate polynomials in x
    forms = []
    for i in range(d_out):
        form = {}
        for j, c in enumerate(rows[i]):
            if c:
                form[tuple(1 if jj == j else 0 for jj in range(seq.dimension))] = c
        if b[i]:
            form[(0,) * seq.dimension] = b[i]
        forms.append(form)
    entries = {}
    for alpha in multi_indices(d_out, N):
        p = mpoly_constant(mode.one(), seq.dimension)
        for i, e in enumerate(alpha):
            if e:
                p = mpoly_mul(p, mpoly_pow(forms[i], e, seq.dimension))
        entries[alpha] = apply_linear_functional(seq, p)
    keeps_orthant = (isinstance(seq.support, NonnegativeOrthant)
                     and all(c >= 0 for row in rows for c in row)
                     and all(c >= 0 for c in b))
    support = NonnegativeOrthant() if keeps_orthant else FullSpace()
    return MomentSequence(d_out, N, seq.mode, entries, support,
                          meta={"carleman_growth_certified": seq.is_certified_carleman()})
