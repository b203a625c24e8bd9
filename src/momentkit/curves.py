"""Real polynomial curves: catalog, push-forwards, lifts, and the
bounded-evaluation indeterminateness test.

A curve here is an affine curve with a proper polynomial parametrization
``u : R -> R^d`` that is injective away from finitely many parameter values.
The finitely many parameter values where the complexified parametrization
glues points together form the ramification set G; ``weight`` is the real
polynomial with simple zeros exactly at G.  The toolkit stores only the
weight polynomial, the exact object (its coefficients are rational for every
catalog entry), not G itself; for catalog entries the gluing is verified
exactly at construction through a stored pairing involution: u_i(t) -
u_i(sigma(t)) == 0 mod weight(t).

Measures on such a curve correspond to measures on the line through the
parametrization, and one-variable determinacy machinery transfers: weighting
the lift by weight**2 makes line polynomials descend to the curve, so an
indeterminate weighted lift witnesses curve-indeterminateness, and bounded
point evaluations transfer through u.  The test, ``lift_and_test(sigma,
curve)``, reads the lift and the curve only; ``pushforward_to_curve`` gives
the curve measure's own moments where they are wanted.

Catalog ramification data for the quartic and quintic entries was derived by
eliminating one variable from the coincidence equations (u_i(t) -
u_i(s))/(t - s) = 0 (resultants), discarding the spurious diagonal factors,
and is re-verified exactly whenever a ``PolynomialCurve`` is constructed, so
on every ``catalog()`` call, along with its implicit equations.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from math import prod
from operator import mul

from .errors import (
    AtomsOnRamificationWarning,
    DegreeInsufficient,
    InvalidParameter,
    MomentKitError,
    UnknownCurve,
)
from .hamburger import (Recurrence, christoffel, monic_coefficients, recurrence_from_moments,
                        verdict_1d)
from .moments import (
    CurveSupport,
    MomentSequence,
    NonnegativeOrthant,
    apply_polynomial_weight,
    image_moments,
    sequence_from_1d,
)
from .polynomials import (
    mpoly_compose_univariates,
    poly_add,
    poly_degree,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    poly_mod,
    poly_pow,
    poly_trim,
)
from .scalars import ComplexScalar, Mode, RationalMode, Record, complex_scalar, integers
from .serialization import json_list, json_object, rationals, read_field
from .verdicts import Evidence, Flavor, Leaning, Status, Sufficiency, Verdict


class PolynomialCurve(Record):
    """Polynomial parametrization with optional implicit equations.

    ``components``: tuple of univariate coefficient tuples (None for
    implicit-only catalog entries, which parametrization-dependent
    operations reject).  ``implicit_equations``: multivariate polynomials in
    the ambient coordinates vanishing on the curve; checked exactly against
    the parametrization at construction, at integer points
    (``_vanishes_on``).  ``weight``: real polynomial with
    simple zeros exactly at the ramification parameters; ``(1,)`` when the
    parametrization is globally injective.  ``pairing``: optional involution
    sigma (as a coefficient tuple) with u(sigma(t)) = u(t) mod weight, used
    to verify non-real ramification exactly: for each component, the
    difference u_i(sigma(t)) - u_i(t), composed by
    ``mpoly_compose_univariates``, must leave no ``poly_mod`` remainder by
    the weight.
    """

    _fields = ("name", "dimension", "components", "implicit_equations", "weight", "pairing")

    def __init__(self, name: str, dimension: int, components: tuple | None,
                 implicit_equations: tuple = (), weight: tuple = (1,),
                 pairing: tuple | None = None):
        if components is not None:
            components = tuple(poly_trim(c) for c in components)
            if len(components) != dimension:
                raise InvalidParameter("one component per ambient coordinate")
            if all(poly_degree(c) < 1 for c in components):
                raise InvalidParameter("parametrization must be non-constant")
            for eq in implicit_equations:
                if not _vanishes_on(eq, components):
                    raise InvalidParameter(
                        f"implicit equation does not vanish on the curve {name}"
                    )
        w = poly_trim(weight)
        if not w:
            raise InvalidParameter("weight must be non-zero")
        vars(self).update(name=name, dimension=dimension, components=components,
                          implicit_equations=implicit_equations, weight=w, pairing=pairing)
        if components is not None:
            self._verify_ramification()

    def _verify_ramification(self):
        w = tuple(Fraction(c) for c in poly_trim(self.weight))
        if poly_degree(w) < 1:
            return
        if not poly_is_squarefree(w):
            raise InvalidParameter("weight must have simple zeros")
        if self.pairing is not None:
            for comp in self.components:
                shifted = mpoly_compose_univariates(
                    {(k,): c for k, c in enumerate(comp)}, (self.pairing,))
                if poly_mod(poly_add(shifted, tuple(-c for c in comp)), w):
                    raise InvalidParameter(
                        f"pairing does not glue the parametrization mod weight "
                        f"for curve {self.name}"
                    )

    @property
    def max_component_degree(self) -> int:
        if self.components is None:
            raise InvalidParameter(f"curve {self.name} has no stored parametrization")
        return max(poly_degree(c) for c in self.components)

    def point_at(self, mode: Mode, t) -> tuple:
        tv = mode.convert(t)
        return tuple(poly_eval(tuple(mode.convert(c) for c in comp), tv)
                     for comp in self.components)

    def point_at_complex(self, mode: Mode, t: ComplexScalar) -> tuple:
        out = []
        for comp in self.components:
            acc = ComplexScalar(mode.zero(), mode.zero())
            for c in reversed(poly_trim(comp)):
                acc = acc * t + ComplexScalar(mode.convert(c), mode.zero())
            out.append(acc)
        return tuple(out)


def _vanishes_on(eq: dict, components: tuple) -> bool:
    """Whether eq(u_1(t), ..., u_k(t)) is the zero polynomial.  Its degree
    is at most D, the largest sum_i alpha_i deg u_i over the terms, so it
    is zero iff it vanishes at the D + 1 integers t = 0, ..., D.  Each
    value is taken in integers: with u_i = P_i / q_i, the coefficients
    c_alpha over one denominator and E_i the largest exponent of x_i, the
    value times a positive integer is sum_alpha c_alpha prod_i
    P_i(t)**alpha_i q_i**(E_i - alpha_i).  An exponent past the k-th
    variable is ignored and a missing one is 0, as in
    ``mpoly_compose_univariates``."""
    k = len(components)
    exponents = [tuple(alpha[i] if i < len(alpha) else 0 for i in range(k)) for alpha in eq]
    coeffs, _ = integers(map(Fraction, eq.values()))
    scaled = [integers(map(Fraction, u)) for u in components]
    degrees = [max(poly_degree(u), 0) for u in components]
    top = [max(column, default=0) for column in zip(*exponents)]
    for t in range(max((sum(map(mul, e, degrees)) for e in exponents), default=0) + 1):
        values = [poly_eval(nums, t) for nums, _ in scaled]
        if sum(c * prod(v ** a * q ** (m - a) for v, (_, q), a, m in zip(values, scaled, e, top))
               for e, c in zip(exponents, coeffs)):
            return False
    return True


# ---------------------------------------------------------------------------
# catalog

_F = Fraction


def catalog(name: str) -> PolynomialCurve:
    """Stock curves by name: ``parabola``, ``nodal_cubic``, ``kampyle``,
    ``ramphoid_quartic``, ``lhospital_quintic``.

    The curve families with a scale parameter are stored at scale 1; a curve
    file describes any other scale.  The Kampyle entry is implicit-only: a
    polynomial parametrization exists abstractly but no polynomial one is
    stored, so parametrization-dependent operations reject it.
    """
    if name == "parabola":
        # u = (t^2, t); x - y^2 = 0; globally injective
        return PolynomialCurve(
            name="parabola", dimension=2,
            components=((0, 0, 1), (0, 1)),
            implicit_equations=({(1, 0): _F(1), (0, 2): _F(-1)},),
        )
    if name == "nodal_cubic":
        # u = (t^2 - 1, t^3 - t); y^2 - x^2 (x + 1) = 0; node at the origin,
        # glued from t = -1 and t = 1
        return PolynomialCurve(
            name="nodal_cubic", dimension=2,
            components=((-1, 0, 1), (0, -1, 0, 1)),
            implicit_equations=({(0, 2): _F(1), (3, 0): _F(-1), (2, 0): _F(-1)},),
            weight=(-1, 0, 1),                      # t^2 - 1
            pairing=(0, -1),                        # sigma(t) = -t
        )
    if name == "kampyle":
        # x^4 - x^2 - y^2 = 0; implicit-only (no stored parametrization)
        return PolynomialCurve(
            name="kampyle", dimension=2, components=None,
            implicit_equations=({(4, 0): _F(1), (2, 0): _F(-1), (0, 2): _F(-1)},),
        )
    if name == "ramphoid_quartic":
        # u = (t^4, t^2 + t^3); y^4 - 2 x y^2 - 4 x^2 y - x^3 + x^2 = 0;
        # one non-real double point, glued from the roots of t^2 + 2t + 2
        return PolynomialCurve(
            name="ramphoid_quartic", dimension=2,
            components=((0, 0, 0, 0, 1), (0, 0, 1, 1)),
            implicit_equations=({(0, 4): _F(1), (1, 2): _F(-2), (2, 1): _F(-4),
                                 (3, 0): _F(-1), (2, 0): _F(1)},),
            weight=(2, 2, 1),                       # t^2 + 2t + 2
            pairing=(-2, -1),                       # sigma(t) = -2 - t
        )
    if name == "lhospital_quintic":
        # u = ((t - t^5/5) / 2, (1 + t^2)^2 / 4);
        # 64 y^5 - (25 x^2 + 20 y^2 - 20 y + 4)^2 = 0;
        # the four roots of t^4 - 5 glue in +- pairs
        return PolynomialCurve(
            name="lhospital_quintic", dimension=2,
            components=((0, _F(1, 2), 0, 0, 0, _F(-1, 10)),
                        (_F(1, 4), 0, _F(1, 2), 0, _F(1, 4))),
            # the equation above, expanded
            implicit_equations=({(0, 5): _F(64), (4, 0): _F(-625), (2, 2): _F(-1000),
                                 (2, 1): _F(1000), (2, 0): _F(-200), (0, 4): _F(-400),
                                 (0, 3): _F(800), (0, 2): _F(-560), (0, 1): _F(160),
                                 (0, 0): _F(-16)},),
            weight=(-5, 0, 0, 0, 1),                # t^4 - 5
            pairing=(0, -1),                        # sigma(t) = -t
        )
    raise UnknownCurve(f"no catalog curve named {name!r}")


CATALOG_NAMES = ("parabola", "nodal_cubic", "kampyle", "ramphoid_quartic",
                 "lhospital_quintic")


# ---------------------------------------------------------------------------
# measures on curves


def pushforward_to_curve(sigma: MomentSequence, curve: PolynomialCurve,
                         max_degree: int) -> MomentSequence:
    """Push a 1D measure onto the curve: the moments L_sigma(u**alpha), from
    ``image_moments`` with the components as the map."""
    if sigma.dimension != 1:
        raise InvalidParameter("the lift must be one-dimensional")
    need = max_degree * curve.max_component_degree
    if need > sigma.max_degree:
        raise DegreeInsufficient(
            f"curve degree {max_degree} needs lift degree {need}"
        )
    forms = [{(k,): c for k, c in enumerate(comp)} for comp in curve.components]
    entries = image_moments(sigma, forms, max_degree)
    return MomentSequence(curve.dimension, max_degree, sigma.mode, entries,
                          CurveSupport(curve.name),
                          meta={"carleman_growth_certified": False})


def projection_bridge(sigma: MomentSequence, max_degree: int) -> MomentSequence:
    """Moments of the half-line projection m_k -> m_{2k}: the image of the
    parabola push-forward under the first-coordinate projection."""
    if sigma.dimension != 1:
        raise InvalidParameter("the lift must be one-dimensional")
    if 2 * max_degree > sigma.max_degree:
        raise DegreeInsufficient(f"degree {max_degree} needs lift degree {2 * max_degree}")
    vals = [sigma.moment((2 * k,)) for k in range(max_degree + 1)]
    return sequence_from_1d(vals, sigma.mode, NonnegativeOrthant(),
                            meta={"carleman_growth_certified":
                                  sigma.is_certified_carleman()})


def lift_and_test(sigma: MomentSequence, curve: PolynomialCurve) -> Verdict:
    """Curve indeterminateness through the weighted lift sigma, a 1D
    measure whose push-forward onto the curve is the curve measure.

    Multiplies the lift by weight**2 (a square keeps positivity), runs
    the one-variable verdict on the weighted lift, and reports the
    Christoffel value at the parameter i as the bounded-evaluation
    witness: an indeterminate weighted lift admits bounded point evaluations
    off the real line, and those bounds transfer through the parametrization
    to the complexified curve.

    Emits AtomsOnRamificationWarning when the lift is finitely atomic with
    atoms at ramification parameters (detected exactly: gcd of the rank-level
    orthogonal polynomial with the weight), in which case the lift is not
    the unique one inducing the curve moments.
    """
    if sigma.dimension != 1:
        raise InvalidParameter("the lift must be one-dimensional")
    if curve.components is None:
        raise InvalidParameter(f"curve {curve.name} has no stored parametrization")
    mode = sigma.mode
    source = None
    if poly_degree(curve.weight) >= 1:
        source = _source_recurrence(sigma)
        if isinstance(mode, RationalMode):
            _warn_on_ramified_atoms(source, curve)
    weighted = _weighted_lift(sigma, curve.weight)
    if weighted is not sigma and weighted.entries[(0,)] == 0:
        # the weight annihilated the lift: all mass sits on ramification
        # parameters, so the curve measure is finitely atomic
        ev = Evidence("weighted-lift-annihilated", weighted.max_degree,
                      sigma.mode.zero(),
                      Sufficiency.RIGOROUS_SUFFICIENT
                      if isinstance(sigma.mode, RationalMode)
                      else Sufficiency.LIMIT_RIGOROUS_NUMERIC,
                      Leaning.DETERMINATE,
                      "all lift mass is atomic on the ramification set")
        return Verdict(Status.DETERMINATE, Flavor.HAMBURGER, (ev,))
    # the weighted lift factorizes from the source recurrence (the banded
    # modified moments of weight**2), unless the source stopped at
    # its rank; the verdict and the witness share this factorization
    base = None
    if source is not None and source.rank > source.order:
        base = (source, sigma.max_degree - weighted.max_degree)
    rec = recurrence_from_moments(weighted, weighted.max_degree // 2, base)
    verdict = verdict_1d(weighted)
    alpha = complex_scalar(mode, 0, 1)
    extra = []
    try:
        top = min(rec.order, rec.rank - 1)
        rho = christoffel(rec, alpha, top)
        point = ", ".join(f"{c.to_complex():.6g}" for c in curve.point_at_complex(mode, alpha))
        detail = f"bounded-evaluation surrogate at the curve point over alpha ({point})"
        extra.append(Evidence("curve-bounded-evaluation", top, rho,
                              Sufficiency.LIMIT_RIGOROUS_NUMERIC
                              if verdict.status is Status.INDETERMINATE
                              else Sufficiency.HEURISTIC,
                              Leaning.INDETERMINATE
                              if verdict.status is Status.INDETERMINATE
                              else Leaning.NEUTRAL,
                              detail))
    except MomentKitError as exc:  # a witness that fails is skipped; any other error is a bug
        extra.append(Evidence("curve-bounded-evaluation", 0, None,
                              Sufficiency.HEURISTIC, Leaning.NEUTRAL,
                              f"skipped: {exc}"))
    return Verdict(verdict.status, verdict.flavor, verdict.evidence + tuple(extra))


def _source_recurrence(sigma: MomentSequence) -> Recurrence | None:
    """The lift's own recurrence at order N/2, or None when it has none
    (the verdict on the weighted lift reports why); any other error is a
    bug."""
    try:
        return recurrence_from_moments(sigma, sigma.max_degree // 2)
    except MomentKitError:
        return None


def _warn_on_ramified_atoms(rec: Recurrence | None, curve: PolynomialCurve) -> None:
    if rec is None or rec.rank > rec.order:
        return  # no visible degeneracy at this truncation
    # monic pi_r has the atoms as roots; shared roots with the weight mean
    # atoms sitting on the ramification parameters
    pi = monic_coefficients(rec, rec.rank)[-1]
    w = tuple(Fraction(c) for c in curve.weight)
    shared = poly_gcd(pi, w)
    if poly_degree(shared) >= 1:
        warnings.warn(
            f"lift has atoms on the ramification parameters of {curve.name}; "
            "the lift is not unique",
            AtomsOnRamificationWarning,
        )


def _weighted_lift(sigma: MomentSequence, weight: tuple) -> MomentSequence:
    """The lift times weight**2; sigma itself for a constant weight
    (a globally injective parametrization)."""
    w = tuple(sigma.mode.convert(c) for c in weight)
    if poly_degree(w) < 1:
        return sigma
    w_pow = poly_pow(w, 2)
    return apply_polynomial_weight(sigma, {(k,): c for k, c in enumerate(w_pow) if c})


# ---------------------------------------------------------------------------
# curve description files


def curve_from_json(text: str) -> PolynomialCurve:
    doc = json_object(json.loads(text), "a curve document")
    comps = read_field(doc, "components",
                       lambda cs: None if cs is None else tuple(map(rationals, json_list(cs))),
                       None)
    implicit = read_field(doc, "implicit", lambda eqs: tuple(
        {_key_parse(k): Fraction(v) for k, v in json_object(eq, "an implicit equation").items()}
        for eq in json_list(eqs)), [])
    return PolynomialCurve(
        name=read_field(doc, "name", default="custom"),
        dimension=read_field(doc, "dimension", int),
        components=comps,
        implicit_equations=implicit,
        weight=read_field(doc, "weight", rationals, ["1"]),
        pairing=read_field(doc, "pairing", lambda p: rationals(p) if p else None, None),
    )


def _key_parse(s: str) -> tuple:
    return tuple(int(p) for p in s.split(","))
