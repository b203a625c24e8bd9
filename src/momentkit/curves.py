"""Real polynomial curves: catalog, push-forwards, lifts, and the
bounded-evaluation indeterminateness test.

A curve here is an affine curve with a proper polynomial parametrization
``u : R -> R^d`` that is injective away from finitely many parameter values.
The finitely many parameter values where the complexified parametrization
glues points together form the ramification set G; ``weight`` is the real
polynomial with simple zeros exactly at G.  The toolkit stores the weight
polynomial as the exact object (its coefficients are rational for every
catalog entry) and keeps G itself as approximate complex values for display;
for catalog entries the gluing is verified exactly at construction through a
stored pairing involution: u_i(t) - u_i(sigma(t)) == 0 mod weight(t).

Measures on such a curve correspond to measures on the line through the
parametrization, and one-variable determinacy machinery transfers: weighting
the lift by weight**2 makes line polynomials descend to the curve, so an
indeterminate weighted lift witnesses curve-indeterminateness, and bounded
point evaluations transfer through u.  Catalog ramification data for the
quartic and quintic entries was derived by eliminating one variable from the
coincidence equations (u_i(t) - u_i(s))/(t - s) = 0 (resultants), discarding
the spurious diagonal factors, and is re-verified exactly at import time.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    AtomsOnRamificationWarning,
    DegreeInsufficient,
    InvalidParameter,
    UnknownCurve,
)
from .hamburger import Recurrence, christoffel, recurrence_from_moments, verdict_1d
from .moments import (
    CurveSupport,
    MomentSequence,
    NonnegativeOrthant,
    apply_polynomial_weight,
    sequence_from_1d,
)
from .polynomials import (
    mpoly_compose_univariates,
    multi_indices,
    poly_degree,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    poly_mul,
    poly_pow,
    poly_trim,
)
from .scalars import ComplexScalar, Mode, RationalMode, complex_scalar
from .verdicts import Evidence, Flavor, Leaning, Status, Sufficiency, Verdict


@dataclass(frozen=True)
class PolynomialCurve:
    """Polynomial parametrization with optional implicit equations.

    ``components``: tuple of univariate coefficient tuples (None for
    implicit-only catalog entries, which parametrization-dependent
    operations reject).  ``implicit_equations``: multivariate polynomials in
    the ambient coordinates vanishing on the curve; checked exactly against
    the parametrization at construction.  ``weight``: real polynomial with
    simple zeros exactly at the ramification parameters; ``(1,)`` when the
    parametrization is globally injective.  ``pairing``: optional involution
    sigma (as a coefficient tuple) with u(sigma(t)) = u(t) mod weight, used
    to verify non-real ramification exactly.
    """

    name: str
    dimension: int
    components: tuple | None
    implicit_equations: tuple = ()
    weight: tuple = (1,)
    ramification_approx: tuple = ()
    pairing: tuple | None = None

    def __post_init__(self):
        if self.components is not None:
            comps = tuple(poly_trim(c) for c in self.components)
            object.__setattr__(self, "components", comps)
            if len(comps) != self.dimension:
                raise InvalidParameter("one component per ambient coordinate")
            if all(poly_degree(c) < 1 for c in comps):
                raise InvalidParameter("parametrization must be non-constant")
            for eq in self.implicit_equations:
                composed = mpoly_compose_univariates(eq, comps)
                if poly_trim(composed):
                    raise InvalidParameter(
                        f"implicit equation does not vanish on the curve {self.name}"
                    )
            self._verify_ramification()
        w = poly_trim(self.weight)
        if not w:
            raise InvalidParameter("weight must be non-zero")
        object.__setattr__(self, "weight", w)

    def _verify_ramification(self):
        w = poly_trim(self.weight)
        if poly_degree(w) < 1:
            return
        if not poly_is_squarefree(tuple(Fraction(c) for c in w)):
            raise InvalidParameter("weight must have simple zeros")
        if self.pairing is not None:
            for comp in self.components:
                shifted = _compose_mod(comp, self.pairing, w)
                direct = _reduce_mod(comp, w)
                if poly_trim(tuple(a - b for a, b in
                                   _pad_pair(shifted, direct))):
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


def _pad_pair(a: tuple, b: tuple):
    n = max(len(a), len(b))
    return zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))


def _reduce_mod(p: Sequence, m: tuple) -> tuple:
    p = tuple(Fraction(c) for c in poly_trim(p))
    m = tuple(Fraction(c) for c in m)
    from .polynomials import _poly_mod

    return _poly_mod(p, m)


def _compose_mod(p: Sequence, inner: Sequence, m: tuple) -> tuple:
    """p(inner(t)) mod m(t), coefficients in exact rationals."""
    p = tuple(Fraction(c) for c in poly_trim(p))
    inner = tuple(Fraction(c) for c in poly_trim(inner))
    m = tuple(Fraction(c) for c in m)
    from .polynomials import _poly_mod, poly_add

    out: tuple = ()
    for c in reversed(p):
        out = _poly_mod(poly_add(poly_mul(out, inner), (c,)), m)
    return out


# ---------------------------------------------------------------------------
# catalog

_F = Fraction


def catalog(name: str, a=1) -> PolynomialCurve:
    """Stock curves by name: ``parabola``, ``nodal_cubic``, ``kampyle``,
    ``ramphoid_quartic``, ``lhospital_quintic``.

    The scale parameter ``a`` (rational, default 1) applies where the curve
    family has one.  The Kampyle entry is implicit-only: a polynomial
    parametrization exists abstractly but no polynomial one is stored, so
    parametrization-dependent operations reject it.
    """
    a = _F(a)
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
            ramification_approx=((-1.0, 0.0), (1.0, 0.0)),
            pairing=(0, -1),                        # sigma(t) = -t
        )
    if name == "kampyle":
        if not a > 0:
            raise InvalidParameter("kampyle needs a > 0")
        # x^4 - a^2 (x^2 + y^2) = 0; implicit-only (no stored parametrization)
        return PolynomialCurve(
            name="kampyle", dimension=2, components=None,
            implicit_equations=({(4, 0): _F(1), (2, 0): -a * a, (0, 2): -a * a},),
        )
    if name == "ramphoid_quartic":
        if not a > 0:
            raise InvalidParameter("ramphoid_quartic needs a > 0")
        # u = (a t^4, a (t^2 + t^3));
        # y^4 - 2 a x y^2 - 4 a x^2 y - a x^3 + a^2 x^2 = 0;
        # one non-real double point, glued from the roots of t^2 + 2t + 2
        return PolynomialCurve(
            name="ramphoid_quartic", dimension=2,
            components=((0, 0, 0, 0, a), (0, 0, a, a)),
            implicit_equations=({(0, 4): _F(1), (1, 2): -2 * a, (2, 1): -4 * a,
                                 (3, 0): -a, (2, 0): a * a},),
            weight=(2, 2, 1),                       # t^2 + 2t + 2
            ramification_approx=((-1.0, 1.0), (-1.0, -1.0)),
            pairing=(-2, -1),                       # sigma(t) = -2 - t
        )
    if name == "lhospital_quintic":
        if not a > 0:
            raise InvalidParameter("lhospital_quintic needs a > 0")
        # u = (a/2 (t - t^5/5), a/4 (1 + t^2)^2);
        # 64 y^5 - a (25 x^2 + 20 y^2 - 20 a y + 4 a^2)^2 = 0;
        # the four roots of t^4 - 5 glue in +- pairs
        x_comp = (0, a / 2, 0, 0, 0, -a / 10)
        y_comp = (a / 4, 0, a / 2, 0, a / 4)
        inner = {(2, 0): _F(25), (0, 2): _F(20), (0, 1): -20 * a, (0, 0): 4 * a * a}
        sq = _msquare(inner)
        implicit = {(0, 5): _F(64)}
        for k, v in sq.items():
            implicit[k] = implicit.get(k, _F(0)) - a * v
        fourth_root = 5 ** 0.25
        return PolynomialCurve(
            name="lhospital_quintic", dimension=2,
            components=(x_comp, y_comp),
            implicit_equations=(implicit,),
            weight=(-5, 0, 0, 0, 1),                # t^4 - 5
            ramification_approx=((fourth_root, 0.0), (-fourth_root, 0.0),
                                 (0.0, fourth_root), (0.0, -fourth_root)),
            pairing=(0, -1),                        # sigma(t) = -t
        )
    raise UnknownCurve(f"no catalog curve named {name!r}")


def _msquare(p: Mapping) -> dict:
    from .polynomials import mpoly_mul

    return mpoly_mul(dict(p), dict(p))


CATALOG_NAMES = ("parabola", "nodal_cubic", "kampyle", "ramphoid_quartic",
                 "lhospital_quintic")


# ---------------------------------------------------------------------------
# measures on curves


@dataclass(frozen=True)
class CurveMeasure:
    """A curve together with a 1D lift sigma and the push-forward moments:
    curve_moments[alpha] = L_sigma( prod u_i(t)**alpha_i )."""

    curve: PolynomialCurve
    lifted_1d: MomentSequence
    curve_moments: MomentSequence


def pushforward_to_curve(sigma: MomentSequence, curve: PolynomialCurve,
                         max_degree: int) -> CurveMeasure:
    """Push a 1D measure onto the curve by exact polynomial composition."""
    if sigma.dimension != 1:
        raise InvalidParameter("the lift must be one-dimensional")
    if curve.components is None:
        raise InvalidParameter(f"curve {curve.name} has no stored parametrization")
    mode = sigma.mode
    comps = [tuple(mode.convert(c) for c in comp) for comp in curve.components]
    need = max_degree * max(poly_degree(c) for c in comps)
    if need > sigma.max_degree:
        raise DegreeInsufficient(
            f"curve degree {max_degree} needs lift degree {need}"
        )
    entries = {}
    for alpha in multi_indices(curve.dimension, max_degree):
        prod: tuple = (mode.one(),)
        for comp, e in zip(comps, alpha):
            if e:
                prod = poly_mul(prod, poly_pow(comp, e))
        from .moments import apply_linear_functional_1d

        entries[alpha] = apply_linear_functional_1d(sigma, prod)
    cm = MomentSequence(curve.dimension, max_degree, mode, entries,
                        CurveSupport(curve.name),
                        meta={"carleman_growth_certified": False})
    return CurveMeasure(curve, sigma, cm)


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


def lift_and_test(cm: CurveMeasure, weight_exponent: int = 2) -> Verdict:
    """Curve indeterminateness through the weighted lift.

    Multiplies the lift by weight**weight_exponent (squares keep positivity;
    the exponent is exposed because deeper descent steps may want 4), runs
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
    if weight_exponent % 2 != 0 or weight_exponent < 2:
        raise InvalidParameter("weight exponent must be a positive even integer")
    sigma = cm.lifted_1d
    mode = sigma.mode
    curve = cm.curve
    if poly_degree(curve.weight) >= 1:
        _warn_on_ramified_atoms(sigma, curve)
    weighted = _weighted_lift(sigma, curve.weight, weight_exponent)
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
    verdict = verdict_1d(weighted)
    # the verdict's factorization also serves the evaluation witness
    rec = recurrence_from_moments(weighted, weighted.max_degree // 2)
    alpha = complex_scalar(mode, 0, 1)
    extra = []
    try:
        top = min(rec.order, rec.rank - 1)
        rho = christoffel(rec, alpha, top)
        beta = (curve.point_at_complex(mode, alpha)
                if curve.components is not None else None)
        detail = "bounded-evaluation surrogate at the curve point over alpha"
        if beta is not None:
            detail += f" ({beta[0].to_complex():.6g}, {beta[1].to_complex():.6g})"
        extra.append(Evidence("curve-bounded-evaluation", top, rho,
                              Sufficiency.LIMIT_RIGOROUS_NUMERIC
                              if verdict.status is Status.INDETERMINATE
                              else Sufficiency.HEURISTIC,
                              Leaning.INDETERMINATE
                              if verdict.status is Status.INDETERMINATE
                              else Leaning.NEUTRAL,
                              detail))
    except Exception as exc:  # evidence-only decoration must not mask the verdict
        extra.append(Evidence("curve-bounded-evaluation", 0, None,
                              Sufficiency.HEURISTIC, Leaning.NEUTRAL,
                              f"skipped: {exc}"))
    return Verdict(verdict.status, verdict.flavor, verdict.evidence + tuple(extra),
                   verdict.numeric_flagged)


def _warn_on_ramified_atoms(sigma: MomentSequence, curve: PolynomialCurve) -> None:
    if not isinstance(sigma.mode, RationalMode):
        return
    try:
        rec = recurrence_from_moments(sigma, sigma.max_degree // 2)
    except Exception:
        return
    if rec.rank > rec.order:
        return  # no visible degeneracy at this truncation
    r = rec.rank
    # monic pi_r has the atoms as roots; shared roots with the weight mean
    # atoms sitting on the ramification parameters
    pi = _monic_coeffs(rec, r)
    w = tuple(Fraction(c) for c in curve.weight)
    shared = poly_gcd(pi, w)
    if poly_degree(shared) >= 1:
        warnings.warn(
            f"lift has atoms on the ramification parameters of {curve.name}; "
            "the lift is not unique",
            AtomsOnRamificationWarning,
        )


def _monic_coeffs(rec: Recurrence, r: int) -> tuple:
    prev: tuple = (Fraction(1),)
    if r == 0:
        return prev
    cur: tuple = (-Fraction(rec.alpha[0]), Fraction(1))
    for k in range(1, r):
        nxt = poly_mul((-Fraction(rec.alpha[k]), Fraction(1)), cur)
        nxt = tuple(a - b for a, b in _pad_pair(
            nxt, tuple(Fraction(rec.beta[k]) * c for c in prev)))
        prev, cur = cur, poly_trim(nxt)
    return cur


def christoffel_on_curve(cm: CurveMeasure, alpha: ComplexScalar, n: int,
                         weight_exponent: int = 2):
    """Christoffel value of the weight**exponent-weighted lift at alpha,
    the curve-side evaluation-bound surrogate at the point u(alpha)."""
    weighted = _weighted_lift(cm.lifted_1d, cm.curve.weight, weight_exponent)
    if 2 * n > weighted.max_degree:
        raise DegreeInsufficient(f"level {n} needs weighted degree {2 * n}")
    rec = recurrence_from_moments(weighted, max(n, 1))
    return christoffel(rec, alpha, min(n, rec.rank - 1))


def _weighted_lift(sigma: MomentSequence, weight: tuple,
                   exponent: int) -> MomentSequence:
    """The lift times weight**exponent; sigma itself for a constant weight
    (a globally injective parametrization)."""
    w = tuple(sigma.mode.convert(c) for c in weight)
    if poly_degree(w) < 1:
        return sigma
    w_pow = poly_pow(w, exponent)
    return apply_polynomial_weight(sigma, {(k,): c for k, c in enumerate(w_pow) if c})


# ---------------------------------------------------------------------------
# curve description files


def curve_to_json(curve: PolynomialCurve) -> str:
    doc = {
        "name": curve.name,
        "dimension": curve.dimension,
        "components": ([[_frac_str(c) for c in comp] for comp in curve.components]
                       if curve.components is not None else None),
        "implicit": [{_key_str(k): _frac_str(v) for k, v in eq.items()}
                     for eq in curve.implicit_equations],
        "ramification": [[re, im] for re, im in curve.ramification_approx],
        "weight": [_frac_str(c) for c in curve.weight],
        "pairing": ([_frac_str(c) for c in curve.pairing]
                    if curve.pairing is not None else None),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def curve_from_json(text: str) -> PolynomialCurve:
    doc = json.loads(text)
    comps = (tuple(tuple(Fraction(c) for c in comp) for comp in doc["components"])
             if doc.get("components") is not None else None)
    implicit = tuple(
        {_key_parse(k): Fraction(v) for k, v in eq.items()}
        for eq in doc.get("implicit", [])
    )
    return PolynomialCurve(
        name=doc.get("name", "custom"),
        dimension=int(doc["dimension"]),
        components=comps,
        implicit_equations=implicit,
        weight=tuple(Fraction(c) for c in doc.get("weight", ["1"])),
        ramification_approx=tuple((float(re), float(im))
                                  for re, im in doc.get("ramification", [])),
        pairing=(tuple(Fraction(c) for c in doc["pairing"])
                 if doc.get("pairing") else None),
    )


def _frac_str(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _key_str(alpha: tuple) -> str:
    return ",".join(str(e) for e in alpha)


def _key_parse(s: str) -> tuple:
    return tuple(int(p) for p in s.split(","))
