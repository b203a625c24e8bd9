import json
import random
import warnings
from fractions import Fraction as F

import pytest

from momentkit.curves import (
    CATALOG_NAMES,
    PolynomialCurve,
    catalog,
    curve_from_json,
    lift_and_test,
    projection_bridge,
    pushforward_to_curve,
)
from momentkit import curves
from momentkit.errors import (
    AtomsOnRamificationWarning,
    DegreeInsufficient,
    InvalidParameter,
    NotAdmissible,
    UnknownCurve,
)
from momentkit.hamburger import christoffel, recurrence_from_moments
from momentkit.moments import (
    Atomic,
    GaussianProduct,
    QLattice1D,
    apply_linear_functional,
    apply_polynomial_weight,
    generate_moments,
    marginal,
)
from momentkit.polynomials import (
    mpoly_compose_univariates,
    multi_indices,
    poly_trim,
)
from momentkit.scalars import RationalMode, complex_scalar
from momentkit.verdicts import Status
from oracles import christoffel_direct, christoffel_on_curve

R = RationalMode()


def gauss(n):
    return generate_moments(GaussianProduct((1,)), 1, n, R)


def qlattice(n):
    return generate_moments(QLattice1D(2), 1, n, R)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_implicit_identities_hold_exactly():
    # construction re-checks them; also assert directly
    for name in CATALOG_NAMES:
        curve = catalog(name)
        if curve.components is None:
            continue
        for eq in curve.implicit_equations:
            assert poly_trim(mpoly_compose_univariates(eq, curve.components)) == ()


def test_catalog_parabola_and_cubic_forms():
    par = catalog("parabola")
    assert par.components == ((0, 0, 1), (0, 1))
    assert par.weight == (1,)
    cubic = catalog("nodal_cubic")
    assert cubic.weight == (-1, 0, 1)


def test_catalog_ramification_weights():
    assert catalog("ramphoid_quartic").weight == (2, 2, 1)   # t^2 + 2t + 2
    assert catalog("lhospital_quintic").weight == (-5, 0, 0, 0, 1)  # t^4 - 5


def test_kampyle_is_implicit_only():
    k = catalog("kampyle")
    assert k.components is None
    with pytest.raises(InvalidParameter):
        pushforward_to_curve(gauss(8), k, 2)
    with pytest.raises(InvalidParameter, match="no stored parametrization"):
        lift_and_test(gauss(8), k)


def test_unknown_curve():
    with pytest.raises(UnknownCurve):
        catalog("lemniscate")


def test_bad_curve_rejected():
    with pytest.raises(InvalidParameter):
        PolynomialCurve("broken", 2, ((0, 1), (0, 1)),
                        implicit_equations=({(1, 0): F(1), (0, 1): F(1)},))


def test_pairing_verification_rejects_wrong_weight():
    with pytest.raises(InvalidParameter):
        PolynomialCurve("wrong", 2, ((-1, 0, 1), (0, -1, 0, 1)),
                        weight=(-4, 0, 1),  # t^2 - 4: not the gluing locus
                        pairing=(0, -1))


# ---------------------------------------------------------------------------
# push-forward and functoriality


def test_parabola_pushforward_gaussian():
    cm = pushforward_to_curve(gauss(40), catalog("parabola"), 10)
    assert cm.moment((1, 0)) == 1   # L(t^2)
    assert cm.moment((0, 1)) == 0
    assert cm.moment((2, 1)) == 0   # odd in t


def test_nodal_cubic_pushforward_gaussian():
    cm = pushforward_to_curve(gauss(40), catalog("nodal_cubic"), 8)
    assert cm.moment((1, 0)) == 0   # L(t^2 - 1) = 0


def test_dirac_lift_gives_point_monomials():
    t0 = F(2, 3)
    sigma = generate_moments(Atomic(((t0,),), (1,)), 1, 40, R)
    for name in ("parabola", "nodal_cubic", "ramphoid_quartic"):
        curve = catalog(name)
        cm = pushforward_to_curve(sigma, curve, 6)
        point = curve.point_at(R, t0)
        for alpha in multi_indices(2, 6):
            expect = point[0] ** alpha[0] * point[1] ** alpha[1]
            assert cm.moment(alpha) == expect


def test_functoriality_random_polynomials():
    rng = random.Random(41)
    sigma = qlattice(40)
    curve = catalog("nodal_cubic")
    cm = pushforward_to_curve(sigma, curve, 8)
    from momentkit.moments import apply_linear_functional_1d

    for _ in range(10):
        f = {}
        for alpha in multi_indices(2, 4):
            if rng.random() < 0.4:
                f[alpha] = F(rng.randint(-5, 5), rng.randint(1, 3))
        if not f:
            continue
        lhs = apply_linear_functional(cm, f)
        composed = mpoly_compose_univariates(f, curve.components)
        rhs = apply_linear_functional_1d(sigma, composed)
        assert lhs == rhs


def test_degree_guard():
    with pytest.raises(DegreeInsufficient):
        pushforward_to_curve(gauss(8), catalog("parabola"), 8)


# ---------------------------------------------------------------------------
# the parabola projection bridge


def test_bridge_extracts_even_moments():
    sigma = gauss(20)
    out = projection_bridge(sigma, 10)
    dd = [F(1)]
    for k in range(1, 11):
        dd.append(dd[-1] * (2 * k - 1))
    assert out.moments_1d() == dd  # (2k-1)!!


def test_bridge_symmetric_two_atoms_is_dirac():
    sigma = generate_moments(Atomic(((-1,), (1,)), (F(1, 2), F(1, 2))), 1, 20, R)
    out = projection_bridge(sigma, 10)
    assert out.moments_1d() == [1] * 11


def test_bridge_qlattice_reindex():
    sigma = qlattice(20)
    out = projection_bridge(sigma, 10)
    assert out.moments_1d() == [F(2) ** (4 * k * k) for k in range(11)]


def test_bridge_is_parabola_marginal():
    sigma = qlattice(20)
    cm = pushforward_to_curve(sigma, catalog("parabola"), 10)
    assert projection_bridge(sigma, 10).moments_1d() == \
        marginal(cm, (0,)).moments_1d()


# ---------------------------------------------------------------------------
# weight descent identity


def test_nodal_cubic_weight_descends_to_curve():
    # w^2 = (t^2-1)^2 equals x^2 composed with the parametrization
    curve = catalog("nodal_cubic")
    w2 = (1, 0, -2, 0, 1)
    descended = mpoly_compose_univariates({(2, 0): F(1)}, curve.components)
    assert poly_trim(descended) == poly_trim(w2)
    # so weighting the lift by w^2 equals weighting curve moments by x^2
    sigma = qlattice(44)
    cm = pushforward_to_curve(sigma, curve, 10)
    weighted_lift = apply_polynomial_weight(sigma, {(0,): F(1), (2,): F(-2), (4,): F(1)})
    lifted_again = pushforward_to_curve(weighted_lift, curve, 8)
    from momentkit.moments import apply_linear_functional

    for alpha in multi_indices(2, 8):
        on_curve = apply_linear_functional(
            cm, {(alpha[0] + 2, alpha[1]): F(1)})
        assert lifted_again.moment(alpha) == on_curve


# ---------------------------------------------------------------------------
# lift-and-test


def test_parabola_transfers_qlattice_indeterminacy():
    v = lift_and_test(qlattice(60), catalog("parabola"))
    assert v.status is Status.INDETERMINATE
    assert v.numeric_flagged
    assert any(e.criterion == "curve-bounded-evaluation" for e in v.evidence)


def test_bounded_evaluation_names_every_coordinate_of_the_curve_point():
    """The witness names u(i) in every ambient coordinate, for a curve of
    one or of three coordinates as for the plane catalog curves."""
    for curve, point in ((PolynomialCurve("line", 1, ((0, 1),)), "(0+1j)"),
                         (PolynomialCurve("twisted", 3, ((0, 1), (0, 0, 1), (0, 0, 0, 1))),
                          "(0+1j, -1+0j, 0-1j)"),
                         (catalog("parabola"), "(-1+0j, 0+1j)")):
        item = lift_and_test(gauss(20), curve).evidence[-1]
        assert item.criterion == "curve-bounded-evaluation"
        assert item.detail == f"bounded-evaluation surrogate at the curve point over alpha {point}"


def test_lift_factorizes_the_weighted_lift_once(monkeypatch):
    """One factorization per sequence: the lift's own, which is the
    weighted lift for a constant weight; for a ramified curve the weighted
    lift takes the base path (the source recurrence and the band of the
    weight**2), so a silent fall back to plain rows fails here."""
    from momentkit import hamburger

    calls = []
    real = hamburger._factorize
    monkeypatch.setattr(hamburger, "_factorize",
                        lambda seq, n, base=None: calls.append((n, base is not None))
                        or real(seq, n, base))
    lift_and_test(gauss(40), catalog("parabola"))
    assert calls == [(20, False)]
    calls.clear()
    lift_and_test(qlattice(60), catalog("lhospital_quintic"))
    assert calls == [(30, False), (26, True)]


def test_parabola_transfers_gaussian_determinacy():
    v = lift_and_test(gauss(80), catalog("parabola"))
    assert v.status is Status.DETERMINATE


def test_nodal_cubic_dirac_off_ramification():
    sigma = generate_moments(Atomic(((0,),), (1,)), 1, 30, R)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        v = lift_and_test(sigma, catalog("nodal_cubic"))
    assert v.status is Status.DETERMINATE
    assert not [w for w in wlist if issubclass(w.category, AtomsOnRamificationWarning)]


def test_nodal_cubic_atom_on_ramification_warns():
    sigma = generate_moments(Atomic(((1,), (3,)), (F(1, 2), F(1, 2))), 1, 30, R)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        v = lift_and_test(sigma, catalog("nodal_cubic"))
    assert [w for w in wlist if issubclass(w.category, AtomsOnRamificationWarning)]
    assert v.status is Status.DETERMINATE


def test_ramified_atom_check_lets_a_kernel_bug_through(monkeypatch):
    """The ramified-atom check skips only on a MomentKitError of the lift's
    recurrence: a bug (here a TypeError) propagates instead of silently
    dropping the warning, which fires again once the kernel works."""
    sigma = generate_moments(Atomic(((1,), (3,)), (F(1, 2), F(1, 2))), 1, 30, R)
    real = curves.recurrence_from_moments

    def failing_on_the_lift(exc):
        def recurrence(seq, n, base=None):
            if seq is sigma:
                raise exc
            return real(seq, n, base)
        return recurrence

    monkeypatch.setattr(curves, "recurrence_from_moments",
                        failing_on_the_lift(NotAdmissible("no measure")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lift_and_test(sigma, catalog("nodal_cubic")).status is Status.DETERMINATE
    monkeypatch.setattr(curves, "recurrence_from_moments",
                        failing_on_the_lift(TypeError("kernel bug")))
    with pytest.raises(TypeError, match="kernel bug"):
        lift_and_test(sigma, catalog("nodal_cubic"))
    monkeypatch.undo()
    with pytest.warns(AtomsOnRamificationWarning):
        lift_and_test(sigma, catalog("nodal_cubic"))


def test_bounded_evaluation_witness_lets_a_kernel_bug_through(monkeypatch):
    """The curve-bounded-evaluation witness is skipped only on a
    MomentKitError: a bug in the kernel (here a TypeError) propagates
    instead of turning into a "skipped" item next to the verdict."""
    sigma = generate_moments(Atomic(((2,), (3,)), (F(1, 2), F(1, 2))), 1, 30, R)

    def failing(exc):
        def christoffel(rec, z, n):
            raise exc
        return christoffel

    monkeypatch.setattr(curves, "christoffel", failing(DegreeInsufficient("too short")))
    item = lift_and_test(sigma, catalog("nodal_cubic")).evidence[-1]
    assert item.criterion == "curve-bounded-evaluation"
    assert item.detail == "skipped: too short"
    monkeypatch.setattr(curves, "christoffel", failing(TypeError("kernel bug")))
    with pytest.raises(TypeError, match="kernel bug"):
        lift_and_test(sigma, catalog("nodal_cubic"))


# ---------------------------------------------------------------------------
# christoffel on curves


def test_curve_christoffel_level_zero_is_mass():
    z = complex_scalar(R, 0, 1)
    assert christoffel_on_curve(qlattice(40), catalog("parabola"), z, 0) == 1


def test_parabola_curve_christoffel_equals_plain():
    sigma = qlattice(40)
    z = complex_scalar(R, 0, 1)
    rec = recurrence_from_moments(sigma, 10)
    assert christoffel_on_curve(sigma, catalog("parabola"), z, 10) == christoffel(rec, z, 10)


def test_nodal_curve_christoffel_against_gram_oracle():
    sigma = qlattice(44)
    z = complex_scalar(R, 0, 1)
    weighted = apply_polynomial_weight(sigma, {(0,): F(1), (2,): F(-2), (4,): F(1)})
    for n in (4, 8):
        assert (christoffel_on_curve(sigma, catalog("nodal_cubic"), z, n)
                == christoffel_direct(weighted, z, n))


# ---------------------------------------------------------------------------
# files


def _curve_document(curve) -> str:
    """A curve file describing ``curve``: values as "p/q" strings, monomial
    keys as comma-joined exponents."""
    return json.dumps({
        "name": curve.name,
        "dimension": curve.dimension,
        "components": (None if curve.components is None
                       else [[str(F(c)) for c in comp] for comp in curve.components]),
        "implicit": [{",".join(map(str, k)): str(v) for k, v in eq.items()}
                     for eq in curve.implicit_equations],
        "weight": [str(F(c)) for c in curve.weight],
        "pairing": None if curve.pairing is None else [str(F(c)) for c in curve.pairing],
    })


def test_curve_json_round_trip():
    for name in CATALOG_NAMES:
        curve = catalog(name)
        back = curve_from_json(_curve_document(curve))
        assert back == curve
