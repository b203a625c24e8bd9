import random
from fractions import Fraction as F
from math import prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentkit.errors import (
    DegreeInsufficient,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    ModeMismatch,
    UnrepresentableInMode,
)
from momentkit.moments import (
    MAX_EXPONENT_BITS,
    Atomic,
    ConeSupport,
    Exponential1D,
    FullSpace,
    GaussianProduct,
    LogNormal1D,
    MomentSequence,
    NonnegativeOrthant,
    Product,
    QLattice1D,
    WeightedBy,
    affine_map,
    apply_linear_functional,
    apply_linear_functional_1d,
    apply_polynomial_weight,
    convolve,
    generate_moments,
    image_moments,
    marginal,
    pushforward_direction,
)
from momentkit import hamburger
from momentkit.hamburger import recurrence_from_moments
from momentkit.polynomials import compositions, mpoly_mul, multi_indices
from momentkit.scalars import FloatMode, RationalMode, exact_fraction
from oracles import convolve_binomial, mpoly_pow, product_entries, weight_termwise

R = RationalMode()
F256 = FloatMode(256)


def gauss(n, d=1):
    return generate_moments(GaussianProduct((1,) * d), d, n, R)


# ---------------------------------------------------------------------------
# generators


def test_dirac_at_origin():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 4, R)
    assert seq.moments_1d() == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("bits", [64, 512])
def test_float_atomic_moments_of_a_symmetric_measure_are_exactly_symmetric(bits):
    """Atoms +-1 and +-1/3 with equal weights: each float moment is the
    exact sum over the atoms' binary values rounded once, so m_1 = m_3 = 0
    exactly (summed atom by atom, m_1 was the rounding residue -2.7e-20 at
    float:64), and so is every recurrence alpha; the float rows take the
    every-second-entry path of symmetric data."""
    mode = FloatMode(bits)
    atoms = Atomic(((F(-1),), (F(-1, 3),), (F(1),), (F(1, 3),)), (1, 1, 1, 1))
    seq = generate_moments(atoms, 1, 8, mode)
    assert seq.entries[(1,)] == 0 and seq.entries[(3,)] == 0
    points = [exact_fraction(mode.convert(F(c))) for c in (-1, F(-1, 3), 1, F(1, 3))]
    for k in range(9):
        assert seq.entries[(k,)] == mode.convert(sum(x ** k for x in points))
    steps = []
    real = hamburger._float_row

    def row(*args):
        steps.append(args[-1])
        return real(*args)
    with mock.patch.object(hamburger, "_float_row", row):
        rec = recurrence_from_moments(seq, 4)
    assert rec.rank == 4
    assert all(a == 0 for a in rec.alpha)
    assert steps and set(steps) == {2}  # the every-second-entry rows


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_float_atomic_moments_are_the_exact_sums_rounded_once(data):
    """Every float:64 moment of an atomic measure in d = 1..3 is the exact
    weighted sum of the atoms' monomials at their float values, rounded
    into the mode once."""
    mode = FloatMode(64)
    d = data.draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 3, 7)))
    atoms = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5))
    weights = data.draw(st.lists(st.builds(F, st.integers(1, 30), st.sampled_from((1, 3, 7))),
                                 min_size=len(atoms), max_size=len(atoms)))
    seq = generate_moments(Atomic(tuple(atoms), tuple(weights)), d, 4, mode)
    points = [[exact_fraction(mode.convert(c)) for c in p] for p in atoms]
    masses = [exact_fraction(mode.convert(w)) for w in weights]
    for alpha in multi_indices(d, 4):
        exact = sum(w * prod(x ** a for x, a in zip(p, alpha)) for p, w in zip(points, masses))
        assert seq.entries[alpha] == mode.convert(exact)


def test_qlattice_rule():
    seq = generate_moments(QLattice1D(2), 1, 3, R)
    assert seq.moments_1d() == [1, 2, 16, 512]
    assert isinstance(seq.support, NonnegativeOrthant)


def test_gaussian_recursion_oracle():
    # independent symbolic recursion m_{2k} = (2k-1) v m_{2k-2}
    seq = gauss(6)
    expect = [F(1), F(0), F(1), F(0), F(3), F(0), F(15)]
    assert seq.moments_1d() == expect


def test_exponential_factorials():
    seq = generate_moments(Exponential1D(), 1, 5, R)
    assert seq.moments_1d() == [1, 1, 2, 6, 24, 120]


def test_lognormal_rejected_in_rational_mode():
    with pytest.raises(UnrepresentableInMode):
        generate_moments(LogNormal1D(1), 1, 4, R)
    fm = FloatMode(128)
    seq = generate_moments(LogNormal1D(1), 1, 4, fm)
    assert fm.to_float(seq.moment((2,))) == pytest.approx(7.389056098930649)


def test_product_matches_factors():
    prod = generate_moments(Product(((GaussianProduct((1,)), 1),
                                     (QLattice1D(2), 1))), 2, 6, R)
    g, q = gauss(6), generate_moments(QLattice1D(2), 1, 6, R)
    for alpha in multi_indices(2, 6):
        assert prod.moment(alpha) == g.moment((alpha[0],)) * q.moment((alpha[1],))


def same_scalar(a, b) -> bool:
    """Equal with the same type; mpf values equal in their raw tuples."""
    if hasattr(a, "_mpf_"):
        return hasattr(b, "_mpf_") and a._mpf_ == b._mpf_
    return type(a) is type(b) and a == b


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_entries_match_multiplying_from_one(data):
    """Gaussian and general products start at the first factor and stop at
    a zero; their entries are those of multiplying every factor into
    ``mode.one()``: equal with the same types in rational mode, bit for bit
    at 64 and 256 bits."""
    variance = st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3, 7)))
    factor = st.one_of(
        st.builds(lambda v: (GaussianProduct((v,)), 1), variance),
        st.builds(lambda q: (QLattice1D(q), 1), st.sampled_from((F(3, 2), F(2)))),
        st.just((Exponential1D(), 1)),
        st.builds(lambda v, w: (GaussianProduct((v, w)), 2), variance, variance),
        st.builds(lambda xs: (Atomic(tuple((x,) for x in xs), (F(1),) * len(xs)), 1),
                  st.lists(st.builds(F, st.integers(-3, 3), st.sampled_from((1, 3))),
                           min_size=1, max_size=3, unique=True)))
    gaussian = data.draw(st.booleans())
    if gaussian:
        variances = data.draw(st.lists(variance, min_size=1, max_size=3))
        factors = [(GaussianProduct((v,)), 1) for v in variances]
        defn = GaussianProduct(tuple(variances))
    else:
        factors = data.draw(st.lists(factor, min_size=1, max_size=3))
        defn = Product(tuple(factors))
    dims = [dim for _, dim in factors]
    degree = data.draw(st.integers(0, 12 if sum(dims) < 3 else 8))
    for mode in (R, FloatMode(64), F256):
        got = generate_moments(defn, sum(dims), degree, mode).entries
        want = product_entries([generate_moments(f, dim, degree, mode) for f, dim in factors],
                               dims, degree, mode)
        assert list(got) == list(want)
        assert all(same_scalar(got[alpha], want[alpha]) for alpha in want)


def test_weighted_by_definition():
    w = {(2,): F(1)}
    seq = generate_moments(WeightedBy(GaussianProduct((1,)), w), 1, 4, R)
    # m'_k = m_{k+2} of the Gaussian
    assert seq.moments_1d() == [1, 0, 3, 0, 15]


# ---------------------------------------------------------------------------
# the sequence type


def test_sequence_invariants():
    with pytest.raises(Exception):
        MomentSequence(1, 2, R, {(0,): 1, (1,): 0})  # missing (2,)
    with pytest.raises(Exception):
        MomentSequence(1, 1, R, {(0,): -1, (1,): 0})  # negative mass
    seq = gauss(4)
    with pytest.raises(DegreeInsufficient):
        seq.moment((5,))


@pytest.mark.parametrize("args, message", [
    ((0, 2, R, {}), "dimension must be positive"),
    ((1, -1, R, {}), "max_degree must be non-negative"),
    ((1, 2, R, {(0,): 1, (1,): 0}), "missing entry for multi-index (2,)"),
    ((1, 1, R, {(0,): 1, (1,): 0, (2,): 0}), "entries beyond max_degree or wrong dimension"),
    ((1, 1, R, {(0,): -1, (1,): 0}), "total mass m_0 must be non-negative"),
])
def test_sequence_validation_errors(args, message):
    with pytest.raises(InvalidParameter) as info:
        MomentSequence(*args)
    assert type(info.value) is InvalidParameter and str(info.value) == message


def test_records_without_fields_are_equal_by_class():
    """Supports compare with ==, so two classes may never be equal, nor
    equal to the empty tuple."""
    assert FullSpace() == FullSpace() and hash(FullSpace()) == hash(FullSpace())
    assert FullSpace() != NonnegativeOrthant() and NonnegativeOrthant() != ()
    assert Exponential1D() == Exponential1D() and Exponential1D() != ()
    assert repr(NonnegativeOrthant()) == "NonnegativeOrthant()"
    assert ConeSupport(((1,),)) != NonnegativeOrthant()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_sequence_rejects_non_finite_values(bad):
    fm = FloatMode(128)
    entries = {(0,): fm.convert(1), (1,): fm.from_string(bad), (2,): fm.convert(1)}
    with pytest.raises(InvalidParameter, match="not finite"):
        MomentSequence(1, 2, fm, entries)


def test_apply_linear_functional():
    seq = gauss(4)
    assert apply_linear_functional(seq, {(0,): F(1)}) == 1
    assert apply_linear_functional_1d(seq, (F(1), F(0), F(1))) == 2  # 1 + t^2
    dirac = generate_moments(Atomic(((0,),), (1,)), 1, 4, R)
    assert apply_linear_functional_1d(dirac, (F(-7), F(0), F(0), F(1))) == -7


# ---------------------------------------------------------------------------
# push-forward


def test_pushforward_axis_is_marginal():
    g2 = gauss(6, 2)
    pf = pushforward_direction(g2, (1, 0))
    assert pf.moments_1d() == gauss(6).moments_1d()


def test_pushforward_diagonal_example():
    g2 = gauss(6, 2)
    pf = pushforward_direction(g2, (1, 1))
    assert pf.moment((2,)) == 2  # m20 + 2 m11 + m02


def test_direction_pushforwards_share_one_integer_table():
    g3 = gauss(8, 3)
    directions = [(1, 0, 0), (1, 1, 0), (F(1, 3), F(-2, 7), 1)]
    shared = [pushforward_direction(g3, xi) for xi in directions]
    assert list(g3.integer_tables) == ["multinomial"]
    table = g3.integer_tables["multinomial"]
    assert len(table[0]) == 9
    # a fourth direction reads the same table and builds none
    pushforward_direction(g3, (0, -2, F(5, 3)))
    assert list(g3.integer_tables) == ["multinomial"]
    assert g3.integer_tables["multinomial"] is table
    assert shared == [pushforward_direction(gauss(8, 3), xi) for xi in directions]
    # the table is not part of the value
    assert g3 == gauss(8, 3)


def test_pushforward_atomic_brute_force():
    seq = generate_moments(Atomic(((1, 1),), (1,)), 2, 6, R)
    pf = pushforward_direction(seq, (2, 3))
    assert pf.moments_1d() == [F(5) ** k for k in range(7)]


def test_pushforward_linearity_oracle():
    # multinomial formula vs direct expansion of (x . xi)^k
    rng = random.Random(2)
    for d in (2, 3):
        seq = generate_moments(
            Atomic(tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(d)) for _ in range(3)),
                   (F(1, 3), F(1, 2), F(2))), d, 10, R)
        xi = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
        if all(c == 0 for c in xi):
            xi = (F(1),) * d
        pf = pushforward_direction(seq, xi)
        form = {alpha: F(0) for alpha in multi_indices(d, 1) if sum(alpha) == 1}
        form = {}
        for j, c in enumerate(xi):
            form[tuple(1 if i == j else 0 for i in range(d))] = c
        for k in range(11):
            direct = apply_linear_functional(seq, mpoly_pow(form, k, d))
            assert pf.moment((k,)) == direct


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


@st.composite
def rational_measures(draw):
    """(definition, dimension): an atomic or a product Gaussian measure on
    R or R^2 with small rational data."""
    d = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=3))
        points = tuple(tuple(draw(small) for _ in range(d)) for _ in range(n))
        return Atomic(points, tuple(draw(positive) for _ in range(n))), d
    return GaussianProduct(tuple(draw(positive) for _ in range(d))), d


def polynomial_maps(d_in):
    """One to two forms of degree <= 2 in d_in variables."""
    form = st.dictionaries(st.sampled_from(list(multi_indices(d_in, 2))), small,
                           max_size=4)
    return st.lists(form, min_size=1, max_size=2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_image_moments_match_expanded_powers(data):
    defn, d = data.draw(rational_measures())
    forms = data.draw(polynomial_maps(d))
    seq = generate_moments(defn, d, 8, R)
    image = image_moments(seq, forms, 4)
    image_f = image_moments(generate_moments(defn, d, 8, F256), forms, 4)
    assert set(image) == set(multi_indices(len(forms), 4))
    for beta, value in image.items():
        power = {(0,) * d: 1}
        for u, e in zip(forms, beta):
            power = mpoly_mul(power, mpoly_pow(u, e, d))
        assert value == apply_linear_functional(seq, power)
        exact = F256.convert(value)
        assert abs(image_f[beta] - exact) <= F256.convert(F(1, 10 ** 60)) * max(abs(exact), 1)


def test_image_moments_degree_guard():
    g = gauss(6, 2)
    quadratic = {(2, 0): F(1), (0, 1): F(1)}
    assert len(image_moments(g, [quadratic], 3)) == 4
    with pytest.raises(DegreeInsufficient):
        image_moments(g, [quadratic], 4)


def test_pushforward_support_rule():
    q2 = generate_moments(Product(((QLattice1D(2), 1), (QLattice1D(2), 1))), 2, 6, R)
    assert isinstance(pushforward_direction(q2, (1, 1)).support, NonnegativeOrthant)
    assert isinstance(pushforward_direction(q2, (1, -1)).support, FullSpace)
    # the closed dual cone: x . (1, 0) >= 0 on the orthant too
    assert isinstance(pushforward_direction(q2, (1, 0)).support, NonnegativeOrthant)
    g2 = gauss(6, 2)
    assert isinstance(pushforward_direction(g2, (1, 1)).support, FullSpace)
    with pytest.raises(InvalidDirection):
        pushforward_direction(g2, (0, 0))


# ---------------------------------------------------------------------------
# marginal / convolution / weight / affine


def test_marginal_identity_and_projection():
    g2 = gauss(6, 2)
    same = marginal(g2, (0, 1))
    assert same.entries == g2.entries
    m1 = marginal(g2, (0,))
    assert m1.moments_1d() == gauss(6).moments_1d()
    at = generate_moments(Atomic(((1, 2),), (1,)), 2, 5, R)
    m2 = marginal(at, (1,))
    assert m2.moments_1d() == [F(2) ** k for k in range(6)]
    # the selection map at float:128 hands out the entries bit for bit
    g3 = generate_moments(GaussianProduct((1, F(1, 3), F(2, 7))), 3, 6, FloatMode(128))
    for axes in ((2,), (1, 0), (0, 1, 2)):
        m = marginal(g3, axes)
        assert (m.dimension, m.max_degree) == (len(axes), 6)
        for beta, v in m.entries.items():
            alpha = [0, 0, 0]
            for pos, axis in enumerate(axes):
                alpha[axis] = beta[pos]
            assert v._mpf_ == g3.entries[tuple(alpha)]._mpf_
    for axes, detail in (((), "axes must be non-empty"),
                         ((0, 0), "axes must be distinct and in range"),
                         ((2,), "axes must be distinct and in range"),
                         ((-1,), "axes must be distinct and in range")):
        with pytest.raises(InvalidParameter, match=detail):
            marginal(g2, axes)


def test_convolution_identities():
    g = gauss(8)
    dirac0 = generate_moments(Atomic(((0,),), (1,)), 1, 8, R)
    assert convolve(g, dirac0).entries == g.entries
    gg = convolve(g, g)
    v2 = generate_moments(GaussianProduct((2,)), 1, 8, R)
    assert gg.entries == v2.entries
    da = generate_moments(Atomic(((F(1, 2),),), (1,)), 1, 6, R)
    db = generate_moments(Atomic(((F(1, 3),),), (1,)), 1, 6, R)
    dab = generate_moments(Atomic(((F(5, 6),),), (1,)), 1, 6, R)
    assert convolve(da, db).entries == dab.entries


def test_convolution_commutes_and_associates():
    a = gauss(8)
    b = generate_moments(Exponential1D(), 1, 8, R)
    c = generate_moments(Atomic(((1,), (2,)), (F(1, 2), F(1, 2))), 1, 8, R)
    assert convolve(a, b).entries == convolve(b, a).entries
    assert convolve(convolve(a, b), c).entries == convolve(a, convolve(b, c)).entries


def test_convolution_mode_and_dim_checks():
    g = gauss(4)
    fm = FloatMode(64)
    gf = generate_moments(GaussianProduct((1,)), 1, 4, fm)
    with pytest.raises(ModeMismatch):
        convolve(g, gf)


convolve_parts = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def convolve_definitions(draw, d):
    """A measure definition in d variables: rational atoms, a product
    Gaussian, or a product of exponentials or of q-lattices."""
    kind = draw(st.sampled_from(("atomic", "gauss", "expo", "qlattice")))
    if kind == "atomic":
        atoms = draw(st.integers(1, 3))
        xs = draw(st.lists(st.tuples(*[convolve_parts] * d), min_size=atoms, max_size=atoms))
        ws = draw(st.lists(st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 5))),
                           min_size=atoms, max_size=atoms))
        return Atomic(tuple(xs), tuple(ws))
    if kind == "gauss":
        return GaussianProduct(tuple(draw(st.lists(
            st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3))),
            min_size=d, max_size=d))))
    axis = (Exponential1D() if kind == "expo"
            else QLattice1D(draw(st.sampled_from((2, F(3, 2), F(5, 4))))))
    return axis if d == 1 else Product(tuple((axis, 1) for _ in range(d)))


@st.composite
def convolve_inputs(draw):
    """(d, two definitions, their two degrees): d = 1..3, degrees up to
    8, 6, 4 as d grows."""
    d = draw(st.integers(1, 3))
    top = (8, 6, 4)[d - 1]
    return (d, draw(convolve_definitions(d)), draw(convolve_definitions(d)),
            draw(st.integers(0, top)), draw(st.integers(0, top)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(convolve_inputs())
def test_convolve_matches_the_binomial_oracle(inputs):
    """The affine image of the product functional under (x, y) -> x + y
    against the binomial expansion: rational entries equal, the same
    degree, support and growth flag, the same errors for a mode or a
    dimension that differs; at float:64 and float:128 within 2**8 units of
    2**-precision times the sum of the terms' magnitudes (the largest seen
    over 1200 draws of these families is 3.93 units)."""
    d, da, db, na, nb = inputs
    a, b = generate_moments(da, d, na, R), generate_moments(db, d, nb, R)
    got, want = convolve(a, b), convolve_binomial(a, b)
    assert got.entries == want.entries
    assert (got.dimension, got.max_degree) == (want.dimension, want.max_degree)
    assert got.support == want.support
    assert got.is_certified_carleman() == want.is_certified_carleman()
    for mode in (FloatMode(64), FloatMode(128)):
        af, bf = generate_moments(da, d, na, mode), generate_moments(db, d, nb, mode)
        got, want = convolve(af, bf), convolve_binomial(af, bf)
        magnitude = convolve_binomial(*(MomentSequence(
            s.dimension, s.max_degree, mode, {k: abs(v) for k, v in s.entries.items()})
            for s in (af, bf)))
        ulp = mode.ctx.ldexp(1, 8 - mode.precision_bits)
        for gamma, v in want.entries.items():
            assert abs(got.entries[gamma] - v) <= ulp * magnitude.entries[gamma]
        assert got.support == want.support
        with pytest.raises(ModeMismatch, match="one shared mode"):
            convolve(a, bf)
        with pytest.raises(ModeMismatch, match="one shared mode"):
            convolve_binomial(a, bf)
    other = gauss(2, d % 3 + 1)
    with pytest.raises(DimensionMismatch, match="equal dimensions"):
        convolve(a, other)
    with pytest.raises(DimensionMismatch, match="equal dimensions"):
        convolve_binomial(a, other)


@st.composite
def direction_inputs(draw):
    """(d, definition, degree, direction): d = 1..4, the definitions of the
    convolve test, degrees up to 10, 8, 6, 5 as d grows, and either an axis
    (in 1D the identity (1,)) or a non-zero direction whose entries may be
    zero, negative or non-integer."""
    d = draw(st.integers(1, 4))
    defn = draw(convolve_definitions(d))
    n = draw(st.integers(0, (10, 8, 6, 5)[d - 1]))
    if draw(st.booleans()):
        axis = draw(st.integers(0, d - 1))
        xi = tuple(int(i == axis) for i in range(d))
    else:
        xi = tuple(draw(st.lists(convolve_parts, min_size=d, max_size=d).filter(any)))
    return d, defn, n, xi


def linear_form(xi) -> dict:
    d = len(xi)
    return {tuple(int(i == j) for i in range(d)): c for j, c in enumerate(xi)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(direction_inputs())
def test_pushforward_matches_image_moments(inputs):
    """The push-forward from the multinomial table against ``image_moments``
    under the one form xi . x: rational values equal, each a Fraction; at
    float:64 and float:128, against the exact push-forward of the same
    binary data (moments and rounded direction): at degree m, within
    m + k + 1 units of 2**-precision times sum_{|alpha| = m} |W_alpha
    xi**alpha|, k the size of that slice.  One rounding for W_alpha, m - 1
    for xi**alpha, one for their product and k - 1 for the sum give m + k
    to first order (the largest seen over 1200 draws is 12.3 units)."""
    d, defn, n, xi = inputs
    seq = generate_moments(defn, d, n, R)
    got = pushforward_direction(seq, xi)
    want = image_moments(seq, [linear_form([F(c) for c in xi])], n)
    assert got.entries == want
    assert all(type(v) is F for v in got.entries.values())
    for mode in (FloatMode(64), FloatMode(128)):
        seq_f = generate_moments(defn, d, n, mode)
        got = pushforward_direction(seq_f, xi)
        xi_f = [exact_fraction(mode.convert(c)) for c in xi]
        binary = MomentSequence(d, n, R, {a: exact_fraction(v) for a, v in seq_f.entries.items()})
        want = image_moments(binary, [linear_form(xi_f)], n)
        magnitude = image_moments(
            MomentSequence(d, n, R, {a: abs(v) for a, v in binary.entries.items()}),
            [linear_form([abs(c) for c in xi_f])], n)
        for (m,), v in want.items():
            units = m + len(compositions(m, d)) + 1
            err = abs(exact_fraction(got.entries[(m,)]) - v)
            assert err <= units * magnitude[(m,)] / 2 ** mode.precision_bits


def test_affine_image_of_a_cone_under_dual_rows_is_on_the_orthant():
    """A row that pairs nonnegatively with every generator of a cone
    support maps it into the half line, with a nonnegative offset; a row
    off the closed dual cone, or a negative offset, does not."""
    cone = ConeSupport(((1, 1), (1, -1)))      # x >= |y|
    atoms = generate_moments(Atomic(((2, 1), (1, -1), (3, 0)), (1, 2, 1)), 2, 4, R)
    seq = MomentSequence(2, 4, R, atoms.entries, cone)
    for rows, offset in ((((1, 0),), (0,)), (((2, 1), (1, 0)), (1, 0)),
                         (((1, -1),), (0,))):
        assert isinstance(affine_map(seq, rows, offset).support, NonnegativeOrthant)
    for rows, offset in ((((0, 1),), (0,)), (((1, 0),), (-1,))):
        assert isinstance(affine_map(seq, rows, offset).support, FullSpace)
    assert isinstance(pushforward_direction(seq, (3, 1)).support, NonnegativeOrthant)


def test_float_moment_exponents_are_bounded():
    """A float moment whose binary exponent has more than MAX_EXPONENT_BITS
    bits is refused, naming it; one bit less is kept."""
    mode = FloatMode(64)
    top = 2 ** MAX_EXPONENT_BITS
    kept = mode.ctx.ldexp(1, top - 2)           # exponent + bit count = top - 1
    assert MomentSequence(1, 1, mode, {(0,): 1, (1,): kept}).moment((1,)) == kept
    for value in (mode.ctx.ldexp(1, top - 1), mode.ctx.ldexp(1, -top - 1)):
        with pytest.raises(InvalidParameter, match=r"moment \(1,\) is out of range"):
            MomentSequence(1, 1, mode, {(0,): 1, (1,): value})


def test_weight_identities():
    g = gauss(8)
    same = apply_polynomial_weight(g, {(0,): F(1)})
    assert same.moments_1d() == g.moments_1d()
    t2 = apply_polynomial_weight(g, {(2,): F(1)})
    assert t2.moment((0,)) == 1 and t2.moment((2,)) == 3
    lam = F(2, 3)
    atom = generate_moments(Atomic(((lam,),), (1,)), 1, 8, R)
    killed = apply_polynomial_weight(atom, {(0,): lam * lam, (1,): -2 * lam, (2,): F(1)})
    assert all(v == 0 for v in killed.moments_1d())


def test_weight_composition_property():
    g = gauss(12)
    w1 = {(1,): F(1), (0,): F(2)}   # t + 2 (sign-indefinite is fine, unchecked)
    w2 = {(2,): F(1)}
    from momentkit.polynomials import mpoly_mul

    both = apply_polynomial_weight(g, mpoly_mul(w1, w2))
    stepped = apply_polynomial_weight(apply_polynomial_weight(g, w1), w2)
    assert both.entries == stepped.entries


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_matches_the_termwise_sum(data):
    """Rational entries from one integer dot product each are equal to the
    term-by-term Fraction sums, float:256 entries bit-identical to them,
    at the full depth and at any shallower one."""
    defn, d = data.draw(rational_measures())
    w = data.draw(st.dictionaries(st.sampled_from(list(multi_indices(d, 3))), small,
                                  min_size=1, max_size=4))
    if not any(w.values()):
        w[(0,) * d] = F(1)
    depth = 8 - max(sum(a) for a, c in w.items() if c)
    max_degree = data.draw(st.one_of(st.none(), st.integers(0, depth)))
    for mode in (R, F256):
        seq = generate_moments(defn, d, 8, mode)
        expected = weight_termwise(seq, w, depth if max_degree is None else max_degree)
        if expected[(0,) * d] < 0:              # a weight negative on the measure
            with pytest.raises(InvalidParameter, match="m_0 must be non-negative"):
                apply_polynomial_weight(seq, w, max_degree)
            continue
        weighted = apply_polynomial_weight(seq, w, max_degree)
        assert weighted.entries == expected
        assert all(type(v) is type(expected[a]) for a, v in weighted.entries.items())
        assert weighted.support == seq.support and weighted.meta == seq.meta


def test_weight_depth_guard():
    g = gauss(8, 2)
    w = {(1, 0): F(1, 3), (0, 0): F(1)}
    assert apply_polynomial_weight(g, w, 7).max_degree == 7
    assert apply_polynomial_weight(g, w, 0).entries == {(0, 0): F(1)}
    for depth in (8, -1):
        with pytest.raises(DegreeInsufficient, match="weight degree exceeds the truncation"):
            apply_polynomial_weight(g, w, depth)


def test_affine_identities():
    g = gauss(6)
    same = affine_map(g, ((1,),), (0,))
    assert same.entries == g.entries
    scaled = affine_map(g, ((2,),), (0,))
    assert scaled.moment((2,)) == 4
    assert scaled.moment((4,)) == 48
    dirac0 = generate_moments(Atomic(((0,),), (1,)), 1, 6, R)
    lifted = affine_map(dirac0, ((1,), (1,)), (1, 0))
    target = generate_moments(Atomic(((1, 0),), (1,)), 2, 6, R)
    assert lifted.entries == target.entries


def test_affine_orthogonal_pushforward_property():
    # orthogonal A: pushing forward along e1 after mapping equals pushing
    # forward along the first row of A^T
    g2 = gauss(8, 2)
    c, s = F(3, 5), F(4, 5)  # rational rotation
    mapped = affine_map(g2, ((c, -s), (s, c)), (0, 0))
    lhs = pushforward_direction(mapped, (1, 0))
    rhs = pushforward_direction(g2, (c, -s))
    assert lhs.moments_1d() == rhs.moments_1d()


def test_certificate_propagation():
    g2 = gauss(8, 2)
    assert g2.is_certified_carleman()
    assert pushforward_direction(g2, (1, 1)).is_certified_carleman()
    assert marginal(g2, (0,)).is_certified_carleman()
    q = generate_moments(QLattice1D(2), 1, 8, R)
    assert not q.is_certified_carleman()
    mix = generate_moments(Product(((GaussianProduct((1,)), 1),
                                    (QLattice1D(2), 1))), 2, 8, R)
    assert not mix.is_certified_carleman()
    g = gauss(8)
    assert not convolve(g, q).is_certified_carleman()
    assert convolve(g, g).is_certified_carleman()
