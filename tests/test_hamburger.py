import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from momentkit.errors import (
    DegreeInsufficient,
    InvalidParameter,
    MomentKitError,
    NonpositiveEvenMoment,
    NonRealPointRequired,
    NotAdmissible,
    NotStieltjesAdmissible,
    PrecisionExhausted,
)
from momentkit.hamburger import (
    Recurrence,
    carleman,
    christoffel,
    ortho_eval,
    recurrence_from_moments,
    stieltjes_convergents,
    verdict_1d,
    weyl_disk,
    weyl_radius_sq,
)
from momentkit.moments import (
    Atomic,
    Exponential1D,
    GaussianProduct,
    NonnegativeOrthant,
    QLattice1D,
    generate_moments,
    sequence_from_1d,
)
from momentkit.scalars import (ComplexScalar, FloatMode, RationalMode, complex_scalar,
                               exact_fraction)
from momentkit.verdicts import Flavor, Status, Sufficiency
from oracles import (
    admissibility_check,
    christoffel_direct,
    convergents_radau,
    hankel,
    reconstruct_moments,
    weyl_disk_circumcircle,
)

R = RationalMode()


def gauss(n):
    return generate_moments(GaussianProduct((1,)), 1, n, R)


def qlattice(n, q=2):
    return generate_moments(QLattice1D(q), 1, n, R)


def random_atomic(rng, atoms, degree):
    pts = sorted({F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(atoms * 3)})
    pts = tuple((p,) for p in pts[:atoms])
    wts = tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in pts)
    return generate_moments(Atomic(pts, wts), 1, degree, R), pts, wts


def brute_cauchy(points, weights, z: ComplexScalar) -> ComplexScalar:
    total = ComplexScalar(F(0), F(0))
    for (p,), w in zip(points, weights):
        total = total + ComplexScalar(w, F(0)) / (ComplexScalar(p, F(0)) - z)
    return total


# ---------------------------------------------------------------------------
# Hankel and admissibility


def test_hankel_entries():
    seq = sequence_from_1d([F(1), F(0), F(1)], R)
    h = hankel(seq, 1)
    assert h.rows == ((1, 0), (0, 1))
    h2 = hankel(qlattice(2), 1)
    assert h2.rows == ((1, 2), (2, 16))
    with pytest.raises(DegreeInsufficient):
        hankel(seq, 2)


def test_admissibility_classes():
    assert admissibility_check(hankel(gauss(10), 5)).classification == "positive_definite"
    two = generate_moments(Atomic(((0,), (1,)), (F(1, 2), F(1, 2))), 1, 8, R)
    adm = admissibility_check(hankel(two, 2))
    assert adm.classification == "positive_semidefinite"
    assert adm.rank == 2
    bad = sequence_from_1d([F(1), F(0), F(-1)], R)
    assert admissibility_check(hankel(bad, 1)).classification == "indefinite"
    dirac = generate_moments(Atomic(((0,),), (1,)), 1, 4, R)
    adm = admissibility_check(hankel(dirac, 2))
    assert adm.classification == "positive_semidefinite" and adm.rank == 1


def test_admissibility_rank_counts_atoms():
    rng = random.Random(31)
    for r in (2, 3, 4):
        seq, _, _ = random_atomic(rng, r, 2 * (r + 2))
        adm = admissibility_check(hankel(seq, r + 2))
        assert adm.classification == "positive_semidefinite"
        assert adm.rank == r


# ---------------------------------------------------------------------------
# recurrence


def test_gaussian_recurrence_is_hermite():
    rec = recurrence_from_moments(gauss(20), 10)
    assert all(a == 0 for a in rec.alpha)
    assert list(rec.beta) == [1] + list(range(1, 11))  # beta_0 = m_0, beta_k = k


def test_dirac_recurrence_degenerates():
    c = F(5, 3)
    seq = generate_moments(Atomic(((c,),), (1,)), 1, 8, R)
    rec = recurrence_from_moments(seq, 3)
    assert rec.alpha[0] == c
    assert rec.rank == 1
    assert rec.beta[1] == 0


def test_symmetric_moments_zero_diagonal():
    seq = generate_moments(Atomic(((-2,), (2,)), (F(1, 2), F(1, 2))), 1, 10, R)
    rec = recurrence_from_moments(seq, 2)
    assert all(a == 0 for a in rec.alpha)


def test_reconstruction_round_trip():
    rng = random.Random(5)
    seq, _, _ = random_atomic(rng, 6, 20)
    rec = recurrence_from_moments(seq, 5)
    assert reconstruct_moments(rec, 10) == seq.moments_1d()[:11]


def test_not_positive_definite_raises():
    bad = sequence_from_1d([F(1), F(0), F(-1), F(0), F(1)], R)
    with pytest.raises(Exception):
        recurrence_from_moments(bad, 2)


def test_float_mode_precision_exhaustion():
    # 24 bits cannot carry the Hankel conditioning of degree-40 Gaussian data;
    # the transform must abort instead of returning drifted coefficients
    fm = FloatMode(24)
    seq = generate_moments(GaussianProduct((1,)), 1, 40, fm)
    with pytest.raises(PrecisionExhausted):
        recurrence_from_moments(seq, 20)


def test_float_pivot_needs_half_the_working_bits():
    """Exponential N = 80: at 128 bits a pivot clears its noise floor by
    fewer than 64 bits, which raises instead of returning coefficients with
    a few correct bits; at 448 bits every pivot has the headroom."""
    with pytest.raises(PrecisionExhausted, match="half the working bits"):
        recurrence_from_moments(generate_moments(Exponential1D(), 1, 80, FloatMode(128)), 40)
    fm = FloatMode(448)
    recf = recurrence_from_moments(generate_moments(Exponential1D(), 1, 80, fm), 40)
    recr = recurrence_from_moments(generate_moments(Exponential1D(), 1, 80, R), 40)
    for k in range(1, 41):
        assert abs(exact_fraction(recf.beta[k]) / recr.beta[k] - 1) < F(1, 2**200)


def test_float_mode_default_precision_matches_exact():
    from momentkit.scalars import default_float_bits

    bits = default_float_bits(20)
    qf = generate_moments(QLattice1D(2), 1, 20, FloatMode(bits))
    qr = qlattice(20)
    recf = recurrence_from_moments(qf, 10)
    recr = recurrence_from_moments(qr, 10)
    for k in range(1, 11):
        assert float(recf.beta[k]) == pytest.approx(float(recr.beta[k]), rel=1e-25)


# ---------------------------------------------------------------------------
# orthogonal evaluation


def test_ortho_eval_satisfies_recurrence_exactly():
    rng = random.Random(9)
    seq, _, _ = random_atomic(rng, 8, 24)
    rec = recurrence_from_moments(seq, 6)
    z = complex_scalar(R, F(1, 3), F(2, 7))
    ev = ortho_eval(rec, z, 6)
    for k in range(1, 6):
        lhs = ev.first[k + 1]
        rhs = (z - complex_scalar(R, rec.alpha[k])) * ev.first[k] \
            - ev.first[k - 1].scale(rec.beta[k])
        assert (lhs - rhs).abs2() == 0
        lhs = ev.second[k + 1]
        rhs = (z - complex_scalar(R, rec.alpha[k])) * ev.second[k] \
            - ev.second[k - 1].scale(rec.beta[k])
        assert (lhs - rhs).abs2() == 0
    assert ev.first[0].re == 1 and ev.second[0].abs2() == 0
    assert ev.second[1].re == seq.moment((0,))  # second kind starts at the mass


def test_gram_schmidt_oracle_for_normalized_values():
    # |p_k(z)|^2 from the recurrence equals the Gram-Schmidt construction on
    # monomials with the exact Hankel Gram matrix
    seq = gauss(12)
    rec = recurrence_from_moments(seq, 4)
    z = complex_scalar(R, F(0), F(1))
    ev = ortho_eval(rec, z, 4)
    # Gram-Schmidt: pi_k = t^k - sum proj; computed directly on coefficients
    from momentkit.moments import apply_linear_functional_1d

    def inner(p, q):
        prod = [F(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        return apply_linear_functional_1d(seq, prod)

    basis = []
    for k in range(5):
        vec = [F(0)] * k + [F(1)]
        for b in basis:
            coeff = inner(vec, b) / inner(b, b)
            vec = [v - coeff * bb for v, bb in
                   zip(vec + [F(0)] * len(b), list(b) + [F(0)] * len(vec))][:max(len(vec), len(b))]
        basis.append(tuple(vec))
    for k in range(5):
        val = ComplexScalar(F(0), F(0))
        zp = ComplexScalar(F(1), F(0))
        for c in basis[k]:
            val = val + zp.scale(c)
            zp = zp * z
        norm = inner(basis[k], basis[k])
        assert val.abs2() / norm == ev.first_normalized_abs2(k)


def test_atoms_are_roots():
    two = generate_moments(Atomic(((0,), (1,)), (F(1, 3), F(2, 3))), 1, 8, R)
    rec = recurrence_from_moments(two, 3)
    for atom in (0, 1):
        ev = ortho_eval(rec, complex_scalar(R, atom), 2)
        assert ev.first[2].abs2() == 0


# ---------------------------------------------------------------------------
# Christoffel


def test_christoffel_level_zero_is_mass():
    seq = generate_moments(Atomic(((3,),), (F(7, 2),)), 1, 4, R)
    rec = recurrence_from_moments(seq, 1)
    for z in (complex_scalar(R, 0, 1), complex_scalar(R, F(5, 2), F(-1, 3))):
        assert christoffel(rec, z, 0) == F(7, 2)


def test_christoffel_matches_direct_minimization():
    rng = random.Random(17)
    for _ in range(10):
        seq, _, _ = random_atomic(rng, 9, 24)
        rec = recurrence_from_moments(seq, 6)
        z = complex_scalar(R, F(rng.randint(-3, 3), rng.randint(1, 3)),
                           F(rng.randint(1, 5), rng.randint(1, 3)))
        for n in (2, 4, 6):
            assert christoffel(rec, z, n) == christoffel_direct(seq, z, n)


def test_christoffel_monotone_in_degree():
    seq = gauss(40)
    rec = recurrence_from_moments(seq, 20)
    z = complex_scalar(R, 0, 1)
    values = [christoffel(rec, z, n) for n in range(21)]
    assert all(values[k + 1] < values[k] for k in range(20))
    for n in (21, 22):      # beyond the order, the error names the level asked for
        with pytest.raises(DegreeInsufficient, match=f"recurrence order 20 < {n}$"):
            christoffel(rec, z, n)


def test_christoffel_beyond_rank():
    two = generate_moments(Atomic(((0,), (1,)), (F(1, 3), F(2, 3))), 1, 12, R)
    rec = recurrence_from_moments(two, 5)
    z = complex_scalar(R, 0, 1)
    assert christoffel(rec, z, 4) == 0          # off the atoms
    at_atom = christoffel(rec, complex_scalar(R, 1), 4)
    assert at_atom == F(2, 3)                    # the atom's weight


# ---------------------------------------------------------------------------
# Weyl disks


def test_atomic_degenerate_disk_is_brute_force_cauchy():
    rng = random.Random(23)
    for r in (2, 3, 4):
        seq, pts, wts = random_atomic(rng, r, 4 * r)
        rec = recurrence_from_moments(seq, r)
        for zq in ((F(0), F(1)), (F(1, 2), F(2)), (F(-3, 4), F(1, 3))):
            z = complex_scalar(R, *zq)
            disk = weyl_disk(rec, z, r - 1)
            assert disk.degenerate and disk.radius_sq == 0
            expected = brute_cauchy(pts, wts, z)
            assert (disk.center - expected).abs2() == 0


def test_cauchy_transform_inside_every_disk():
    rng = random.Random(29)
    seq, pts, wts = random_atomic(rng, 8, 24)
    rec = recurrence_from_moments(seq, 8)
    z = complex_scalar(R, F(1, 5), F(1))
    value = brute_cauchy(pts, wts, z)
    for n in range(1, 8):
        disk = weyl_disk(rec, z, n)
        assert disk.contains(value)


def test_disk_radius_monotone_and_closed_form():
    seq = qlattice(42)
    rec = recurrence_from_moments(seq, 21)
    z = complex_scalar(R, 0, 1)
    prev = None
    for n in range(1, 21):
        disk = weyl_disk(rec, z, n)
        rho = christoffel(rec, z, n)
        # closed-form cross-check: radius = rho_n(z) / (2 Im z), exactly
        assert disk.radius_sq * 4 * z.im * z.im == rho * rho
        assert weyl_radius_sq(rec, z, n, rho) == weyl_radius_sq(rec, z, n) == disk.radius_sq
        # and = ||pi_n||^2 / (2 |s|) with s = Im(pi_{n+1} conj pi_n) (Casoratian)
        ev = ortho_eval(rec, z, n + 1)
        p1, p0 = ev.first[n + 1], ev.first[n]
        s = p1.im * p0.re - p1.re * p0.im
        assert disk.radius_sq == ev.norm_sq[n] ** 2 / (4 * s * s)
        if prev is not None:
            assert disk.radius_sq <= prev
        prev = disk.radius_sq


def test_float_disk_keeps_its_radius_at_low_precision():
    # the three-point circumcircle cancelled catastrophically here (radius_sq
    # 0.01345 instead of 0.10021) and the verdict lost its weyl plateau
    fm = FloatMode(160)
    radii = []
    for mode in (fm, R):
        rec = recurrence_from_moments(generate_moments(QLattice1D(2), 1, 48, mode), 24)
        radii.append(mode.to_float(weyl_disk(rec, complex_scalar(mode, 0, 1), 23).radius_sq))
    assert radii[0] == pytest.approx(radii[1], rel=1e-12)
    v = verdict_1d(generate_moments(QLattice1D(2), 1, 48, fm))
    assert any(e.criterion == "weyl-radius-plateau" for e in v.evidence)


def test_float_weyl_radius_checks_the_pencil_sign():
    """s / Im z > 0 for every positive definite recurrence, so a float pass
    that breaks it has lost its bits; here a negative beta_1 breaks it
    (pi_2(i) = 1, s = Im(pi_2 conj pi_1) = -1 at level 1)."""
    fm = FloatMode(64)
    zero, one = fm.zero(), fm.one()
    rec = Recurrence(fm, (zero, zero), (one, -2 * one, one))
    z = complex_scalar(fm, 0, 1)
    assert weyl_radius_sq(rec, z, 0) > 0
    for radius in (lambda: weyl_radius_sq(rec, z, 1, one), lambda: weyl_disk(rec, z, 1)):
        with pytest.raises(PrecisionExhausted):
            radius()


def test_float_disk_radius_from_the_christoffel_sum():
    """On the q = 3 lattice at float:64 the Casoratian form rho-free radius
    ||pi_n||^4 / (4 s^2) kept about 5 correct bits at level 18; read off
    the Christoffel sum it keeps nearly all 64."""
    exact = recurrence_from_moments(qlattice(40, 3), 20)
    fm = FloatMode(64)
    recf = recurrence_from_moments(generate_moments(QLattice1D(3), 1, 40, fm), 20)
    want = weyl_disk(exact, complex_scalar(R, 0, 1), 18).radius_sq
    got = exact_fraction(weyl_disk(recf, complex_scalar(fm, 0, 1), 18).radius_sq)
    assert abs(got / want - 1) < F(1, 2**50)


@st.composite
def data_and_point(draw):
    """Rational 1D data (atomic, possibly rank-degenerate, or a positive
    definite catalog measure), a recurrence order and a non-real point."""
    order = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["atomic", "gauss", "qlattice", "expo"]))
    if kind == "atomic":
        pts = draw(st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=6),
                            min_size=1, max_size=9, unique=True))
        wts = draw(st.lists(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                            min_size=len(pts), max_size=len(pts)))
        measure = Atomic(tuple((p,) for p in pts), tuple(wts))
    elif kind == "gauss":
        measure = GaussianProduct((draw(st.fractions(min_value=F(1, 4), max_value=4,
                                                     max_denominator=4)),))
    elif kind == "qlattice":
        measure = QLattice1D(draw(st.sampled_from([F(3, 2), 2, 3])))
    else:
        measure = Exponential1D()
    seq = generate_moments(measure, 1, 2 * order, R)
    im = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    re = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5))
    return seq, order, ComplexScalar(re, im)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data_and_point())
def test_closed_forms_match_oracles(case):
    seq, order, z = case
    rec = recurrence_from_moments(seq, order)
    for n in range(rec.order):
        assert weyl_disk(rec, z, n) == weyl_disk_circumcircle(rec, z, n)
    for n in range(min(rec.order, rec.rank - 1) + 1):
        rho = christoffel(rec, z, n)
        assert rho == christoffel_direct(seq, z, n)
        assert rho == 1 / ortho_eval(rec, z, n).kernel_diagonal(n)


def test_ortho_memo_stays_bounded():
    rec = recurrence_from_moments(gauss(20), 10)
    for k in range(200):
        ortho_eval(rec, complex_scalar(R, F(k, 7), 1), 5)
    assert len(rec.evals) == 1
    # the newest point is kept, and answers every level
    z = complex_scalar(R, F(199, 7), 1)
    assert ortho_eval(rec, z, 3).first == rec.evals[z].first[:4]
    assert rec == recurrence_from_moments(gauss(20), 10)   # the memo is not part of the value


def test_sequence_keeps_one_recurrence_per_order():
    seq = qlattice(24)
    top = recurrence_from_moments(seq, 12)
    assert recurrence_from_moments(seq, 12) is top
    low = recurrence_from_moments(seq, 5)
    assert low is not top and recurrence_from_moments(seq, 5) is low
    # the top order carries every lower one as an exact prefix
    assert (low.alpha, low.beta) == (top.alpha[:5], top.beta[:6])
    # the memo is not part of the value
    assert sorted(seq.recurrences) == [5, 12]
    assert seq == qlattice(24) and repr(seq) == repr(qlattice(24))


def test_disk_requires_nonreal_point():
    rec = recurrence_from_moments(gauss(10), 4)
    with pytest.raises(NonRealPointRequired):
        weyl_disk(rec, complex_scalar(R, 1, 0), 2)


# ---------------------------------------------------------------------------
# Carleman


def test_carleman_gaussian_diverges():
    seq = generate_moments(GaussianProduct((1,)), 1, 200, R)
    res = carleman(seq, Flavor.HAMBURGER, 100)
    assert R.to_float(res.partial_sum) > 10
    assert res.diverging


def test_carleman_terms_use_256_bits_at_any_working_precision():
    seqs = [generate_moments(GaussianProduct((1,)), 1, 60, FloatMode(bits))
            for bits in (512, 14464)]
    low, high = (carleman(seq, Flavor.HAMBURGER, 30) for seq in seqs)
    assert low.diverging and high.diverging
    assert abs(exact_fraction(low.partial_sum) / exact_fraction(high.partial_sum) - 1) \
        < F(1, 2**250)
    # the moments are integers below 2**512, so both sums are the same
    # 256-bit computation
    assert exact_fraction(low.partial_sum) == exact_fraction(high.partial_sum)
    # the 256-bit sum comes back as a value of the sequence's own mode
    assert seqs[0].mode.is_value(low.partial_sum)


def test_carleman_qlattice_bounded():
    seq = qlattice(200)
    res = carleman(seq, Flavor.HAMBURGER, 100)
    # terms are exactly 4^-k, so the sum sits below 1/3
    assert R.to_float(res.partial_sum) < F(1, 3) + F(1, 10**6)
    assert not res.diverging


def test_carleman_dirac_terms_are_one():
    seq = generate_moments(Atomic(((1,),), (1,)), 1, 40, R)
    res = carleman(seq, Flavor.HAMBURGER, 20)
    assert abs(R.to_float(res.partial_sum) - 20) < 1e-30
    assert res.diverging


def test_carleman_rejects_nonpositive_even_moment():
    bad = sequence_from_1d([F(1), F(0), F(0), F(0), F(0)], R)
    with pytest.raises(NonpositiveEvenMoment):
        carleman(bad, Flavor.HAMBURGER, 2)


# ---------------------------------------------------------------------------
# Stieltjes convergents


def test_convergents_dirac_point():
    seq = generate_moments(Atomic(((1,),), (1,)), 1, 20, R)
    pair = stieltjes_convergents(seq, -1, 4)
    assert pair.even_value == F(1, 2) == pair.odd_value
    assert pair.interval_width == 0


def test_convergents_exponential_shrink():
    seq = generate_moments(Exponential1D(), 1, 62, R)
    widths = [stieltjes_convergents(seq, -1, n).interval_width for n in (5, 10, 20)]
    assert widths[0] > widths[1] > widths[2] > 0
    assert R.to_float(widths[2]) < 1e-6


def test_convergents_nested_intervals():
    for seq in (generate_moments(Exponential1D(), 1, 62, R), qlattice(62)):
        pairs = [stieltjes_convergents(seq, -1, n) for n in range(3, 30, 2)]
        for a, b in zip(pairs, pairs[1:]):
            lo_a, hi_a = min(a.even_value, a.odd_value), max(a.even_value, a.odd_value)
            lo_b, hi_b = min(b.even_value, b.odd_value), max(b.even_value, b.odd_value)
            assert lo_a <= lo_b and hi_b <= hi_a


def test_convergents_need_halfline_support():
    g = gauss(20)
    with pytest.raises(NotStieltjesAdmissible):
        stieltjes_convergents(g, -1, 4)


def halfline_atoms(points, degree=4):
    """Unit-weight atoms at ``points`` under the half-line hint."""
    m = generate_moments(Atomic(tuple((x,) for x in points), (1,) * len(points)), 1, degree,
                         R).moments_1d()
    return sequence_from_1d(m, R, NonnegativeOrthant())


@pytest.mark.parametrize("seq", [halfline_atoms((F(-1, 2), 2)), halfline_atoms((-1,), 2)],
                         ids=["atoms -1/2, 2", "atom -1 at z"])
def test_atomic_convergents_refuse_an_atom_below_zero(seq):
    """A finitely atomic sequence below the level gives the exact transform
    only for atoms on [0, inf): one below 0 is not Stieltjes data, even
    when it sits at z itself."""
    for n in range(2, 4):
        with pytest.raises(NotStieltjesAdmissible, match="an atom lies below 0"):
            stieltjes_convergents(seq, -1, n)


def test_atomic_convergents_keep_an_atom_at_zero():
    """Atoms 0 and 2: both values are the transform 1/1 + 1/3.  An atom at
    0 leaves q_r = 0, which float mode may round below 0: at 128 bits the
    atoms 0, 8/7, 11/3 and 40 give q_4 < 0, within half the bits of e_3."""
    pair = stieltjes_convergents(halfline_atoms((0, 2)), -1, 2)
    assert (pair.even_value, pair.odd_value, pair.interval_width) == (F(4, 3), F(4, 3), 0)
    measure = Atomic(((0,), (F(8, 7),), (F(11, 3),), (40,)),
                     (F(27, 7), F(1, 7), F(10, 3), F(29, 7)))
    exact = sum(w / (x[0] + 1) for x, w in zip(measure.points, measure.weights))
    fm = FloatMode(128)
    seq = sequence_from_1d(generate_moments(measure, 1, 10, fm).moments_1d(), fm,
                           NonnegativeOrthant())
    pair = stieltjes_convergents(seq, -1, 5)
    assert abs(exact_fraction(pair.even_value) - exact) <= exact / 2 ** 100


# moments with mixed denominators, as in test_exact_kernels
DENOMINATORS = (1, 3, 7, 2 ** 20)
fractions = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
weights = st.builds(F, st.integers(1, 30), st.sampled_from(DENOMINATORS))


@st.composite
def halfline_sequences(draw):
    """Rational half-line sequences of three kinds: atomic measures on
    [0, inf) (some with an atom at 0, some with fewer atoms than levels);
    arbitrary data, or atoms on both sides of 0, under the half-line hint;
    and q-lattices."""
    kind = draw(st.sampled_from(("atomic", "data", "lattice")))
    if kind == "lattice":
        q = draw(st.sampled_from((F(3, 2), F(2), F(3))))
        return generate_moments(QLattice1D(q), 1, draw(st.integers(2, 40)), R)
    n = draw(st.integers(1, 8))
    if kind == "data" and draw(st.booleans()):
        m = draw(st.lists(fractions, min_size=2 * n + 1, max_size=2 * n + 1))
        m[0] = abs(m[0]) or F(1)
        return sequence_from_1d(m, R, NonnegativeOrthant())
    points = fractions.map(abs) if kind == "atomic" else fractions
    xs = draw(st.lists(points, min_size=1, max_size=n + 3, unique=True))
    if kind == "atomic" and draw(st.booleans()):
        xs = [F(0)] + [x for x in xs if x]
    ws = draw(st.lists(weights, min_size=len(xs), max_size=len(xs)))
    m = generate_moments(Atomic(tuple((x,) for x in xs), tuple(ws)), 1, 2 * n, R).moments_1d()
    return sequence_from_1d(m, R, NonnegativeOrthant())


def convergent_outcome(fn, seq, z, n):
    try:
        pair = fn(seq, z, n)
    except MomentKitError as exc:
        return type(exc), str(exc)
    return pair, tuple(map(type, (pair.even_value, pair.odd_value, pair.interval_width)))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(halfline_sequences())
@example(sequence_from_1d([F(1), F(0), F(1)], R, NonnegativeOrthant()))     # q_1 = 0
@example(halfline_atoms((F(-1, 2), 2)))                                      # an atom below 0
@example(halfline_atoms((-1,), 2))                                           # ... at z = -1
@example(halfline_atoms((0, 2)))                                             # an atom at 0
@example(sequence_from_1d([F(1), F(1, 2), F(1, 3)], R, NonnegativeOrthant()))  # levels 0, 1
@example(halfline_atoms((0,), 2))                       # rank = level 1, with an atom at 0
@example(halfline_atoms((1, 3)))                        # rank = level 2, = level 1 + 1
@example(halfline_atoms((F(-1, 3), 0, 2), 6))           # atoms at 0 and below, rank 3
@example(qlattice(20, 3))                               # levels order + 1, order + 2
def test_convergents_match_two_pass_radau_oracle(seq):
    """Every level from 0 to two past the recurrence order: the same
    Fractions as the two forward passes and the Radau step, or the same
    error."""
    for z in (-1, F(-1, 3), -7):
        for n in range(seq.max_degree // 2 + 3):
            assert (convergent_outcome(stieltjes_convergents, seq, z, n)
                    == convergent_outcome(convergents_radau, seq, z, n))


@pytest.mark.parametrize("seq", [qlattice(20, 3), halfline_atoms((0, 2))],
                         ids=["positive definite", "finitely atomic"])
def test_rational_convergents_keep_the_pass_at_i(seq):
    """A verdict runs its forward pass at z = i before the convergents; in
    rational mode they run a pass of their own, at every level and in
    both branches, and leave the one kept in ``rec.evals``."""
    rec = recurrence_from_moments(seq, seq.max_degree // 2)
    i = complex_scalar(R, 0, 1)
    ev = ortho_eval(rec, i)
    for n in range(rec.order + 1):
        stieltjes_convergents(seq, -1, n)
        assert list(rec.evals) == [i] and rec.evals[i] is ev


def test_convergents_level_zero_is_the_one_node_radau_value():
    """Level 0: no Gauss node, and all the mass on the node at 0; no level
    below it."""
    pair = stieltjes_convergents(qlattice(20, 3), F(-1, 3), 0)
    assert (pair.even_value, pair.odd_value, pair.interval_width) == (0, 3, 3)
    with pytest.raises(InvalidParameter, match="level must be nonnegative"):
        stieltjes_convergents(qlattice(20, 3), -1, -1)


def test_float_convergents_keep_their_bits():
    """A Radau change to the top coefficient (``convergents_radau``) keeps
    about 36 of the 128 bits of the odd value here; the Wallis loop adds
    positive terms only and keeps them."""
    exact = stieltjes_convergents(qlattice(60, 3), -1, 29)
    fm = FloatMode(128)
    pair = stieltjes_convergents(generate_moments(QLattice1D(3), 1, 60, fm), -1, 29)
    for got, want in ((pair.odd_value, exact.odd_value),
                      (pair.interval_width, exact.interval_width)):
        assert abs(exact_fraction(got) - want) <= want * F(1, 2 ** 120)


# ---------------------------------------------------------------------------
# verdicts


def test_gaussian_verdict_determinate():
    seq = generate_moments(GaussianProduct((1,)), 1, 80, R)
    v = verdict_1d(seq)
    assert v.status is Status.DETERMINATE
    carleman_items = [e for e in v.evidence if e.criterion == "carleman"]
    assert carleman_items and carleman_items[0].sufficiency is Sufficiency.RIGOROUS_SUFFICIENT


def test_qlattice_verdict_indeterminate_numeric():
    seq = qlattice(62)
    v = verdict_1d(seq, Flavor.HAMBURGER)
    assert v.status is Status.INDETERMINATE
    assert v.numeric_flagged
    assert any(e.criterion == "christoffel-plateau" for e in v.evidence)


def test_indefinite_raises_not_admissible():
    bad = sequence_from_1d([F(1), F(0), F(-1)], R)
    with pytest.raises(NotAdmissible):
        verdict_1d(bad)


def test_singular_data_without_flat_extension_not_admissible():
    # m_2 = 0 forces the point mass at 0, whose m_4 vanishes: no measure has
    # these moments although the Hankel matrix is PSD of rank 2
    seq = sequence_from_1d([F(1), F(0), F(0), F(0), F(1)], R)
    adm = admissibility_check(hankel(seq, 2))
    assert (adm.classification, adm.rank) == ("positive_semidefinite", 2)
    with pytest.raises(NotAdmissible):
        recurrence_from_moments(seq, 2)
    with pytest.raises(NotAdmissible):
        verdict_1d(seq)
    # float mode cannot tell a surviving row from lost bits
    fm = FloatMode(128)
    with pytest.raises(PrecisionExhausted):
        recurrence_from_moments(sequence_from_1d([fm.convert(v) for v in (1, 0, 0, 0, 1)],
                                                 fm), 2)


def test_atomic_verdict_determinate_by_rank():
    seq = generate_moments(Atomic(((0,), (2,), (5,)), (1, 1, 1)), 1, 20, R)
    v = verdict_1d(seq)
    assert v.status is Status.DETERMINATE
    assert any(e.criterion == "hankel-rank" and
               e.sufficiency is Sufficiency.RIGOROUS_SUFFICIENT for e in v.evidence)


def test_verdict_without_certificate_is_not_determinate():
    # same Gaussian numbers but stripped of the growth certificate
    seq = sequence_from_1d(generate_moments(GaussianProduct((1,)), 1, 80, R).moments_1d(), R)
    v = verdict_1d(seq)
    assert v.status is not Status.DETERMINATE
    v2 = verdict_1d(sequence_from_1d(seq.moments_1d(), R,
                                     meta={"carleman_growth_certified": True}))
    assert v2.status is Status.DETERMINATE


def test_convergents_float_mode():
    from momentkit.scalars import default_float_bits

    fm = FloatMode(default_float_bits(40))
    seq = generate_moments(Exponential1D(), 1, 40, fm)
    widths = [stieltjes_convergents(seq, -1, n).interval_width for n in (5, 10, 18)]
    assert float(widths[0]) > float(widths[1]) > float(widths[2]) > 0
    assert float(widths[2]) < 1e-5
