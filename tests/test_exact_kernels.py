"""The integer kernels against their scalar oracles.

``hamburger._factorize`` and ``hamburger._forward_pass`` keep integer
numerators over one denominator per row or level in rational mode and take
only the gcds that cancel: a row is content-reduced, while a level may
keep a rare common factor, so examples whose levels keep one are pinned.
In float mode ``_factorize`` runs its sigma rows on raw mpmath
mantissa/exponent tuples through ``scalars.raw_mul`` and its siblings,
momentkit's own round-to-nearest on the integer mantissas, and keeps their
noise floors as binary64 ``log2`` magnitudes, and ``_forward_pass`` runs
its loop on (value, 1) pairs.
``oracles.factorize_fractions`` and ``oracles.forward_pass_fractions`` do
the arithmetic entry by entry in the mode's scalars, with the mpf
operators in float mode.
``hamburger.stieltjes_convergents`` runs, in rational mode, one pass over
integer levels of pi_k(z), Q_k(z) and pi_k(0) through the forward pass's
level step and takes the Radau step off its top two levels, and in float
mode the Wallis loop on plain mpf values (a Radau step cancels bits
there); ``oracles.convergents_wallis`` runs the Wallis loop on four
scalars of the mode.  Both refuse finitely atomic data with an atom below
0.  The rational recurrence keeps its exact pivots, whose ``Fraction``s are
the norms ``beta_0 ... beta_k``, on the plain route, the base route and at
an early-stop rank.  ``hamburger.christoffel`` and
``hamburger.weyl_radius_sq`` build one ``Fraction`` from the integer
levels and pivots; ``oracles.christoffel_fractions`` and
``oracles.weyl_radius_sq_fractions`` take a chain of ``Fraction``
operations on the oracle's pass.  The convergents' pass kept on the
recurrence gives the pairs of fresh passes in any call order.
``hamburger._content`` and ``hamburger._divide_out``, the one content
reduction of the kernels, are checked against ``math.gcd``.
``moments.image_moments`` builds the image-moment table on integer
numerators over one denominator, ``oracles.image_moments_fractions`` on the
mode's scalars.  ``gaps._grid_columns`` makes each grid-LP column entry an
integer over its row's denominator, ``oracles.grid_columns_entrywise`` a
product of the mode's scalars, and ``gaps.grid_gap_lp`` is solved on both;
wide float entries round once.  Every output
must be equal and of the same type, every error of the same class with the
same message, and float values bit-identical; the float recurrence is
checked at 64, 128 and 512 bits, its sigma rows included, and its noise
floors as ``log2`` magnitudes within 1e-9 relative of the oracle's ``mpf``
floors (at 40 bits and up; below, the oracle's floors round off more).
Its decisions are swept over seven families at 48 to 200 bits.  The float
row kernel, which skips products by an exact zero and runs every second
entry on symmetric data, is held ``==`` to ``oracles.float_row_termwise``,
the entry-by-entry kernel it replaced, rows and binary64 floors alike;
that oracle runs on mpmath's tuple functions and sums its floors left to
right, so neither the raw arithmetic nor Python's compensated ``sum``
(3.12 on) stands on both sides.
"""

import math
import operator
import warnings
from fractions import Fraction as F
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from momentkit import gaps, hamburger
from momentkit.curves import _weighted_lift, catalog, lift_and_test
from momentkit.errors import (AtomsOnRamificationWarning, InvalidParameter, MomentKitError,
                              PrecisionExhausted)
from momentkit.moments import (Atomic, Exponential1D, GaussianProduct, LogNormal1D,
                               MomentSequence, NonnegativeOrthant, QLattice1D, generate_moments,
                               image_moments, sequence_from_1d)
from momentkit.polynomials import multi_indices
from momentkit.scalars import ComplexScalar, FloatMode, RationalMode, complex_scalar, exact_fraction
from momentkit.simplex import measure_bounds
from oracles import (christoffel_direct, christoffel_fractions, convergents_wallis,
                     factorize_fractions, float_row_termwise, forward_pass_fractions,
                     grid_columns_entrywise, image_moments_fractions, weyl_radius_sq_fractions)

R = RationalMode()
F128 = FloatMode(128)
# float mode at the smallest, a middle and a large working precision
MODES = (R, FloatMode(64), F128, FloatMode(512))
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# moments with mixed denominators: 1/3, 1/7 and 2**-20 side by side
DENOMINATORS = (1, 3, 7, 2 ** 20)
points = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
weights = st.builds(F, st.integers(1, 30), st.sampled_from(DENOMINATORS))
# evaluation points such as 1/3 + (2/7)i, and real ones
parts = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))
points_z = st.one_of(st.builds(lambda re: (re, F(0)), parts), st.tuples(parts, parts))


def atomic(draw, atoms):
    xs = draw(st.lists(points, min_size=atoms, max_size=atoms, unique=True))
    ws = draw(st.lists(weights, min_size=atoms, max_size=atoms))
    return Atomic(tuple((x,) for x in xs), tuple(ws))


@st.composite
def measures(draw):
    """(measure, order): up to n + 3 atoms, so both full-order recurrences
    and the rank early stop (fewer than n + 1 atoms) are drawn."""
    n = draw(st.integers(1, 8))
    return atomic(draw, draw(st.integers(1, n + 3))), n


def outcome(fn, *args):
    try:
        return fn(*args)
    except MomentKitError as exc:
        return type(exc), str(exc)


def same(a, b) -> bool:
    """Equal with the same types, element by element; mpf values equal in
    their raw mantissa and exponent (bit-identical)."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, ComplexScalar):
        return isinstance(b, ComplexScalar) and same(a.re, b.re) and same(a.im, b.im)
    if hasattr(a, "_mpf_"):
        return hasattr(b, "_mpf_") and a._mpf_ == b._mpf_
    return type(a) is type(b) and a == b


def factorize_with(kernel, factorize) -> tuple:
    """The outcome of ``factorize()`` with ``kernel`` as its float row
    kernel, the (sigma row, noise row) pairs the kernel returned (raw
    tuples and log2 floors) and the steps it was asked for."""
    rows, steps = [], []

    def recording(*args):
        steps.append(args[-1])
        rows.append(kernel(*args))
        return rows[-1]
    with mock.patch.object(hamburger, "_float_row", recording):
        return outcome(factorize), rows, steps


def log2_abs(x) -> float:
    """log2|x| of an mpf, -inf for 0."""
    _, man, exp, _ = x._mpf_
    return math.log2(man) + exp if man else -math.inf


def same_floor(got: float, want) -> bool:
    """A log2 floor of the engine against the oracle's mpf floor: equal
    logs (both -inf for 0), or within 1e-9 relative to the log, at least
    1e-9 absolute."""
    want = log2_abs(want)
    return got == want or abs(got - want) <= 1e-9 * max(1, abs(want))


def check_recurrence(seq, n):
    """Same outcome as the oracle, and in float mode the same sigma rows bit
    for bit and the same noise floors as log2 magnitudes within ``same_floor``:
    a floor decides nothing unless a pivot sits near it, so the floors are
    compared themselves."""
    got, rows, _ = factorize_with(hamburger._float_row, lambda: hamburger._factorize(seq, n))
    want_rows = []
    want = outcome(factorize_fractions, seq, n, want_rows)
    if isinstance(seq.mode, FloatMode):
        assert len(rows) == len(want_rows)
        for k, ((row, noi), (sig, sig_noi)) in enumerate(zip(rows, want_rows), 1):
            cells = range(k, 2 * n - k + 1)
            assert [row[l] for l in cells] == [sig[l]._mpf_ for l in cells]
            assert all(same_floor(noi[l], sig_noi[l]) for l in cells)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert same((got.alpha, got.beta, got.pivot_log),
                (want.alpha, want.beta, want.pivot_log))
    return got


def check_pass(rec, z):
    """The pass's values, each sequence read whole as a tuple (the engine
    builds its entries on read), against the oracle's; the passes compare
    equal as values."""
    got = hamburger._forward_pass(rec, z)
    want = forward_pass_fractions(rec, z)
    assert same(tuple(map(tuple, (got.first, got.second, got.norm_sq))),
                (want.first, want.second, want.norm_sq))
    assert got == want and got.second == want.second


def atoms(points, weights) -> Atomic:
    return Atomic(tuple((F(x),) for x in points), tuple(map(F, weights)))


# small integer data whose levels keep a common factor that the crosswise
# gcds of a Fraction product would cancel: the level step leaves it in
@SETTINGS
@given(measures(), points_z)
@example((atoms((-1, -6), (1, 1)), 2), (F(2), F(3)))
@example((atoms((4, -3, 1), (3, 1, 4)), 2), (F(1), F(1)))
@example((atoms((0, 5, -6), (2, 4, 4)), 3), (F(-1), F(0)))
@example((atoms((3, -5, -2), (1, 4, 4)), 5), (F(1, 2), F(1)))
def test_recurrence_and_pass_match_oracles(measure_and_n, z):
    measure, n = measure_and_n
    for mode in MODES:
        seq = generate_moments(measure, 1, 2 * n, mode)
        rec = check_recurrence(seq, n)
        if rec is not None:
            check_pass(rec, complex_scalar(mode, *z))


@SETTINGS
@given(st.lists(st.builds(F, st.integers(-30, 30), st.sampled_from(DENOMINATORS)),
                min_size=3, max_size=15))
@example([F(1), F(0), F(0), F(0), F(1)])        # no flat extension
@example([F(1), F(0), F(-1)])                   # ||pi_1||^2 < 0
@example([F(0), F(0), F(1)])                    # m_0 = 0
def test_arbitrary_data_same_outcome(m):
    """Mostly non-admissible data: the same error class and message, or the
    same recurrence."""
    m = m[: 2 * ((len(m) - 1) // 2) + 1]
    n = (len(m) - 1) // 2
    for mode in MODES:
        seq = outcome(sequence_from_1d, [mode.convert(x) for x in m], mode)
        if not isinstance(seq, tuple):      # a negative m_0 is refused on entry
            check_recurrence(seq, n)


@SETTINGS
@given(measures(), st.integers(1, 3), st.builds(F, st.integers(1, 50), st.sampled_from(DENOMINATORS)))
def test_non_flat_rows_same_error(measure_and_n, gap, c):
    """Singular data whose dead pivot leaves a surviving row."""
    measure, _ = measure_and_n
    atoms = len(measure.points)
    n = atoms + gap
    m = generate_moments(measure, 1, 2 * n, R).moments_1d()
    m[-1] += c
    check_recurrence(sequence_from_1d(m, R), n)


GAUSS = GaussianProduct((F(1),))
QL2 = QLattice1D(F(2))


@pytest.mark.parametrize("measure, degree, bits, error", [
    (QL2, 48, 160, None), (QL2, 62, 128, None), (GAUSS, 60, 184, None),
    (GAUSS, 120, 512, None), (LogNormal1D(F(1, 2)), 40, 144, None),
    (GAUSS, 120, 128, (PrecisionExhausted,
                       "pivot at step 42 keeps fewer than half the working bits")),
])
def test_float_families_bit_identical(measure, degree, bits, error):
    """Alpha, beta, the pivot log, the sigma rows and their noise floors
    bit-identical to the oracle, or the same error.  Three cases are the
    float runs of the ``analyze-float`` benchmark: gauss120 at float:512,
    ql62 at float:128 and lognormal40 at 144 bits, where a spec without a
    mode starts (64 + 2N bits).  The others are sweep points: ql48 at 160
    and gauss60 at 184 bits, the precisions their mode-less specs would
    start at, though rational specs without a mode run exactly, and
    gauss120 at 128 bits, which runs out of headroom."""
    seq = generate_moments(measure, 1, degree, FloatMode(bits))
    rec = check_recurrence(seq, degree // 2)
    assert (outcome(hamburger._factorize, seq, degree // 2) if rec is None else None) == error


@pytest.mark.parametrize("measure, degree", [
    (GAUSS, 60), (QL2, 40), (QLattice1D(F(3)), 40), (Exponential1D(), 40),
    (LogNormal1D(F(1, 4)), 30), (LogNormal1D(F(1, 2)), 30), (LogNormal1D(F(1)), 30),
])
def test_float_decisions_match_the_mpf_floor_oracle(measure, degree):
    """The pivot decisions on log2 floors against the oracle's mpf floors
    at 48 to 200 bits in steps of 8, where the half-bits rule moves its
    step with the precision: the same recurrence or the same error, step
    included, and floors within ``same_floor``.  Below about 40 bits the
    oracle's own floors round off more than that."""
    for bits in range(48, 201, 8):
        check_recurrence(generate_moments(measure, 1, degree, FloatMode(bits)), degree // 2)


def check_float_rows(factorize) -> set:
    """``factorize()`` run once with ``hamburger._float_row`` and once with
    ``oracles.float_row_termwise``, which computes every entry whatever the
    step: the rows and floors ``==``, binary64 floors included, and the
    same recurrence or the same error; the steps the kernel ran."""
    got, rows, steps = factorize_with(hamburger._float_row, factorize)
    want, want_rows, _ = factorize_with(lambda *args: float_row_termwise(*args[:-1]), factorize)
    assert rows == want_rows
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same((got.alpha, got.beta, got.pivot_log, got.rank),
                    (want.alpha, want.beta, want.pivot_log, want.rank))
    return set(steps)


@pytest.mark.parametrize("measure, degree, bits", [
    (GAUSS, 120, 512), (QL2, 62, 128), (LogNormal1D(F(1, 2)), 40, 144),
    *((GAUSS, 60, bits) for bits in range(48, 201, 8)),
])
def test_float_rows_match_the_termwise_kernel(measure, degree, bits):
    """The float row kernel, which skips products by an exact zero, sums a
    fixed list of floor terms and runs every second entry on symmetric
    data, against the entry-by-entry kernel it replaced: rows and floors
    ``==``, on the float runs of the ``analyze-float`` benchmark and a
    sweep of the Gaussian at 48 to 200 bits."""
    seq = generate_moments(measure, 1, degree, FloatMode(bits))
    assert check_float_rows(lambda: hamburger._factorize(seq, degree // 2)) == {
        2 if measure is GAUSS else 1}


@st.composite
def symmetric_measures(draw):
    """(measure, order): atoms +-x with equal weights, with or without an
    atom at 0."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.integers(1, (n + 3) // 2))
    xs = draw(st.lists(st.builds(F, st.integers(1, 40), st.sampled_from(DENOMINATORS)),
                       min_size=pairs, max_size=pairs, unique=True))
    ws = draw(st.lists(weights, min_size=pairs, max_size=pairs))
    points, masses = [-x for x in xs] + xs, ws + ws
    if draw(st.booleans()):
        points, masses = points + [F(0)], masses + [draw(weights)]
    return atoms(points, masses), n


@SETTINGS
@given(symmetric_measures())
def test_float_rows_match_the_termwise_kernel_on_symmetric_atoms(measure_and_n):
    """The exact moments rounded into each float mode, so that the odd
    ones are exact zeros (a float sum over the atoms may leave a rounding
    there); the early stop at the rank included."""
    measure, n = measure_and_n
    m = generate_moments(measure, 1, 2 * n, R).moments_1d()
    for mode in MODES[1:]:
        seq = sequence_from_1d([mode.convert(x) for x in m], mode)
        assert check_float_rows(lambda: hamburger._factorize(seq, n)) == {2}


def test_a_zero_alpha_alone_runs_every_entry():
    """Atoms -1 and 2 with weights 2 and 1: alpha_0 = 0, so row 1 skips its
    products by alpha_0, but m_3 != 0 and every entry runs."""
    for mode in MODES[1:]:
        seq = generate_moments(atoms((-1, 2), (2, 1)), 1, 8, mode)
        assert seq.moments_1d()[1] == 0 != seq.moments_1d()[3]
        assert check_float_rows(lambda: hamburger._factorize(seq, 4)) == {1}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("curve, step", [
    ("nodal_cubic", 2), ("lhospital_quintic", 2), ("ramphoid_quartic", 1),
])
def test_float_lift_rows_match_the_termwise_kernel(curve, step, bits):
    """Float weighted lifts of a Gaussian sigma on the base route, sigma's
    own factorization included: an even weight keeps the lift symmetric and
    every a_l = 0, so every second entry runs; the ramphoid weight is not
    even."""
    sigma = generate_moments(GAUSS, 1, 40, FloatMode(bits))
    assert check_float_rows(lambda: base_route(sigma, curve)) == {2, step}


def test_a_base_with_a_nonzero_a_l_runs_every_entry():
    """Gaussian moments to degree 20 but m_9 = 1/10**4: alpha_0 .. alpha_3
    are 0 and alpha_4 is not.  The nodal lift's odd modified moments nu_1
    and nu_3 read moments to degree 7 only and vanish, so only the base's
    a_l keep every entry running."""
    m = generate_moments(GAUSS, 1, 20, R).moments_1d()
    m[9] = F(1, 10 ** 4)
    for bits in (128, 256):
        mode = FloatMode(bits)
        sigma = sequence_from_1d([mode.convert(x) for x in m], mode)
        assert check_float_rows(lambda: base_route(sigma, "nodal_cubic")) == {1}


def lhospital_lift(mode):
    """The q = 2 lattice to degree 60, the lift of a measure on the
    l'Hospital quintic, weighted by the square of its ramification weight:
    ~48k-bit moments."""
    curve = catalog("lhospital_quintic")
    seq = _weighted_lift(generate_moments(QLattice1D(2), 1, 60, mode), curve.weight)
    return check_recurrence(seq, seq.max_degree // 2)


@pytest.fixture(scope="module")
def lhospital_rec():
    """The plain factorization of the rational lhospital lift, checked
    against the oracle once for every test of this module."""
    return lhospital_lift(R)


def lift_factorizations(monkeypatch, sigma, curve_name) -> tuple:
    """The verdict of ``lift_and_test`` on the lift sigma of a measure on a
    catalog curve, and the (seq, n, base, recurrence) of every
    factorization it makes."""
    made = []
    real = hamburger._factorize

    def recording(seq, n, base=None):
        made.append((seq, n, base, real(seq, n, base)))
        return made[-1][-1]
    monkeypatch.setattr(hamburger, "_factorize", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AtomsOnRamificationWarning)
        verdict = lift_and_test(sigma, catalog(curve_name))
    monkeypatch.undo()
    return verdict, made


def classes(verdict) -> tuple:
    return verdict.status, sorted((e.criterion, e.sufficiency) for e in verdict.evidence)


SOURCES = {"ql60": (QL2, 60), "gauss80": (GAUSS, 80), "expo40": (Exponential1D(), 40)}
CURVES = ("nodal_cubic", "ramphoid_quartic", "lhospital_quintic")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("curve", CURVES)
def test_weighted_lift_by_modification_matches_plain_oracle(source, curve, monkeypatch,
                                                            lhospital_rec):
    """A curve lift factorizes its weighted lift from the source recurrence
    and the banded modified moments of weight**2: alpha, beta and the
    pivots are those of the plain oracle on the weighted moments, equal
    with the same types (the q = 2 lhospital lift reads the module's
    oracle-checked recurrence)."""
    measure, degree = SOURCES[source]
    verdict, made = lift_factorizations(monkeypatch, generate_moments(measure, 1, degree, R),
                                        curve)
    (_, _, source_base, _), (seq, n, base, got) = made
    assert source_base is None and base is not None
    assert base[1] == 2 * (len(catalog(curve).weight) - 1)
    if (source, curve) == ("ql60", "lhospital_quintic"):
        want = lhospital_rec
    else:
        want = factorize_fractions(seq, n)
    assert same((got.alpha, got.beta, got.pivot_log), (want.alpha, want.beta, want.pivot_log))
    # float:128 takes the same path: the rational status and evidence
    # classes, and alpha, beta within half the working bits
    verdict_f, made_f = lift_factorizations(monkeypatch,
                                            generate_moments(measure, 1, degree, F128), curve)
    (_, _, base_f, rec_f) = made_f[-1]
    assert base_f is not None and classes(verdict_f) == classes(verdict)
    for x, e in zip(rec_f.alpha + rec_f.beta, got.alpha + got.beta, strict=True):
        assert abs(exact_fraction(x) - e) <= max(abs(e), 1) / 2 ** 64


@pytest.mark.parametrize("points, weights, curve, based", [
    ((1, 3), (F(1, 2), F(1, 2)), "nodal_cubic", False),     # an atom on the ramification set
    ((0,), (1,), "nodal_cubic", False),
    ((2, 3), (F(1, 2), F(1, 2)), "nodal_cubic", False),
    (tuple(range(20)), tuple(F(1, k + 1) for k in range(20)), "ramphoid_quartic", True),
])
def test_atomic_lifts_match_plain_oracle(points, weights, curve, based, monkeypatch):
    """An atomic source that stops at its rank is no base: the weighted lift
    runs the same kernel with plain rows.  Twenty atoms outrank order 15,
    so that lift takes the base path.  Either way every factorization
    equals the oracle's."""
    sigma = generate_moments(Atomic(tuple((x,) for x in points), weights), 1, 30, R)
    _, made = lift_factorizations(monkeypatch, sigma, curve)
    assert [base is not None for _, _, base, _ in made] == [False, based]
    for seq, n, _, got in made:
        want = factorize_fractions(seq, n)
        assert same((got.alpha, got.beta, got.pivot_log),
                    (want.alpha, want.beta, want.pivot_log))


def test_short_base_recurrence_is_refused():
    """A base must reach the last band entry: order 13 of the lift with
    width 4 reads b_15, so the lift's order-15 recurrence serves and its
    order-14 prefix does not."""
    curve = catalog("nodal_cubic")
    sigma = generate_moments(GAUSS, 1, 30, R)
    seq = _weighted_lift(sigma, curve.weight)
    want = factorize_fractions(seq, 13)
    got = hamburger._factorize(seq, 13, (hamburger._factorize(sigma, 15), 4))
    assert same((got.alpha, got.beta, got.pivot_log), (want.alpha, want.beta, want.pivot_log))
    with pytest.raises(InvalidParameter, match="needs order 15, not 14"):
        hamburger._factorize(seq, 13, (hamburger._factorize(sigma, 14), 4))


def test_verdict_leaves_the_second_kind_unbuilt(monkeypatch):
    """A verdict on a rational lift reads the first kind only; the second
    kind is built on its first read and equals the oracle's."""
    kinds = []
    real = hamburger._levels
    monkeypatch.setattr(hamburger, "_levels", lambda mode, a, b, z, first:
                        kinds.append(first) or real(mode, a, b, z, first))
    curve = catalog("nodal_cubic")
    sigma = generate_moments(GAUSS, 1, 80, R)
    seq = _weighted_lift(sigma, curve.weight)
    hamburger.verdict_1d(seq)
    rec = seq.recurrences[seq.max_degree // 2]
    (z, ev), = rec.evals.items()
    assert kinds == [True]
    want = forward_pass_fractions(rec, z)
    assert same(tuple(ev.second), want.second)
    assert kinds == [True, False]


@pytest.mark.parametrize("z", [(0, 1), (-1, 0), (0, 0), (F(1, 3), F(2, 7))])
def test_weighted_lhospital_lift_matches_oracles(z, lhospital_rec):
    check_pass(lhospital_rec, complex_scalar(R, *z))


def test_weighted_lhospital_lift_float_bit_identical():
    rec = lhospital_lift(F128)
    for z in ((0, 1), (-1, 0)):
        check_pass(rec, complex_scalar(F128, *z))


# ---------------------------------------------------------------------------
# Christoffel values, Weyl radii and the exact pivot norms

#: the non-real points of the Christoffel and Weyl checks
CHRISTOFFEL_POINTS = ((0, 1), (F(1, 3), F(2, 7)), (-5, F(1, 2)))


def check_christoffel(rec, z, seq=None):
    """``christoffel`` and ``weyl_radius_sq`` at every level from 0 to one
    past the order against the Fraction chains of the oracles on the
    oracle's pass: equal with the same types (bit-identical in float
    mode), or the same error.  Given ``seq``, rational values below the
    rank are also the Hankel solve of ``christoffel_direct``.  The
    verdict's ratios of rational values, at n and n // 2, are their
    quotients read by ``to_float``."""
    mode = rec.mode
    ev = forward_pass_fractions(rec, z)
    values = []
    for n in range(rec.order + 2):
        rho = outcome(hamburger.christoffel, rec, z, n)
        want = outcome(christoffel_fractions, rec, ev, n)
        assert same(rho, want)
        radius_sq = outcome(hamburger.weyl_radius_sq, rec, z, n)
        assert same(radius_sq, outcome(weyl_radius_sq_fractions, rec, ev, n,
                                       None if isinstance(want, tuple) else want))
        if seq is not None and not isinstance(rho, tuple) and n < rec.rank:
            assert rho == christoffel_direct(seq, z, n)
        values.append((rho, radius_sq))
    if isinstance(mode, RationalMode):
        for n, pair in enumerate(values):
            for a, b in zip(pair, values[n // 2]):
                if not isinstance(a, tuple) and not isinstance(b, tuple) and a > 0 < b:
                    assert hamburger._float_ratio(mode, a, b) == mode.to_float(a / b)


def check_norms(rec):
    """The norms read off the exact pivots are the products beta_0 ...
    beta_k, equal with the same types."""
    assert len(rec._pivots) == len(rec.beta)
    assert same(tuple(rec.norm_sq), tuple(accumulate(rec.beta, operator.mul)))


@SETTINGS
@given(measures())
@example((atoms((-1, -6), (1, 1)), 2))                  # rank 2 = order
@example((atoms((4, -3, 1), (3, 1, 4)), 5))             # rank 3 below order 5
@example((atoms((3, -5, -2, 7), (1, 4, 4, 1)), 3))      # positive definite
def test_christoffel_and_weyl_match_the_fraction_chain(measure_and_n):
    """Atomic data in rational mode and at 64 to 512 bits, positive
    definite or stopping at its rank, at the three points."""
    measure, n = measure_and_n
    for mode in MODES:
        seq = generate_moments(measure, 1, 2 * n, mode)
        rec = outcome(hamburger.recurrence_from_moments, seq, n)
        if isinstance(rec, tuple):
            # a float recurrence without headroom; check_recurrence compares its error
            continue
        if mode is R:
            check_norms(rec)
        for z in CHRISTOFFEL_POINTS:
            check_christoffel(rec, complex_scalar(mode, *z), seq if mode is R else None)


@pytest.mark.parametrize("measure, degree", [(GAUSS, 40), (QL2, 30), (Exponential1D(), 24)],
                         ids=["gauss40", "ql30", "expo24"])
def test_christoffel_and_weyl_of_families_match_the_fraction_chain(measure, degree):
    """Positive definite families in rational mode and at 128 and 512 bits
    (at 64 the Gaussian and the exponential keep too few pivot bits)."""
    for mode in (R, F128, FloatMode(512)):
        seq = generate_moments(measure, 1, degree, mode)
        rec = hamburger.recurrence_from_moments(seq, degree // 2)
        for z in CHRISTOFFEL_POINTS:
            check_christoffel(rec, complex_scalar(mode, *z), seq if mode is R and degree < 30
                              else None)


@pytest.mark.parametrize("z", CHRISTOFFEL_POINTS)
def test_lhospital_lift_christoffel_and_weyl_match_the_fraction_chain(z, lhospital_rec):
    """The ql60 l'Hospital lift at every level: the verdict's two
    Christoffel values and radii below the order, and the lift's witness
    at the order.  (``christoffel_direct``'s Hankel solve on its
    ~48k-bit moments would take minutes.)"""
    check_christoffel(lhospital_rec, complex_scalar(R, *z))


def base_route(sigma, curve):
    """The factorization of the lift sigma weighted by the square of the
    curve's weight, from sigma's own recurrence, as ``lift_and_test``
    makes it."""
    seq = _weighted_lift(sigma, catalog(curve).weight)
    source = hamburger._factorize(sigma, sigma.max_degree // 2)
    return hamburger._factorize(seq, seq.max_degree // 2,
                                (source, sigma.max_degree - seq.max_degree))


@pytest.mark.parametrize("make", [
    lambda: hamburger._factorize(generate_moments(GAUSS, 1, 40, R), 20),
    lambda: hamburger._factorize(generate_moments(QL2, 1, 60, R), 30),
    lambda: hamburger._factorize(generate_moments(atoms((1, 2, 5), (1, 1, 3)), 1, 10, R), 5),
    lambda: base_route(generate_moments(GAUSS, 1, 30, R), "nodal_cubic"),
    lambda: base_route(generate_moments(QL2, 1, 60, R), "lhospital_quintic"),
], ids=["plain gauss40", "plain ql60", "rank 3 of order 5", "base nodal gauss30",
        "base lhospital ql60"])
def test_pivot_norms_are_the_beta_products(make):
    check_norms(make())


def test_verdict_builds_no_level_or_norm():
    """A rational verdict reads its Christoffel values and Weyl radii off
    the integer levels and pivots: it builds no level's values and no
    norm."""
    seq = _weighted_lift(generate_moments(GAUSS, 1, 80, R), catalog("nodal_cubic").weight)
    hamburger.verdict_1d(seq)
    rec = seq.recurrences[seq.max_degree // 2]
    (_, ev), = rec.evals.items()
    assert ev.first._built == {} and rec.norm_sq._built == {}
    assert ev.norm_sq is rec.norm_sq


# ---------------------------------------------------------------------------
# Stieltjes convergents and the content kernel

CONVERGENT_POINTS = (-1, F(-1, 3), -7)
half_line_points = st.builds(F, st.integers(0, 40), st.sampled_from(DENOMINATORS))


@st.composite
def convergent_sequences(draw):
    """Half-line data in rational mode or at 64 or 128 bits: a q-lattice (q
    = 3/2, 2, 3), the exponential, the log-normal s = 1/2 (float only), an
    atomic measure on [0, inf) (rank below the order or not), or atoms on
    both sides of 0 under the half-line hint, which is not Stieltjes
    data."""
    mode = draw(st.sampled_from((R, FloatMode(64), F128)))
    kinds = ("lattice", "exponential", "atomic", "two-sided")
    kind = draw(st.sampled_from(kinds + (() if mode is R else ("log-normal",))))
    if kind in ("atomic", "two-sided"):
        xs = draw(st.lists(half_line_points if kind == "atomic" else points,
                           min_size=1, max_size=8, unique=True))
        ws = draw(st.lists(weights, min_size=len(xs), max_size=len(xs)))
        m = generate_moments(Atomic(tuple((x,) for x in xs), tuple(ws)), 1,
                             draw(st.integers(2, 20)), mode).moments_1d()
        return sequence_from_1d(m, mode, NonnegativeOrthant())
    measure = {"lattice": QLattice1D(draw(st.sampled_from((F(3, 2), F(2), F(3))))),
               "exponential": Exponential1D(), "log-normal": LogNormal1D(F(1, 2))}[kind]
    return generate_moments(measure, 1, draw(st.integers(2, 40)), mode)


def half_line(measure, degree, mode=R):
    """The moments of ``measure`` under the half-line hint."""
    m = generate_moments(measure, 1, degree, mode).moments_1d()
    return sequence_from_1d(m, mode, NonnegativeOrthant())


def check_convergents(seq, zs=CONVERGENT_POINTS):
    """Every level from 0 to two past the order, at each point of ``zs``:
    the oracle's values with the same types (bit-identical in float mode),
    or the same error."""
    for z in zs:
        for n in range(seq.max_degree // 2 + 3):
            assert same(outcome(hamburger.stieltjes_convergents, seq, z, n),
                        outcome(convergents_wallis, seq, z, n))


@SETTINGS
@given(convergent_sequences())
@example(sequence_from_1d([F(4, 3), F(1, 3), F(1, 3)], R, NonnegativeOrthant()))
@example(sequence_from_1d([F(1), F(0), F(1)], R, NonnegativeOrthant()))     # q_1 = 0
@example(sequence_from_1d([F(1), F(-1), F(1)], R, NonnegativeOrthant()))    # atom on z = -1
@example(half_line(atoms((F(-1, 2), 2), (1, 1)), 4))                       # an atom below 0
@example(half_line(atoms((0, 2), (1, 1)), 4))                               # an atom at 0
@example(half_line(atoms((4, 7, 8, 6, 2), (4, 4, 3, 4, 4)), 6))     # levels with a common factor
@example(sequence_from_1d([F(1), F(1, 2), F(1, 3)], R, NonnegativeOrthant()))  # levels 0, 1
@example(half_line(atoms((0,), (1,)), 2))               # rank = level 1, with an atom at 0
@example(half_line(atoms((1, 3), (1, 1)), 4))           # rank = level 2, = level 1 + 1
@example(half_line(atoms((F(-1, 3), 0, 2), (1, 1, 1)), 6))      # atoms at 0 and below, rank 3
@example(generate_moments(QLattice1D(3), 1, 20, R))     # levels order + 1, order + 2
@example(sequence_from_1d([F128.convert(v) for v in (1, F(1, 2), F(1, 3))], F128,
                          NonnegativeOrthant()))                        # ... in float mode
@example(half_line(atoms((0,), (1,)), 2, F128))
@example(half_line(atoms((1, 3), (1, 1)), 4, F128))
@example(half_line(atoms((F(-1, 3), 0, 2), (1, 1, 1)), 6, F128))
@example(generate_moments(QLattice1D(3), 1, 20, FloatMode(64)))
def test_convergents_match_wallis_oracle(seq):
    check_convergents(seq)


@SETTINGS
@given(convergent_sequences(),
       st.lists(st.tuples(st.sampled_from(CONVERGENT_POINTS), st.integers(0, 22)),
                min_size=1, max_size=8))
@example(generate_moments(QLattice1D(3), 1, 20, R),
         [(-1, 9), (-1, 4), (-1, 10), (F(-1, 3), 2), (-1, 3), (-1, 12)])
@example(half_line(atoms((-1, 7, -2, -3), (5, 5, 3, 2)), 6),  # pi_2(0) fails, pi_3(0) does not
         [(-1, 3), (-1, 1), (-1, 0), (-1, 3)])
@example(half_line(atoms((F(-1, 3), 0, 2), (1, 1, 1)), 6), [(-1, 3), (-1, 1), (-7, 3)])
def test_kept_convergents_pass_matches_fresh_passes(seq, calls):
    """Calls at any points and levels, in any order, on one sequence, whose
    recurrence keeps the convergents' pass at its last point, give the
    pairs or the errors of a fresh sequence per call."""
    for z, n in calls:
        fresh = sequence_from_1d(seq.moments_1d(), seq.mode, seq.support)
        assert same(outcome(hamburger.stieltjes_convergents, seq, z, n),
                    outcome(hamburger.stieltjes_convergents, fresh, z, n))


@pytest.mark.parametrize("mode", [R, F128], ids=["rational", "float:128"])
def test_lhospital_lift_convergents_match_wallis_oracle(mode):
    """The ql60 l'Hospital lift, the heaviest convergents the benchmark
    reads, at every level, at the verdict's point and at -1/3."""
    curve = catalog("lhospital_quintic")
    seq = _weighted_lift(generate_moments(QLattice1D(2), 1, 60, mode), curve.weight)
    assert isinstance(seq.support, NonnegativeOrthant)
    check_convergents(seq, (hamburger.STIELTJES_POINT, F(-1, 3)))


@st.composite
def content_inputs(draw):
    """(d, parts): a positive d and 1 to 12 integers, zero and negative
    ones included, sharing a drawn common factor (a power of two, a prime
    power, or a large number) more often than not."""
    common = draw(st.sampled_from((1, 2 ** 40, 3 ** 25, 10 ** 30 + 57, 7)))
    d = common * draw(st.integers(1, 10 ** 20))
    entry = st.one_of(st.just(0), st.integers(-10 ** 40, 10 ** 40))
    parts = [common * v for v in draw(st.lists(entry, min_size=1, max_size=12))]
    if draw(st.booleans()):
        parts[draw(st.integers(0, len(parts) - 1))] += draw(st.integers(-5, 5))
    return d, parts


@SETTINGS
@given(content_inputs())
@example((1, [0, -3, 5]))
@example((12, [0, 0]))
@example((2 ** 40, [2 ** 41, -(2 ** 39), 3 * 2 ** 38]))
def test_content_divides_by_the_gcd(inputs):
    d, parts = inputs
    g = math.gcd(d, *parts)
    assert hamburger._content(d, parts) == (d // g, [v // g for v in parts])
    # the level step's reduction, which starts from d itself
    assert hamburger._divide_out(d, parts) == (g, [v // g for v in parts])


def test_content_returns_float_parts_at_once():
    """d = 1 is float mode: the parts are mpf values and come back as they
    are, with no gcd or division tried on them."""
    parts = (F128.convert(F(1, 3)), F128.zero(), F128.convert(-2))
    assert hamburger._content(1, parts) == (1, parts)
    assert hamburger._content(1, parts)[1] is parts
    assert hamburger._divide_out(1, parts)[1] is parts


# ---------------------------------------------------------------------------
# image moments

coefficients = st.one_of(st.just(F(0)),
                         st.builds(F, st.integers(-9, 9), st.sampled_from(DENOMINATORS)))


@st.composite
def image_inputs(draw):
    """(measure, dimension, truncation, forms, max_degree): a Gaussian or an
    atomic measure with mixed denominators, and either affine forms (the
    ``affine_map`` shape: linear part plus offset) or curve components of
    degree <= 5 on a 1D measure.  Coefficients may be zero and a form may be
    zero; some inputs ask for more degree than the truncation holds, or
    carry an index of the wrong dimension."""
    curve = draw(st.booleans())
    d = 1 if curve else draw(st.integers(1, 3))
    if draw(st.booleans()):
        measure = GaussianProduct(tuple(draw(weights) for _ in range(d)))
    else:
        atoms = draw(st.integers(1, 4))
        xs = draw(st.lists(st.tuples(*[points] * d), min_size=atoms, max_size=atoms))
        measure = Atomic(tuple(xs), tuple(draw(weights) for _ in xs))
    k = draw(st.integers(1, 3))
    if curve:
        top = draw(st.integers(1, 5))
        keys = [(j,) for j in range(top + 1)]
    else:
        keys = list(multi_indices(d, 1))
    forms = [{a: draw(coefficients) for a in keys} for _ in range(k)]
    if draw(st.integers(0, 4)) == 0:
        forms[draw(st.integers(0, k - 1))] = {}
    max_degree = draw(st.integers(0, 4))
    truncation = max_degree * (keys[-1][0] if curve else 1) + draw(st.integers(0, 2))
    fault = draw(st.sampled_from((None,) * 6 + ("short", "dimension")))
    if fault == "short":
        truncation = max(truncation - 3, 0)
    elif fault == "dimension":
        forms[0][(1,) * (d + 1)] = F(1)
    return measure, d, truncation, forms, max_degree


def check_image(seq, forms, max_degree):
    got = outcome(image_moments, seq, forms, max_degree)
    want = outcome(image_moments_fractions, seq, forms, max_degree)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same(tuple(got.items()), tuple(want.items()))


@SETTINGS
@given(image_inputs())
@example((Atomic(((F(1, 3),), (F(-2, 7),)), (F(1), F(3, 2 ** 20))), 1, 8,
          [{(0,): F(1, 3), (1,): F(0), (2,): F(5, 7)}, {}], 4))
@example((GaussianProduct((F(1, 3), F(2, 7))), 2, 4,
          [{(0, 0): F(1, 2 ** 20), (1, 0): F(1), (0, 1): F(-1, 3)},
           {(0, 0): F(0), (1, 0): F(2, 7), (0, 1): F(1)}], 4))
def test_image_moments_match_oracle(inputs):
    """Rational values equal with the same types, the same errors, and float
    values bit-identical at 64 and 128 bits."""
    measure, d, truncation, forms, max_degree = inputs
    for mode in (R, FloatMode(64), F128):
        seq = generate_moments(measure, d, truncation, mode)
        check_image(seq, forms, max_degree)


@st.composite
def grid_lp_inputs(draw, dyadic=False):
    """(grid, monomials, moments, objective): up to 10 points in 1-3
    dimensions with coordinates in [-12, 12] over denominators up to 16
    (powers of two only when ``dyadic``), 0 and negative ones included;
    degree 0-6; the moments of a nonnegative grid measure (feasible) or
    arbitrary ones with a nonnegative mass, as every moment sequence has
    (often infeasible)."""
    d = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-12, 12),
                      st.sampled_from((1, 2, 4, 8, 16) if dyadic else range(1, 17)))
    grid = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10))
    degree = draw(st.integers(0, 6))
    monomials = list(multi_indices(d, degree))
    small = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2), F(1, 3)])
    if draw(st.booleans()):
        y = draw(st.lists(small, min_size=len(grid), max_size=len(grid)))
        columns = grid_columns_entrywise(R, grid, degree)[0]
        moments = [sum(abs(yg) * col[i] for yg, col in zip(y, columns))
                   for i in range(len(monomials))]
    else:
        moments = [abs(draw(small))] + draw(st.lists(small, min_size=len(monomials) - 1,
                                                     max_size=len(monomials) - 1))
    objective = draw(st.lists(small, min_size=len(grid), max_size=len(grid)))
    return grid, monomials, moments, objective


def grid_lp_bounds(mode, grid, monomials, moments, objective) -> tuple:
    """(sup side, inf side) of ``gaps.grid_gap_lp`` on the sequence with
    these moments and the objective sampled on the grid; a repeated point
    takes its first objective value."""
    seq = MomentSequence(len(grid[0]), max(map(sum, monomials)), mode,
                         dict(zip(monomials, moments)))
    est = gaps.grid_gap_lp(seq, gaps.Sampled(tuple(grid), tuple(objective)),
                           seq.max_degree, grid)
    return est.sup_side, est.inf_side


def grid_lp_outcomes(mode, grid, monomials, moments, objective):
    """(entries, bounds) from ``gaps``, then from the entry-by-entry oracle:
    the library's integer entries over their rows' denominators, and the
    bounds of ``gaps.grid_gap_lp``, or its error.  Every library entry is
    an int, never a Fraction."""
    grid = [tuple(mode.convert(c) for c in g) for g in grid]
    args = (mode, grid, monomials, moments, objective)
    degree = max(map(sum, monomials))
    columns, dens = gaps._grid_columns(mode, grid, degree)
    assert all(type(v) is int for col in columns for v in col)
    got = ([[F(v, den) for v, den in zip(col, dens)] for col in columns],
           outcome(grid_lp_bounds, *args))
    with mock.patch.object(gaps, "_grid_columns", grid_columns_entrywise):
        want = (grid_columns_entrywise(mode, grid, degree)[0],
                outcome(grid_lp_bounds, *args))
    return got, want


@SETTINGS
@given(grid_lp_inputs())
@example(([(F(-3, 7), F(0)), (F(5, 16), F(-12, 11)), (F(0), F(1, 3))],
          list(multi_indices(2, 6)), [F(1)] + [F(0)] * 27, [F(1), F(0), F(-1)]))
def test_grid_columns_match_entrywise_oracle(inputs):
    """Rational entries equal, and the same bounds or the same error."""
    (got_columns, got), (want_columns, want) = grid_lp_outcomes(R, *inputs)
    assert same(tuple(map(tuple, got_columns)), tuple(map(tuple, want_columns)))
    assert same(got, want)


@SETTINGS
@given(grid_lp_inputs(dyadic=True))
def test_dyadic_grid_columns_float_bit_identical(inputs):
    """On dyadic grids every float:64 product is exact, so each column
    entry rounds into the mode to the oracle's value bit for bit, and the
    bounds are bit-identical."""
    fm = FloatMode(64)
    (got_columns, got), (want_columns, want) = grid_lp_outcomes(fm, *inputs)
    rounded = tuple(tuple(map(fm.convert, col)) for col in got_columns)
    assert same(rounded, tuple(map(tuple, want_columns)))
    assert same(got, want)


def test_wide_float_grid_entries_round_once():
    """A dyadic float:64 grid whose degree-4 monomials outgrow the mantissa:
    the grid-LP bounds are those of ``measure_bounds`` on the columns
    rounded into the mode once per entry from ``g^alpha`` as an exact
    Fraction, each bound rounded into the mode once, and some of those
    entries do round."""
    fm = FloatMode(64)
    big = 2 ** 40 + 1
    grid = [(fm.convert(c),) for c in (0, 1, F(-3, 4), big, F(-big, 2), 3)]
    monomials = list(multi_indices(1, 4))
    columns, dens = gaps._grid_columns(fm, grid, 4)
    rounded = [[fm.convert(F(v, den)) for v, den in zip(col, dens)] for col in columns]
    assert any(exact_fraction(r) != F(v, den) for col, row in zip(columns, rounded)
               for v, den, r in zip(col, dens, row))
    # the moments of the unit masses at 0 and at 2**40 + 1 on the rounded
    # columns, each a float:64 value, so the LP is feasible; the rounding
    # decides which grid measures have them
    moments = [a + b for a, b in zip(rounded[0], rounded[3])]
    objective = [fm.convert(c) for c in (1, -2, F(1, 3), 5, F(-7, 2), 0)]
    got = grid_lp_bounds(fm, grid, monomials, moments, objective)
    exact = [[exact_fraction(v) for v in values] for values in (moments, objective)]
    want = measure_bounds([[exact_fraction(v) for v in col] for col in rounded], *exact)
    assert same(got, tuple(map(fm.convert, want)))
    assert got[0] <= got[1]
