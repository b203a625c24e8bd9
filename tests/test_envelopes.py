import math
from fractions import Fraction as F

import pytest

from momentkit.envelopes import (
    CompletelyMonotonic,
    cm_gap_criterion,
    cosine_envelope,
    geometric_envelope,
    maclaurin_envelope,
)
from momentkit.errors import NotCompletelyMonotonicCoefficients, WrongSupport
from momentkit.moments import (
    Atomic,
    Exponential1D,
    GaussianProduct,
    QLattice1D,
    generate_moments,
)
from momentkit.polynomials import poly_eval
from momentkit.scalars import FloatMode, RationalMode

R = RationalMode()

# 10^3 sample points per domain, the documented envelope validity check
LINE_POINTS = [F(j, 50) for j in range(-500, 500)]
HALF_POINTS = [F(j, 100) for j in range(0, 1000)]


def gauss(n):
    return generate_moments(GaussianProduct((1,)), 1, n, R)


def test_cosine_first_bracket():
    env = cosine_envelope(gauss(12), 1)
    assert env.lower == (1, 0, F(-1, 2))
    assert env.upper == (1,)
    assert env.gap_functional == F(1, 2)  # m_2 / 2!


def test_cosine_envelope_validity_thousand_points():
    env = cosine_envelope(gauss(12), 3)
    assert env.domain == "real_line"
    for t in LINE_POINTS:
        c = math.cos(float(t))
        assert float(poly_eval(env.lower, t)) <= c + 1e-12
        assert float(poly_eval(env.upper, t)) >= c - 1e-12


def test_cosine_gap_decays_for_gaussian():
    seq = gauss(24)
    gaps = [R.to_float(cosine_envelope(seq, m).gap_functional) for m in (2, 4, 6)]
    assert gaps[0] > gaps[1] > gaps[2]
    # closed form m_{2M}/(2M)! = 1/(2^M M!)
    assert gaps[1] == pytest.approx(1 / (2 ** 4 * math.factorial(4)))


def test_cosine_gap_blows_up_for_qlattice():
    seq = generate_moments(QLattice1D(2), 1, 24, R)
    gaps = [R.to_float(cosine_envelope(seq, m).gap_functional) for m in (2, 4, 6)]
    assert gaps[2] > gaps[1] > gaps[0] > 0  # envelope family too weak to decide


def test_geometric_first_bracket_identity():
    seq = generate_moments(Exponential1D(), 1, 12, R)
    env = geometric_envelope(seq, 1)
    assert env.lower == (1, -1)
    assert env.upper == (1, -1, 1)
    assert env.gap_functional == seq.moment((2,))  # gap_1 = m_2 exactly
    for s in HALF_POINTS:
        v = 1 / (1 + s)
        assert poly_eval(env.lower, s) <= v <= poly_eval(env.upper, s)


def test_geometric_dirac_at_zero_gap_vanishes():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 12, R)
    for n in (1, 2, 3):
        assert geometric_envelope(seq, n).gap_functional == 0


def test_geometric_rejects_full_line():
    with pytest.raises(WrongSupport):
        geometric_envelope(gauss(12), 1)


def test_maclaurin_exponential_bracket():
    seq = generate_moments(Exponential1D(), 1, 12, R)
    env = maclaurin_envelope(CompletelyMonotonic.exponential_decay(), seq, 1)
    assert env.lower == (1, -1)
    assert env.upper == (1, -1, F(1, 2))
    for s in HALF_POINTS:
        v = math.exp(-float(s))
        assert float(poly_eval(env.lower, s)) <= v + 1e-12
        assert float(poly_eval(env.upper, s)) >= v - 1e-12


def test_maclaurin_geometric_stream_reproduces_geometric_envelope():
    # float:64 from order 14 on: the stream's k!/k! must round once, to +-1
    for mode, degree, orders in ((R, 12, (1, 2)), (FloatMode(64), 40, (14, 20))):
        seq = generate_moments(Exponential1D(), 1, degree, mode)
        for n in orders:
            via_cm = maclaurin_envelope(CompletelyMonotonic.geometric(), seq, n)
            direct = geometric_envelope(seq, n)
            assert via_cm.lower == direct.lower
            assert via_cm.upper == direct.upper
            assert via_cm.gap_functional == direct.gap_functional


def test_geometric_coefficients_stay_exact_in_float_mode():
    # at float:64, mpf(27!)/27! is not 1: the Maclaurin coefficients are
    # the exact ratios k!/k!, each converted once
    seq = generate_moments(Exponential1D(), 1, 40, FloatMode(64))
    env = geometric_envelope(seq, 20)
    assert env.upper == tuple((-1) ** k for k in range(41))
    assert env.lower == env.upper[:40]
    assert env.gap_functional == seq.moment((40,))


def test_maclaurin_rejects_non_alternating_stream():
    seq = generate_moments(Exponential1D(), 1, 12, R)
    bad = CompletelyMonotonic(lambda k: 1)  # all derivatives +1
    with pytest.raises(NotCompletelyMonotonicCoefficients):
        maclaurin_envelope(bad, seq, 1)


def test_cm_criterion_exponential_constant_one():
    seq = generate_moments(Exponential1D(), 1, 24, R)
    res = cm_gap_criterion(CompletelyMonotonic.exponential_decay(), seq, (0, 1), 12)
    assert all(v == 1 for v in res.values)  # |phi^(2n)(0)|/(2n)! * (2n)! = 1
    assert res.infimum == 1
    assert res.trend == "positive-plateau"


def test_cm_criterion_gaussian_cosine_stream_decays():
    seq = gauss(24)
    cos_stream = CompletelyMonotonic(lambda k: 0 if k % 2 else (-1) ** (k // 2))
    res = cm_gap_criterion(cos_stream, seq, (0, 1), 12)
    expect = [F(1, 2 ** n * math.factorial(n)) for n in range(1, 13)]
    assert list(res.values) == expect
    assert res.trend == "zero-trend"


def test_cm_criterion_dirac_zero():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 24, R)
    res = cm_gap_criterion(CompletelyMonotonic.exponential_decay(), seq, (0, 1), 8)
    assert all(v == 0 for v in res.values)
    assert res.trend == "zero-trend"


def test_geometric_gap_grows_for_exponential():
    # gap_n = m_{2n} = (2n)!: the envelope family is too weak to decide and
    # the caller falls back to the convergent machinery
    seq = generate_moments(Exponential1D(), 1, 16, R)
    gaps = [geometric_envelope(seq, n).gap_functional for n in (1, 2, 3)]
    assert gaps[0] == 2 and gaps[1] == 24 and gaps[2] == 720
