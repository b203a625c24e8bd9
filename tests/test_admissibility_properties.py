"""Property tests for positivity, rank and flatness, all read off the
O(n^2) recurrence, against the pivoted-elimination oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from momentkit.errors import NotAdmissible
from momentkit.hamburger import recurrence_from_moments, verdict_1d
from momentkit.moments import (
    Atomic,
    Exponential1D,
    GaussianProduct,
    QLattice1D,
    generate_moments,
    sequence_from_1d,
)
from momentkit.scalars import FloatMode, RationalMode
from momentkit.verdicts import Status, Sufficiency
from oracles import admissibility_check, hankel

R = RationalMode()
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
weights = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
DIRAC = Atomic(((0,),), (1,))


@st.composite
def atomic_measures(draw, max_atoms=5):
    points = draw(st.lists(small_rationals, min_size=1, max_size=max_atoms, unique=True))
    ws = draw(st.lists(weights, min_size=len(points), max_size=len(points)))
    return Atomic(tuple((p,) for p in points), tuple(ws)), len(points)


def library_classification(seq, n):
    """(classification, rank) as the CLI's admissibility criterion reports it."""
    rec = recurrence_from_moments(seq, n)
    return ("positive_definite" if rec.rank > n else "positive_semidefinite"), rec.rank


@SETTINGS
@given(atomic_measures(), st.integers(min_value=1, max_value=12))
def test_atomic_classification_matches_oracle(measure_and_atoms, n):
    measure, atoms = measure_and_atoms
    seq = generate_moments(measure, 1, 2 * n, R)
    oracle = admissibility_check(hankel(seq, n))
    assert library_classification(seq, n) == (oracle.classification, oracle.rank)
    assert oracle.rank == min(atoms, n + 1)


@SETTINGS
@given(atomic_measures(), st.integers(min_value=0, max_value=3))
def test_atomic_verdict_rank_is_atom_count(measure_and_atoms, extra):
    measure, atoms = measure_and_atoms
    seq = generate_moments(measure, 1, 2 * (atoms + extra), R)
    v = verdict_1d(seq)
    assert v.status is Status.DETERMINATE
    ranks = [e for e in v.evidence if e.criterion == "hankel-rank"]
    assert len(ranks) == 1
    assert ranks[0].sufficiency is Sufficiency.RIGOROUS_SUFFICIENT
    assert ranks[0].value == atoms


@SETTINGS
@given(atomic_measures(max_atoms=4), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100))
@example((DIRAC, 1), 1, F(1))      # (1, 0, 0, 0, 1)
@example((DIRAC, 1), 3, F(1, 7))   # (1, 0, ..., 0, 1/7) to degree 8
def test_non_flat_singular_data_not_admissible(measure_and_atoms, gap, c):
    """An r-atomic measure's moments to degree 2n, n > r, with m_{2n} raised
    by c > 0: the Hankel matrix stays PSD (rank r + 1) but has no flat
    extension, so no measure has these moments."""
    measure, atoms = measure_and_atoms
    n = atoms + gap
    m = generate_moments(measure, 1, 2 * n, R).moments_1d()
    m[-1] += c
    seq = sequence_from_1d(m, R)
    oracle = admissibility_check(hankel(seq, n))
    assert (oracle.classification, oracle.rank) == ("positive_semidefinite", atoms + 1)
    with pytest.raises(NotAdmissible):
        recurrence_from_moments(seq, n)
    with pytest.raises(NotAdmissible):
        verdict_1d(seq)


@SETTINGS
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=5),
                min_size=2, max_size=12))
def test_random_sequences_agree_with_oracle(tail):
    """Arbitrary data: the library accepts exactly the positive definite and
    the flat positive semidefinite cases, with the oracle's rank."""
    m = [F(1)] + tail[: 2 * (len(tail) // 2)]
    n = (len(m) - 1) // 2
    seq = sequence_from_1d(m, R)
    oracle = admissibility_check(hankel(seq, n))
    try:
        got = library_classification(seq, n)
    except NotAdmissible:
        assert oracle.classification != "positive_definite"
        return
    assert got == (oracle.classification, oracle.rank)


CATALOG = {
    "gaussian": GaussianProduct((1,)),
    "exponential": Exponential1D(),
    "q_lattice": QLattice1D(2),
    "atomic": Atomic(((0,), (F(1, 2),), (3,)), (1, 2, F(1, 3))),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.integers(min_value=4, max_value=16))
def test_rational_and_float256_agree_on_status(name, half):
    degree = 2 * half
    exact = verdict_1d(generate_moments(CATALOG[name], 1, degree, R))
    approx = verdict_1d(generate_moments(CATALOG[name], 1, degree, FloatMode(256)))
    if name == "atomic":
        # a float finite-rank item is limit-rigorous, which the status rules
        # do not let decide: the same rank, but inconclusive
        assert exact.status is Status.DETERMINATE
        assert approx.status is Status.INCONCLUSIVE
        assert [(e.criterion, e.value) for e in exact.evidence] == \
            [(e.criterion, e.value) for e in approx.evidence] == [("hankel-rank", 3)]
    else:
        assert exact.status is approx.status
