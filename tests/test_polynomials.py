import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit.polynomials import (
    compositions,
    lowerings,
    mpoly_compose_univariates,
    mpoly_mul,
    multi_indices,
    poly_degree,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    poly_mul,
    poly_pow,
    poly_trim,
    power_slices,
)
from oracles import compose_univariates_termwise, monomial, mpoly_pow


def test_multi_indices_grlex_is_strict_total_order():
    idx = list(multi_indices(3, 4))
    keys = [(sum(a), a) for a in idx]  # degree first, then tuple order
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    assert len(idx) == 35  # C(4+3,3)


def test_compositions_are_the_exact_degree_slice():
    for d in (1, 2, 3):
        for k in range(6):
            assert list(compositions(k, d)) == [a for a in multi_indices(d, k)
                                                if sum(a) == k]


def test_compositions_share_one_slice_and_keep_a_bounded_cache():
    assert compositions(7, 3) is compositions(7, 3)
    bound = compositions.cache_info().maxsize
    assert bound == 256  # the bound the module docstring states
    for total in range(bound + 50):
        compositions(total, 1)
    assert compositions.cache_info().currsize == bound
    assert list(multi_indices(2, 2)) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_power_slices():
    point = (F(2, 3), F(-1, 2), F(5))
    slices = power_slices(point, 4)
    assert [len(s) for s in slices] == [len(compositions(n, 3)) for n in range(5)]
    powers = dict(zip(multi_indices(3, 4), (v for s in slices for v in s)))
    assert powers[(0, 0, 0)] == 1
    assert powers[(2, 1, 0)] == F(4, 9) * F(-1, 2)
    assert powers[(1, 0, 3)] == F(2, 3) * 125
    # each link is alpha - e_i, i the first axis with alpha_i > 0
    positions, axes = lowerings(3, 3)
    for alpha, j, i in zip(compositions(3, 3), positions, axes):
        assert alpha[:i] == (0,) * i and alpha[i] > 0
        assert compositions(2, 3)[j] == alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


power_entry = st.one_of(st.just(F(0)), st.integers(-7, 7),
                        st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.tuples(*[power_entry] * d),
                                                     st.integers(0, 8))))
def test_power_slices_match_repeated_multiplication(inputs):
    """Points in d = 1..4 with zero, negative and non-integer entries, to
    degree 8: every x**alpha equals the plain product, slice by slice."""
    point, degree = inputs
    slices = power_slices(point, degree)
    assert len(slices) == degree + 1
    for n, values in enumerate(slices):
        assert values == [monomial(point, alpha) for alpha in compositions(n, len(point))]


def test_poly_mul_eval_consistency():
    rng = random.Random(3)
    for _ in range(30):
        p = tuple(F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6)))
        q = tuple(F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6)))
        x = F(rng.randint(-4, 4), rng.randint(1, 4))
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


def test_poly_pow():
    p = (F(1), F(1))  # 1 + t
    assert poly_pow(p, 3) == (F(1), F(3), F(3), F(1))


def test_poly_gcd_and_squarefree():
    # (t-1)^2 (t+2) has gcd with derivative = (t-1)
    p = poly_mul(poly_mul((F(-1), F(1)), (F(-1), F(1))), (F(2), F(1)))
    assert not poly_is_squarefree(p)
    g = poly_gcd(p, poly_mul((F(-1), F(1)), (F(2), F(1))))
    assert poly_degree(g) == 2
    assert poly_is_squarefree((F(-1), F(0), F(1)))  # t^2 - 1


def test_mpoly_algebra():
    rng = random.Random(5)
    x = {(1, 0): F(1)}
    y = {(0, 1): F(1)}
    p = mpoly_mul(x, y)
    assert p == {(1, 1): F(1)}
    q = mpoly_pow({(1, 0): F(1), (0, 1): F(1)}, 2, 2)
    assert q == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}
    for _ in range(20):
        pt = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        assert sum(c * monomial(pt, a) for a, c in q.items()) == (pt[0] + pt[1]) ** 2


def test_mpoly_compose_univariates():
    # x - y^2 composed with (t^2, t) vanishes
    eq = {(1, 0): F(1), (0, 2): F(-1)}
    out = mpoly_compose_univariates(eq, ((F(0), F(0), F(1)), (F(0), F(1))))
    assert poly_trim(out) == ()


coefficient = st.one_of(st.just(F(0)), st.integers(-5, 5),
                        st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mpoly_compose_univariates_matches_termwise_powers(data):
    """Random rational curves (components of degree up to 5, zero
    coefficients and zero components included) and random equations of
    degree up to 6, in as many variables as components or not: the
    composition equals the term-by-term one."""
    d = data.draw(st.integers(1, 3))
    components = tuple(tuple(data.draw(st.lists(coefficient, max_size=6))) for _ in range(d))
    variables = data.draw(st.integers(max(d - 1, 1), d + 1))
    keys = st.tuples(*[st.integers(0, 6)] * variables).filter(lambda a: sum(a) <= 6)
    eq = data.draw(st.dictionaries(keys, coefficient.filter(bool), max_size=8))
    assert (mpoly_compose_univariates(eq, components)
            == compose_univariates_termwise(eq, components))
