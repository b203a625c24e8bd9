import json
import math
import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentkit import gaps, simplex
from momentkit.cli import main
from momentkit.envelopes import geometric_envelope
from momentkit.errors import (
    DegreeInsufficient,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    LpUnbounded,
    MomentKitError,
    NotInteriorDirection,
    WrongSupport,
)
from momentkit.gaps import (
    Cosine,
    Fantappie,
    PoissonKernel,
    Sampled,
    _contains_basis,
    default_grid,
    direction_scan,
    direction_set,
    evaluate_separating,
    grid_gap_lp,
    hyperplane_gap,
    orthant_criterion,
    poisson_constant_float,
    poisson_kappa_1d,
    poisson_kappa_estimate,
    sphere_average_kappa,
)
from momentkit.hamburger import recurrence_from_moments, weyl_disk
from momentkit.moments import (
    Atomic,
    ConeSupport,
    Exponential1D,
    GaussianProduct,
    MomentSequence,
    Product,
    QLattice1D,
    apply_linear_functional_1d,
    apply_polynomial_weight,
    dual_contains,
    generate_moments,
)
from momentkit.polynomials import multi_indices
from momentkit.scalars import FloatMode, RationalMode, complex_scalar, exact_fraction
from momentkit.verdicts import Status
from oracles import (contains_basis_elimination, grid_columns_entrywise, grid_lp_unreduced,
                     grid_orbit_count, maximize, orthant_slack_patterns, scan_verdicts_fresh)

R = RationalMode()

QL_LOG_GRID = tuple(sorted(
    [(F(0),)] + [(F(2) ** j,) for j in range(-4, 17)]
    + [(-(F(2) ** j),) for j in range(-4, 17)]))


def gauss(n, d=1):
    return generate_moments(GaussianProduct((1,) * d), d, n, R)


def two_atom(n=12):
    return generate_moments(Atomic(((0,), (1,)), (F(1, 2), F(1, 2))), 1, n, R)


def cos_sampled(points):
    vals = tuple(F(math.cos(float(p[0]))).limit_denominator(10 ** 15) for p in points)
    return Sampled(tuple(points), vals)


# ---------------------------------------------------------------------------
# grid LP


def test_dirac_interpolation_gap_zero():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 8, R)
    grid = [(F(0),), (F(1),), (F(-1),)]
    phi = Sampled(tuple(grid), (F(1), F(3, 2), F(1, 2)))
    est = grid_gap_lp(seq, phi, 1, grid)
    assert est.sup_side == 1 == est.inf_side
    assert est.gap == 0
    assert (est.degree, est.grid["size"]) == (1, 3)


def test_two_atom_interpolation_by_degree():
    seq = two_atom()
    grid = [(F(0),), (F(1),), (F(2),)]
    phi = cos_sampled(grid)
    target = F(1, 2) * (phi.values[0] + phi.values[1])
    est1 = grid_gap_lp(seq, phi, 1, grid)
    assert est1.gap > 0
    for deg in (2, 3, 4):
        est = grid_gap_lp(seq, phi, deg, grid)
        assert est.gap == 0
        assert est.sup_side == target == est.inf_side


def test_qlattice_gap_vs_weyl_diameter():
    seq = generate_moments(QLattice1D(2), 1, 16, R)
    phi = Sampled(QL_LOG_GRID, tuple(t[0] / (t[0] * t[0] + 1) for t in QL_LOG_GRID))
    est = grid_gap_lp(seq, phi, 8, QL_LOG_GRID)
    assert est.gap > 0
    rec = recurrence_from_moments(seq, 5)
    disk = weyl_disk(rec, complex_scalar(R, 0, 1), 3)
    # the degree-8 variational gap cannot exceed the diameter of the disk
    # built from the same moment data (degree 8 = disk level 3)
    assert est.gap * est.gap <= 4 * disk.radius_sq


def test_envelope_gap_dominates_grid_lp():
    # envelope polynomials are feasible for the LPs, so the grid gap never
    # exceeds the certified envelope gap at matching degree
    seq = generate_moments(Exponential1D(), 1, 12, R)
    env = geometric_envelope(seq, 2)  # degree 4 bracket of 1/(1+s)
    grid = [(F(k, 2),) for k in range(0, 17)] + [(F(2) ** j,) for j in range(4, 9)]
    phi = Fantappie((F(1),))
    est = grid_gap_lp(seq, phi, 4, grid)
    lower = apply_linear_functional_1d(seq, env.lower)
    upper = apply_linear_functional_1d(seq, env.upper)
    assert upper - lower == env.gap_functional
    assert est.gap <= upper - lower
    assert lower <= upper


def test_unbounded_grid_reported():
    seq = generate_moments(QLattice1D(2), 1, 16, R)
    tiny = [(F(0),), (F(1),)]
    with pytest.raises(LpUnbounded, match="no nonnegative measure on the 2-point grid "
                       "reproduces the moments up to degree 8; refine the grid"):
        grid_gap_lp(seq, Sampled(tuple(tiny), (F(1), F(1, 2))), 8, tiny)


# ---------------------------------------------------------------------------
# Poisson gaps


def test_poisson_constant_matches_low_dimensions():
    assert poisson_constant_float(1) == pytest.approx(1 / math.pi)
    assert poisson_constant_float(2) == pytest.approx(1 / (2 * math.pi))
    assert poisson_constant_float(3) == pytest.approx(1 / math.pi ** 2)


def test_kappa_1d_dirac_zero():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 12, R)
    for x0, t0 in ((0, 1), (F(1, 2), F(3, 2))):
        assert poisson_kappa_1d(seq, x0, t0, 3) == 0


def test_kappa_1d_atomic_degenerate_zero():
    rng = random.Random(3)
    for r in (2, 3, 4):
        pts = tuple((F(rng.randint(-9, 9), rng.randint(1, 3)),) for _ in range(r))
        pts = tuple(dict.fromkeys(pts))
        seq = generate_moments(Atomic(pts, (1,) * len(pts)), 1, 6 * r, R)
        assert poisson_kappa_1d(seq, 0, 1, len(pts) - 1) == 0


def test_kappa_1d_qlattice_positive_plateau():
    seq = generate_moments(QLattice1D(2), 1, 42, R)
    rec = recurrence_from_moments(seq, 21)
    values = [R.to_float(poisson_kappa_1d(seq, 0, 1, n)) for n in (5, 10, 20)]
    assert values[0] >= values[1] >= values[2] > 0.19
    # kappa = diameter / pi with the disk at the same level
    disk = weyl_disk(rec, complex_scalar(R, 0, 1), 20)
    assert values[2] == pytest.approx(2 * math.sqrt(float(disk.radius_sq)) / math.pi)


def test_poisson_estimate_product_atoms_interpolates():
    atom2 = Atomic(((0,), (1,)), (F(1, 2), F(1, 2)))
    seq = generate_moments(Product(((atom2, 1), (atom2, 1))), 2, 8, R)
    grid = [(x, y) for x in (F(0), F(1), F(2)) for y in (F(0), F(1), F(2))]
    est = poisson_kappa_estimate(seq, (0, 0), 1, 2, grid)
    assert est.gap == 0


def test_sphere_average_dirac_zero():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 12, R)
    avg = sphere_average_kappa(seq, (0,), 1, F(1, 2), 8, 3)
    assert avg == 0


def test_sphere_average_qlattice_positive():
    seq = generate_moments(QLattice1D(2), 1, 22, R)
    avg = sphere_average_kappa(seq, (0,), 1, F(1, 4), 8, 8)
    assert avg > 0.1


# ---------------------------------------------------------------------------
# orthant criterion


def test_orthant_default_h_certified():
    # h(0) = 1, min over [0, inf) is 1, discriminant below zero
    assert orthant_criterion(gauss(4), (0,))["slack"] == 3


def test_orthant_dirac_slack():
    seq = generate_moments(Atomic(((0,),), (1,)), 1, 4, R)
    assert orthant_criterion(seq, (0,))["slack"] == 1


def test_orthant_2d_consistency():
    g2 = gauss(8, 2)
    res = orthant_criterion(g2, (0, 0))
    # product structure: sum over patterns factorizes to (L h + L h_flip)^2 - 1
    one_d = orthant_criterion(gauss(8), (0,))["slack"] + 1
    assert res["slack"] == one_d * one_d - 1


orthant_parts = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))


@st.composite
def orthant_inputs(draw):
    """(atomic measure, dimension, corner): 1 to 4 atoms in d = 1..3 with
    positive rational weights, and a rational corner."""
    d = draw(st.integers(1, 3))
    atoms = draw(st.integers(1, 4))
    xs = draw(st.lists(st.tuples(*[orthant_parts] * d), min_size=atoms, max_size=atoms))
    ws = draw(st.lists(st.builds(F, st.integers(1, 30), st.sampled_from((1, 3, 7))),
                       min_size=atoms, max_size=atoms))
    corner = draw(st.tuples(*[orthant_parts] * d))
    return Atomic(tuple(xs), tuple(ws)), d, corner


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(orthant_inputs())
def test_orthant_matches_the_per_pattern_sum(inputs):
    """The one product prod_j (h + h(-.))(x_j - a_j) gives the slack of the
    2^d sign patterns summed one by one: equal in rational mode, within
    2^-64 relative at float:128."""
    measure, d, corner = inputs
    seq = generate_moments(measure, d, 2 * d, R)
    assert orthant_criterion(seq, corner)["slack"] == orthant_slack_patterns(seq, corner)
    seq = generate_moments(measure, d, 2 * d, FloatMode(128))
    got = exact_fraction(orthant_criterion(seq, corner)["slack"])
    want = exact_fraction(orthant_slack_patterns(seq, corner))
    assert abs(got - want) <= abs(want) * F(1, 2 ** 64)


# ---------------------------------------------------------------------------
# hyperplane gaps


def test_hyperplane_dirac_values_shrink():
    seq = generate_moments(Atomic(((1,),), (1,)), 1, 12, R)
    res2 = hyperplane_gap(seq, (1,), 2)
    res4 = hyperplane_gap(seq, (1,), 4)
    assert res4["value_plus"] <= res2["value_plus"] + 0
    assert res4["value_plus"] == 0  # interpolant 1/(a.x*+1) reachable
    assert sorted(res4) == ["degree", "grid", "value_minus", "value_plus"]   # no certified claim


def test_hyperplane_qlattice_positive_baseline():
    seq = generate_moments(QLattice1D(2), 1, 16, R)
    res = hyperplane_gap(seq, (1,), 8)
    assert min(R.to_float(res["value_plus"]), R.to_float(res["value_minus"])) > 0


def test_hyperplane_values_match_primal_oracle():
    # value_+- = min L(r) over r = +-(1 - (x+1) p) >= 0 on the grid, p of
    # degree 3, solved as the primal LP in the coefficients of p
    seq = generate_moments(Exponential1D(), 1, 8, R)
    res = hyperplane_gap(seq, (1,), 4)
    grid = [g[0] for g in default_grid(seq.support, 1, R)]
    lin = [seq.entries[(k,)] + seq.entries[(k + 1,)] for k in range(4)]
    for key, sign in (("value_plus", 1), ("value_minus", -1)):
        rows = [[sign * (g + 1) * g ** k for k in range(4)] for g in grid]
        best = maximize(R, [sign * c for c in lin], rows, [sign] * len(grid))
        assert res[key] == sign * seq.entries[(0,)] - best.value


def weighted_column_hyperplane(seq, a, degree) -> tuple:
    """(value_plus, value_minus) from the hyperplane LP as written: grid
    measures y >= 0 on the default grid with sum_g y_g (a.g + 1) g^alpha =
    L((a.x + 1) x^alpha) for |alpha| <= max(degree - 1, 0), bounding the
    mass sum_g y_g."""
    d = seq.dimension
    form = {(0,) * d: F(1)}
    form.update({tuple(int(i == j) for i in range(d)): F(c) for j, c in enumerate(a)})
    monomials = list(multi_indices(d, max(degree - 1, 0)))
    weighted = apply_polynomial_weight(seq, form)
    grid = default_grid(seq.support, d, R)
    columns = grid_columns_entrywise(R, grid, max(degree - 1, 0), form)[0]
    low, high = simplex.measure_bounds(columns, [weighted.entries[m] for m in monomials],
                                       [F(1)] * len(grid))
    m0 = seq.entries[(0,) * d]
    return m0 - low, high - m0


@st.composite
def hyperplane_inputs(draw):
    """(sequence, direction, degree): 1 to 4 atoms with nonnegative
    rational coordinates and positive rational weights in d = 1 or 2,
    truncation 1 <= N <= 8 (N <= 5 in d = 2), degree 0..N and a direction
    with positive rational entries."""
    d = draw(st.integers(1, 2))
    coord = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 7)))
    atoms = draw(st.integers(1, 4))
    xs = draw(st.lists(st.tuples(*[coord] * d), min_size=atoms, max_size=atoms))
    ws = draw(st.lists(st.builds(F, st.integers(1, 30), st.sampled_from((1, 3, 7))),
                       min_size=atoms, max_size=atoms))
    n = draw(st.integers(1, 8 if d == 1 else 5))
    a = draw(st.tuples(*[st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 5)))] * d))
    seq = generate_moments(Atomic(tuple(xs), tuple(ws)), d, n, R)
    return seq, a, draw(st.integers(0, n))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hyperplane_inputs())
def test_hyperplane_matches_the_weighted_column_lp(inputs):
    """The Fantappie LP of (a.x + 1) L gives the weighted-column LP's
    values exactly, or an error of the same class."""
    seq, a, degree = inputs
    try:
        want = weighted_column_hyperplane(seq, a, degree)
    except MomentKitError as exc:
        with pytest.raises(type(exc)):
            hyperplane_gap(seq, a, degree)
        return
    res = hyperplane_gap(seq, a, degree)
    assert (res["value_plus"], res["value_minus"]) == want


def signed_permutation(perm, signs):
    """x -> (s_j x_{pi(j)})_j, with its (pi, s)."""
    def act(x):
        return tuple(s * x[k] for k, s in zip(perm, signs))
    act.perm, act.signs = perm, signs
    return act


def generated_group(d, generators) -> list:
    """The signed permutations of R^d that the generators generate, by
    closing the identity under composition with each generator."""
    identity = signed_permutation(tuple(range(d)), (1,) * d)
    group = {(identity.perm, identity.signs): identity}
    frontier = [identity]
    while frontier:
        sigma = frontier.pop()
        for tau in generators:
            # (tau sigma x)_j = t_j (sigma x)_{rho(j)} = t_j s_{rho(j)} x_{pi(rho(j))}
            key = (tuple(sigma.perm[k] for k in tau.perm),
                   tuple(t * sigma.signs[k] for k, t in zip(tau.perm, tau.signs)))
            if key not in group:
                group[key] = signed_permutation(*key)
                frontier.append(group[key])
    return list(group.values())


#: the absolute values of the atoms' and the grid points' coordinates
COORDS = (F(0), F(1, 2), F(1), F(2))


@st.composite
def symmetric_grid_lps(draw):
    """(sequence, phi, degree, grid, perturbed): a rational atomic measure in
    d = 2 or 3, summed over the signed permutations of a drawn subgroup H
    (integer weights), in rational mode or at float:64; a grid that every
    signed permutation fixes, the orbits of 0, of one to three drawn points
    and, unless the LP is to be often unbounded, of the atoms, plus, maybe,
    copies of one point's H-orbit; and phi one of the Poisson kernel at x0
    = 0, the Poisson kernel at an x0 of coordinates 0 and +-1 (fixed by a
    subgroup only), a Fantappie function and a sampled function constant
    on H-orbits.  When ``perturbed``, the first atom, whose coordinates are
    nonzero with distinct absolute values, so that only the identity fixes
    it, gains the weight 1/7.  Every other weight is an integer and every
    coordinate dyadic, so a sigma that fixes the mean moves the first atom
    by a dyadic vector over 7, which is 0: only the identity fixes the
    degree-1 moments (at float:64 too, where the gap left is at least
    1/14)."""
    d = draw(st.integers(2, 3))
    perms = [signed_permutation(p, s) for p in permutations(range(d))
             for s in product((1, -1), repeat=d)]
    group = generated_group(d, draw(st.lists(st.sampled_from(perms), max_size=2)))
    first = tuple(c * s for c, s in zip(draw(st.permutations(COORDS[1:]))[:d],
                                        draw(st.tuples(*[st.sampled_from((1, -1))] * d))))
    signed = st.builds(lambda c, s: c * s, st.sampled_from(COORDS), st.sampled_from((1, -1)))
    atoms = [first] + draw(st.lists(st.tuples(*[signed] * d), max_size=2 if d == 2 else 1))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(atoms), max_size=len(atoms)))
    measure: dict = {}
    for atom, w in zip(atoms, weights):
        for sigma in group:
            measure[sigma(atom)] = measure.get(sigma(atom), 0) + w
    perturbed = draw(st.booleans())
    if perturbed:
        measure[first] += F(1, 7)
    degree = draw(st.integers(1, 3 if d == 2 else 2))
    mode = draw(st.sampled_from([R, FloatMode(64)]))
    seq = generate_moments(Atomic(tuple(measure), tuple(measure.values())), d, degree, mode)
    seeds = [(F(0),) * d] + draw(st.lists(st.tuples(*[signed] * d), min_size=1, max_size=3))
    if draw(st.booleans()):
        seeds += atoms
    grid = sorted({sigma(g) for g in seeds for sigma in perms})
    if draw(st.booleans()):
        point = draw(st.sampled_from(grid))
        grid += sorted({sigma(point) for sigma in group})
    kind = draw(st.sampled_from(["poisson-0", "poisson-x0", "fantappie", "sampled"]))
    if kind == "poisson-0":
        phi = PoissonKernel((F(0),) * d, draw(st.sampled_from((F(1, 2), F(1), F(2)))))
    elif kind == "poisson-x0":
        x0 = draw(st.tuples(*[st.sampled_from((F(0), F(1), F(-1)))] * d))
        phi = PoissonKernel(x0, F(1))
    elif kind == "fantappie":
        phi = Fantappie(draw(st.tuples(*[st.sampled_from((F(0), F(1, 16), F(-1, 16)))] * d)))
    else:
        seed = draw(st.integers(0, 2 ** 16))
        orbit_value = {}
        for g in grid:
            key = min(sigma(g) for sigma in group)
            orbit_value.setdefault(key, F(random.Random(f"{seed} {key}").randint(-9, 9), 4))
        phi = Sampled(tuple(grid), tuple(orbit_value[min(sigma(g) for sigma in group)]
                                          for g in grid))
    return seq, phi, degree, grid, perturbed


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_grid_lps())
def test_grid_lp_on_orbits_matches_the_whole_grid(inputs):
    """grid_gap_lp's bounds, or its LpUnbounded, are those of
    measure_bounds on the whole grid, ``==``; it hands measure_bounds one
    column per orbit of the signed permutations that fix the moments, the
    grid and phi, as the brute-force oracle finds them, and the whole grid
    after an asymmetric perturbation."""
    seq, phi, degree, grid, perturbed = inputs
    sizes = []
    real = simplex.measure_bounds

    def counted(columns, moments, objective):
        sizes.append(len(columns))
        return real(columns, moments, objective)
    try:
        want = grid_lp_unreduced(seq, phi, degree, grid)
    except LpUnbounded:
        want = LpUnbounded
    with mock.patch.object(simplex, "measure_bounds", counted):
        try:
            est = grid_gap_lp(seq, phi, degree, grid)
            got = est.sup_side, est.inf_side
            assert est.grid["size"] == len(grid)
        except LpUnbounded as exc:
            got = LpUnbounded
            assert f"on the {len(grid)}-point grid" in str(exc)
    assert got == want
    orbits = grid_orbit_count(seq, degree, grid, phi)
    assert sizes == [orbits]
    if perturbed:
        assert orbits == len(grid)


EXPO2 = Product(((Exponential1D(), 1), (Exponential1D(), 1)))


@pytest.mark.parametrize("lp, shape", [
    (lambda: poisson_kappa_estimate(generate_moments(GaussianProduct((1, 1)), 2, 8, R),
                                    (0, 0), 1, 2), (10, 2)),
    (lambda: hyperplane_gap(generate_moments(EXPO2, 2, 4, R), (1, 1), 4), (28, 6)),
    (lambda: hyperplane_gap(generate_moments(EXPO2, 2, 8, R), (1, 1), 6), (28, 12)),
    (lambda: grid_gap_lp(generate_moments(QLattice1D(F(2)), 1, 16, R),
                         Sampled(QL_LOG_GRID, tuple(t[0] / (t[0] * t[0] + 1)
                                                    for t in QL_LOG_GRID)),
                         8, QL_LOG_GRID), (43, 9)),
], ids=["kappa-gauss2d8", "hyperplane-expo2d4", "hyperplane-expo2d8", "gridlp-ql16"])
def test_benchmark_lps_are_solved_on_orbits(lp, shape):
    """The grid LPs of the gap-lp benchmark reach measure_bounds as (orbit
    columns, rows): x <-> y and every signed permutation of the centred
    Gaussian at x0 = 0 fold the 49-point grids; the q-lattice data have no
    symmetry (x -> -x moves m_1)."""
    shapes = []
    real = simplex.measure_bounds

    def counted(columns, moments, objective):
        shapes.append((len(columns), len(moments)))
        return real(columns, moments, objective)
    with mock.patch.object(simplex, "measure_bounds", counted):
        try:
            lp()
        except LpUnbounded:
            pass
    assert shapes == [shape]


@pytest.mark.parametrize("d, x0, order, shape", [
    (3, (0, 0, 0), 48, (20, 2)),
    (3, (F(1, 2), 0, 0), 8, (70, 4)),
    (4, (0, 0, 0, 0), 384, (35, 2)),
    (4, (F(1, 2), 0, 0, 0), 48, (140, 4)),
])
def test_symmetry_search_maps_the_grid_per_generator_and_failed_coset(d, x0, order, shape):
    """Every one of the 2^d d! signed permutations fixes the centred
    Gaussian's moments, but the default 7^d-point kappa grid is mapped only
    by a candidate outside the group generated so far: a passing one at
    least doubles that group, and a failing one rules out its coset of it.
    Off centre, phi keeps only the permutations that fix x0.  The orbit LP
    has one column per multiset of coordinate magnitudes (per magnitude of
    x_1 and multiset of the others off centre)."""
    seq = generate_moments(GaussianProduct((1,) * d), d, 2, R)
    maps, shapes = [], []
    mapped, solve = gaps._grid_permutation, simplex.measure_bounds

    def counted_map(*args):
        images = mapped(*args)
        maps.append(images is not None)
        return images

    def counted_solve(columns, moments, objective):
        shapes.append((len(columns), len(moments)))
        return solve(columns, moments, objective)
    with mock.patch.object(gaps, "_grid_permutation", counted_map), \
            mock.patch.object(simplex, "measure_bounds", counted_solve):
        poisson_kappa_estimate(seq, x0, 1, 2)
    assert shapes == [shape]
    assert 2 ** maps.count(True) <= order
    assert maps.count(False) < 2 ** d * math.factorial(d) // order



@pytest.mark.parametrize("lp, mode, shape", [
    (lambda m: poisson_kappa_estimate(generate_moments(GaussianProduct((1, 1)), 2, 8, m),
                                      (0, 0), 1, 2), FloatMode(64), (10, 2)),
    (lambda m: hyperplane_gap(generate_moments(EXPO2, 2, 4, m), (1, 1), 4), FloatMode(64),
     (28, 6)),
    (lambda m: hyperplane_gap(generate_moments(EXPO2, 2, 4, m), (1, 1), 4), FloatMode(128),
     (28, 6)),
], ids=["kappa-gauss2d8-float:64", "hyperplane-expo2d4-float:64",
        "hyperplane-expo2d4-float:128"])
def test_float_kernels_keep_the_rational_orbits(lp, mode, shape):
    """Float kernels round 1 + a.x and t0^2 + |x - x0|^2 once from their
    exact sums, so they keep x <-> y bit for bit and their LPs fold as in
    rational mode (16 x 3 and 49 x 10 when the sums were taken coordinate
    by coordinate)."""
    shapes = []
    real = simplex.measure_bounds

    def counted(columns, moments, objective):
        shapes.append((len(columns), len(moments)))
        return real(columns, moments, objective)
    with mock.patch.object(simplex, "measure_bounds", counted):
        lp(mode)
    assert shapes == [shape]

#: the grid LPs of the gap-lp benchmark
GAP_LP_JOBS = {
    "kappa-gauss2d8": lambda: poisson_kappa_estimate(
        generate_moments(GaussianProduct((1, 1)), 2, 8, R), (0, 0), 1, 2),
    "hyperplane-expo2d4": lambda: hyperplane_gap(generate_moments(EXPO2, 2, 4, R), (1, 1), 4),
    "hyperplane-expo2d8": lambda: hyperplane_gap(generate_moments(EXPO2, 2, 8, R), (1, 1), 6),
    "gridlp-ql16": lambda: grid_gap_lp(
        generate_moments(QLattice1D(F(2)), 1, 16, R),
        Sampled(QL_LOG_GRID, tuple(t[0] / (t[0] * t[0] + 1) for t in QL_LOG_GRID)),
        8, QL_LOG_GRID),
}


@pytest.mark.parametrize("job, reads", [
    ("kappa-gauss2d8", 10), ("hyperplane-expo2d4", 28), ("hyperplane-expo2d8", 28),
    ("gridlp-ql16", 43)])
def test_benchmark_lps_read_phi_once_per_orbit(job, reads):
    """The kernels' parameters prove the symmetries of the 49-point
    benchmark grids, so phi is read once per orbit, at its first point: 10
    Poisson values for the centred Gaussian, 28 Fantappie values for a = (1,
    1) on the x <-> y orbits.  The sampled spec is read at each of its 43
    points, and its LP has no symmetry."""
    points = []
    real = gaps._target

    def target(*args):
        phi = real(*args)

        def counted(point):
            points.append(point)
            return phi(point)
        return counted
    with mock.patch.object(gaps, "_target", target):
        try:
            GAP_LP_JOBS[job]()
        except LpUnbounded:
            assert job == "hyperplane-expo2d8"
    assert len(points) == len(set(points)) == reads


#: kernel parameters and grid coordinates: binary and not, so that float
#: sums of them round
KERNEL_COORDS = (F(0), F(1, 3), F(-1, 3), F(1, 7), F(-2, 7), F(1, 5), F(1, 2), F(-1))


@st.composite
def kernels_and_symmetries(draw):
    """(mode, spec, sigma as (pi, s), grid): a signed permutation of R^d, d
    = 1..4, a Fantappie a (entries at most 1/5) or a Poisson x0 and t0,
    made to satisfy v_{pi(j)} = s_j v_j along each cycle of pi (0 on a
    cycle whose signs multiply to -1) and then, maybe, changed in one
    entry, and up to 8 grid points in [-1, 1]^d."""
    d = draw(st.integers(1, 4))
    perm = tuple(draw(st.permutations(range(d))))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * d))
    kind = draw(st.sampled_from(["fantappie", "poisson"]))
    pool = ([c / 5 for c in KERNEL_COORDS if abs(c) <= 1] if kind == "fantappie"
            else KERNEL_COORDS)
    v: list = [None] * d
    for start in range(d):
        if v[start] is None:
            cycle, j = [], start
            while j not in cycle:
                cycle.append(j)
                j = perm[j]
            c = draw(st.sampled_from(pool)) if math.prod(signs[j] for j in cycle) > 0 else F(0)
            for j in cycle:
                v[j], c = c, signs[j] * c
    if draw(st.booleans()):
        v[draw(st.integers(0, d - 1))] = draw(st.sampled_from(pool))
    spec = (Fantappie(tuple(v)) if kind == "fantappie"
            else PoissonKernel(tuple(v), draw(st.sampled_from((F(1, 2), F(1), F(3, 7))))))
    coord = st.sampled_from([c for c in KERNEL_COORDS if abs(c) <= 1] + [F(5, 9), F(-3, 11)])
    grid = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    return draw(st.sampled_from([R, FloatMode(64)])), spec, (perm, signs), grid


@settings(max_examples=150, deadline=None)
@given(kernels_and_symmetries())
def test_kernel_parameters_prove_the_symmetry_they_claim(inputs):
    """Where ``_fixes_parameters`` proves sigma, phi(sigma g) == phi(g) at
    every grid point g, bit for bit at float:64 too, where 1 + a.x and t0^2
    + |x - x0|^2 are rounded once from their exact sums; the proof is the
    parameter test itself, v_{pi(j)} = s_j v_j."""
    mode, spec, (perm, signs), grid = inputs
    vector = spec.a if isinstance(spec, Fantappie) else spec.x0
    proves = gaps._fixes_parameters(spec, mode)
    claimed = proves(perm, signs)
    assert claimed == all(vector[k] == s * c for k, s, c in zip(perm, signs, vector))
    if claimed:
        phi = gaps._target(spec, mode, len(perm))
        for g in grid:
            g = tuple(map(mode.convert, g))
            assert phi(tuple(s * g[k] for k, s in zip(perm, signs))) == phi(g)


@pytest.mark.parametrize("removed, added, per_candidate", [
    ({(-8, 0, F(8, 3), F(-16, 3), F(-8, 3)), (F(8, 3), -8, F(16, 3), 0, 8)}, [], 2),
    (set(), [(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 9))], 1),
], ids=["two-removed", "one-added"])
def test_symmetry_search_fails_at_once_on_a_broken_grid(removed, added, per_candidate):
    """Every signed permutation fixes the centred 5D Gaussian's moments,
    but none fixes its default degree-2 kappa grid (7^5 points) once two
    points with different multisets of magnitudes and no common stabilizer
    are removed, or once a point with five distinct nonzero magnitudes is
    added: after the first, which maps the grid in its own order up to
    its first miss, each of the 3839 candidates fails at one of the two
    holes, or at the added point, mapped first, so it maps at most 2 or 1
    points (a whole-grid map per candidate took about 30 s).  The LP is not
    solved here."""
    seq = gauss(2, 5)
    grid = [g for g in default_grid(seq.support, 5, R, points_per_axis=7)
            if g not in removed] + added
    assert len(grid) == 7 ** 5 - len(removed) + len(added)
    spec = PoissonKernel((0,) * 5, 1)
    target = gaps._target(spec, R, 5)
    mapped = []  # the points each call maps
    real = gaps._grid_permutation

    def counted(points, index, negated, perm, signs, value, holes, order):
        def visit(items):
            for item in items:
                mapped[-1] += 1
                yield item
        mapped.append(0)
        return real(points, index, negated, perm, signs, value, visit(holes), visit(order))
    with mock.patch.object(gaps, "_grid_permutation", counted):
        generators = gaps._symmetries(seq, list(multi_indices(5, 2)), grid,
                                      lambda i: target(grid[i]),
                                      gaps._fixes_parameters(spec, R))
    assert generators == []
    assert len(mapped) == 2 ** 5 * math.factorial(5) - 1
    assert max(mapped[1:]) <= per_candidate


@pytest.mark.parametrize("orthant, generators, a", [
    (generate_moments(Exponential1D(), 1, 8, R), ((1,),), (1,)),
    (generate_moments(Product(((Exponential1D(), 1), (Exponential1D(), 1))), 2, 4, R),
     ((1, 0), (0, 1)), (1, 1)),
], ids=["expo-1d", "expo-2d"])
def test_cone_default_grid_is_the_orthant_grid_through_the_generators(orthant, generators,
                                                                      a):
    """Generators that span the orthant give its default grid, so the
    hyperplane values and grid under the cone hint are the orthant's."""
    cone = MomentSequence(orthant.dimension, orthant.max_degree, orthant.mode, orthant.entries,
                          ConeSupport(generators), orthant.meta)
    assert hyperplane_gap(cone, a, 4) == hyperplane_gap(orthant, a, 4)


def test_degrees_above_the_truncation_and_empty_grids_are_refused():
    with pytest.raises(DegreeInsufficient, match="degree exceeds the truncation"):
        hyperplane_gap(EXPO8, (1,), 9)
    with pytest.raises(DegreeInsufficient, match="LP degree exceeds the truncation"):
        grid_gap_lp(EXPO8, Fantappie((1,)), 9, [(F(1),)])
    with pytest.raises(InvalidParameter, match="grid must be non-empty"):
        grid_gap_lp(EXPO8, Fantappie((1,)), 2, [])


def test_hyperplane_needs_cone_and_interior():
    with pytest.raises(WrongSupport):
        hyperplane_gap(gauss(8), (1,), 2)
    seq = generate_moments(Exponential1D(), 1, 8, R)
    with pytest.raises(NotInteriorDirection):
        hyperplane_gap(seq, (0,), 2)


def test_negative_lp_degree_is_invalid():
    seq = generate_moments(Exponential1D(), 1, 8, R)
    with pytest.raises(InvalidParameter):
        hyperplane_gap(seq, (1,), -1)
    with pytest.raises(InvalidParameter):
        grid_gap_lp(seq, Sampled(((F(1),),), (F(1),)), -1, [(F(1),)])
    with pytest.raises(InvalidParameter):
        poisson_kappa_estimate(gauss(8, 2), (0, 0), 1, -1)
    with pytest.raises(InvalidParameter):
        poisson_kappa_1d(gauss(8), 0, 1, -1)


# ---------------------------------------------------------------------------
# direction scans


def test_scan_product_gaussian_determinate():
    g2 = gauss(60, 2)
    scan = direction_scan(g2, [(1, 0), (0, 1)])
    assert scan["aggregate"].status is Status.DETERMINATE
    assert scan["basis_covered"]


def test_scan_mixed_product_indeterminate():
    mix = generate_moments(Product(((GaussianProduct((1,)), 1),
                                    (QLattice1D(2), 1))), 2, 60, R)
    scan = direction_scan(mix, [(1, 0), (0, 1)])
    assert scan["aggregate"].status is Status.INDETERMINATE
    assert scan["aggregate"].numeric_flagged


def test_scan_single_direction_inconclusive():
    g2 = gauss(60, 2)
    scan = direction_scan(g2, [(1, 0)])
    assert scan["aggregate"].status is Status.INCONCLUSIVE
    assert not scan["basis_covered"]


def test_scan_never_determinate_without_basis():
    # aggregation soundness, asserted on the rule directly: parallel
    # determinate directions must not yield a determinate aggregate
    g2 = gauss(60, 2)
    scan = direction_scan(g2, [(1, 0), (2, 0), (3, 0)])
    assert scan["aggregate"].status is not Status.DETERMINATE
    with pytest.raises(InvalidDirection):
        direction_scan(g2, [])


GAUSS_ROW = ("determinate", {("carleman", "rigorous-sufficient"): 1,
                              ("christoffel-decay", "heuristic"): 1,
                              ("hankel-admissibility", "necessary-only"): 1,
                              ("weyl-radius", "heuristic"): 1})
PLATEAU_ROW = ("indeterminate", {("carleman", "necessary-only"): 1,
                                 ("christoffel-plateau", "limit-rigorous-numeric"): 1,
                                 ("hankel-admissibility", "necessary-only"): 1,
                                 ("weyl-radius-plateau", "limit-rigorous-numeric"): 1})


@pytest.mark.parametrize("defn, d, n, count, rows, aggregate", [
    (GaussianProduct((1, 2, F(1, 2))), 3, 24, 6, [GAUSS_ROW] * 6, "determinate"),
    (Product(((GaussianProduct((1,)), 1), (QLattice1D(2), 1))), 2, 32, 4,
     [("inconclusive", {("carleman", "limit-rigorous-numeric"): 1,
                        ("christoffel-decay", "heuristic"): 1,
                        ("hankel-admissibility", "necessary-only"): 1,
                        ("weyl-radius", "heuristic"): 1})] + [PLATEAU_ROW] * 3,
     "indeterminate"),
])
def test_float_scan_statuses_and_evidence_classes(defn, d, n, count, rows, aggregate):
    """The scans of the benchmark's 3D Gaussian and Gaussian x (q = 2
    lattice) at float:128: each direction's status and multiset of
    (criterion, sufficiency), the ones the term-by-term ``image_moments``
    push-forwards give, so a summation order that moves a verdict shows."""
    mode = FloatMode(128)
    scan = direction_scan(generate_moments(defn, d, n, mode), direction_set(d, count, mode))
    assert [(r["verdict"].status.value,
             dict(Counter((e.criterion, e.sufficiency.value) for e in r["verdict"].evidence)))
            for r in scan["rows"]] == rows
    assert scan["aggregate"].status.value == aggregate


@st.composite
def span_inputs(draw):
    """(mode, dimension, vectors): up to 6 directions of ``direction_set``
    in d = 1..4, and perhaps one more vector near their span, a rational
    combination of them with one entry moved by 2**-k.  The move is 2**10
    to 2**20 times above or below the mode's half floor: within a few bits
    of the floor, whether a reduced entry clears it depends on the
    elimination order, for any method."""
    mode = draw(st.sampled_from([R, FloatMode(24), FloatMode(64), FloatMode(128)]))
    d = draw(st.integers(1, 4))
    dirs = direction_set(d, 12, mode)
    vectors = draw(st.lists(st.sampled_from(dirs), max_size=6))
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
                               min_size=len(vectors), max_size=len(vectors)))
        near = [sum((mode.convert(c) * v[i] for c, v in zip(coeffs, vectors)), mode.zero())
                for i in range(d)]
        half_bits = 20 if isinstance(mode, RationalMode) else mode.precision_bits // 2
        shift = draw(st.sampled_from((1, -1))) * draw(st.integers(10, 20))
        j = draw(st.integers(0, d - 1))
        near[j] += draw(st.sampled_from((1, -1))) * mode.convert(F(1, 2) ** (half_bits + shift))
        vectors.insert(draw(st.integers(0, len(vectors))), tuple(near))
    return mode, d, vectors


@settings(max_examples=200, deadline=None)
@given(span_inputs())
def test_span_test_matches_the_elimination_oracle(inputs):
    """Reducing each vector once against the rows kept gives the rank
    decision of column-pivoted elimination with row swaps."""
    mode, d, vectors = inputs
    assert _contains_basis(mode, vectors, d) == contains_basis_elimination(mode, vectors, d)


def line_key(seq, xi):
    """The verdict a scan direction may share: its line when neither xi nor
    -xi lies in the closed dual cone (both images on R), else xi itself."""
    neg = tuple(-c for c in xi)
    if dual_contains(seq.support, xi) or dual_contains(seq.support, neg):
        return xi
    return max(xi, neg)


positive_weights = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


@st.composite
def scan_inputs(draw):
    """(sequence, directions): a 2D or 3D Gaussian, Gaussian x (q = 2
    lattice), orthant product (exponential and lattice factors) or atomic
    measure (on the orthant or not), at degree 6 to 10, in rational or
    float:128 mode; the directions hold some xi, -xi and xi again, and
    more directions, negations and repeats, in any order.  The pool holds
    ``direction_set``'s directions, the axes (on the boundary of the
    orthant's dual cone, their negations outside it) and (1, ..., 1) (in
    its interior)."""
    mode = draw(st.sampled_from([R, FloatMode(128)]))
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["gauss", "mixed", "orthant", "atoms"]))
    if kind == "gauss":
        defn = GaussianProduct(tuple(draw(st.sampled_from([1, 2, F(1, 2)])) for _ in range(d)))
    elif kind == "mixed":
        defn = Product(((GaussianProduct((1,) * (d - 1)), d - 1), (QLattice1D(2), 1)))
    elif kind == "orthant":
        defn = Product(tuple((draw(st.sampled_from([Exponential1D(), QLattice1D(2)])), 1)
                             for _ in range(d)))
    else:
        low = draw(st.sampled_from([0, -2]))
        points = draw(st.lists(st.tuples(*[st.integers(low, 2)] * d), min_size=1, max_size=4,
                               unique=True))
        defn = Atomic(tuple(points), tuple(draw(positive_weights) for _ in points))
    seq = generate_moments(defn, d, 2 * draw(st.integers(3, 5)), mode)
    pool = (direction_set(d, 6, mode) + [(1,) * d]
            + [tuple(int(i == j) for i in range(d)) for j in range(d)])
    pool = [tuple(mode.convert(c) for c in xi) for xi in pool]
    xi = draw(st.sampled_from(pool))
    directions = [xi, tuple(-c for c in xi), xi]
    for extra in draw(st.lists(st.sampled_from(pool), max_size=3)):
        directions += [extra] * draw(st.integers(1, 2))
        if draw(st.booleans()):
            directions.append(tuple(-c for c in extra))
    return seq, draw(st.permutations(directions))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_inputs())
def test_shared_scan_verdicts_match_fresh_verdicts(inputs):
    """Each row's verdict is ``==`` to the verdict of its own push-forward
    built from scratch, in rational and float:128 mode, the rows sharing a
    verdict included; the scan runs one verdict per line, and a verdict is
    never shared between a direction in the closed dual cone (a Stieltjes
    verdict) and one outside it (a Hamburger verdict)."""
    seq, directions = inputs
    try:
        expected = scan_verdicts_fresh(seq, directions)
    except MomentKitError as exc:
        with pytest.raises(type(exc)):
            direction_scan(seq, directions)
        return
    with mock.patch.object(gaps, "verdict_1d", wraps=gaps.verdict_1d) as spy:
        scan = direction_scan(seq, directions)
    rows = scan["rows"]
    assert [r["direction"] for r in rows] == list(directions)
    assert [r["verdict"] for r in rows] == expected
    assert spy.call_count == len({line_key(seq, xi) for xi in directions})
    for i, j in combinations(range(len(rows)), 2):
        if rows[i]["verdict"] is rows[j]["verdict"]:
            assert expected[i].flavor is expected[j].flavor
            assert (dual_contains(seq.support, directions[i])
                    == dual_contains(seq.support, directions[j]))


def test_scan_shares_no_verdict_across_flavors():
    """On the orthant an axis and (3/5, 4/5) lie in the closed dual cone
    and their negations do not: four directions, four verdicts, Stieltjes
    and Hamburger in turn; on R^2 the same list runs two."""
    dirs = [(1, 0), (-1, 0), (F(3, 5), F(4, 5)), (F(-3, 5), F(-4, 5))]
    expo2 = generate_moments(Product(((Exponential1D(), 1), (Exponential1D(), 1))), 2, 12, R)
    with mock.patch.object(gaps, "verdict_1d", wraps=gaps.verdict_1d) as spy:
        rows = direction_scan(expo2, dirs)["rows"]
    assert spy.call_count == 4
    assert [r["verdict"].flavor.value for r in rows] == ["stieltjes", "hamburger"] * 2
    with mock.patch.object(gaps, "verdict_1d", wraps=gaps.verdict_1d) as spy:
        rows = direction_scan(gauss(12, 2), dirs)["rows"]
    assert spy.call_count == 2
    assert rows[0]["verdict"] is rows[1]["verdict"] and rows[2]["verdict"] is rows[3]["verdict"]


@pytest.mark.xfail(strict=True, reason="rational 2D direction sets pair each line with its "
                                       "negation: count / 2 lines for an even count")
def test_rational_2d_direction_sets_span_count_distinct_lines():
    """Float mode gives count lines (angles j pi / count); rational mode
    gives its first count // 2 points and their negations, all of negative
    slope."""
    for count in (2, 4, 8, 9):
        dirs = direction_set(2, count, R)
        assert len({max(xi, tuple(-c for c in xi)) for xi in dirs}) == count


def test_direction_sets():
    dirs = direction_set(2, 8, R)
    assert len(dirs) == 8
    for d in dirs:
        assert d[0] * d[0] + d[1] * d[1] == 1  # exactly unit in rational mode
    dirs3 = direction_set(3, 6, R)
    assert len(dirs3) == 6
    for d in dirs3:
        assert sum(c * c for c in d) == 1


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, if the body runs longer than ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_direction_set_has_no_period_in_higher_dimensions():
    """The first seven directions are the documented ones; beyond them the
    generator keeps finding new rational unit vectors."""
    with deadline(30):
        dirs = direction_set(4, 12, R)
    assert len(set(dirs)) == 12
    assert all(sum(c * c for c in d) == 1 for d in dirs)
    assert direction_set(3, 7, R)[:6] == direction_set(3, 6, R)
    assert direction_set(3, 7, R) == [
        (F(-4, 5), 0, F(-3, 5)), (F(4, 13), F(-12, 13), F(-3, 13)),
        (F(-12, 13), F(4, 13), F(-3, 13)), (0, F(-4, 5), F(-3, 5)),
        (F(24, 29), F(16, 29), F(-3, 29)), (F(-4, 9), F(-4, 9), F(-7, 9)),
        (F(16, 29), F(24, 29), F(-3, 29))]


def test_direction_set_is_linear_in_the_count():
    """2000 distinct directions in 3D come back quickly (each candidate is
    checked against the directions kept by hashing, not by a list scan)."""
    with deadline(10):
        dirs = direction_set(3, 2000, R)
    assert len(set(dirs)) == 2000
    assert dirs[:7] == direction_set(3, 7, R)


@pytest.mark.parametrize("bits", [64, 128])
def test_float_2d_directions_at_the_mode_precision(bits):
    """The float angles j pi / count are taken at the mode's precision: the
    vertical direction is exactly (0, 1) and the diagonal's entries are
    cos(pi/4) to the last bit of the mode."""
    mode = FloatMode(bits)
    dirs = direction_set(2, 4, mode)
    assert dirs[0] == (1, 0) and dirs[2] == (0, 1)
    half = mode.ctx.sqrt(mode.convert(F(1, 2)))
    assert dirs[1] == (half, half) and dirs[3] == (-half, half)


def test_analyze_4d_runs_its_eight_direction_scan(tmp_path):
    spec = tmp_path / "gauss4d.json"
    spec.write_text(json.dumps({
        "measure": {"variant": "gaussian_product", "variances": ["1", "2", "1", "1/2"]},
        "dimension": 4, "max_degree": 6, "mode": "rational"}))
    out = tmp_path / "report.json"
    with deadline(60):
        rc = main(["analyze", "--input", str(spec), "--criteria", "verdict,scan",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    rows = rep["criteria"][0]["rows"]
    assert len({tuple(r["direction"]) for r in rows}) == len(rows) == 8
    assert rep["verdict"]["status"] == "determinate"


def test_default_grids_shapes():
    g_full = default_grid(gauss(4).support, 1, R)
    g_half = default_grid(generate_moments(Exponential1D(), 1, 4, R).support, 1, R)
    assert any(p[0] < 0 for p in g_full)
    assert all(p[0] >= 0 for p in g_half)
    g2 = default_grid(gauss(4, 2).support, 2, R, points_per_axis=5)
    assert len(g2) == 25


# ---------------------------------------------------------------------------
# separating-spec evaluation paths


def test_cosine_spec_through_lp():
    seq = two_atom()
    grid = [(F(0),), (F(1),), (F(2),)]
    est = grid_gap_lp(seq, Cosine((F(1),)), 2, grid)
    assert est.gap == 0  # interpolation on the atoms, cos values approximated


def test_poisson_kernel_values_by_dimension():
    # odd ambient dimension keeps the kernel rational up to c_d
    v3 = evaluate_separating(PoissonKernel((F(0), F(0), F(0)), F(1)),
                             (F(1), F(0), F(0)), R)
    assert abs(float(v3) - (1 / math.pi ** 2) / 4) < 1e-15
    v2 = evaluate_separating(PoissonKernel((F(0), F(0)), F(1)), (F(1), F(1)), R)
    assert abs(float(v2) - (1 / (2 * math.pi)) / 3 ** 1.5) < 1e-15


def test_fantappie_spec_values():
    v = evaluate_separating(Fantappie((F(2),)), (F(3),), R)
    assert v == F(1, 7)


def test_sphere_average_2d_product_atoms():
    atom2 = Atomic(((0,), (1,)), (F(1, 2), F(1, 2)))
    seq = generate_moments(Product(((atom2, 1), (atom2, 1))), 2, 8, R)
    grid = [(x, y) for x in (F(0), F(1), F(2)) for y in (F(0), F(1), F(2))]
    avg = sphere_average_kappa(seq, (0, 0), 1, F(1, 4), 4, 2, grid)
    assert avg >= 0


def test_direction_set_float_mode():
    from momentkit.scalars import FloatMode

    fm = FloatMode(64)
    dirs = direction_set(2, 6, fm)
    assert len(dirs) == 6
    for d in dirs:
        assert float(d[0] * d[0] + d[1] * d[1]) == pytest.approx(1.0)


def test_poisson_estimate_dirac_origin_2d():
    seq = generate_moments(Atomic(((0, 0),), (1,)), 2, 8, R)
    grid = [(x, y) for x in (F(-1), F(0), F(1)) for y in (F(-1), F(0), F(1))]
    est = poisson_kappa_estimate(seq, (0, 0), 1, 2, grid)
    assert est.gap == 0  # interpolation at the single atom


def test_sampled_spec_keeps_the_first_value_of_a_repeated_point():
    spec = Sampled(((F(1),), (F(2),), (F(1),)), (F(3), F(4), F(5)))
    assert evaluate_separating(spec, (F(1),), R) == 3
    assert evaluate_separating(spec, (1,), R) == 3  # looked up by value
    with pytest.raises(InvalidParameter, match="no value at"):
        evaluate_separating(spec, (F(3),), R)


@pytest.mark.parametrize("mode", [R, FloatMode(64)], ids=["rational", "float:64"])
def test_sampled_spec_on_a_non_binary_grid(mode):
    """The spec's points are looked up the way grid_gap_lp converts the
    grid, so 1/3 finds its value in float mode too; the gap closes at the
    two atoms' mean of 1 and 3."""
    seq = generate_moments(Atomic(((0,), (1,)), (F(1, 2), F(1, 2))), 1, 8, mode)
    points = ((F(0),), (F(1, 3),), (F(1),))
    est = grid_gap_lp(seq, Sampled(points, (F(1), F(7), F(3))), 2, list(points))
    assert est.sup_side == 2 == est.inf_side


def test_sampled_points_that_round_together_keep_the_first_value():
    """1/3 and 1/3 + 2**-80 are one float at 64 bits: the first value
    given is the one kept, as for a repeated point."""
    spec = Sampled(((F(1, 3),), (F(1, 3) + F(1, 2 ** 80),)), (F(5), F(6)))
    assert evaluate_separating(spec, (F(1, 3) + F(1, 2 ** 80),), R) == 6
    assert evaluate_separating(spec, (F(1, 3) + F(1, 2 ** 80),), FloatMode(64)) == 5


@pytest.mark.parametrize("spec", [
    Cosine((F(1), F(-2))),
    Fantappie((F(1, 3), F(2))),
    PoissonKernel((F(1, 2), F(-1)), F(3, 4)),
    PoissonKernel((F(0), F(0), F(1)), F(2)),
], ids=["cosine", "fantappie", "poisson-2d", "poisson-3d"])
def test_grid_targets_match_point_evaluation(spec):
    # grid_gap_lp prepares the target once for the whole grid; its values
    # are those of evaluate_separating on each point alone
    d = len(spec.x0) if isinstance(spec, PoissonKernel) else 2
    grid = [tuple(F(k + j, 3) for j in range(d)) for k in range(4)]
    seq = generate_moments(Atomic(tuple(grid[:2]), (F(1, 2), F(1, 2))), d, 4, R)
    est = grid_gap_lp(seq, spec, 1, grid)
    oracle = Sampled(tuple(grid), tuple(evaluate_separating(spec, g, R) for g in grid))
    assert est == grid_gap_lp(seq, oracle, 1, grid)


GAUSS2D8 = generate_moments(GaussianProduct((1, 1)), 2, 8, R)
EXPO8 = generate_moments(Exponential1D(), 1, 8, R)


@pytest.mark.parametrize("run", [
    lambda: poisson_kappa_estimate(GAUSS2D8, (0, 0), 1, 2,
                                   [(F(i), F(j), F(0)) for i in range(-3, 4)
                                    for j in range(-3, 4)]),
    lambda: poisson_kappa_estimate(GAUSS2D8, (0, 0), 1, 2, [(F(i),) for i in range(-3, 4)]),
    lambda: grid_gap_lp(GAUSS2D8, Fantappie((1, 1)), 2,
                        [(F(i), F(j)) for i in range(3) for j in range(3)] + [(F(1),)]),
    lambda: sphere_average_kappa(GAUSS2D8, (0, 0), 1, F(1, 4), 4, 2,
                                 [(F(i),) for i in range(-3, 4)]),
    lambda: hyperplane_gap(EXPO8, (1,), 4, [(F(k), F(1)) for k in range(10)]),
], ids=["kappa-3d-points", "kappa-1d-points", "one-short-point", "sphere-average",
        "hyperplane-2d-points"])
def test_grid_points_of_the_wrong_dimension_are_refused(run):
    with pytest.raises(DimensionMismatch, match="grid point of dimension"):
        run()


EXPO2D4 = generate_moments(Product(((Exponential1D(), 1), (Exponential1D(), 1))), 2, 4, R)
GAUSS2D4 = generate_moments(GaussianProduct((1, 1)), 2, 4, R)
GRID2D = [(F(i), F(j)) for i in range(-2, 3) for j in range(-2, 3)]


@pytest.mark.parametrize("run, message", [
    (lambda: hyperplane_gap(EXPO2D4, (1,), 4), "direction of dimension 1 "),
    (lambda: hyperplane_gap(EXPO2D4, (1, 1, 2), 4), "direction of dimension 3 "),
    (lambda: grid_gap_lp(GAUSS2D4, Fantappie((1,)), 2, GRID2D), "Fantappie a of dimension 1 "),
    (lambda: grid_gap_lp(GAUSS2D4, Cosine((1,)), 2, GRID2D), "cosine xi of dimension 1 "),
    (lambda: grid_gap_lp(GAUSS2D4, PoissonKernel((0,), 1), 2, GRID2D),
     "Poisson x0 of dimension 1 "),
    (lambda: poisson_kappa_estimate(GAUSS2D4, (0,), 1, 2), "Poisson x0 of dimension 1 "),
    (lambda: sphere_average_kappa(GAUSS2D4, (0,), 1, F(1, 4), 4, 2), "x0 of dimension 1 "),
    (lambda: sphere_average_kappa(GAUSS2D4, (0, 0, 0), 1, F(1, 4), 4, 2),
     "x0 of dimension 3 "),
    (lambda: orthant_criterion(GAUSS2D4, (0,)), "corner of dimension 1 "),
], ids=["hyperplane-short", "hyperplane-long", "fantappie", "cosine", "poisson",
        "kappa-estimate", "sphere-average-short", "sphere-average-long", "orthant-corner"])
def test_vectors_of_the_wrong_dimension_are_refused(run, message, monkeypatch):
    """A direction, a kernel's vector, a centre or a corner whose length is
    not the sequence's dimension is refused, naming both lengths, before
    any LP runs."""
    def no_lp(*args):
        raise AssertionError("an LP ran")
    monkeypatch.setattr(simplex, "measure_bounds", no_lp)
    with pytest.raises(DimensionMismatch, match=message + "for a 2-dimensional sequence"):
        run()


@pytest.mark.parametrize("mode", [R, FloatMode(64)], ids=["rational", "float:64"])
@pytest.mark.parametrize("t0", [0, -1])
def test_poisson_kernel_needs_a_positive_t0(mode, t0, monkeypatch):
    """At t0 = 0 the kernel's denominator vanishes at x0, a grid point here;
    at t0 < 0 the kernel is no kernel.  Either is refused before any LP
    runs."""
    def no_lp(*args):
        raise AssertionError("an LP ran")
    monkeypatch.setattr(simplex, "measure_bounds", no_lp)
    seq = generate_moments(GaussianProduct((1, 1)), 2, 4, mode)
    with pytest.raises(InvalidParameter, match="t0 must be positive"):
        grid_gap_lp(seq, PoissonKernel((0, 0), t0), 2, GRID2D)
    with pytest.raises(InvalidParameter, match="t0 must be positive"):
        poisson_kappa_estimate(seq, (0, 0), t0, 2)


def test_sampled_spec_needs_one_value_per_point():
    spec = Sampled(((F(0), F(0)),), (F(1), F(2), F(3)))
    with pytest.raises(InvalidParameter, match="1 points and 3 values"):
        grid_gap_lp(GAUSS2D4, spec, 0, [(F(0), F(0))])
    with pytest.raises(InvalidParameter, match="1 points and 3 values"):
        evaluate_separating(spec, (F(0), F(0)), R)
