"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Expected values marked as regression baselines were computed once
with the exact-rational oracles in this repository and frozen.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from momentkit.cli import main as cli_main
from momentkit.curves import CATALOG_NAMES, catalog, lift_and_test, projection_bridge
from momentkit.envelopes import (
    CompletelyMonotonic,
    cm_gap_criterion,
    cosine_envelope,
    geometric_envelope,
    maclaurin_envelope,
)
from momentkit.gaps import Sampled, direction_scan, grid_gap_lp, poisson_kappa_1d
from momentkit.hamburger import (
    carleman,
    christoffel,
    recurrence_from_moments,
    stieltjes_convergents,
    verdict_1d,
    weyl_disk,
)
from momentkit.moments import (
    Atomic,
    Exponential1D,
    GaussianProduct,
    Product,
    QLattice1D,
    apply_linear_functional,
    convolve,
    generate_moments,
    pushforward_direction,
)
from momentkit.polynomials import (
    mpoly_compose_univariates,
    poly_eval,
    poly_trim,
)
from momentkit.scalars import ComplexScalar, FloatMode, RationalMode, complex_scalar
from momentkit.verdicts import Flavor, Status
from oracles import christoffel_direct, mpoly_pow

R = RationalMode()

#: the documented log grid for the q-lattice LP runs: +-2^j, j = -4..16, and 0
QL_LOG_GRID = tuple(sorted(
    [(F(0),)] + [(F(2) ** j,) for j in range(-4, 17)]
    + [(-(F(2) ** j),) for j in range(-4, 17)]))


def _elapsed_guard(t0, budget, label):
    elapsed = time.time() - t0
    assert elapsed < budget, f"{label} exceeded its runtime budget ({elapsed:.1f}s)"
    return elapsed


def _random_pd_sequence(rng, atoms, degree):
    pts = sorted({F(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(atoms * 3)})
    pts = tuple((p,) for p in pts[:atoms])
    wts = tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in pts)
    return generate_moments(Atomic(pts, wts), 1, degree, R), pts, wts


def _brute_cauchy(points, weights, z):
    total = ComplexScalar(F(0), F(0))
    for (p,), w in zip(points, weights):
        total = total + ComplexScalar(w, F(0)) / (ComplexScalar(p, F(0)) - z)
    return total


def test_acceptance_01_christoffel_exact_oracle():
    t0 = time.time()
    rng = random.Random(20240517)
    points = [complex_scalar(R, F(rng.randint(-5, 5), rng.randint(1, 4)),
                             F(rng.randint(1, 7), rng.randint(1, 4)))
              for _ in range(5)]
    checked = 0
    for trial in range(20):
        seq, _, _ = _random_pd_sequence(rng, 12, 24)
        n = rng.randint(2, 10)
        rec = recurrence_from_moments(seq, n)
        for z in points:
            assert christoffel(rec, z, n) == christoffel_direct(seq, z, n)
            checked += 1
    assert checked == 100
    el = _elapsed_guard(t0, 30, "criterion 1")
    print(f"\nACCEPTANCE 01 christoffel-exact-oracle: PASS ({el:.1f}s)")


def test_acceptance_02_atomic_degeneracy_oracle():
    t0 = time.time()
    rng = random.Random(7151)
    zs = [complex_scalar(R, F(0), F(1)),
          complex_scalar(R, F(1, 2), F(2)),
          complex_scalar(R, F(-3, 4), F(1, 3))]
    for r in (2, 3, 4):
        seq, pts, wts = _random_pd_sequence(rng, r, 6 * r)
        rec = recurrence_from_moments(seq, r)
        assert rec.rank == r
        for z in zs:
            disk = weyl_disk(rec, z, r - 1)
            assert disk.radius_sq == 0          # exactly
            expected = _brute_cauchy(pts, wts, z)
            assert (disk.center - expected).abs2() == 0
        assert poisson_kappa_1d(seq, 0, 1, r - 1) == 0
        assert poisson_kappa_1d(seq, F(1, 3), F(5, 4), r - 1) == 0
    el = _elapsed_guard(t0, 10, "criterion 2")
    print(f"ACCEPTANCE 02 atomic-degeneracy-oracle: PASS ({el:.1f}s)")


def test_acceptance_03_gaussian_determinate_reference():
    t0 = time.time()
    fm = FloatMode(512)
    seq = generate_moments(GaussianProduct((1,)), 1, 200, fm)
    car = carleman(seq, Flavor.HAMBURGER, 100)
    assert fm.to_float(car.partial_sum) > 10
    assert car.diverging
    rec = recurrence_from_moments(seq, 41)
    z = complex_scalar(fm, 0, 1)
    rhos = [christoffel(rec, z, n) for n in range(1, 41)]
    assert all(rhos[k + 1] < rhos[k] for k in range(len(rhos) - 1))
    assert fm.to_float(rhos[39] / rhos[19]) < 0.9
    verdict = verdict_1d(seq)
    assert verdict.status is Status.DETERMINATE
    el = _elapsed_guard(t0, 60, "criterion 3")
    print(f"ACCEPTANCE 03 gaussian-determinate: PASS ({el:.1f}s)")


def test_acceptance_04_qlattice_indeterminate_reference():
    t0 = time.time()
    seq = generate_moments(QLattice1D(2), 1, 200, R)
    # Carleman partial sums (increasing in K) stay below 2.1 up to K = 100
    for K in (10, 50, 100):
        car = carleman(seq, Flavor.HAMBURGER, K)
        assert R.to_float(car.partial_sum) < 2.1
        assert not car.diverging
    seq62 = generate_moments(QLattice1D(2), 1, 62, R)
    rec = recurrence_from_moments(seq62, 31)
    z = complex_scalar(R, 0, 1)
    rho15 = christoffel(rec, z, 15)
    rho30 = christoffel(rec, z, 30)
    assert rho30 < rho15
    assert R.to_float(rho30 / rho15) > 0.9
    # frozen regression baseline (exact-rational computation)
    assert R.to_float(rho30) == pytest.approx(0.6331245390055394666191655, rel=1e-18)
    pairs = {n: stieltjes_convergents(seq62, -1, n) for n in (10, 20, 30)}
    for n, pair in pairs.items():
        assert pair.interval_width > 0
    for a, b in ((pairs[10], pairs[20]), (pairs[20], pairs[30])):
        lo_a, hi_a = min(a.even_value, a.odd_value), max(a.even_value, a.odd_value)
        lo_b, hi_b = min(b.even_value, b.odd_value), max(b.even_value, b.odd_value)
        assert lo_a <= lo_b and hi_b <= hi_a          # nested
        assert b.interval_width <= a.interval_width
    assert R.to_float(pairs[30].interval_width / pairs[10].interval_width) > 0.5
    assert R.to_float(pairs[30].interval_width) == pytest.approx(
        0.3490209114935955327028352, rel=1e-18)       # frozen baseline
    verdict = verdict_1d(seq62, Flavor.HAMBURGER)
    assert verdict.status is Status.INDETERMINATE
    assert verdict.numeric_flagged
    el = _elapsed_guard(t0, 300, "criterion 4")
    print(f"ACCEPTANCE 04 qlattice-indeterminate: PASS ({el:.1f}s)")


def test_acceptance_05_envelope_validity_suite():
    t0 = time.time()
    gauss = generate_moments(GaussianProduct((1,)), 1, 16, R)
    expo = generate_moments(Exponential1D(), 1, 26, R)
    line_points = [F(j, 50) for j in range(-500, 500)]
    half_points = [F(j, 100) for j in range(1000)]

    env = cosine_envelope(gauss, 3)
    for t in line_points:
        c = math.cos(float(t))
        assert float(poly_eval(env.lower, t)) <= c + 1e-12
        assert float(poly_eval(env.upper, t)) >= c - 1e-12

    geo = geometric_envelope(expo, 1)
    for s in half_points:
        v = F(1) / (1 + s)
        assert poly_eval(geo.lower, s) <= v <= poly_eval(geo.upper, s)  # exact
    assert geo.gap_functional == expo.moment((2,))    # gap_1 = m_2, exactly

    mac = maclaurin_envelope(CompletelyMonotonic.exponential_decay(), expo, 2)
    for s in half_points:
        v = math.exp(-float(s))
        assert float(poly_eval(mac.lower, s)) <= v + 1e-12
        assert float(poly_eval(mac.upper, s)) >= v - 1e-12

    cm = cm_gap_criterion(CompletelyMonotonic.exponential_decay(), expo, (0, 1), 13)
    assert all(v == 1 for v in cm.values)
    assert cm.infimum == 1
    el = _elapsed_guard(t0, 10, "criterion 5")
    print(f"ACCEPTANCE 05 envelope-validity: PASS ({el:.1f}s)")


def test_acceptance_06_pushforward_marginal_convolution():
    t0 = time.time()
    rng = random.Random(61)
    for d in (2, 3):
        seq = generate_moments(
            Atomic(tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(d)) for _ in range(4)),
                   tuple(F(rng.randint(1, 5)) for _ in range(4))), d, 10, R)
        for _ in range(3):
            xi = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d))
            if all(c == 0 for c in xi):
                continue
            pf = pushforward_direction(seq, xi)
            form = {}
            for j, c in enumerate(xi):
                if c:
                    form[tuple(1 if i == j else 0 for i in range(d))] = c
            for k in range(11):
                direct = apply_linear_functional(seq, mpoly_pow(form, k, d))
                assert pf.moment((k,)) == direct       # exactly

    g = generate_moments(GaussianProduct((1,)), 1, 8, R)
    assert convolve(g, g).entries == \
        generate_moments(GaussianProduct((2,)), 1, 8, R).entries
    dirac = generate_moments(Atomic(((0,),), (1,)), 1, 8, R)
    assert convolve(g, dirac).entries == g.entries
    el = _elapsed_guard(t0, 10, "criterion 6")
    print(f"ACCEPTANCE 06 pushforward-convolution-identities: PASS ({el:.1f}s)")


def test_acceptance_07_curve_suite():
    t0 = time.time()
    for name in CATALOG_NAMES:
        curve = catalog(name)
        if curve.components is None:
            continue
        for eq in curve.implicit_equations:
            assert poly_trim(mpoly_compose_univariates(eq, curve.components)) == ()

    sigma = generate_moments(QLattice1D(2), 1, 60, R)
    bridge = projection_bridge(sigma, 10)
    for k in range(11):
        assert bridge.moment((k,)) == sigma.moment((2 * k,))

    v_q = lift_and_test(sigma, catalog("parabola"))
    assert v_q.status is Status.INDETERMINATE and v_q.numeric_flagged

    gauss = generate_moments(GaussianProduct((1,)), 1, 80, R)
    v_g = lift_and_test(gauss, catalog("parabola"))
    assert v_g.status is Status.DETERMINATE
    el = _elapsed_guard(t0, 30, "criterion 7")
    print(f"ACCEPTANCE 07 curve-suite: PASS ({el:.1f}s)")


def test_acceptance_08_lp_gap_consistency():
    t0 = time.time()
    seq = generate_moments(QLattice1D(2), 1, 16, R)
    phi = Sampled(QL_LOG_GRID,
                  tuple(t[0] / (t[0] * t[0] + 1) for t in QL_LOG_GRID))
    est = grid_gap_lp(seq, phi, 8, QL_LOG_GRID)
    assert est.gap > 0
    rec = recurrence_from_moments(seq, 5)
    disk = weyl_disk(rec, complex_scalar(R, 0, 1), 3)
    # grid relaxation only shrinks the gap, so no extra slack is needed:
    # gap <= diameter exactly (compared through squares to stay rational)
    assert est.gap * est.gap <= 4 * disk.radius_sq
    assert R.to_float(est.gap) == pytest.approx(0.5773934830044260106777453,
                                                rel=1e-18)  # frozen baseline

    two = generate_moments(Atomic(((0,), (1,)), (F(1, 2), F(1, 2))), 1, 12, R)
    grid = ((F(0),), (F(1),), (F(2),))
    cosv = Sampled(grid, tuple(F(math.cos(float(g[0]))).limit_denominator(10 ** 15)
                               for g in grid))
    assert grid_gap_lp(two, cosv, 1, grid).gap > 0
    for deg in (2, 3, 4):
        assert grid_gap_lp(two, cosv, deg, grid).gap == 0   # exactly
    el = _elapsed_guard(t0, 60, "criterion 8")
    print(f"ACCEPTANCE 08 lp-gap-consistency: PASS ({el:.1f}s)")


def test_acceptance_09_scan_aggregation_soundness():
    t0 = time.time()
    gauss2 = generate_moments(GaussianProduct((1, 1)), 2, 60, R)
    full = direction_scan(gauss2, [(1, 0), (0, 1)])
    assert full["aggregate"].status is Status.DETERMINATE
    assert full["basis_covered"]

    parallel = direction_scan(gauss2, [(1, 0), (2, 0), (3, 0)])
    assert parallel["aggregate"].status is not Status.DETERMINATE

    mixed = generate_moments(Product(((GaussianProduct((1,)), 1),
                                      (QLattice1D(2), 1))), 2, 60, R)
    scan = direction_scan(mixed, [(1, 0), (0, 1)])
    assert scan["aggregate"].status is Status.INDETERMINATE
    assert scan["aggregate"].numeric_flagged

    single = direction_scan(gauss2, [(1, 0)])
    assert single["aggregate"].status is Status.INCONCLUSIVE
    el = _elapsed_guard(t0, 60, "criterion 9")
    print(f"ACCEPTANCE 09 scan-aggregation-soundness: PASS ({el:.1f}s)")


def test_acceptance_10_report_determinism(tmp_path):
    t0 = time.time()
    spec = tmp_path / "ql.json"
    spec.write_text(json.dumps({
        "measure": {"variant": "q_lattice", "q": "2"},
        "dimension": 1, "max_degree": 20, "mode": "rational"}))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["analyze", "--input", str(spec), "--out", str(out1)]) == 0
    assert cli_main(["analyze", "--input", str(spec), "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    el = _elapsed_guard(t0, 10, "criterion 10")
    print(f"ACCEPTANCE 10 report-determinism: PASS ({el:.1f}s)")
