"""Variational gap machinery: grid LP estimators and criterion drivers.

The exact two-sided quantity behind every criterion here is

    sup { L(p) : p <= phi pointwise }   vs   inf { L(q) : q >= phi },

whose positivity for a suitable phi detects that the functional has room for
more than one representing measure.  Finite computation relaxes this twice:
polynomial degrees are truncated, and the pointwise constraints are imposed
on a finite grid only.  Degree truncation moves the two values toward each
other's rigorous side; grid relaxation moves them apart again, so neither
side of a grid estimate is a certified bound, and the grid itself travels
inside the result for reproducibility.  Verdict synthesis may only cite
certified quantities as rigorous evidence; the globally valid envelope
brackets of ``envelopes`` are certified, a grid estimate never is.

One-dimensional Poisson gaps are exact (they are Weyl-disk diameters); the
multivariate kappa values are grid LP estimates and say so.

A grid LP is assembled in integers.  Its column at a grid point g holds
g^alpha for each monomial alpha (``polynomials.power_slices``).  Each grid
axis goes over the lcm of its coordinates' denominators, so every entry is
an integer monomial of an integer point over its row's denominator; the LP
takes the integers, each moment times its row's denominator, and builds no
Fraction per entry.  Float scalars enter at their exact binary values, the
row denominators are powers of two, and each integer entry is rounded into
the mode once, which rounds g^alpha itself; ``simplex.measure_bounds``
solves the exact LP of these data in rational mode, and each bound is
rounded into the mode once.  The separating function is made
once per grid into a closure over its prepared constants (``_target``),
which ``evaluate_separating`` calls at each point.  Multivariate default
grids and the sphere-average nodes are ``itertools.product``s of one axis
or of per-axis (angle, weight) pairs.  A grid point, a direction, a corner
or a spec's vector whose length is not the sequence's dimension raises
DimensionMismatch naming both, before any LP runs.

A grid LP is solved over the orbits of its symmetries (Gatermann and
Parrilo, *J. Pure Appl. Algebra* 192, 2004; Bodi, Herr and Joswig, *Math.
Program.* 137, 2013).  A signed coordinate permutation sigma: x_j -> s_j
x_{pi(j)} is a symmetry when it passes three exact tests: it fixes the
moments through the LP degree, it maps the grid onto itself as an index
permutation (a repeated point to copies of its image), and it keeps phi's
value at every grid point.  Then sigma maps each grid measure with the
moments to another with the same objective, and averaging a measure over
the symmetry group keeps both, so the LP has the same feasibility and the
same optima over the measures constant on orbits: one column per orbit,
the sum of its points' columns, and one row per orbit of monomials.  The
reported grid, and the grid an LpUnbounded names, stay the full grid.
Symmetric data, such as the centred Gaussian at x0 = 0 or a product of
equal marginals on x <-> y, so solve smaller LPs with the same bounds.

The hyperplane gaps on a cone are the Fantappie grid LP of the weighted
functional nu = (a.x + 1) L at one degree lower: a grid measure y with
sum_g y_g (a.g + 1) g^alpha = nu(x^alpha) is, through y'_g = (a.g + 1) y_g,
a grid measure with the moments of nu, and its mass sum_g y_g is sum_g y'_g
/ (a.g + 1).

The translated-orthant bracket at a corner a is one polynomial in x,
prod_j 2((x_j - a_j)^2 + 1), so the criterion applies L once, to the
sequence itself, and builds no translated sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product
from typing import Any, Mapping, NamedTuple, Sequence

from . import simplex
from .errors import (
    DegreeInsufficient,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    LpUnbounded,
    NotInteriorDirection,
    WrongSupport,
)
from .hamburger import recurrence_from_moments, verdict_1d, weyl_radius_sq
from .moments import (
    ConeSupport,
    MomentSequence,
    NonnegativeOrthant,
    apply_linear_functional,
    apply_polynomial_weight,
    dual_contains,
    dual_interior_contains,
    pushforward_direction,
    support_is_cone,
)
from .polynomials import mpoly_mul, multi_indices, power_slices
from .scalars import (ComplexScalar, Mode, RationalMode, exact_fraction, from_context,
                      half_floor, integers, to_context, work_context)
from .verdicts import Flavor, Status, Verdict

RATIONAL_PHI_BITS = 128


# ---------------------------------------------------------------------------
# separating-function specifications


class Cosine(NamedTuple):
    """cos(x . xi)."""

    xi: tuple


class Fantappie(NamedTuple):
    """1/(a . x + 1) on a cone with a strictly interior to the dual cone."""

    a: tuple


class PoissonKernel(NamedTuple):
    """Unit-mass Poisson kernel translate at (x0, t0), t0 > 0."""

    x0: tuple
    t0: Any


class Sampled(NamedTuple):
    """Explicit values on explicit points (the fully general escape hatch)."""

    points: tuple
    values: tuple


def poisson_constant_float(d: int) -> float:
    """c_d = Gamma((d+1)/2) / pi^((d+1)/2), the unit-mass normalization.

    The scale does not affect gap-zero-vs-positive conclusions; it is pinned
    for reproducibility.
    """
    return math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)


def evaluate_separating(spec, point: Sequence, mode: Mode):
    """phi(point) in the sequence's mode.

    Rational mode evaluates transcendental targets (cosine, Poisson with
    even d) through 128-bit floats (``scalars.work_context`` at
    ``RATIONAL_PHI_BITS``) and converts exactly; the resulting
    rational is an approximation of phi, which is acceptable because grid
    estimates are heuristic by construction.  Rational targets (Fantappie,
    odd-d Poisson) stay exact.  ``spec`` may also be the point function
    ``_target`` made of a spec for ``mode`` once per grid.
    """
    phi = spec if callable(spec) else _target(spec, mode, len(point))
    return phi(point)


def _check_dimension(name: str, vector: Sequence, dimension: int) -> None:
    if len(vector) != dimension:
        raise DimensionMismatch(f"{name} of dimension {len(vector)} for a "
                                f"{dimension}-dimensional sequence")


def _target(spec, mode: Mode, dimension: int):
    """phi as a function of the point, for one mode and dimension.  What does
    not depend on the point (the converted parameters, the work context,
    ``c_d``, the sampled values keyed by point) is computed once, and the
    function closes over it.  Sampled values are keyed by the point
    converted to the mode, the way ``grid_gap_lp`` converts its grid, and
    looked up the same way; of points that convert to the same key (a
    repeated point, or in float mode two rationals that round to one float)
    the first value is kept.  A sampled spec needs one value per point, a
    kernel's vector the given dimension, and a Poisson kernel t0 > 0 (at t0
    = 0 its denominator vanishes at x0)."""
    convert = mode.convert
    if isinstance(spec, Sampled):
        if len(spec.points) != len(spec.values):
            raise InvalidParameter(f"sampled spec has {len(spec.points)} points "
                                   f"and {len(spec.values)} values")
        values: dict = {}
        for p, v in zip(spec.points, spec.values):
            values.setdefault(tuple(map(convert, p)), v)

        def sampled(point):
            key = tuple(map(convert, point))
            if key not in values:
                raise InvalidParameter(f"sampled spec has no value at {point}")
            return convert(values[key])
        return sampled
    if isinstance(spec, Fantappie):
        _check_dimension("Fantappie a", spec.a, dimension)
        one, a = convert(1), [convert(c) for c in spec.a]

        def fantappie(point):
            den = one
            for c, x in zip(a, point):
                den = den + c * convert(x)
            if not den > 0:
                raise InvalidParameter("1 + a.x must stay positive on the grid")
            return 1 / den
        return fantappie
    if isinstance(spec, PoissonKernel):
        _check_dimension("Poisson x0", spec.x0, dimension)
        t0 = convert(spec.t0)
        if not t0 > 0:
            raise InvalidParameter("t0 must be positive")
        t0_sq, x0 = t0 * t0, [convert(c) for c in spec.x0]
        ctx = work_context(mode, RATIONAL_PHI_BITS)
        cd = to_context(ctx, poisson_constant_float(dimension))

        def distance_sq(point):
            r2 = t0_sq
            for c, x in zip(x0, point):
                diff = c - convert(x)
                r2 = r2 + diff * diff
            return r2
        if dimension % 2 == 1:
            # (d+1)/2 integral: the kernel is rational except for c_d
            scale, power = from_context(mode, cd) * t0, (dimension + 1) // 2
            return lambda point: scale / distance_sq(point) ** power
        scale, power = cd * to_context(ctx, t0), ctx.mpf(dimension + 1) / 2
        return lambda point: from_context(
            mode, scale / to_context(ctx, distance_sq(point)) ** power)
    if isinstance(spec, Cosine):
        _check_dimension("cosine xi", spec.xi, dimension)
        ctx = work_context(mode, RATIONAL_PHI_BITS)
        xi = [to_context(ctx, convert(c)) for c in spec.xi]

        def cosine(point):
            t = ctx.mpf(0)
            for c, x in zip(xi, point):
                t += c * to_context(ctx, convert(x))
            return from_context(mode, ctx.cos(t))
        return cosine
    raise InvalidParameter(f"unknown separating spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# grids


#: default grid shape: the half-line ladder 2**j runs over
#: j = -HALF_POINTS/2 .. HALF_POINTS, the full-line grid has UNIFORM_STEPS
#: uniform points on each side of 0 out to UNIFORM_SPAN
HALF_POINTS = 16
UNIFORM_SPAN = 8
UNIFORM_STEPS = 16


def default_grid(support, dimension: int, mode: Mode,
                 points_per_axis: int | None = None) -> tuple:
    """Per-support default grid.

    Half line: the geometric ladder 2**j plus 0 (the heavy tail is what
    drives moment growth).  Full line: a symmetric uniform grid on
    [-UNIFORM_SPAN, UNIFORM_SPAN] plus geometric tail points on both sides.
    Multivariate grids are the tensor product of a thinned 1D grid, capped
    to keep LP sizes at desk scale.  A ``ConeSupport`` gets the orthant grid
    of its generator weights, each weight vector sent through the
    generators.
    """
    if isinstance(support, ConeSupport):
        gens = [[mode.convert(c) for c in g] for g in support.generators]
        weights = default_grid(NonnegativeOrthant(), len(gens), mode, points_per_axis)
        return tuple(tuple(sum((x * g[i] for x, g in zip(w, gens)), mode.zero())
                           for i in range(dimension)) for w in weights)
    if dimension == 1:
        return tuple((x,) for x in _grid_1d(support, mode))
    # multivariate: tensor product of a uniform axis grid; the per-axis count
    # must outrun the LP degree or the polynomials dip between grid points
    # and the LP goes unbounded (callers then refine)
    per_axis = points_per_axis or max(3, int(round(50 ** (1.0 / dimension))))
    if isinstance(support, NonnegativeOrthant):
        lo, hi = Fraction(0), Fraction(UNIFORM_SPAN)
    else:
        lo, hi = Fraction(-UNIFORM_SPAN), Fraction(UNIFORM_SPAN)
    axis = [mode.convert(lo + Fraction((hi - lo) * k, per_axis - 1))
            for k in range(per_axis)]
    return tuple(product(axis, repeat=dimension))


def _grid_1d(support, mode: Mode):
    two = mode.convert(2)
    if isinstance(support, NonnegativeOrthant):
        pts = [mode.zero()]
        for j in range(-(HALF_POINTS // 2), HALF_POINTS + 1):
            pts.append(two ** j)
        return sorted(set(pts))
    pts = {mode.zero()}
    for k in range(1, UNIFORM_STEPS + 1):
        step = mode.convert(Fraction(UNIFORM_SPAN * k, UNIFORM_STEPS))
        pts.add(step)
        pts.add(-step)
    for j in range(4, HALF_POINTS + 1):
        pts.add(two ** j)
        pts.add(-(two ** j))
    return sorted(pts)


# ---------------------------------------------------------------------------
# the two-sided grid LP


class GapEstimate(NamedTuple):
    """Two-sided estimate of the separating gap of phi at a fixed degree.

    ``sup_side`` is the best L(p) over grid-feasible p <= phi, ``inf_side``
    the best L(q) over grid-feasible q >= phi.  With only grid constraints
    the sup side can overshoot the true supremum and the inf side undershoot
    the true infimum, so neither side is certified.  ``gap`` <= 0 is
    evidence in the determinate direction; a positive gap is never by
    itself a certificate of indeterminateness.  ``grid`` holds the grid's
    ``size`` and its ``points`` as floats.
    """

    sup_side: Any
    inf_side: Any
    degree: int
    grid: Mapping[str, Any]

    @property
    def gap(self):
        return self.inf_side - self.sup_side


def grid_gap_lp(seq: MomentSequence, phi, degree: int,
                grid: Sequence | None = None) -> GapEstimate:
    """Solve both grid LPs over coefficient vectors of degree <= degree.

    Each side is solved through its moment-space dual: the nonnegative grid
    measures y with the moments of seq up to ``degree``.  The sup side is
    the least and the inf side the greatest sum_g y_g phi(g) over them (see
    ``simplex.measure_bounds``).  Raises LpUnbounded when no such measure
    exists, i.e. the grid is too sparse to pin the polynomials down (the
    caller should refine the grid); LpInfeasible never for consistent inputs;
    InvalidParameter for a negative degree or an empty grid; DimensionMismatch
    for a grid point whose length is not the sequence's dimension.

    The LP is solved over the orbits of the signed coordinate permutations
    that fix the moments through ``degree``, map the grid onto itself and
    keep phi's grid values (``_symmetries``, ``_orbit_lp``): a grid measure
    averaged over that group keeps its moments and its objective, so the
    orbit LP has the same feasibility and the same optima.  Rational
    bounds are ``==`` to the full grid's; float bounds are the same exact
    optimum of the float data, rounded once.  The result's ``grid`` and the
    LpUnbounded message keep the full grid.
    """
    if degree < 0:
        raise InvalidParameter(f"LP degree {degree} is negative")
    if degree > seq.max_degree:
        raise DegreeInsufficient("LP degree exceeds the truncation")
    mode = seq.mode
    if grid is None:
        grid = default_grid(seq.support, seq.dimension, mode,
                            points_per_axis=(2 * degree + 3
                                             if seq.dimension > 1 else None))
    grid = [tuple(mode.convert(c) for c in g) for g in grid]
    for g in grid:
        _check_dimension("grid point", g, seq.dimension)
    if not grid:
        raise InvalidParameter("grid must be non-empty")
    monomials = list(multi_indices(seq.dimension, degree))
    target = _target(phi, mode, seq.dimension)
    phi_vals = [evaluate_separating(target, g, mode) for g in grid]
    generators = _symmetries(seq, monomials, grid, phi_vals)
    # the integer columns and each moment times its row's denominator: the
    # same constraints, each row scaled by a positive integer.  Float data
    # enter at their exact binary values, each entry g^alpha rounded into
    # the mode once, so the exact LP below is the float LP's own
    columns, dens = _grid_columns(mode, grid, degree)
    rational = isinstance(mode, RationalMode)
    exact = (lambda v: v) if rational else exact_fraction
    if not rational:
        columns = [[exact(mode.convert(v)) for v in col] for col in columns]
    moments = [exact(seq.entries[alpha]) * den for alpha, den in zip(monomials, dens)]
    columns, moments, objective = _orbit_lp(generators, monomials, columns, moments,
                                            list(map(exact, phi_vals)))
    try:
        bounds = simplex.measure_bounds(RationalMode(), columns, moments, objective)
    except LpUnbounded:
        raise LpUnbounded(f"no nonnegative measure on the {len(grid)}-point grid "
                          f"reproduces the moments up to degree {degree}; "
                          "refine the grid") from None
    sup_side, inf_side = (mode.convert(b) for b in bounds)
    points = [[mode.to_float(c) for c in p] for p in grid]
    return GapEstimate(sup_side, inf_side, degree, {"size": len(grid), "points": points})


def _symmetries(seq: MomentSequence, monomials: list, grid: list, phi_vals: list) -> list:
    """Generators of the group of signed coordinate permutations sigma: x_j
    -> s_j x_{pi(j)} that fix the grid LP, each as (pi, its grid index
    permutation); none when only the identity does.

    sigma fixes the LP when it passes three exact tests, in this order: it
    fixes every moment through the LP degree, s^alpha m_{pi.alpha} =
    m_alpha, where (pi.alpha)_{pi(j)} = alpha_j; it maps the grid onto
    itself, the k-th copy of a point to the k-th copy of its image; and it
    keeps phi's value at every grid point.  The 2^d d! candidates are built
    one coordinate at a time, and a partial sigma is dropped at the first
    moment it moves: a monomial is tested once sigma is fixed on the last
    coordinate it uses.  The sigmas that pass all three tests form a group
    G, so only a candidate outside the group H generated so far is mapped
    over the grid, point by point up to the first miss: when it passes it
    joins the generators, and when it fails so does every sigma h, h in H.
    The grid is mapped at most once per generator and per failed coset,
    not once per element of G."""
    d, entries = seq.dimension, seq.entries
    tested: list = [[] for _ in range(d)]
    for alpha in monomials:
        used = [j for j, a in enumerate(alpha) if a]
        if used:
            tested[used[-1]].append(alpha)
    candidates: list = [((), ())]
    for j in range(d):
        candidates = [
            (perm + (k,), signs + (s,))
            for perm, signs in candidates for k in range(d) if k not in perm
            for s in (1, -1)
            if all(_signed_moment(entries, alpha, perm + (k,), signs + (s,)) == entries[alpha]
                   for alpha in tested[j])]
    if len(candidates) == 1:  # the identity
        return []
    # the grid with each coordinate value as an int id, cheaper to hash
    values = {c for g in grid for c in g}
    ids = {c: n for n, c in enumerate(values | {-c for c in values})}
    negated = [0] * len(ids)
    for c, n in ids.items():
        negated[n] = ids[-c]
    points = [tuple(ids[c] for c in g) for g in grid]
    index: dict = {}  # a point -> the indices of its copies
    for i, g in enumerate(points):
        index.setdefault(g, []).append(i)
    # sigma as the tuple of s_j (pi(j) + 1), which _compose multiplies
    group, failed, generators, signed = {tuple(range(1, d + 1))}, set(), [], []
    for perm, signs in candidates:
        sigma = tuple(s * (k + 1) for k, s in zip(perm, signs))
        if sigma in group or sigma in failed:
            continue
        images = _grid_permutation(points, index, negated, perm, signs, phi_vals)
        if images is None:
            failed.update(_compose(sigma, h) for h in group)
            continue
        generators.append((perm, images))
        signed.append(sigma)
        # close the group under the generators, the new one first
        queue = [_compose(h, sigma) for h in group]
        for h in queue:
            if h not in group:
                group.add(h)
                queue.extend(_compose(h, g) for g in signed)
    return generators


def _compose(sigma: tuple, tau: tuple) -> tuple:
    """sigma after tau, both as tuples of s_j (pi(j) + 1): (sigma tau x)_j =
    s_j (tau x)_{pi(j)}."""
    return tuple(tau[k - 1] if k > 0 else -tau[-k - 1] for k in sigma)


def _signed_moment(entries: Mapping, alpha: tuple, perm: tuple, signs: tuple):
    """s^alpha m_{pi.alpha} for a sigma fixed on the first len(perm)
    coordinates, which are all that alpha uses."""
    beta = [0] * len(alpha)
    negate = False
    for a, k, s in zip(alpha, perm, signs):
        beta[k] = a
        if s < 0 and a % 2:
            negate = not negate
    value = entries[tuple(beta)]
    return -value if negate else value


def _grid_permutation(points: list, index: dict, negated: list, perm: tuple,
                      signs: tuple, phi_vals: list):
    """The grid index permutation of sigma, on the grid's coordinate ids
    (``negated`` maps the id of c to the id of -c): the k-th copy of each
    point goes to the k-th copy of its image; None at the first point whose
    image is not on the grid as often as the point, or has another value
    of phi."""
    taken: dict = {}
    images = []
    for g, value in zip(points, phi_vals):
        image = tuple(negated[g[k]] if s < 0 else g[k] for k, s in zip(perm, signs))
        copies = index.get(image, ())
        if len(copies) != len(index[g]):
            return None
        n = taken.get(image, 0)
        if phi_vals[copies[n]] != value:
            return None
        taken[image] = n + 1
        images.append(copies[n])
    return images


def _orbits(size: int, maps: list) -> list:
    """The orbits of 0..size-1 under the group the index maps generate,
    each sorted, in the order of their least elements."""
    orbit_of: list = [None] * size
    orbits = []
    for i in range(size):
        if orbit_of[i] is None:
            orbit = [i]
            orbit_of[i] = orbit
            for p in orbit:
                for images in maps:
                    q = images[p]
                    if orbit_of[q] is None:
                        orbit_of[q] = orbit
                        orbit.append(q)
            orbit.sort()
            orbits.append(orbit)
    return orbits


def _orbit_lp(generators: list, monomials: list, columns: list, moments: list,
              objective: list) -> tuple:
    """The exact grid LP over the grid measures that the symmetry group
    fixes: (columns, moments, objective) for ``measure_bounds``.  Averaging
    a grid measure over the group keeps its moments and its objective, so
    this LP has the same feasibility and optima.

    One column per orbit O of grid points, the sum of its points' columns,
    with objective |O| phi(O's first point); one row per orbit of
    monomials, its first monomial's, since the rows of one orbit agree on
    these columns up to the sign s^alpha, as their moments do; a row is
    dropped when it vanishes on every column and its moment is 0.  With no
    generators every orbit is one point or one monomial."""
    orbits = _orbits(len(columns), [images for _, images in generators])
    position = {alpha: k for k, alpha in enumerate(monomials)}
    monomial_maps = []
    for perm, _ in generators:
        images = []
        for alpha in monomials:
            beta = [0] * len(alpha)
            for a, j in zip(alpha, perm):
                beta[j] = a
            images.append(position[tuple(beta)])
        monomial_maps.append(images)
    rows = [orbit[0] for orbit in _orbits(len(monomials), monomial_maps)]
    cols = [[sum(columns[i][k] for i in orbit) for k in rows] for orbit in orbits]
    rhs = [moments[k] for k in rows]
    keep = [r for r, m in enumerate(rhs) if m or any(col[r] for col in cols)]
    return ([[col[r] for r in keep] for col in cols], [rhs[r] for r in keep],
            [len(orbit) * objective[orbit[0]] for orbit in orbits])


def _grid_columns(mode: Mode, grid: Sequence, degree: int) -> tuple:
    """The LP columns of the grid in integers: (the column of each grid
    point g, the denominator of each monomial's row), over the monomials
    |alpha| <= degree in ``multi_indices`` order, so that the alpha entry
    of g's column over the alpha denominator is g^alpha, float scalars at
    their exact binary values.

    Axis i goes over the lcm ``Q_i`` of its coordinates' denominators,
    which makes each point an integer point ``P_g``.  Then the alpha entry
    is the integer ``P_g^alpha`` and its row's denominator ``Q^alpha``, both
    from ``power_slices`` on integers; in float mode ``Q^alpha`` is a power
    of two.  No entry becomes a Fraction; in float mode ``grid_gap_lp``
    rounds each integer entry into the mode once, which rounds g^alpha
    itself."""
    exact = (lambda v: v) if isinstance(mode, RationalMode) else exact_fraction
    axes = [integers(exact(c) for c in axis) for axis in zip(*grid)]

    def monomials(point):
        return list(chain.from_iterable(power_slices(point, degree)))
    return ([monomials(p) for p in zip(*(nums for nums, _ in axes))],
            monomials([den for _, den in axes]))


# ---------------------------------------------------------------------------
# Poisson gaps


def poisson_kappa_1d(seq_1d: MomentSequence, x0, t0, n: int):
    """Exact 1D Poisson gap at truncation n.

    The Poisson values of measures matching the truncated moments fill an
    interval of length (1/pi) * (vertical extent of the Weyl disk at
    z = x0 + i t0) = (2/pi) * radius.  An exactly degenerate disk gives an
    exact 0, as finitely atomic data of rank r give for every n >= r (their
    disk at r - 1 is a point); otherwise rational mode returns a 256-bit
    approximation (the value is an irrational multiple of 1/pi).
    """
    mode = seq_1d.mode
    t0v = mode.convert(t0)
    if not t0v > 0:
        raise InvalidParameter("t0 must be positive")
    if n < 0:
        raise InvalidParameter(f"truncation {n} is negative")
    rec = recurrence_from_moments(seq_1d, seq_1d.max_degree // 2)
    if rec.rank <= min(n, rec.order):
        n = rec.rank - 1
    z = ComplexScalar(mode.convert(x0), t0v)
    radius_sq = weyl_radius_sq(rec, z, n)
    if radius_sq == 0:
        return mode.zero()
    return 2 * mode.sqrt(radius_sq) / mode.pi()


def poisson_kappa_estimate(seq: MomentSequence, x0: Sequence, t0, degree: int,
                           grid: Sequence | None = None) -> GapEstimate:
    """Grid LP estimate of the Poisson gap in d >= 2 (heuristic)."""
    if seq.dimension < 2:
        raise InvalidParameter("use poisson_kappa_1d in one dimension")
    spec = PoissonKernel(tuple(x0), t0)
    return grid_gap_lp(seq, spec, degree, grid)


def sphere_average_kappa(seq: MomentSequence, x0: Sequence, t0, radius,
                         node_count: int, degree: int,
                         grid: Sequence | None = None):
    """Average of kappa over a sphere around (x0, t0) in upper half space.

    Node layouts (documented, deterministic): dimension 1 uses equally
    weighted uniform angles on the circle; dimension d >= 2 uses a midpoint
    product rule in spherical angles with the sin-power area weights.
    Positivity of the average is the everywhere-criterion; values inherit
    the per-node sufficiency (exact in 1D, heuristic LP estimates beyond).
    """
    mode = seq.mode
    t0v, rv = mode.convert(t0), mode.convert(radius)
    if not (t0v > 0 and rv > 0 and rv < t0v):
        raise InvalidParameter("need 0 < radius < t0 so the sphere stays in t > 0")
    _check_dimension("x0", x0, seq.dimension)
    nodes, weights = _sphere_nodes(seq.dimension, node_count)
    total, wsum = 0.0, 0.0
    x0v = [mode.to_float(mode.convert(c)) for c in x0]
    t0f, rf = mode.to_float(t0v), mode.to_float(rv)
    for node, w in zip(nodes, weights):
        x = [x0v[i] + rf * node[i] for i in range(seq.dimension)]
        t = t0f + rf * node[-1]
        if seq.dimension == 1:
            k = mode.to_float(poisson_kappa_1d(seq, _approx_in_mode(mode, x[0]),
                                               _approx_in_mode(mode, t), degree))
        else:
            est = poisson_kappa_estimate(seq, [_approx_in_mode(mode, c) for c in x],
                                         _approx_in_mode(mode, t), degree, grid)
            k = max(mode.to_float(est.gap), 0.0)
        total += w * k
        wsum += w
    return total / wsum


def _approx_in_mode(mode: Mode, x: float):
    if isinstance(mode, RationalMode):
        return Fraction(x).limit_denominator(10 ** 12)
    return mode.convert(x)


def _sphere_nodes(d: int, count: int):
    """Nodes on the unit sphere of R^(d+1) with quadrature weights."""
    if count < 2:
        raise InvalidParameter("need at least 2 nodes")
    if d == 1:
        nodes = []
        for j in range(count):
            th = 2 * math.pi * j / count
            nodes.append((math.cos(th), math.sin(th)))
        return nodes, [1.0] * count
    # midpoint product rule over spherical angles of S^d: (angle, weight)
    # pairs per axis, polar axes weighted by sin^(d-1-axis)
    n_polar = max(2, int(round(count ** (1 / d))))
    axes = [[(t, math.sin(t) ** (d - 1 - axis))
             for t in ((j + 0.5) * math.pi / n_polar for j in range(n_polar))]
            for axis in range(d - 1)]
    axes.append([((j + 0.5) * 2 * math.pi / n_polar, 1.0) for j in range(n_polar)])
    nodes, weights = [], []
    for pairs in product(*axes):
        point, s, w = [], 1.0, 1.0
        for th, wa in pairs:
            w *= wa
            point.append(s * math.cos(th))
            s *= math.sin(th)
        nodes.append(tuple(point) + (s,))
        weights.append(w)
    return nodes, weights


# ---------------------------------------------------------------------------
# orthant criterion


def orthant_criterion(seq: MomentSequence, a: Sequence) -> dict:
    """Slack of the translated-orthant step-function bracket at corner a:

        slack = sum over all sign-flip patterns I of L(H_I(x - a)) - m_0,

    where H(x) = prod h(x_j) with h(t) = t^2 + t + 1 and H_I flips the signs
    of the coordinates in I.  An indeterminate functional must show slack > 0
    at some corner, so persistent slack <= 0 over a corner scan is
    determinate-side evidence (necessary-condition probe only).  The bracket
    needs h >= 1 on [0, inf) and h >= 0 on R, which this h meets by calculus
    (its minimum on the half line is h(0) = 1, its discriminant -3 < 0).
    The 2^d patterns sum to one product, prod_j (h(t) + h(-t)) = prod_j 2 (t^2
    + 1) at t = x_j - a_j; it is expanded in x, each factor 2 x_j^2 - 4 a_j
    x_j + 2 (a_j^2 + 1), so L is applied once, to the sequence itself.
    """
    mode = seq.mode
    d = seq.dimension
    if 2 * d > seq.max_degree:
        raise DegreeInsufficient(f"needs degree {2 * d}, truncation is {seq.max_degree}")
    av = [mode.convert(c) for c in a]
    _check_dimension("corner", av, d)
    poly = {(0,) * d: mode.one()}
    for j, c in enumerate(av):
        # a zero coefficient (c = 0) adds no term: mpoly_mul drops zero sums
        poly = mpoly_mul(poly, {tuple(k if i == j else 0 for i in range(d)): v
                                for k, v in enumerate((2 * (c * c + 1), -4 * c, 2 * mode.one()))})
    total = apply_linear_functional(seq, poly)
    m0 = seq.entries[(0,) * d]
    return {"slack": total - m0, "corner": tuple(av)}


# ---------------------------------------------------------------------------
# hyperplane evaluation gaps on cones


def hyperplane_gap(seq: MomentSequence, a: Sequence, degree: int,
                   grid: Sequence | None = None) -> dict:
    """Grid LPs for the two normalized-on-a-hyperplane minimization problems:

        minimize L(r) over r = +-(1 - (a.x + 1) p(x)),  r >= 0 on the grid.

    Positive values at some interior direction a are the necessary condition
    for cone-indeterminateness.  Grid relaxation lowers each value below the
    same-degree exact-constraint minimum, while the degree cap raises it
    above the unrestricted infimum, so the numbers are heuristic probes,
    never certified bounds.

    The values are m_0 minus the sup side and the inf side minus m_0 of the
    Fantappie grid LP of nu = (a.x + 1) L at degree D - 1 (see the module
    docstring); nu is weighted only up to that degree, which the LP reads.
    The default grid is ``default_grid`` without a per-axis count (7
    points per axis in d = 2), not the degree-sized one of
    ``grid_gap_lp``.
    """
    mode = seq.mode
    if not support_is_cone(seq.support):
        raise WrongSupport("hyperplane gaps need cone-supported sequences")
    av = tuple(mode.convert(c) for c in a)
    _check_dimension("direction", av, seq.dimension)
    if not dual_interior_contains(seq.support, av):
        raise NotInteriorDirection("a must be strictly interior to the dual cone")
    if degree < 0:
        raise InvalidParameter(f"degree {degree} is negative")
    if degree > seq.max_degree:
        raise DegreeInsufficient("degree exceeds the truncation")
    d = seq.dimension
    form = {tuple(int(i == j) for i in range(d)): c for j, c in enumerate(av)}
    form[(0,) * d] = mode.one()
    if grid is None:
        grid = default_grid(seq.support, d, mode)
    lp_degree = max(degree - 1, 0)
    est = grid_gap_lp(apply_polynomial_weight(seq, form, lp_degree), Fantappie(av),
                      lp_degree, grid)
    m0 = seq.entries[(0,) * d]
    return {
        "value_plus": m0 - est.sup_side,
        "value_minus": est.inf_side - m0,
        "degree": degree,
        "grid": est.grid,
    }


# ---------------------------------------------------------------------------
# direction scans


def direction_set(dimension: int, count: int, mode: Mode) -> list:
    """Deterministic unit directions.

    Rational mode uses tan-half-angle rational circle points (exactly unit
    length) at tau_j = (2j + 1 - count) / (count + 1): the first count // 2
    lie in the open fourth quadrant, and the rest are their negations in
    reverse order, led by (-1, 0) for an odd count.  So every line has
    slope <= 0, and an even count gives count / 2 lines, each in both
    directions.  Float mode uses the uniform angles j pi / count, count
    distinct lines, their cosines and sines taken at the mode's precision
    (``cospi``/``sinpi``, so the angle pi/2 gives exactly (0, 1)).
    Dimensions above 2 lift rational points of the (d-1)-cube through the
    inverse stereographic map: round ``b`` visits seven points of the grid
    ``c / (4 + b)``, ``|c| <= 3``, and the lift is injective, so there are
    as many distinct directions as asked for (a prime ``4 + b`` gives seven
    new ones); each is kept once, by hashing.
    """
    if count < 1:
        raise InvalidParameter("need at least one direction")
    if dimension == 1:
        return [(mode.one(),)]
    if dimension == 2:
        out = []
        if isinstance(mode, RationalMode):
            for j in range(count):
                tau = Fraction(2 * j + 1 - count, count + 1)
                den = 1 + tau * tau
                x, y = (1 - tau * tau) / den, 2 * tau / den
                out.append((Fraction(x), Fraction(y)))
                # cover the left half circle by alternating sign flips
            out = out[: count // 2] + [(-x, y) for (x, y) in out[count // 2:]]
        else:
            ctx = mode.ctx
            for j in range(count):
                turn = ctx.mpf(j) / count
                out.append((ctx.cospi(turn), ctx.sinpi(turn)))
        return out
    # d >= 3: the inverse stereographic map lands on the unit sphere with
    # rational coords
    found: dict = {}  # the directions in order of first appearance, as keys
    k = 0
    while len(found) < count:
        u = [Fraction((k * (i + 3) + 2 * i + 1) % 7 - 3, 4 + k // 7)
             for i in range(dimension - 1)]
        s = sum(c * c for c in u)
        den = s + 1
        point = tuple(2 * c / den for c in u) + ((s - 1) / den,)
        found.setdefault(tuple(mode.convert(c) for c in point))
        k += 1
    return list(found)


def direction_scan(seq: MomentSequence, directions: Sequence) -> dict:
    """verdict_1d on every push-forward, plus the aggregation rule:

    * a full basis of DETERMINATE directions makes the aggregate DETERMINATE
      (marginal determinacy along a basis is sufficient), at the weakest
      sufficiency class among the basis directions;
    * any INDETERMINATE direction contributes indeterminate evidence to the
      aggregate (numeric-flagged);
    * anything else is INCONCLUSIVE.

    Each push-forward gets its own flavor (Stieltjes for directions in the
    closed dual cone of a cone support, boundary directions such as the
    axes of the orthant included); the aggregate is a Hamburger verdict.

    One verdict per line: a direction equal to one already scanned takes
    its verdict, and so does the negation of one already scanned when
    neither lies in the closed dual cone, so that both images carry the
    full-space hint and both verdicts are Hamburger verdicts; a Stieltjes
    verdict is never shared with a Hamburger one.  The image along -xi is
    the reflection x -> -x of the image along xi, s_n -> (-1)**n s_n,
    which sends alpha_k to -alpha_k and keeps beta_k, every m_{2k}, the
    rank and |pi_k(i)|; so every evidence value is the same, ``==`` in
    rational mode, and float rounding is symmetric under sign, so each
    float operation on the reflected data rounds to the negation of the
    same operation or to the same value, and the float verdicts are ``==``
    as well.  Each requested direction keeps its own row.
    """
    if not directions:
        raise InvalidDirection("no directions supplied")
    mode = seq.mode
    rows = []
    verdicts: dict = {}  # direction -> its verdict, for the directions scanned
    for xi in directions:
        direction = tuple(mode.convert(c) for c in xi)
        v = verdicts.get(direction)
        if v is None:
            negation = tuple(-c for c in direction)
            if negation in verdicts and not (dual_contains(seq.support, direction)
                                             or dual_contains(seq.support, negation)):
                v = verdicts[negation]
            else:
                v = verdicts[direction] = verdict_1d(pushforward_direction(seq, xi))
        rows.append({"direction": direction, "verdict": v})
    det_dirs = [r["direction"] for r in rows if r["verdict"].status is Status.DETERMINATE]
    has_basis = _contains_basis(mode, det_dirs, seq.dimension)
    any_indet = any(r["verdict"].status is Status.INDETERMINATE for r in rows)
    evidence = tuple(
        e._replace(criterion=f"direction{tuple(mode.to_float(c) for c in r['direction'])}"
                             f":{e.criterion}")
        for r in rows for e in r["verdict"].evidence)
    status = (Status.INDETERMINATE if any_indet
              else Status.DETERMINATE if has_basis else Status.INCONCLUSIVE)
    return {"rows": rows, "aggregate": Verdict(status, Flavor.HAMBURGER, evidence),
            "basis_covered": has_basis}


def _contains_basis(mode: Mode, vectors: list, dimension: int) -> bool:
    """Whether the vectors span the space: each is reduced against the rows
    kept so far and kept when an entry clears ``half_floor(mode, 1)``."""
    tol = half_floor(mode, mode.one())
    kept: list = []  # (pivot column, reduced row)
    for row in vectors:
        for col, pivot_row in kept:
            f = row[col] / pivot_row[col]
            row = [x - f * y for x, y in zip(row, pivot_row)]
        col = next((j for j, x in enumerate(row) if abs(x) > tol), None)
        if col is not None:
            kept.append((col, row))
    return len(kept) >= dimension
