"""Polynomial arithmetic generic over the scalar mode.

Univariate polynomials are coefficient tuples indexed by power, trimmed of
trailing zeros; ``()`` is the zero polynomial.  Multivariate polynomials are
dicts mapping exponent tuples (multi-indices) to coefficients.  Integer
coefficients are allowed everywhere as mode-neutral multipliers.

Multi-indices are plain tuples of non-negative ints.  The graded
lexicographic order (degree first, then tuple comparison) is the canonical
enumeration used for dense storage and for LP variable layouts.  Each slice
|alpha| == total is enumerated once: ``compositions`` keeps one tuple per
(total, parts), and ``lowerings`` each slice's links to the slice below,
for the 256 most recently used pairs each, so a long-lived process holds
at most 256 of either.  Every graded power x**alpha (atomic moments, grid
columns, push-forward powers, image products) is built along those links,
by ``power_slices`` or by the same links on polynomials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, mul
from typing import Iterator, Mapping, Sequence

# ---------------------------------------------------------------------------
# multi-indices

MultiIndex = tuple


def multi_indices(dimension: int, max_degree: int) -> Iterator[MultiIndex]:
    """All alpha with |alpha| <= max_degree, in graded lexicographic order."""
    for total in range(max_degree + 1):
        yield from compositions(total, dimension)


@lru_cache(maxsize=256)
def compositions(total: int, parts: int) -> tuple:
    """All alpha with ``parts`` entries and |alpha| == total, in the order
    ``multi_indices`` lists them; one shared tuple per (total, parts)."""
    out = []
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        cuts = (0,) + bars + (total,)
        out.append(tuple(cuts[i + 1] - cuts[i] for i in range(parts)))
    return tuple(out)


@lru_cache(maxsize=256)
def lowerings(total: int, parts: int) -> tuple:
    """(positions, axes) for the slice ``compositions(total, parts)``, total
    >= 1: alpha's link alpha - e_i, with i = ``axes[j]`` the first axis
    with alpha_i > 0, sits at ``positions[j]`` in the slice below."""
    below = {alpha: j for j, alpha in enumerate(compositions(total - 1, parts))}
    links = []
    for alpha in compositions(total, parts):
        i = alpha.index(next(filter(None, alpha)))
        links.append((below[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]], i))
    return tuple(zip(*links))


def power_slices(point: Sequence, max_degree: int) -> list:
    """The one monomial evaluator: ``slices[n][j]`` is point**alpha for the
    j-th alpha of ``compositions(n, len(point))``, n <= max_degree, each
    entry one product x**(alpha - e_i) * x_i on the slice below (see
    ``lowerings``), so exact in rational mode.  Chained, the slices list
    the monomials in ``multi_indices`` order."""
    slices = [[1]]
    for n in range(1, max_degree + 1):
        positions, axes = lowerings(n, len(point))
        slices.append(list(map(mul, map(slices[-1].__getitem__, positions),
                               map(point.__getitem__, axes))))
    return slices


# ---------------------------------------------------------------------------
# univariate polynomials: tuples of coefficients, poly[i] multiplies t**i


def poly_trim(p: Sequence) -> tuple:
    p = tuple(p)
    n = len(p)
    while n > 0 and not p[n - 1]:
        n -= 1
    return p[:n]


def poly_degree(p: Sequence) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(poly_trim(p)) - 1


def poly_add(p: Sequence, q: Sequence) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_mul(p: Sequence, q: Sequence) -> tuple:
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_pow(p: Sequence, n: int) -> tuple:
    out: tuple = (1,)
    base = poly_trim(p)
    while n:
        if n & 1:
            out = poly_mul(out, base)
        base_sq = poly_mul(base, base)
        n >>= 1
        if n:
            base = base_sq
    return out


def poly_eval(p: Sequence, x):
    out = 0
    for c in reversed(poly_trim(p)):
        out = out * x + c
    return out


def poly_derivative(p: Sequence) -> tuple:
    return poly_trim(tuple(i * c for i, c in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_gcd(p: Sequence, q: Sequence) -> tuple:
    """Monic gcd over a field (exact mode); Euclid's algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def poly_mod(a: tuple, b: tuple) -> tuple:
    """The remainder of a divided by a non-zero b, over a field (exact mode)."""
    r = poly_trim(a)
    db, lead = len(b) - 1, b[-1]
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        c = r[-1] / lead
        rl = list(r)
        for i, bc in enumerate(b):
            rl[shift + i] = rl[shift + i] - c * bc
        r = poly_trim(rl)
    return r


def poly_is_squarefree(p: Sequence) -> bool:
    g = poly_gcd(p, poly_derivative(p))
    return len(g) <= 1


# ---------------------------------------------------------------------------
# multivariate polynomials: {alpha: coefficient}, zero coefficients omitted


def mpoly_degree(p: Mapping) -> int:
    return max((sum(a) for a in p), default=-1)


def mpoly_mul(p: Mapping, q: Mapping) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(map(add, a, b))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def mpoly_compose_univariates(p: Mapping, components: Sequence[Sequence]) -> tuple:
    """Substitute univariate polynomials u_i(t) for the variables of p.
    The powers of each u_i are built once, one product per degree as the
    terms first ask for them, and shared by every term."""
    powers = [[(1,)] for _ in components]
    out: tuple = ()
    for alpha, c in p.items():
        term: tuple = (c,)
        for u, row, e in zip(components, powers, alpha):
            if e:
                while len(row) <= e:
                    row.append(poly_mul(row[-1], u))
                term = poly_mul(term, row[e])
        out = poly_add(out, term)
    return out
