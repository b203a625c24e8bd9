"""Polynomial arithmetic generic over the scalar mode.

Univariate polynomials are coefficient tuples indexed by power, trimmed of
trailing zeros; ``()`` is the zero polynomial.  Multivariate polynomials are
dicts mapping exponent tuples (multi-indices) to coefficients.  Integer
coefficients are allowed everywhere as mode-neutral multipliers; combinatorial
factors (binomials, multinomials) are always computed in exact integers and
then injected into the ambient mode.

Multi-indices are plain tuples of non-negative ints.  The graded
lexicographic order (degree first, then tuple comparison) is the canonical
enumeration used for dense storage and for LP variable layouts.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Sequence

# ---------------------------------------------------------------------------
# multi-indices

MultiIndex = tuple


def grlex_key(alpha: Sequence[int]):
    return (sum(alpha), tuple(alpha))


def multi_indices(dimension: int, max_degree: int) -> Iterator[MultiIndex]:
    """All alpha with |alpha| <= max_degree, in graded lexicographic order."""
    for total in range(max_degree + 1):
        for alpha in compositions(total, dimension):
            yield alpha


def compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All alpha with ``parts`` entries and |alpha| == total, in the order
    ``multi_indices`` lists them."""
    if parts == 1:
        yield (total,)
        return
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        cuts = (0,) + bars + (total,)
        yield tuple(cuts[i + 1] - cuts[i] for i in range(parts))


def multinomial(k: int, alpha: Sequence[int]) -> int:
    """k! / prod(alpha_i!) for |alpha| = k, in exact integers."""
    out = math.factorial(k)
    for a in alpha:
        out //= math.factorial(a)
    return out


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


def monomial(point: Sequence, alpha: Sequence[int]):
    """point**alpha = prod x_i**alpha_i, the one monomial evaluator; plain
    repeated multiplication, so exact in rational mode."""
    out = 1
    for x, e in zip(point, alpha):
        for _ in range(e):
            out = out * x
    return out


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


def poly_neg(p: Sequence) -> tuple:
    return tuple(-c for c in p)


def poly_sub(p: Sequence, q: Sequence) -> tuple:
    return poly_add(p, poly_neg(q))


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


def poly_compose(p: Sequence, inner: Sequence) -> tuple:
    """p(inner(t)) by Horner over polynomial coefficients."""
    out: tuple = ()
    for c in reversed(poly_trim(p)):
        out = poly_add(poly_mul(out, inner), (c,))
    return out


def poly_shift(p: Sequence, a) -> tuple:
    """p(t + a)."""
    return poly_compose(p, (a, 1))


def poly_derivative(p: Sequence) -> tuple:
    return poly_trim(tuple(i * c for i, c in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_gcd(p: Sequence, q: Sequence) -> tuple:
    """Monic gcd over a field (exact mode); Euclid's algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _poly_mod(a: tuple, b: tuple) -> tuple:
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


def mpoly_from_univariate(p: Sequence) -> dict:
    return {(i,): c for i, c in enumerate(poly_trim(p)) if c}


def mpoly_constant(c, dimension: int) -> dict:
    return {(0,) * dimension: c} if c else {}


def mpoly_degree(p: Mapping) -> int:
    return max((sum(a) for a in p), default=-1)


def mpoly_add(p: Mapping, q: Mapping) -> dict:
    out = dict(p)
    for a, c in q.items():
        s = out.get(a, 0) + c
        if s:
            out[a] = s
        else:
            out.pop(a, None)
    return out


def mpoly_mul(p: Mapping, q: Mapping) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def mpoly_pow(p: Mapping, n: int, dimension: int) -> dict:
    out = mpoly_constant(1, dimension)
    base = dict(p)
    while n:
        if n & 1:
            out = mpoly_mul(out, base)
        n >>= 1
        if n:
            base = mpoly_mul(base, base)
    return out


def mpoly_eval(p: Mapping, point: Sequence):
    out = 0
    for alpha, c in p.items():
        out = out + c * monomial(point, alpha)
    return out


def mpoly_compose_univariates(p: Mapping, components: Sequence[Sequence]) -> tuple:
    """Substitute univariate polynomials u_i(t) for the variables of p."""
    out: tuple = ()
    for alpha, c in p.items():
        term: tuple = (c,)
        for u, e in zip(components, alpha):
            if e:
                term = poly_mul(term, poly_pow(u, e))
        out = poly_add(out, term)
    return out


def mpoly_translate(p: Mapping, shift: Sequence, dimension: int) -> dict:
    """p(x - shift), expanded by per-variable binomials."""
    out: dict = {}
    for alpha, c in p.items():
        term = mpoly_constant(c, dimension)
        for axis, e in enumerate(alpha):
            if e == 0:
                continue
            var = {tuple(1 if i == axis else 0 for i in range(dimension)): 1}
            if shift[axis]:
                var[(0,) * dimension] = -shift[axis]
            term = mpoly_mul(term, mpoly_pow(var, e, dimension))
        out = mpoly_add(out, term)
    return out
