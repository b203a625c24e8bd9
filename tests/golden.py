"""A golden corpus of kernel outputs: one sha256 per (kernel, mode).

Each kernel below runs a fixed list of cases (fixed inputs, seeded atomic
measures, a few that raise) in rational mode, ``float:64`` and
``float:128``.  Every output is serialized canonically: a ``Fraction`` as
``p/q``, an ``int`` as itself, an ``mpf`` as its ``_mpf_`` tuple, a binary64
float by ``float.hex``, a moment sequence as its dimension, degree,
support, certificate and entries in graded order, and an error as (class,
message).  ``golden.json`` keeps, per (kernel, mode), the sha256 of all the
cases and a short digest of each case, so a mismatch names the first case
that moved.

Float inputs are the rational inputs converted into the mode entry by
entry, not generated in float mode, so that a kernel's digest moves only
when that kernel's own arithmetic moves; the generators have kernels of
their own.

A change that moves values on purpose re-records only the digests it names
and says why:

    PYTHONPATH=src python tests/golden.py                    # list what moved
    PYTHONPATH=src python tests/golden.py --record KEY ...   # re-record those
    PYTHONPATH=src python tests/golden.py --record           # re-record all

where a KEY is ``kernel/mode``, e.g. ``generate_atomic/float:64``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from momentkit.gaps import Fantappie, direction_set, grid_gap_lp, orthant_criterion
from momentkit.moments import (Atomic, Exponential1D, GaussianProduct,
                               LogNormal1D, MomentSequence, Product, QLattice1D, WeightedBy,
                               affine_map, convolve, generate_moments, image_moments, marginal,
                               pushforward_direction)
from momentkit.polynomials import multi_indices
from momentkit.scalars import FloatMode, RationalMode

GOLDEN = Path(__file__).with_name("golden.json")
MODES = {"rational": RationalMode(), "float:64": FloatMode(64), "float:128": FloatMode(128)}
#: hex digits kept of each case's digest
CASE_DIGITS = 16


# ---------------------------------------------------------------------------
# canonical form


def canonical(value):
    """A JSON-ready form of a kernel output that tells every value apart."""
    if isinstance(value, BaseException):
        return ["error", type(value).__name__, str(value)]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, F):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return ["float", value.hex()]
    if hasattr(value, "_mpf_"):
        sign, man, exp, bc = value._mpf_
        return ["mpf", sign, int(man), exp, bc]
    if isinstance(value, MomentSequence):
        support = value.support
        return {"dimension": value.dimension, "max_degree": value.max_degree,
                "support": [support.kind, canonical(getattr(support, "generators", None))],
                "certified": value.is_certified_carleman(),
                "entries": [canonical(value.entries[a])
                            for a in multi_indices(value.dimension, value.max_degree)]}
    if isinstance(value, dict):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "sup_side"):  # gaps.GapEstimate
        return {"sup": canonical(value.sup_side), "inf": canonical(value.inf_side),
                "degree": value.degree, "grid": canonical(value.grid)}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def serialize(fn) -> str:
    try:
        out = fn()
    except Exception as exc:  # errors are outputs too
        out = exc
    return json.dumps(canonical(out), separators=(",", ":"))


# ---------------------------------------------------------------------------
# inputs


def seeded_atomic(seed: int, d: int) -> Atomic:
    """1 to 5 atoms in d dimensions with small rational coordinates, some
    zero or negative, and positive rational weights."""
    rng = random.Random(seed)
    atoms = rng.randint(1, 5)
    points = tuple(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(d))
                   for _ in range(atoms))
    weights = tuple(F(rng.randint(1, 30), rng.choice((1, 3, 7))) for _ in range(atoms))
    return Atomic(points, weights)


def orthant_atomic(seed: int, d: int) -> Atomic:
    """Like ``seeded_atomic``, on the nonnegative orthant."""
    atomic = seeded_atomic(seed, d)
    return Atomic(tuple(tuple(abs(c) for c in p) for p in atomic.points), atomic.weights)


GAUSS1 = GaussianProduct((1,))
GAUSS2 = GaussianProduct((1, F(1, 3)))
GAUSS3 = GaussianProduct((1, 2, F(1, 2)))
EXPO2 = Product(((Exponential1D(), 1), (Exponential1D(), 1)))
GAUSS_QLAT = Product(((GaussianProduct((1,)), 1), (QLattice1D(2), 1)))

#: the inputs of every kernel but the generators: (definition, d, N)
DATA = {
    "gauss1": (GAUSS1, 1, 10),
    "expo1": (Exponential1D(), 1, 10),
    "gauss2": (GAUSS2, 2, 8),
    "gauss3": (GAUSS3, 3, 8),
    "expo2": (EXPO2, 2, 6),
    "gauss-qlat": (GAUSS_QLAT, 2, 8),
    "atomic2": (seeded_atomic(21, 2), 2, 8),
    "atomic3": (seeded_atomic(31, 3), 3, 6),
    "orthant2": (orthant_atomic(22, 2), 2, 6),
}


def data(name: str, mode) -> MomentSequence:
    """The rational sequence of DATA[name], its entries converted to mode."""
    defn, d, n = DATA[name]
    seq = generate_moments(defn, d, n, MODES["rational"])
    if isinstance(mode, RationalMode):
        return seq
    return MomentSequence(d, n, mode, seq.entries, seq.support, seq.meta)


# ---------------------------------------------------------------------------
# kernels: each yields (label, zero-argument function) per case


def generate_catalog(mode):
    specs = [
        ("gaussian d=1", GAUSS1, 1, 12),
        ("gaussian d=3", GAUSS3, 3, 8),
        ("exponential", Exponential1D(), 1, 12),
        ("log-normal", LogNormal1D(F(1, 2)), 1, 8),
        ("q-lattice", QLattice1D(2), 1, 10),
        ("q-lattice 3/2", QLattice1D(F(3, 2)), 1, 8),
        ("gaussian x q-lattice", GAUSS_QLAT, 2, 8),
        ("exponential x exponential", EXPO2, 2, 6),
        ("weighted exponential", WeightedBy(Exponential1D(), {(1,): 1, (0,): F(1, 2)}), 1, 8),
        ("weighted gaussian d=2", WeightedBy(GAUSS2, {(2, 0): 1, (0, 0): 1}), 2, 6),
        ("variances per axis", GaussianProduct((1, 2)), 3, 4),
        ("q <= 1", QLattice1D(1), 1, 4),
    ]
    for label, defn, d, n in specs:
        yield label, lambda defn=defn, d=d, n=n: generate_moments(defn, d, n, mode)


def generate_atomic(mode):
    for d, n in ((1, 10), (2, 8), (3, 6)):
        for seed in range(3):
            yield (f"atomic d={d} seed={seed}",
                   lambda d=d, n=n, seed=seed: generate_moments(seeded_atomic(seed, d), d, n,
                                                                mode))
    yield "a negative weight", lambda: generate_moments(Atomic(((1,),), (-1,)), 1, 4, mode)


DIRECTIONS = {
    2: [(1, 0), (0, 1), (F(3, 5), F(4, 5)), (-1, 2), (F(-5, 13), F(12, 13))],
    3: [(1, 0, 0), (1, 1, 0), (F(1, 3), F(-2, 7), 1), (0, -2, F(5, 3))],
}


def pushforward(mode):
    for name in ("gauss2", "gauss3", "gauss-qlat", "atomic2", "atomic3", "orthant2"):
        seq = data(name, mode)
        for xi in DIRECTIONS[seq.dimension]:
            yield f"{name} {xi}", lambda seq=seq, xi=xi: pushforward_direction(seq, xi)
    yield "gauss1 (1,)", lambda: pushforward_direction(data("gauss1", mode), (1,))
    yield "expo1 (-3/2,)", lambda: pushforward_direction(data("expo1", mode), (F(-3, 2),))
    yield "zero direction", lambda: pushforward_direction(data("gauss2", mode), (0, 0))
    yield "short direction", lambda: pushforward_direction(data("gauss3", mode), (1, 1))


def affine(mode):
    maps = [
        ("gauss2", [[1, 1], [1, -1]], [0, F(1, 2)]),
        ("gauss2", [[2, F(-1, 3)]], [1]),
        ("atomic3", [[1, 0, 2]], [-1]),
        ("atomic3", [[1, 2, 3], [0, 1, 0]], [F(1, 3), 0]),
        ("orthant2", [[1, 0], [1, 1]], [0, 2]),
        ("orthant2", [[1, -1]], [0]),
        ("expo1", [[2], [F(1, 2)]], [0, -1]),
        ("gauss-qlat", [[0, 1], [1, 0]], [0, 0]),
        ("gauss2", [[1, 1, 0]], [0]),
    ]
    for name, matrix, offset in maps:
        yield (f"{name} {matrix} {offset}",
               lambda name=name, matrix=matrix, offset=offset:
               affine_map(data(name, mode), matrix, offset))


def marginals(mode):
    for name, axes in (("gauss3", (0,)), ("gauss3", (2, 0)), ("gauss3", (1, 2)),
                       ("gauss-qlat", (1,)), ("atomic3", (2, 1)), ("orthant2", (0,)),
                       ("gauss2", ()), ("gauss2", (0, 0))):
        yield f"{name} {axes}", lambda name=name, axes=axes: marginal(data(name, mode), axes)


def convolutions(mode):
    for a, b in (("gauss1", "expo1"), ("expo1", "expo1"), ("atomic2", "gauss2"),
                 ("orthant2", "expo2"), ("gauss-qlat", "atomic2"), ("gauss1", "gauss2")):
        yield f"{a} * {b}", lambda a=a, b=b: convolve(data(a, mode), data(b, mode))


def images(mode):
    forms = [
        ("atomic2", [{(2, 0): 1, (0, 1): -1}, {(1, 1): 1, (0, 0): F(1, 2)}], 3),
        ("gauss3", [{(1, 0, 0): 1, (0, 2, 0): 1}, {(0, 0, 1): F(-2, 3)}], 4),
        ("gauss-qlat", [{(1, 1): 2, (0, 1): 1}], 4),
        ("expo1", [{(2,): 1, (1,): -3, (0,): 1}], 5),
        ("orthant2", [{(1, 0): 1}, {(0, 1): 1}, {(1, 1): F(1, 7)}], 3),
        ("atomic2", [{(3, 0): 1}], 3),
    ]
    for name, fs, n in forms:
        yield (f"{name} {fs} to {n}",
               lambda name=name, fs=fs, n=n: image_moments(data(name, mode), fs, n))


def orthant(mode):
    corners = [
        ("gauss1", [(0,), (1,), (F(-2, 3),), (5,)]),
        ("expo1", [(0,), (-1,), (F(7, 2),)]),
        ("gauss2", [(0, 0), (1, -1), (-1, 1), (F(1, 2), 3)]),
        ("atomic2", [(0, 0), (F(-1, 3), F(2, 7))]),
        ("gauss3", [(0, 0, 0), (1, -1, -1), (F(1, 2), 0, -2)]),
        ("atomic3", [(0, 0, 0), (-1, 1, -1)]),
        ("gauss2", [(0,)]),
    ]
    for name, cs in corners:
        for c in cs:
            yield f"{name} {c}", lambda name=name, c=c: orthant_criterion(data(name, mode), c)
    seq = generate_moments(GAUSS2, 2, 3, MODES["rational"])
    yield "degree 3 in d=2", lambda: orthant_criterion(seq, (0, 0))


LADDER = [(F(0),)] + [(F(2) ** j,) for j in range(-2, 7)]
GRID_2D = [(F(i), F(j)) for i in range(0, 9, 2) for j in range(0, 9, 2)]
AXIS = (F(0), F(1, 3), F(1, 2), F(1), F(2), F(4), F(8), F(16))
#: a grid with the atoms of "orthant2" among its points
ATOMS_2D = list(DATA["orthant2"][0].points) + [(F(i), F(j)) for i in range(4) for j in range(4)]


def grid_lps(mode):
    lps = [
        ("expo1", (1,), 3, LADDER),
        ("expo1", (F(1, 2),), 2, LADDER),
        ("expo2", (1, 1), 1, GRID_2D),
        ("expo2", (1, 2), 2, [(x, y) for x in AXIS for y in AXIS]),
        ("orthant2", (1, 2), 2, ATOMS_2D),
        ("expo1", (1,), 4, LADDER[:3]),
        ("expo1", (1,), 3, [(F(1),), (F(2), F(3))]),
    ]
    for name, a, degree, grid in lps:
        yield (f"{name} {a} degree {degree} on {len(grid)} points",
               lambda name=name, a=a, degree=degree, grid=grid:
               grid_gap_lp(data(name, mode), Fantappie(a), degree, grid))


def directions(mode):
    for d, count in ((1, 2), (2, 1), (2, 5), (2, 8), (3, 7), (4, 5), (2, 0)):
        yield f"d={d} count={count}", lambda d=d, count=count: direction_set(d, count, mode)


KERNELS = {
    "generate_catalog": generate_catalog,
    "generate_atomic": generate_atomic,
    "pushforward_direction": pushforward,
    "affine_map": affine,
    "marginal": marginals,
    "convolve": convolutions,
    "image_moments": images,
    "orthant_criterion": orthant,
    "grid_gap_lp": grid_lps,
    "direction_set": directions,
}

# ---------------------------------------------------------------------------
# digests


def run(kernel: str, mode_name: str) -> list:
    """(label, canonical output) of every case of one kernel in one mode."""
    mode = MODES[mode_name]
    return [(label, serialize(fn)) for label, fn in KERNELS[kernel](mode)]


def digests(cases: list) -> dict:
    full = hashlib.sha256("\n".join(out for _, out in cases).encode()).hexdigest()
    each = [hashlib.sha256(out.encode()).hexdigest()[:CASE_DIGITS] for _, out in cases]
    return {"sha256": full, "cases": each}


def keys() -> list:
    return [f"{kernel}/{mode}" for kernel in KERNELS for mode in MODES]


def compute(key: str) -> tuple:
    """(cases, digests) of one ``kernel/mode`` key."""
    kernel, mode_name = key.split("/")
    cases = run(kernel, mode_name)
    return cases, digests(cases)


def recorded() -> dict:
    return json.loads(GOLDEN.read_text())


def first_difference(cases: list, got: dict, want: dict) -> str:
    """The first case whose digest moved, with its output, or the count."""
    for (label, out), g, w in zip(cases, got["cases"], want["cases"]):
        if g != w:
            return f"first moved case: {label!r} -> {out[:400]}"
    return f"{len(got['cases'])} cases now, {len(want['cases'])} recorded"


def main(argv: list) -> int:
    record = argv[:1] == ["--record"]
    chosen = argv[1:] if record and argv[1:] else keys()
    table = recorded() if GOLDEN.exists() else {}
    moved = 0
    for key in chosen:
        cases, got = compute(key)
        if table.get(key, {}).get("sha256") != got["sha256"]:
            moved += 1
            print(f"{key}: moved; " + (first_difference(cases, got, table[key])
                                       if key in table else "not recorded"))
            if record:
                table[key] = got
    if record:
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"re-recorded {moved} of {len(chosen)} digests in {GOLDEN.name}")
        return 0
    print(f"{moved} of {len(chosen)} digests moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
