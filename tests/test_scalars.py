import ast
import copy
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentkit
from momentkit import curves, envelopes, gaps, hamburger, moments, verdicts
from momentkit.errors import InvalidParameter, ModeMismatch
from momentkit.hamburger import _log2, carleman
from momentkit.moments import GaussianProduct, generate_moments
from momentkit.scalars import (
    MAX_FLOAT_BITS,
    ComplexScalar,
    FloatMode,
    RationalMode,
    complex_scalar,
    default_float_bits,
    exact_fraction,
    fixed_context,
    from_context,
    half_floor,
    integers,
    mode_from_string,
    mode_to_string,
    ratio_to_float,
    to_context,
    work_context,
)
from momentkit.verdicts import Flavor


def test_exact_arithmetic_error_free():
    rng = random.Random(7)
    mode = RationalMode()
    for _ in range(200):
        a = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        b = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
    assert mode.convert("22/7") == F(22, 7)


def test_rational_convert_returns_a_fraction_unchanged():
    mode = RationalMode()
    f = F(-22, 7)
    assert mode.convert(f) is f
    assert type(mode.convert(3)) is F and mode.convert(3) == 3


def test_rational_mode_rejects_floats():
    mode = RationalMode()
    with pytest.raises(ModeMismatch):
        mode.convert(0.5)
    with pytest.raises(ModeMismatch):
        mode.convert(True)


def test_float_round_trip_bit_exact():
    rng = random.Random(11)
    for bits in (53, 128, 517):
        mode = FloatMode(bits)
        for _ in range(50):
            v = mode.convert(F(rng.randint(-10**18, 10**18), rng.randint(1, 10**12)))
            s = mode.to_string(v)
            assert mode.from_string(s) == v
        assert mode.to_string(mode.zero()) == "0x0p+0"
        assert mode.from_string("0x0p+0") == 0


def _half_ulp_miss(v, x: F, bits: int) -> bool:
    """|v - x| > ulp(x) / 2 for x > 0, with ulp(x) = 2**(e - bits + 1) and
    2**e <= x < 2**(e + 1)."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if F(2) ** e > x:
        e -= 1
    return abs(exact_fraction(v) - x) > F(2) ** (e - bits)


@pytest.mark.parametrize("bits", [64, 128])
def test_float_convert_rounds_a_fraction_once(bits):
    """p/q is rounded once, to nearest, even when p or q outgrows the
    mantissa: 1/k! for k = 1..199, through ``convert`` and ``from_string``.
    Dividing two rounded mpf values missed 53 of these at 64 bits and 38 at
    128."""
    mode = FloatMode(bits)
    for k in range(1, 200):
        x = F(1, math.factorial(k))
        v = mode.convert(x)
        assert not _half_ulp_miss(v, x, bits), k
        assert mode.from_string(f"{x.numerator}/{x.denominator}") == v
        assert mode.from_string(f"-{x.numerator}/{x.denominator}") == -v
    # 0.70 ulp away with two roundings
    x = F(1, math.factorial(27))
    assert not _half_ulp_miss(FloatMode(64).convert(x), x, 64)


def test_float_modes_with_different_precision_are_distinct():
    assert FloatMode(128) == FloatMode(128)
    assert FloatMode(128) != FloatMode(256)
    assert RationalMode() == RationalMode()
    assert RationalMode() != FloatMode(64)
    m = FloatMode(64)
    with pytest.raises(ModeMismatch):
        m.convert(FloatMode(128).one())


def test_mode_strings():
    assert mode_to_string(mode_from_string("rational")) == "rational"
    assert mode_to_string(mode_from_string("float:192")) == "float:192"
    with pytest.raises(InvalidParameter):
        mode_from_string("decimal")
    assert default_float_bits(10) == 64 + 400
    # the precision is bounded; the bound itself is parsed, never run
    assert mode_from_string(f"float:{MAX_FLOAT_BITS}").precision_bits == MAX_FLOAT_BITS
    with pytest.raises(InvalidParameter, match=f"'float:{MAX_FLOAT_BITS + 1}': precision above"):
        mode_from_string(f"float:{MAX_FLOAT_BITS + 1}")


def test_mode_strings_past_the_int_digit_limit():
    """A precision of more digits than Python's int<->str limit (4300) is
    out of range, refused as an InvalidParameter naming the mode, never
    read by int(); leading zeros do not count."""
    above = "float:" + "9" * 5000
    with pytest.raises(InvalidParameter, match=f"mode {above!r}: precision above"):
        mode_from_string(above)
    with pytest.raises(InvalidParameter, match="at least 8 bits"):
        mode_from_string("float:-" + "9" * 5000)
    assert mode_from_string("float:" + "0" * 5000 + "64").precision_bits == 64


def test_rational_sqrt():
    mode = RationalMode()
    assert mode.sqrt(F(9, 4)) == F(3, 2)
    assert mode.sqrt(F(0)) == 0
    approx = mode.sqrt(F(2))
    assert abs(approx * approx - 2) < F(1, 2**100)
    with pytest.raises(InvalidParameter):
        mode.sqrt(F(-1))


def test_rational_pi_brackets():
    mode = RationalMode()
    pi = mode.pi()
    assert F(314159, 100000) < pi < F(314160, 100000)


def test_side_channel_precision_and_round_trip():
    rational, flt = RationalMode(), FloatMode(80)
    assert work_context(flt, 4096) is flt.ctx
    ctx = work_context(rational, 128)
    assert ctx.prec == 128 and work_context(rational).prec == 256
    # a Fraction goes in as mpf(p)/mpf(q) and comes back exactly
    third = to_context(ctx, F(1, 3))
    assert third == ctx.mpf(1) / ctx.mpf(3)
    assert from_context(rational, third) == exact_fraction(third)
    assert abs(from_context(rational, third) - F(1, 3)) < F(1, 2**127)
    # float constants are exact in either mode
    assert from_context(rational, to_context(ctx, 0.1)) == F(0.1)
    v = flt.convert(F(5, 7))
    assert from_context(flt, to_context(flt.ctx, v)) is v
    assert rational.pi() == from_context(rational, +work_context(rational, 256).pi)


def test_fixed_context_is_one_shared_context_per_bit_count():
    """Every side computation at one precision shares one context, in
    either mode, and a Carleman sum run in it leaves its precision alone."""
    ctx = fixed_context(256)
    assert fixed_context() is ctx and work_context(RationalMode()) is ctx
    assert fixed_context(128) is work_context(RationalMode(), 128) is not ctx
    for mode in (RationalMode(), FloatMode(64)):
        seq = generate_moments(GaussianProduct((F(1),)), 1, 40, mode)
        carleman(seq, Flavor.HAMBURGER, 20)
        assert fixed_context(256) is ctx and ctx.prec == 256


def test_foreign_context_values_enter_a_float_mode_rounded():
    """A value of another context (a fixed-precision side computation) comes
    back as a value of the mode, rounded to its precision."""
    flt = FloatMode(64)
    wide = fixed_context(256)
    assert wide.prec == 256 and fixed_context().prec == 256
    third = wide.mpf(1) / 3
    back = from_context(flt, third)
    assert flt.is_value(back)
    assert back == flt.one() / 3
    assert flt.to_string(back) == flt.to_string(flt.one() / 3)


def test_only_scalars_imports_mpmath():
    """scalars.py is the one side channel into binary floats."""
    importers = []
    for path in sorted(Path(momentkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["scalars.py"]


def test_exact_fraction_of_mpf():
    mode = FloatMode(80)
    v = mode.convert(F(3, 8))
    assert exact_fraction(v) == F(3, 8)


def test_exact_fraction_rejects_infinities_and_nan():
    ctx = FloatMode(64).ctx
    assert exact_fraction(ctx.mpf(0)) == 0
    for v in (ctx.inf, -ctx.inf, ctx.nan):
        with pytest.raises(InvalidParameter):
            exact_fraction(v)


def test_complex_scalar_field_ops():
    mode = RationalMode()
    z = complex_scalar(mode, F(1, 3), F(1, 2))
    w = complex_scalar(mode, 2, -1)
    assert (z * w) / w == z
    assert (z + w) - w == z
    assert z.abs2() == F(1, 9) + F(1, 4)
    assert z.conj().im == -z.im
    one = (z / z)
    assert one.re == 1 and one.im == 0


def test_complex_scalar_is_a_value_not_a_tuple():
    """A dict key by value (``Recurrence.evals`` is keyed by the point),
    with none of a tuple's operators; copies and pickles are equal."""
    z = ComplexScalar(F(1, 3), F(-1, 2))
    assert {z: "kept"}[complex_scalar(RationalMode(), F(1, 3), F(-1, 2))] == "kept"
    assert copy.copy(z) == z == pickle.loads(pickle.dumps(z))
    assert z != (F(1, 3), F(-1, 2)) and z != ComplexScalar(F(1, 3), F(1, 2))
    for op in (lambda: 2 * z, lambda: len(z), lambda: tuple(z)):
        with pytest.raises(TypeError):
            op()


def test_records_are_frozen():
    """Assigning a field of any of the 29 record types raises
    AttributeError; a record without fields takes no attribute at all."""
    R = RationalMode()
    z = complex_scalar(R, 0, 1)
    E = moments.Exponential1D()
    records = [
        z,
        moments.FullSpace(), moments.NonnegativeOrthant(), moments.ConeSupport(((1,),)),
        moments.CurveSupport("parabola"), moments.MomentSequence(1, 0, R, {(0,): 1}),
        moments.GaussianProduct((1,)), E, moments.LogNormal1D(F(1, 2)),
        moments.QLattice1D(2), moments.Atomic(((0,),), (1,)), moments.Product(((E, 1),)),
        moments.WeightedBy(E, {(1,): 1}),
        hamburger.Recurrence(R, (), (F(1),)), hamburger.OrthoEval(z, (), (), tuple),
        hamburger.WeylDisk(z, 0), hamburger.CarlemanResult(0, False),
        hamburger.ConvergentPair(0, 0, 0),
        gaps.Cosine((1,)), gaps.Fantappie((1,)), gaps.PoissonKernel((0,), 1),
        gaps.Sampled(((0,),), (1,)), gaps.GapEstimate(0, 0, 1, {}),
        envelopes.PolynomialEnvelope((0,), (1,), 1, 1), envelopes.CompletelyMonotonic.geometric(),
        envelopes.CmGapResult((), 0, "indecisive"),
        curves.catalog("parabola"),
        verdicts.Evidence("carleman", 1, 0, verdicts.Sufficiency.HEURISTIC),
        verdicts.Verdict(verdicts.Status.INCONCLUSIVE, verdicts.Flavor.HAMBURGER, ()),
    ]
    assert len({type(r) for r in records}) == 29
    for record in records:
        name = record._fields[0] if record._fields else "kind"
        with pytest.raises(AttributeError):
            setattr(record, name, None)


HELPER_SETTINGS = settings(max_examples=80, deadline=None)


@HELPER_SETTINGS
@given(st.lists(st.one_of(st.integers(-10**30, 10**30),
                          st.fractions(max_denominator=10**12)), max_size=10))
def test_integers_puts_rationals_over_their_lcm(values):
    nums, den = integers(values)
    assert den == math.lcm(*(F(v).denominator for v in values))
    assert all(type(n) is int for n in nums)
    assert [F(n, den) for n in nums] == [F(v) for v in values]


@HELPER_SETTINGS
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
       st.sampled_from([8, 53, 128, 300]))
def test_integers_passes_floats_through_over_one(values, bits):
    mode = FloatMode(bits)
    floats = [mode.convert(v) for v in values]
    nums, den = integers(floats)
    assert den == 1
    assert all(n is v for n, v in zip(nums, floats)) and len(nums) == len(floats)


@HELPER_SETTINGS
@given(st.integers(-2**1000, 2**1000), st.integers(1, 2**1000))
def test_ratio_to_float_rounds_as_fraction(num, den):
    assert ratio_to_float(num, den) == float(F(num, den))
    assert RationalMode().to_float(F(num, den)) == float(F(num, den))


@HELPER_SETTINGS
@given(st.integers(1, 2**80), st.integers(1, 2**80), st.integers(1024, 4000))
def test_ratio_to_float_is_infinite_past_the_float_range(a, den, shift):
    num = (a * den) << shift  # num / den = a * 2**shift >= 2**1024
    assert ratio_to_float(num, den) == math.inf
    assert ratio_to_float(-num, den) == -math.inf
    assert RationalMode().to_float(F(-num, den)) == -math.inf


@HELPER_SETTINGS
@given(st.integers(-2**300, 2**300), st.integers(-400, 400), st.integers(32, 128),
       st.sampled_from([8, 53, 64, 129, 512]))
def test_half_floor_keeps_half_the_working_bits(pm, pe, k, bits):
    mode = FloatMode(bits)
    p = mode.ctx.ldexp(mode.convert(pm), pe)
    # t within a binade of p's floor on either side, where the test flips
    t = mode.ctx.ldexp(abs(p) * mode.convert(F(k, 64)), -(bits // 2))
    exact = exact_fraction(p) <= exact_fraction(t) * 2 ** (bits // 2)
    assert (half_floor(mode, p) <= t) == exact
    assert half_floor(RationalMode(), F(pm, 3)) == 0
    if p > 0:
        # the float recurrence's rule on log2 magnitudes: the same verdict
        # unless p's floor and t are within 2**-30 relative
        in_log2 = _log2(p._mpf_) - bits // 2 <= _log2(t._mpf_)
        gap = abs(exact_fraction(half_floor(mode, p)) - exact_fraction(t))
        assert in_log2 == exact or gap <= exact_fraction(t) / 2 ** 30
