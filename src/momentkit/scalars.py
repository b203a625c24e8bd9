"""Dual-mode scalar arithmetic.

Every numeric kernel in the toolkit is generic over an arithmetic *mode*:

* :class:`RationalMode` -- exact ``fractions.Fraction`` arithmetic.  Needed
  because Hankel and recurrence computations on moment scales like ``2**(k*k)``
  are hopelessly ill-conditioned in any fixed precision.
* :class:`FloatMode` -- binary floats at a configurable precision, backed by
  the one shared ``mpmath`` context of that precision (``fixed_context``), so
  two float modes with different precisions are distinct modes and two with
  the same precision share their values.

A "scalar" is a plain ``Fraction`` or an ``mpf`` of the mode's own context;
the mode object is the factory, validator and serializer for its values.
Modes are never mixed implicitly: sequence-level operations compare modes and
raise :class:`~momentkit.errors.ModeMismatch`, and ``RationalMode.convert``
rejects binary floats outright rather than guessing an intended rational.

Rational mode admits two controlled approximations, both opt-in and
documented at the call sites: ``sqrt`` (exact when the radicand is a perfect
square, otherwise correct to ``RATIONAL_APPROX_BITS``) and ``pi`` (to the
same bits).  They never contaminate exact results: quantities that are
exactly zero stay exactly zero.

Every other irrational value (Carleman roots, transcendental kernels on
grids) goes through one side channel: ``work_context(mode, bits)`` is the
float mode's own context, or a shared ``bits``-bit one in rational mode, and
``fixed_context(bits)`` is that shared one in either mode (Carleman terms take
256 bits whatever the working precision); ``to_context`` moves a scalar in
and ``from_context`` brings the result back, exactly (``exact_fraction``) in
rational mode and rounded to the mode's precision in float mode.  This
module is the only one that imports ``mpmath``.

Three rules the kernels share are defined here once: ``integers`` puts
rationals over one denominator for the integer kernels (the recurrence,
the forward pass, the image-moment table, and the grid LP, which hands it
the exact values of float data too) and hands float values back as they
are; ``half_floor`` is the float noise floor that keeps half the working
bits; ``ratio_to_float`` converts an integer ratio, saturating to +-inf.

The float recurrence runs its values on raw ``(sign, man, exp, bc)``
tuples rather than ``mpf`` objects, which saves mpmath's object layer on
every operation.  This module hands out the tuple arithmetic it needs:
``raw_mul``, ``raw_add`` and ``raw_sub`` take two finite raw tuples (zeros
included) and a precision ``prec > 0``, and round the exact result to
nearest, ties to even, on the integer mantissas, in one call each.  They
return what mpmath's ``mpf_mul``, ``mpf_add`` and ``mpf_sub`` return at
``(prec, round_nearest)``, bit for bit, and so what the ``mpf`` operators
of a ``prec``-bit context return: a carry that rounds up to a power of two
leaves mantissa 1 (``bc = 1``), and where the exponents differ by more
than 100 and the smaller operand lies wholly more than ``prec + 4`` bits
below the larger one's leading bit, a sum is the larger one nudged by a
unit ``prec + 4`` bits down, as mpmath's is.  ``RAW_ZERO`` is 0; a
float scalar's tuple is ``v._mpf_`` and ``mode.ctx.make_mpf`` wraps one
back.  Its noise floors are not values: they are binary64 ``log2``
magnitudes, and ``half_floor``'s rule reads ``log2 x - prec // 2 <= log2
t`` there.

A float precision for degree-N data is the caller's choice; the CLI runs a
measure spec with no mode in rational mode when its moments are rational,
and otherwise starts at ``64 + 2N`` bits, doubles on ``PrecisionExhausted``
and stops at ``default_float_bits(N)``.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Any, Union

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, fzero, round_nearest

from .errors import InvalidParameter, ModeMismatch

#: bits used for the controlled approximations available in rational mode
RATIONAL_APPROX_BITS = 256

#: the most mantissa bits a float mode may have: with mpmath's pure-Python
#: integers one division takes seconds at 2**20 bits and minutes at 2**22,
#: and a precision near 2**63 overflows mpmath's shifts ("too many digits
#: in integer"); the CLI's own cap, default_float_bits(N), stays below it
#: up to N = 2047
MAX_FLOAT_BITS = 2 ** 24

#: the raw tuple of 0 (see the module docstring)
RAW_ZERO = fzero

#: the most shared contexts ``fixed_context`` keeps, one per precision, at
#: about 40 KiB each; a precision used again after its context was dropped
#: gets a new one, and modes holding the old one refuse the new one's values
#: as values of another mode, as two private contexts would
MAX_SHARED_CONTEXTS = 64

_INTEGER = re.compile(r"[+-]?\d+")


class RationalMode:
    """Exact rational arithmetic; all instances are interchangeable."""

    kind = "rational"

    def __repr__(self) -> str:
        return "RationalMode()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMode)

    def __hash__(self) -> int:
        return hash("rational")

    def is_value(self, v: Any) -> bool:
        return isinstance(v, (int, Fraction)) and not isinstance(v, bool)

    def convert(self, v: Any) -> Fraction:
        if isinstance(v, bool):
            raise ModeMismatch("bool is not a scalar")
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return self.from_string(v)
        raise ModeMismatch(
            f"rational mode does not accept {type(v).__name__}; "
            "floats are rejected, not coerced"
        )

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def sqrt(self, v: Fraction) -> Fraction:
        """sqrt(v), exact for perfect squares, else within
        2**-RATIONAL_APPROX_BITS."""
        x = Fraction(v)
        if x < 0:
            raise InvalidParameter("square root of a negative value")
        if x == 0:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        rp, rq = math.isqrt(p), math.isqrt(q)
        if rp * rp == p and rq * rq == q:
            return Fraction(rp, rq)
        # scale so the integer square root carries enough fractional bits
        shift = 2 * RATIONAL_APPROX_BITS + max(0, -(p.bit_length() - q.bit_length()))
        scaled = (p << shift) // q
        return Fraction(math.isqrt(scaled), 1 << (shift // 2))

    def pi(self) -> Fraction:
        """pi to RATIONAL_APPROX_BITS bits."""
        return from_context(self, +work_context(self).pi)

    def to_float(self, v: Fraction) -> float:
        return ratio_to_float(v.numerator, v.denominator)

    def to_string(self, v: Fraction) -> str:
        """``p/q`` (or ``p``); the digits go through ``Decimal``, which has no
        int<->str digit limit, so rationals of any size render."""
        v = Fraction(v)
        num = str(Decimal(v.numerator))
        return num if v.denominator == 1 else f"{num}/{Decimal(v.denominator)}"

    def from_string(self, s: str) -> Fraction:
        """Inverse of ``to_string`` for any size; decimal literals such as
        ``1.5e-3`` are accepted too (within Python's digit limit)."""
        num, slash, den = s.strip().partition("/")
        if _INTEGER.fullmatch(num) and (not slash or _INTEGER.fullmatch(den)):
            return Fraction(int(Decimal(num)), int(Decimal(den)) if slash else 1)
        return Fraction(s)


class FloatMode:
    """Binary floats at ``precision_bits`` of mantissa, in the shared
    context of that precision (``fixed_context``)."""

    kind = "float"

    def __init__(self, precision_bits: int):
        if precision_bits < 8:
            raise InvalidParameter("float precision must be at least 8 bits")
        self.precision_bits = int(precision_bits)
        self.ctx = fixed_context(self.precision_bits)

    def __repr__(self) -> str:
        return f"FloatMode({self.precision_bits})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatMode) and other.precision_bits == self.precision_bits

    def __hash__(self) -> int:
        return hash(("float", self.precision_bits))

    def is_value(self, v: Any) -> bool:
        return isinstance(v, self.ctx.mpf)

    def convert(self, v: Any):
        if isinstance(v, bool):
            raise ModeMismatch("bool is not a scalar")
        if isinstance(v, self.ctx.mpf):
            return v
        if isinstance(v, (int, float)):
            return self.ctx.mpf(v)
        if isinstance(v, Fraction):
            return self._ratio(v.numerator, v.denominator)
        if isinstance(v, str):
            return self.from_string(v)
        raise ModeMismatch(
            f"float:{self.precision_bits} mode does not accept {type(v).__name__} "
            "(values from a different precision context are a different mode)"
        )

    def _ratio(self, p: int, q: int):
        """p/q rounded once, to nearest at the context precision (dividing
        two mpf values would round p and q first once they outgrow it)."""
        return self.ctx.make_mpf(from_rational(p, q, self.ctx.prec, round_nearest))

    def zero(self):
        return self.ctx.mpf(0)

    def one(self):
        return self.ctx.mpf(1)

    def sqrt(self, v):
        return self.ctx.sqrt(self.convert(v))

    def pi(self):
        return +self.ctx.pi

    def to_float(self, v) -> float:
        return float(v)

    def to_string(self, v) -> str:
        """Hex mantissa/exponent form; round-trips bit-exactly at this precision."""
        sign, man, exp, _bc = self.convert(v)._mpf_
        if man == 0:
            return "0x0p+0"
        return f"{'-' if sign else ''}0x{int(man):x}p{exp:+d}"

    def from_string(self, s: str):
        s = s.strip()
        neg = s.startswith("-")
        body = s[1:] if neg else s
        if body.lower().startswith("0x"):
            man_s, exp_s = body[2:].split("p")
            v = self.ctx.ldexp(self.ctx.mpf(int(man_s, 16)), int(exp_s))
        elif "/" in body:
            p, q = body.split("/")
            v = self._ratio(int(p), int(q))
        else:
            v = self.ctx.mpf(body)
        return -v if neg else v


Mode = Union[RationalMode, FloatMode]


def default_float_bits(max_degree: int) -> int:
    """The most bits the CLI spends on degree-N data, 64 + 4*N**2: ample
    for the Hankel conditioning of every built-in measure (the oracle
    agreement tests validate this empirically).  It caps the doubling loop
    that starts at 64 + 2N; it is not the starting precision."""
    return 64 + 4 * max_degree * max_degree


def mode_from_string(s: str) -> Mode:
    if s == "rational":
        return RationalMode()
    if isinstance(s, str) and s.startswith("float:") and _INTEGER.fullmatch(s[6:]):
        text = s[6:]
        # more significant digits than the bound has are out of range either
        # way and are not read; the rest go through Decimal, as int(text)
        # would refuse leading zeros past its digit limit with a ValueError
        if len(text.lstrip("+-").lstrip("0")) > len(str(MAX_FLOAT_BITS)):
            bits = -math.inf if text.startswith("-") else math.inf
        else:
            bits = int(Decimal(text))
        if bits > MAX_FLOAT_BITS:
            raise InvalidParameter(f"mode {s!r}: precision above {MAX_FLOAT_BITS} bits")
        return FloatMode(bits)
    raise InvalidParameter(f"unknown mode {s!r}; expected 'rational' or 'float:<bits>'")


def mode_to_string(mode: Mode) -> str:
    return "rational" if isinstance(mode, RationalMode) else f"float:{mode.precision_bits}"


def integers(values) -> tuple:
    """Rationals as integers over the lcm of their denominators: (the
    numerators, the lcm).  Binary floats come back unchanged, over 1."""
    values = list(values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return values, 1
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def ratio_to_float(num, den) -> float:
    """num / den (den > 0) as a float: correctly rounded for integers, as
    ``float(Fraction(num, den))``; +-inf beyond the float range."""
    try:
        return float(num / den)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def half_floor(mode: Mode, scale):
    """The noise floor of a float quantity of size ``scale`` that keeps half
    the working bits: ``scale * 2**-(prec // 2)``, exact (a power-of-two
    shift), so ``half_floor(mode, x) <= t`` iff ``x <= t * 2**(prec // 2)``.
    0 in rational mode, which has no noise."""
    if isinstance(mode, RationalMode):
        return 0
    return mode.ctx.ldexp(scale, -(mode.precision_bits // 2))


def raw_mul(s: tuple, t: tuple, prec: int) -> tuple:
    """s * t for finite raw tuples s and t, rounded to nearest at ``prec``
    bits: ``mpf_mul(s, t, prec, round_nearest)`` bit for bit."""
    man = s[1] * t[1]
    if not man:
        return RAW_ZERO
    exp = s[2] + t[2]
    # a product of odd mantissas is odd: only a rounded one has zeros to strip
    n = man.bit_length() - prec
    if n > 0:
        half = man >> (n - 1)
        exp += n
        if half & 1 and (half & 2 or man & ((1 << (n - 1)) - 1)):
            man = (half >> 1) + 1
        else:
            man = half >> 1
        if not man & 1:
            zeros = (man & -man).bit_length() - 1
            man >>= zeros
            exp += zeros
    return s[0] ^ t[0], man, exp, man.bit_length()


def raw_add(s: tuple, t: tuple, prec: int) -> tuple:
    """s + t for finite raw tuples s and t, rounded to nearest at ``prec``
    bits: ``mpf_add(s, t, prec, round_nearest)`` bit for bit."""
    return _add(s, t[0], t, prec)


def raw_sub(s: tuple, t: tuple, prec: int) -> tuple:
    """s - t for finite raw tuples s and t, rounded to nearest at ``prec``
    bits: ``mpf_sub(s, t, prec, round_nearest)`` bit for bit."""
    return _add(s, t[0] ^ 1, t, prec)


def _add(s: tuple, tsign: int, t: tuple, prec: int) -> tuple:
    """s + t with t's sign bit read as ``tsign``, as ``mpf_add``: a zero
    operand leaves the other rounded, and an exact sum is rounded once.
    Where the exponents differ by more than 100 and the smaller operand
    lies wholly more than ``prec + 4`` bits below the larger one's leading
    bit, the larger one's mantissa takes ``prec + 4`` zero bits and a unit
    added or taken off by the smaller one's sign: that rounds as the exact
    sum does, without a shift by the whole gap."""
    ssign, sman, sexp, sbc = s
    _, tman, texp, tbc = t
    if not tman:
        if not sman:
            return RAW_ZERO
        man, exp = sman, sexp
    elif not sman:
        ssign, man, exp = tsign, tman, texp
    else:
        if sexp < texp:
            ssign, sman, sexp, sbc, tsign, tman, texp, tbc = (
                tsign, tman, texp, tbc, ssign, sman, sexp, sbc)
        offset = sexp - texp
        if offset > 100 and sbc + offset - tbc > prec + 4:
            man = (sman << (prec + 4)) + (1 if ssign == tsign else -1)
            exp = sexp - prec - 4
        else:
            man = (sman << offset) + tman if ssign == tsign else (sman << offset) - tman
            exp = texp
            if man <= 0:
                if not man:
                    return RAW_ZERO
                ssign, man = ssign ^ 1, -man
    # to nearest, ties to even, then strip the trailing zeros; a carry to
    # 2**prec leaves mantissa 1.  raw_mul writes this out too: a shared
    # helper's call costs about a tenth of an operation's time
    n = man.bit_length() - prec
    if n > 0:
        half = man >> (n - 1)
        exp += n
        if half & 1 and (half & 2 or man & ((1 << (n - 1)) - 1)):
            man = (half >> 1) + 1
        else:
            man = half >> 1
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return ssign, man, exp, man.bit_length()


def exact_fraction(v) -> Fraction:
    """Exact Fraction equal to an mpf value (mpf -> rational is always
    exact).  Raises InvalidParameter on +-inf and NaN, which have none."""
    sign, man, exp, bc = v._mpf_
    if man == 0:
        if bc:  # mpmath's inf, -inf and nan: no mantissa, a nonzero bc
            raise InvalidParameter(f"{v} has no exact rational value")
        return Fraction(0)
    f = Fraction(int(man)) * (Fraction(2) ** exp)
    return -f if sign else f


def fixed_context(bits: int = RATIONAL_APPROX_BITS) -> MPContext:
    """The binary-float context at ``bits`` of precision, in any mode and
    for every ``FloatMode(bits)``: one shared object per ``bits`` (among
    the ``MAX_SHARED_CONTEXTS`` last used), since building one costs about
    half a millisecond.  Callers never change its precision."""
    return _shared_context(bits)


@functools.lru_cache(maxsize=MAX_SHARED_CONTEXTS)
def _shared_context(bits: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = bits
    return ctx


def work_context(mode: Mode, bits: int = RATIONAL_APPROX_BITS) -> MPContext:
    """Binary-float context for an irrational value: the float mode's own,
    or the shared one at ``bits`` of precision in rational mode."""
    if isinstance(mode, FloatMode):
        return mode.ctx
    return fixed_context(bits)


def to_context(ctx: MPContext, v):
    """A scalar (or a float constant) as an mpf of ``ctx``, rounded to its
    precision.  A Fraction p/q becomes mpf(p)/mpf(q); rational-mode outputs
    depend on this rounding."""
    if isinstance(v, Fraction):
        return ctx.mpf(v.numerator) / ctx.mpf(v.denominator)
    if isinstance(v, ctx.mpf):
        return v
    return +ctx.convert(v)


def from_context(mode: Mode, v):
    """An mpf of any context back in the mode: rounded to the mode's
    precision in float mode, its exact Fraction in rational mode."""
    if isinstance(mode, FloatMode):
        return to_context(mode.ctx, v)
    return exact_fraction(v)


class Record:
    """Base of the records a tuple cannot model: records that validate or
    cache, records without fields (as empty tuples they would all be equal)
    and ``ComplexScalar`` (a tuple adds ``+``, ``*``, ``len`` and
    unpacking).  ``__init__`` sets each field once, bypassing
    ``__setattr__``, which raises AttributeError.  Equality, the hash and
    the repr read the ``_fields`` in order; records of different classes
    are never equal."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ComplexScalar(Record):
    """Complex number with mode-scalar real and imaginary parts.

    One representation serves both modes; ``fractions.Fraction`` has no
    complex counterpart and keeping mpf pairs here avoids a second code path.
    """

    __slots__ = _fields = ("re", "im")

    def __init__(self, re, im):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __reduce__(self):
        # copy and pickle would set the slots through __setattr__
        return ComplexScalar, (self.re, self.im)

    def __add__(self, other: "ComplexScalar") -> "ComplexScalar":
        return ComplexScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexScalar") -> "ComplexScalar":
        return ComplexScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexScalar":
        return ComplexScalar(-self.re, -self.im)

    def __mul__(self, other: "ComplexScalar") -> "ComplexScalar":
        return ComplexScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ComplexScalar") -> "ComplexScalar":
        d = other.re * other.re + other.im * other.im
        return ComplexScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def scale(self, c) -> "ComplexScalar":
        return ComplexScalar(self.re * c, self.im * c)

    def conj(self) -> "ComplexScalar":
        return ComplexScalar(self.re, -self.im)

    def abs2(self):
        """|z|^2, staying inside the mode (no square roots)."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def complex_scalar(mode: Mode, re, im=0) -> ComplexScalar:
    return ComplexScalar(mode.convert(re), mode.convert(im))
