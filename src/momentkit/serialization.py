"""Moment-sequence interchange files (JSON).

Schema: ``dimension``, ``max_degree``, ``mode`` ("rational" | "float:<bits>"),
``support_hint``, ``entries`` as a list of {"alpha": [..], "value": "..."},
plus an optional ``meta`` block.  Rational values are exact "p/q" strings;
float values are hex-float strings, which round-trip bit-exactly at the
declared precision (decimal strings are also accepted on input).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InvalidParameter
from .moments import (
    ConeSupport,
    CurveSupport,
    FullSpace,
    MomentSequence,
    NonnegativeOrthant,
    check_moment_count,
)
from .polynomials import multi_indices
from .scalars import FloatMode, Mode, RationalMode, mode_from_string, mode_to_string


_REQUIRED = object()


def json_object(doc, name: str) -> dict:
    """``doc`` when it is a JSON object; InvalidParameter naming it if not."""
    if not isinstance(doc, dict):
        raise InvalidParameter(f"{name} must be a JSON object, not {type(doc).__name__}")
    return doc


def json_list(value) -> list:
    """``value`` when it is a JSON list; TypeError if not."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, not {type(value).__name__}")
    return value


def rationals(value) -> tuple:
    """A JSON list of integers or "p/q" strings as Fractions."""
    return tuple(Fraction(v) for v in json_list(value))


def read_field(doc: dict, name: str, convert=None, default=_REQUIRED):
    """``convert(doc[name])``, with ``default`` standing in for an absent
    field.  A missing field without a default, or a value ``convert``
    rejects (a null, a number where a list belongs, "1/0", an infinite
    number), raises InvalidParameter naming the field.  Converters read the
    document only, so no kernel error is renamed here."""
    if name not in doc and default is _REQUIRED:
        raise InvalidParameter(f"missing field {name!r}")
    value = doc.get(name, default)
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidParameter(f"field {name!r}: {exc}") from exc


def support_to_json(support) -> dict:
    if isinstance(support, FullSpace):
        return {"kind": "full_space"}
    if isinstance(support, NonnegativeOrthant):
        return {"kind": "nonnegative_orthant"}
    if isinstance(support, ConeSupport):
        return {"kind": "cone",
                "generators": [[str(Fraction(c)) for c in g] for g in support.generators]}
    if isinstance(support, CurveSupport):
        return {"kind": "curve", "curve_id": support.curve_id}
    raise InvalidParameter(f"unknown support {support!r}")


def support_from_json(doc: dict, dimension: int):
    """The support hint of a ``dimension``-variate document."""
    kind = read_field(json_object(doc, "support_hint"), "kind", default="full_space")
    if kind == "full_space":
        return FullSpace()
    if kind == "nonnegative_orthant":
        return NonnegativeOrthant()
    if kind == "cone":
        generators = read_field(doc, "generators",
                                lambda gs: tuple(map(rationals, json_list(gs))))
        if any(len(g) != dimension for g in generators):
            raise InvalidParameter(f"field 'generators': a cone generator needs "
                                   f"{dimension} coordinates")
        return ConeSupport(generators)
    if kind == "curve":
        return CurveSupport(read_field(doc, "curve_id"))
    raise InvalidParameter(f"unknown support kind {kind!r}")


def sequence_to_json(seq: MomentSequence) -> str:
    mode = seq.mode
    entries = []
    for alpha in multi_indices(seq.dimension, seq.max_degree):
        entries.append({"alpha": list(alpha),
                        "value": mode.to_string(seq.entries[alpha])})
    doc = {
        "dimension": seq.dimension,
        "max_degree": seq.max_degree,
        "mode": mode_to_string(mode),
        "support_hint": support_to_json(seq.support),
        "entries": entries,
        "meta": {k: v for k, v in seq.meta.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def sequence_from_json(text: str) -> MomentSequence:
    doc = json_object(json.loads(text), "an interchange document")
    mode = mode_from_string(read_field(doc, "mode"))
    dimension = read_field(doc, "dimension", int)
    max_degree = read_field(doc, "max_degree", int)
    check_moment_count(dimension, max_degree)
    entries = {}
    for item in read_field(doc, "entries", json_list):
        item = json_object(item, "an entry")
        alpha = read_field(item, "alpha", lambda a: tuple(int(e) for e in json_list(a)))
        entries[alpha] = read_field(item, "value", lambda v: mode.from_string(_string(v)))
    return MomentSequence(
        dimension=dimension,
        max_degree=max_degree,
        mode=mode,
        entries=entries,
        support=support_from_json(read_field(doc, "support_hint", default={}), dimension),
        meta=json_object(read_field(doc, "meta", default={}), "meta"),
    )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {type(value).__name__}")
    return value


def save_moment_sequence(seq: MomentSequence, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(sequence_to_json(seq))


def load_moment_sequence(path: str) -> MomentSequence:
    with open(path) as fh:
        return sequence_from_json(fh.read())


def format_value(mode: Mode, v: Any) -> dict:
    """Report rendering: exact string plus a readable decimal."""
    if v is None:
        return {"value": None}
    if isinstance(mode, RationalMode) and isinstance(v, (int, Fraction)):
        return {"rational": mode.to_string(v), "decimal": _decimal(mode, v)}
    if isinstance(mode, FloatMode) and mode.is_value(v):
        return {"hex": mode.to_string(v), "decimal": _decimal(mode, v)}
    return {"value": str(v)}


def _decimal(mode: Mode, v) -> str:
    f = mode.to_float(v)
    return repr(f)
