import json
from fractions import Fraction as F

import pytest

from momentkit.errors import InvalidParameter
from momentkit.moments import (
    Atomic,
    ConeSupport,
    CurveSupport,
    FullSpace,
    GaussianProduct,
    NonnegativeOrthant,
    QLattice1D,
    generate_moments,
    sequence_from_1d,
)
from momentkit.scalars import FloatMode, RationalMode
from momentkit.serialization import (
    format_value,
    load_moment_sequence,
    save_moment_sequence,
    sequence_from_json,
    sequence_to_json,
    support_from_json,
    support_to_json,
)

R = RationalMode()


def test_rational_round_trip(tmp_path):
    seq = generate_moments(QLattice1D(2), 1, 6, R)
    path = tmp_path / "q.json"
    save_moment_sequence(seq, str(path))
    back = load_moment_sequence(str(path))
    assert back.entries == seq.entries
    assert back.mode == seq.mode
    assert isinstance(back.support, NonnegativeOrthant)
    doc = json.loads(path.read_text())
    assert doc["entries"][3]["value"] == "512"  # exact p/q strings


def test_float_round_trip_bit_exact(tmp_path):
    fm = FloatMode(96)
    seq = generate_moments(GaussianProduct((F(1, 3),)), 1, 8, fm)
    path = tmp_path / "g.json"
    save_moment_sequence(seq, str(path))
    back = load_moment_sequence(str(path))
    assert back.mode == fm
    assert all(back.entries[a] == seq.entries[a] for a in seq.entries)
    doc = json.loads(path.read_text())
    assert all(e["value"].lstrip("-").startswith("0x") for e in doc["entries"])


def test_decimal_strings_accepted_on_input():
    doc = {
        "dimension": 1, "max_degree": 2, "mode": "float:64",
        "support_hint": {"kind": "full_space"},
        "entries": [{"alpha": [0], "value": "1.0"},
                    {"alpha": [1], "value": "0.5"},
                    {"alpha": [2], "value": "2.25"}],
    }
    seq = sequence_from_json(json.dumps(doc))
    assert float(seq.moment((1,))) == 0.5


def test_multivariate_round_trip():
    seq = generate_moments(Atomic(((1, 2), (0, 1)), (F(1, 3), F(2, 3))), 2, 4, R)
    back = sequence_from_json(sequence_to_json(seq))
    assert back.entries == seq.entries
    assert back.dimension == 2


def test_support_kinds():
    for s in (FullSpace(), NonnegativeOrthant(),
              ConeSupport(((F(1), F(1)), (F(1), F(-1)))), CurveSupport("parabola")):
        assert support_from_json(support_to_json(s), 2) == s
    with pytest.raises(InvalidParameter):
        support_from_json({"kind": "banana"}, 2)


def test_meta_preserved():
    seq = generate_moments(GaussianProduct((1,)), 1, 4, R)
    back = sequence_from_json(sequence_to_json(seq))
    assert back.is_certified_carleman()


def test_format_value_shapes():
    out = format_value(R, F(1, 3))
    assert out["rational"] == "1/3"
    fm = FloatMode(64)
    out = format_value(fm, fm.convert(F(1, 2)))
    assert out["hex"].startswith("0x") and out["decimal"] == "0.5"


def test_rational_round_trip_past_int_str_digit_limit():
    # about 15k digits each side, past Python's 4300-digit int<->str limit
    big = F(7 ** 17800 + 1, 3 ** 31000)
    seq = sequence_from_1d([F(1), F(0), big], R)
    text = sequence_to_json(seq)
    assert sequence_from_json(text).entries == seq.entries
    rendered = format_value(R, big)["rational"]
    num, den = rendered.split("/")
    assert 15000 < len(num) < 15100 and 14700 < len(den) < 14800
    assert R.from_string(rendered) == big
    assert R.from_string(num) == big.numerator
