"""JSON document plumbing tests: deterministic rendering, file parsing
errors, and the dataclass codec."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from smerisk.errors import ParameterError, ParseError
from smerisk.serialize import (
    dumps_deterministic,
    from_json_dict,
    parse_json_file,
    to_json_dict,
    write_json_file,
)


def test_dumps_sorted_keys_and_trailing_newline():
    text = dumps_deterministic({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert dumps_deterministic({"b": 1, "a": 2}) == dumps_deterministic({"a": 2, "b": 1})


def test_dumps_full_float_precision():
    value = 0.1 + 0.2
    text = dumps_deterministic({"x": value})
    assert repr(value) in text  # 0.30000000000000004, not 0.3


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps_deterministic({"x": math.nan})


def test_write_parse_round_trip(tmp_path):
    doc = {"format_version": 1, "model_type": "logistic", "x": [1.5, 2.5]}
    path = tmp_path / "doc.json"
    write_json_file(doc, path)
    assert parse_json_file(path) == doc
    write_json_file(doc, path)
    assert path.read_text() == dumps_deterministic(doc)


def test_parse_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ParseError):
        parse_json_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        parse_json_file(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ParseError):
        parse_json_file(scalar)


# dataclass codec


@dataclass(frozen=True)
class Inner:
    n: int = 1
    x: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Outer:
    flag: bool = True
    name: str = "a"
    limit: int | None = None
    pair: tuple[float, float] = (0.0, 1.0)
    values: tuple[float, ...] = ()
    inner: Inner = field(default_factory=Inner)
    derived: float = field(init=False, default=0.0)


def test_codec_round_trip():
    obj = Outer(flag=False, name="b", limit=3, pair=(-1.5, 2.0), values=(0.25, 0.5, 1.0), inner=Inner(n=4, x=0.1))
    doc = to_json_dict(obj)
    assert doc == {
        "flag": False,
        "name": "b",
        "limit": 3,
        "pair": [-1.5, 2.0],
        "values": [0.25, 0.5, 1.0],
        "inner": {"n": 4, "x": 0.1},
    }
    assert from_json_dict(Outer, doc) == obj
    assert from_json_dict(Outer, to_json_dict(Outer())) == Outer()


def test_codec_absent_keys_take_defaults():
    assert from_json_dict(Outer, {}) == Outer()
    assert from_json_dict(Outer, {"inner": {"x": 0.75}}) == Outer(inner=Inner(x=0.75))


def test_codec_integer_becomes_float():
    x = from_json_dict(Inner, {"x": 2}).x
    assert type(x) is float and x == 2.0
    assert from_json_dict(Outer, {"pair": [0, 1]}).pair == (0.0, 1.0)


@pytest.mark.parametrize(
    "doc, json_path",
    [
        ({"inner": {"n": True}}, "inner.n"),
        ({"inner": {"n": 2.0}}, "inner.n"),
        ({"inner": {"n": "2"}}, "inner.n"),
        ({"inner": {"x": True}}, "inner.x"),
        ({"inner": {"x": "0.5"}}, "inner.x"),
        ({"inner": {"x": None}}, "inner.x"),
        ({"inner": {"x": 10**400}}, "inner.x"),
        ({"inner": {"x": math.inf}}, "inner.x"),
        ({"flag": 1}, "flag"),
        ({"flag": "true"}, "flag"),
        ({"name": 3}, "name"),
        ({"limit": 2.5}, "limit"),
        ({"limit": False}, "limit"),
        ({"pair": [0.0]}, "pair"),
        ({"pair": [0.0, 1.0, 2.0]}, "pair"),
        ({"pair": [0.0, "1"]}, "pair[1]"),
        ({"pair": {"low": 0.0}}, "pair"),
        ({"values": [1.0, None]}, "values[1]"),
        ({"values": 1.0}, "values"),
        ({"inner": [1]}, "inner"),
        ({"inner": {"m": 1}}, "inner.m"),
        ({"derived": 1.0}, "derived"),
        ({"inner": {"n": -1}}, "inner"),
    ],
)
def test_codec_rejects_with_json_path(doc, json_path):
    with pytest.raises(ParameterError) as info:
        from_json_dict(Outer, doc)
    message = str(info.value)
    assert json_path in message
    assert "\n" not in message


def test_codec_requires_fields_without_defaults():
    @dataclass(frozen=True)
    class Pair:
        low: float
        high: float = 1.0

    assert from_json_dict(Pair, {"low": 0}) == Pair(low=0.0)
    with pytest.raises(ParameterError, match="missing key range.low"):
        from_json_dict(Pair, {"high": 2.0}, "range")


def test_codec_rejects_non_object():
    for doc in ([1], "x", None, 3):
        with pytest.raises(ParameterError):
            from_json_dict(Inner, doc)


def test_codec_given_fields_are_not_read():
    assert from_json_dict(Outer, {"flag": False}, name="b") == Outer(flag=False, name="b")
    with pytest.raises(ParameterError, match="unknown key name"):
        from_json_dict(Outer, {"name": "c"}, name="b")


def test_codec_reads_and_writes_arrays():
    @dataclass(frozen=True, eq=False)
    class Weights:
        w: np.ndarray

    doc = to_json_dict(Weights(np.array([0.5, -2.0])))
    assert doc == {"w": [0.5, -2.0]} and type(doc["w"][0]) is float
    back = from_json_dict(Weights, {"w": [1, 0.25]}).w
    assert back.dtype == float and back.tolist() == [1.0, 0.25]
    for bad, json_path in (("x", "w"), ([1.0, None], "w[1]"), ([[1.0]], "w[0]"), ([True], "w[0]"), ([10**400], "w[0]")):
        with pytest.raises(ParameterError, match=json_path.replace("[", r"\[")):
            from_json_dict(Weights, {"w": bad})
