"""Deterministic JSON plumbing shared by the model and report writers.

All documents are emitted with sorted keys, two-space indentation and a
trailing newline, and floats rendered by repr (shortest round-trip form),
so equal in-memory objects serialize to byte-identical text.

``to_json_dict`` and ``from_json_dict`` are the one codec between the
package's dataclasses (configs, both model bodies, the comparison report)
and JSON objects, driven by the dataclass fields and their type hints.
Reading is checked, never coerced: unknown keys are rejected, absent keys
take the field default (a field without one is required), and each value
must already have its field's JSON type. Every failure is a
``ParameterError`` naming the JSON path of the bad value; domain checks
stay in the dataclasses' ``__post_init__``.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError


def dumps_deterministic(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json_file(doc, path: str | Path) -> None:
    Path(path).write_text(dumps_deterministic(doc), encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json_file(path: str | Path) -> dict:
    """Parse a JSON object from a file. NaN and Infinity, which the json
    module would otherwise accept, are rejected like any other bad token,
    and so is nesting too deep for the parser."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or a rejected constant
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON arrays or objects too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def to_json_dict(obj) -> dict:
    """The JSON object of a dataclass: one key per constructor field,
    nested dataclasses as objects, tuples and 1-D arrays as arrays."""
    return {f.name: _to_json_value(getattr(obj, f.name)) for f in fields(obj) if f.init}


def _to_json_value(value):
    if is_dataclass(value):
        return to_json_dict(value)
    if isinstance(value, tuple):
        return [_to_json_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def from_json_dict(cls, doc, path: str = "", **given):
    """Build the dataclass ``cls`` from the JSON object ``doc``, which sits
    at ``path`` in its document. Fields passed in ``given`` are not read
    from ``doc``."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{path or 'document'} must be a JSON object, got {_show(doc)}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    wanted = [f for f in fields(cls) if f.init and f.name not in given]
    unknown = sorted(set(doc) - {f.name for f in wanted})
    missing = [f.name for f in wanted if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ParameterError(f"{problem} key {', '.join(prefix + k for k in keys)}")
    kwargs = {k: from_json_value(hints[k], v, prefix + k) for k, v in doc.items()}
    try:
        return cls(**kwargs, **given)
    except ParameterError as exc:  # a domain check in __post_init__
        if path:
            raise ParameterError(f"{path}: {exc}") from None
        raise


def from_json_value(tp, value, path: str):
    """Check ``value`` against the type hint ``tp`` and return it as that
    type: a JSON integer for ``int`` (a boolean is not one), a finite JSON
    number for ``float`` (an integer becomes a float), ``true``/``false``
    for ``bool``, a string for ``str``, any object for ``dict``, null or an
    ``X`` for ``X | None``, an array for ``tuple[...]``, an array of finite
    numbers for ``np.ndarray`` (read as a 1-D float array) and an object for
    a dataclass."""
    if tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # not NaN, infinite or too large
            return float(value)
        raise ParameterError(f"{path} must be a finite JSON number, got {_show(value)}")
    if tp in _EXPECTED:
        if type(value) is not tp:
            raise ParameterError(f"{path} must be {_EXPECTED[tp]}, got {_show(value)}")
        return value
    if is_dataclass(tp):
        return from_json_dict(tp, value, path)
    if tp is np.ndarray:
        return np.array(from_json_value(tuple[float, ...], value, path), dtype=float)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # X | None
        return None if value is None else from_json_value(args[0], value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ParameterError(f"{path} must be a JSON array, got {_show(value)}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ParameterError(f"{path} must hold {len(args)} values, got {len(value)}")
        return tuple(from_json_value(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"no JSON rule for type {tp!r} at {path}")


_EXPECTED = {int: "a JSON integer", bool: "true or false", str: "a JSON string", dict: "a JSON object"}


def _show(value) -> str:
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    return json.dumps(value, default=repr)
