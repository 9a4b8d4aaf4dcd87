"""Deterministic JSON plumbing shared by the model and report writers.

All documents are emitted with sorted keys, two-space indentation and a
trailing newline, and floats rendered by repr (shortest round-trip form),
so equal in-memory objects serialize to byte-identical text.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ModelFormatError, ParseError

MODEL_FORMAT_VERSION = 1


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


def check_model_envelope(doc: dict, expected_type: str | None = None) -> str:
    """Validate format_version and model_type; returns the model_type."""
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    model_type = doc.get("model_type")
    if expected_type is not None and model_type != expected_type:
        raise ModelFormatError(f"expected a {expected_type!r} model, found {model_type!r}")
    if expected_type is None and model_type not in ("logistic", "random_forest"):
        raise ModelFormatError(f"unknown model_type {model_type!r}")
    return model_type
