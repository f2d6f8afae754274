"""Exception types shared across the package, and the parameter checks."""
from __future__ import annotations

import json
import math
import numbers
from collections.abc import Collection
from dataclasses import MISSING, fields
from pathlib import Path


class ParameterError(ValueError):
    """A caller-supplied parameter violates a documented precondition."""


class PlacementError(ValueError):
    """A piece could not be placed anywhere inside the tray."""


class FitError(ValueError):
    """A mask is too small or degenerate to fit an ellipse to."""


def read_json(path: str | Path):
    """The JSON document in the file at path, which is outside input: a file
    that is not UTF-8 or not JSON raises ParameterError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParameterError(f"{path} is not a UTF-8 JSON document: {e}") from None


def read_object(doc, where: str, required: Collection[str], optional: Collection[str] = ()) -> dict:
    """doc, a JSON value of outside input that must be an object holding every
    key of required and no key outside required and optional. Otherwise
    ParameterError names where and the key."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be an object, got {doc!r}")
    for key in doc:
        if key not in required and key not in optional:
            raise ParameterError(f"{where} has unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise ParameterError(f"{where} is missing {key}")
    return doc


def field_keys(cls) -> tuple[list[str], list[str]]:
    """(required, optional) for read_object: the dataclass cls's fields
    without a default, and those with one."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return required, [f.name for f in fields(cls) if f.name not in required]


def check_type(name: str, value, kind: type | tuple[type, ...]) -> None:
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ParameterError(f"{name} must be {names}, got {value!r}")


def check_number(name: str, value, *, integral: bool = False, low: float | None = None,
                 high: float | None = None, low_open: bool = False, finite: bool = False) -> None:
    """Raise ParameterError unless value is a number (an integer when integral,
    never a bool, not infinite when finite) in [low, high], or (low, high] when low_open.

    Each bound is a negated comparison, so NaN, which compares false with
    everything, fails every bound instead of passing it."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integral else "a number"
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    if low is not None and not (value > low if low_open else value >= low):
        raise ParameterError(f"{name} must be {'>' if low_open else '>='} {low}, got {value!r}")
    if high is not None and not (value <= high):
        raise ParameterError(f"{name} must be <= {high}, got {value!r}")
    if finite and not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
