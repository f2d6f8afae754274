"""Per-food procedural shape and handling parameters.

Each archetype describes a family of pieces: a superellipse footprint with
per-piece jitter, a dome-shaped top surface, the random ranges used during
scene generation, and the physical parameters the finger models consume
(fragility force, penetration tolerance, insertion-height offset).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ParameterError, check_number, field_keys, read_json, read_object


@dataclass(frozen=True)
class FoodArchetype:
    name: str
    semi_axes_mm: tuple[float, float]  # (along-rotation, across) half extents
    exponent: float  # superellipse exponent; 2 = ellipse, higher = boxier
    jitter: float  # per-piece fractional jitter on axes and dome
    dome_ratio: float  # peak height / mean footprint semi-axis
    fragility_force: float  # N; adaptive-finger damage threshold
    damage_tolerance: float  # mm; fixed-finger penetration allowance
    grasp_height_offset: float  # mm; added to the food-area median height
    scale_range: tuple[float, float] = (0.7, 1.1)
    count_range: tuple[int, int] = (10, 60)

    def validate(self) -> None:
        n = self.name
        for key, value in (("scale_range", self.scale_range), ("count_range", self.count_range),
                           ("footprint semi_axes_mm", self.semi_axes_mm)):
            if not (isinstance(value, tuple) and len(value) == 2):
                raise ParameterError(f"{n}: {key} must be a pair, got {value!r}")
        lo, hi = self.scale_range
        check_number(f"{n}: scale_range low", lo, low=0, low_open=True, finite=True)
        check_number(f"{n}: scale_range high", hi, low=lo, finite=True)
        cmin, cmax = self.count_range
        check_number(f"{n}: count_range low", cmin, integral=True, low=1)
        check_number(f"{n}: count_range high", cmax, integral=True, low=cmin, high=200)
        # generate_scene relies on f(0, 0) = 0, which these bounds give
        for a in self.semi_axes_mm:
            check_number(f"{n}: footprint semi_axes_mm", a, low=0, low_open=True, finite=True)
        check_number(f"{n}: footprint exponent", self.exponent, low=0, low_open=True, finite=True)
        check_number(f"{n}: jitter", self.jitter, low=0, high=1)
        if self.jitter == 1:
            raise ParameterError(f"{n}: jitter must be < 1, got {self.jitter!r}")
        check_number(f"{n}: dome_ratio", self.dome_ratio, low=0, low_open=True, finite=True)
        check_number(f"{n}: fragility_force", self.fragility_force, low=0, low_open=True, finite=True)
        check_number(f"{n}: damage_tolerance", self.damage_tolerance, low=0, finite=True)
        check_number(f"{n}: grasp_height_offset", self.grasp_height_offset, finite=True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FoodArchetype":
        """The archetype a to_dict document describes. A document that is not
        an object, an unknown or missing key and a value validate() refuses raise
        ParameterError."""
        read_object(d, "archetype", *field_keys(cls))
        d = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
        a = cls(**d)
        a.validate()
        return a


def _defaults() -> dict[str, FoodArchetype]:
    items = [
        FoodArchetype("fried_chicken", (19.0, 15.0), 2.5, 0.20, 0.60,
                      3.0, 4.0, -10.0),
        FoodArchetype("broccoli", (18.0, 15.0), 2.0, 0.25, 0.70,
                      2.5, 3.0, -12.0),
        FoodArchetype("mushroom", (12.0, 10.0), 2.0, 0.15, 0.70,
                      2.0, 3.0, -8.0, count_range=(40, 100)),
        FoodArchetype("meatball", (12.0, 12.0), 2.0, 0.05, 0.90,
                      3.8, 6.0, -8.0),
        FoodArchetype("taro", (17.0, 13.0), 2.2, 0.10, 0.70,
                      4.0, 8.0, -10.0),
        FoodArchetype("sausage", (24.0, 9.0), 4.0, 0.05, 0.90,
                      4.5, 10.0, -12.0),
        FoodArchetype("gyoza", (16.0, 11.0), 3.0, 0.10, 0.55,
                      3.6, 1.0, -10.0),
    ]
    for a in items:
        a.validate()
    return {a.name: a for a in items}


DEFAULT_ARCHETYPES: dict[str, FoodArchetype] = _defaults()


def save_archetypes(archetypes: dict[str, FoodArchetype], path: str | Path) -> None:
    doc = {name: a.to_dict() for name, a in sorted(archetypes.items())}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_archetypes(path: str | Path) -> dict[str, FoodArchetype]:
    """The archetypes of a save_archetypes file; a document that is not an
    object of archetypes, each under its own name, raises ParameterError."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParameterError(f"{path} must hold a JSON object, got {doc!r}")
    archetypes = {name: FoodArchetype.from_dict(d) for name, d in doc.items()}
    for name, a in archetypes.items():
        if a.name != name:
            raise ParameterError(f"archetype {a.name!r} is stored under {name!r}")
    return archetypes
