"""Per-food procedural shape and handling parameters.

Each archetype describes a family of pieces: a superellipse footprint with
per-piece jitter, a dome-shaped top surface, the random ranges used during
scene generation, and the physical parameters the finger models consume
(fragility force, penetration tolerance, insertion-height offset).
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, asdict
from pathlib import Path

from .errors import ParameterError


class Hardness(enum.Enum):
    SOFT = "soft"
    HARD = "hard"
    VERY_HARD = "very_hard"


@dataclass(frozen=True)
class FoodArchetype:
    name: str
    semi_axes_mm: tuple[float, float]  # (along-rotation, across) half extents
    exponent: float  # superellipse exponent; 2 = ellipse, higher = boxier
    jitter: float  # per-piece fractional jitter on axes and dome
    dome_ratio: float  # peak height / mean footprint semi-axis
    hardness: Hardness
    fragility_force: float  # N; adaptive-finger damage threshold
    damage_tolerance: float  # mm; fixed-finger penetration allowance
    grasp_height_offset: float  # mm; added to the food-area median height
    scale_range: tuple[float, float] = (0.7, 1.1)
    count_range: tuple[int, int] = (10, 60)

    def validate(self) -> None:
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ParameterError(f"{self.name}: bad scale_range {self.scale_range}")
        cmin, cmax = self.count_range
        if not (1 <= cmin <= cmax <= 200):
            raise ParameterError(f"{self.name}: bad count_range {self.count_range}")
        # negated, so that NaN fails: generate_scene relies on f(0, 0) = 0
        if not (all(a > 0 for a in self.semi_axes_mm) and self.exponent > 0):
            raise ParameterError(f"{self.name}: bad footprint parameters")
        if not (0 <= self.jitter < 1):
            raise ParameterError(f"{self.name}: jitter must be in [0, 1)")
        if self.dome_ratio <= 0:
            raise ParameterError(f"{self.name}: dome_ratio must be > 0")
        if self.fragility_force <= 0:
            raise ParameterError(f"{self.name}: fragility_force must be > 0")
        if self.damage_tolerance < 0:
            raise ParameterError(f"{self.name}: damage_tolerance must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hardness"] = self.hardness.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FoodArchetype":
        d = dict(d)
        d["hardness"] = Hardness(d["hardness"])
        d["semi_axes_mm"] = tuple(d["semi_axes_mm"])
        d["scale_range"] = tuple(d["scale_range"])
        d["count_range"] = tuple(d["count_range"])
        a = cls(**d)
        a.validate()
        return a


def _defaults() -> dict[str, FoodArchetype]:
    # Hardness classes follow the evaluated foods; the geometric and force
    # numbers are configuration defaults, tuned for the desk-scale simulator.
    items = [
        FoodArchetype("fried_chicken", (19.0, 15.0), 2.5, 0.20, 0.60,
                      Hardness.SOFT, 3.0, 4.0, -10.0),
        FoodArchetype("broccoli", (18.0, 15.0), 2.0, 0.25, 0.70,
                      Hardness.SOFT, 2.5, 3.0, -12.0),
        FoodArchetype("mushroom", (12.0, 10.0), 2.0, 0.15, 0.70,
                      Hardness.SOFT, 2.0, 3.0, -8.0, count_range=(40, 100)),
        FoodArchetype("meatball", (12.0, 12.0), 2.0, 0.05, 0.90,
                      Hardness.HARD, 3.8, 6.0, -8.0),
        FoodArchetype("taro", (17.0, 13.0), 2.2, 0.10, 0.70,
                      Hardness.HARD, 4.0, 8.0, -10.0),
        FoodArchetype("sausage", (24.0, 9.0), 4.0, 0.05, 0.90,
                      Hardness.VERY_HARD, 4.5, 10.0, -12.0),
        FoodArchetype("gyoza", (16.0, 11.0), 3.0, 0.10, 0.55,
                      Hardness.SOFT, 3.6, 1.0, -10.0),
    ]
    for a in items:
        a.validate()
    return {a.name: a for a in items}


DEFAULT_ARCHETYPES: dict[str, FoodArchetype] = _defaults()


def save_archetypes(archetypes: dict[str, FoodArchetype], path: str | Path) -> None:
    doc = {name: a.to_dict() for name, a in sorted(archetypes.items())}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_archetypes(path: str | Path) -> dict[str, FoodArchetype]:
    doc = json.loads(Path(path).read_text())
    return {name: FoodArchetype.from_dict(d) for name, d in doc.items()}
