"""JSON configuration document -> ExperimentConfig.

The config dataclasses own every value's default, type and range; a document
names only the values it changes. Keys map onto dataclass fields, any other
key is rejected, and ExperimentConfig.validate() does every other check.
"""
from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .archetypes import load_archetypes
from .errors import ParameterError, field_keys, read_json, read_object
from .experiment import ExperimentConfig
from .graspsim import FingerKind
from .perception import CorruptionParams
from .planner import FingerGeometry
from .scenegen import SceneConfig


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def experiment_config_from_document(doc: dict, config_dir: Path | None = None) -> ExperimentConfig:
    top_keys = _names(ExperimentConfig) - {"depth_sigma", "depth_quant"} | {"depth"}
    kwargs = dict(read_object(doc, "config", (), top_keys))
    for name, cls in (("corruption", CorruptionParams), ("finger_geometry", FingerGeometry)):
        if name in kwargs:
            kwargs[name] = cls(**read_object(kwargs[name], f"config {name}", *field_keys(cls)))
    for key, value in read_object(kwargs.pop("depth", {}), "config depth", (), ("sigma", "quant")).items():
        kwargs[f"depth_{key}"] = value
    if "finger" in kwargs:
        try:
            kwargs["finger"] = FingerKind(kwargs["finger"])
        except ValueError:
            raise ParameterError(f"unknown finger {kwargs['finger']!r}") from None

    scene_keys = _names(SceneConfig) - {"archetype", "archetypes"} | {"archetypes_path"}
    scene = dict(read_object(kwargs.pop("scene", {}), "config scene", (), scene_keys))
    if "archetypes_path" in scene:
        path = scene.pop("archetypes_path")
        if not isinstance(path, str):
            raise ParameterError(f"scene.archetypes_path must be a string, got {path!r}")
        scene["archetypes"] = load_archetypes(Path(config_dir or "", path))
    if isinstance(scene.get("tray_dims"), list):
        scene["tray_dims"] = tuple(scene["tray_dims"])
    if "archetype" in kwargs:
        scene["archetype"] = kwargs["archetype"]
    cfg = ExperimentConfig(**kwargs, scene=SceneConfig(**scene))
    cfg.validate()
    return cfg


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    return experiment_config_from_document(read_json(p), p.parent)
