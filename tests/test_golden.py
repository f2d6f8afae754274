"""Golden records: frozen digests that pin the exact output of the pipeline.

Acceptance check [6] proves that a campaign rerun matches itself; these
digests prove that a refactor matches the code they were frozen on. Each
campaign digest is the SHA-256 of the ``records.jsonl`` a small campaign
writes; the matrix covers both refill policies, both fingers, filtering on
and off, every mask corruption and depth noise with quantization. The plan
digests pin every candidate's ellipse fit, medians and filter decision, which
the records only summarize. The scene digests pin scene.json, damage
included, and owner_map.pgm, which holds every visible piece's id, after
generation, after picks and after a load and save. A digest may change only
in a change that says why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.experiment import DEPLETE, FRESH, ExperimentConfig, run_experiment
from traypick.graspsim import FingerKind, execute_grasp
from traypick.perception import (
    CorruptionParams,
    agreement,
    corrupt_masks,
    render_depth,
    render_masks,
)
from traypick.planner import plan, plan_to_dict
from traypick.scenegen import SceneConfig, generate_scene, load_scene, save_scene

FIXED, ADAPTIVE = FingerKind.FIXED, FingerKind.ADAPTIVE

# name -> (ExperimentConfig keyword arguments, records.jsonl SHA-256)
CAMPAIGNS = {
    "mushroom-fixed-filter-fresh-merge": (
        dict(archetype="mushroom", finger=FIXED, filtering=True, refill_policy=FRESH,
             n_attempts=8, base_seed=11, corruption=CorruptionParams(merge_prob=0.3)),
        "96e21369432a1bfd37501dccd655fdbf96c3a3c833e25ba84056e8d74d50baad",
    ),
    "mushroom-adaptive-nofilter-deplete-jitter-drop-noise": (
        dict(archetype="mushroom", finger=ADAPTIVE, filtering=False, refill_policy=DEPLETE,
             n_attempts=6, base_seed=49, depth_sigma=0.5, depth_quant=0.25,
             corruption=CorruptionParams(boundary_jitter=1, drop_prob=0.1)),
        "5f63b40b4f93640fbcb6cee88be9b0cde514f1c7eec5c492c77b990021fab03d",
    ),
    "fried_chicken-fixed-filter-deplete-jitter-drop-noise": (
        dict(archetype="fried_chicken", finger=FIXED, filtering=True, refill_policy=DEPLETE,
             n_attempts=6, base_seed=42, depth_sigma=0.5, depth_quant=0.25,
             corruption=CorruptionParams(boundary_jitter=1, drop_prob=0.1)),
        "d2e296d9c3e0512bf587275d7ce619c2a9b798377450ce16bcc58ee77d64fd00",
    ),
    "fried_chicken-adaptive-filter-fresh-noise": (
        dict(archetype="fried_chicken", finger=ADAPTIVE, filtering=True, refill_policy=FRESH,
             n_attempts=8, base_seed=3, depth_sigma=0.5, depth_quant=0.25),
        "ea48679b33ed984dfc624e27f2812709021c3c5c2379a7c07cdd9820431de7ec",
    ),
    "gyoza-fixed-nofilter-fresh-all-corruptions-quant": (
        dict(archetype="gyoza", finger=FIXED, filtering=False, refill_policy=FRESH,
             n_attempts=8, base_seed=11, depth_quant=0.5,
             corruption=CorruptionParams(boundary_jitter=1, merge_prob=0.5, drop_prob=0.1)),
        "af2a0cb0257abea716e2139c5a37f3f4fbf0047b3e6b954fbc6d085a383c5bff",
    ),
    "gyoza-adaptive-filter-deplete-no-target-refresh": (
        dict(archetype="gyoza", finger=ADAPTIVE, filtering=True, refill_policy=DEPLETE,
             n_attempts=6, base_seed=7, corruption=CorruptionParams(drop_prob=0.98)),
        "19bd18c14b814464707540b0ed10485f634b459f5aa82042d6aed9b1eb63f280",
    ),
}

# (archetype, scene seed, corruption) -> exact agreement(corrupted, truth).value
AGREEMENTS = [
    ("mushroom", 3, CorruptionParams(boundary_jitter=1, merge_prob=0.2, drop_prob=0.05), 0.8028169014084506),
    ("fried_chicken", 4, CorruptionParams(boundary_jitter=2), 0.8099999999999999),
    ("gyoza", 5, CorruptionParams(merge_prob=0.5), 0.8625),
]

# (archetype, scene seed, corruption, depth sigma, depth quant) -> SHA-256 of
# the JSON plan document with filtering on
PLANS = [
    ("mushroom", 7, CorruptionParams(merge_prob=0.3), 0.0, 0.0,
     "86521d8c9c99545c1bfde64bcde013d3795cacc7b725843a2d39d2b08d85d146"),
    ("fried_chicken", 8, CorruptionParams(), 0.5, 0.25,
     "504e5588189eca44cfcd8f0e9c722b62b5c7536c54bad4d949007b61132de2b7"),
]

# (archetype, scene seed, finger) -> SHA-256s of scene.json and owner_map.pgm
# as generated, and after two noise-free planned picks with that finger. The
# mushroom tray holds two buried pieces, and its first pick uncovers one and
# damages another.
SCENES = [
    ("mushroom", 2, FIXED,
     ("aabeacadcfcdae297c18ed535d9fdd2cf58bf2b85c674e5fe80a0707e89f85b1",
      "ca63f47325f3193cd859021feab3ab50e9f228b817f45b534461f6ad0815b1b8"),
     ("27a713305afa3e757ffd64116ef969de584fb3b8708653a68199e41fa83ae482",
      "6eb8bb765b59f4de171bfca71478656e20e4290039f568974ca0ebf28fa1dfbf")),
    ("fried_chicken", 12, ADAPTIVE,
     ("3061368a872001c461cd59e7024b2bebdcb3690a4ce842605e4226d79bc753d1",
      "d5829a5897d32f8d39f7aaee17abf60aef6a123579efe44db681ac9589aee81f"),
     ("3ab0a663c737920785e7ca1af1e0afe1f99d1ec37b6988fd1b9915bcdb51645f",
      "5f2c12e1a8906fad9f602e4db302b08017449fedf631036bd9b951fda4d3e56f")),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scene_digests(scene_dir) -> tuple[str, str]:
    return tuple(_sha256((scene_dir / name).read_bytes()) for name in ("scene.json", "owner_map.pgm"))


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_records_digest(name, tmp_path):
    kwargs, digest = CAMPAIGNS[name]
    run_experiment(ExperimentConfig(output_dir=str(tmp_path), **kwargs))
    assert _sha256((tmp_path / "records.jsonl").read_bytes()) == digest


@pytest.mark.parametrize("archetype,seed,corruption,expected", AGREEMENTS,
                         ids=[f"{a}-{seed}" for a, seed, *_ in AGREEMENTS])
def test_agreement_scores(archetype, seed, corruption, expected):
    scene = generate_scene(SceneConfig(archetype=archetype), seed)
    truth = render_masks(scene)
    corrupted = corrupt_masks(truth, corruption, np.random.default_rng((seed, 2)))
    assert agreement(corrupted, truth).value == expected
    assert agreement(truth, truth).value == 1.0


@pytest.mark.parametrize("archetype,seed,corruption,sigma,quant,digest", PLANS,
                         ids=[f"{a}-{seed}" for a, seed, *_ in PLANS])
def test_plan_digest(archetype, seed, corruption, sigma, quant, digest):
    scene = generate_scene(SceneConfig(archetype=archetype), seed)
    depth = render_depth(scene, sigma, quant, np.random.default_rng((seed, 1)))
    masks = render_masks(scene)
    if not corruption.is_identity:
        masks = corrupt_masks(masks, corruption, np.random.default_rng((seed, 2)))
    doc = plan_to_dict(plan(masks, depth, DEFAULT_ARCHETYPES[archetype]))
    assert _sha256(json.dumps(doc, sort_keys=True).encode()) == digest


@pytest.mark.parametrize("archetype,seed,finger,generated,picked", SCENES,
                         ids=[f"{a}-{seed}-{finger.value}" for a, seed, finger, *_ in SCENES])
def test_scene_file_digests(archetype, seed, finger, generated, picked, tmp_path):
    scene = generate_scene(SceneConfig(archetype=archetype), seed)
    save_scene(scene, tmp_path / "generated")
    assert _scene_digests(tmp_path / "generated") == generated
    for _ in range(2):
        p = plan(render_masks(scene), render_depth(scene), DEFAULT_ARCHETYPES[archetype])
        assert execute_grasp(scene, p.target, finger).picked
    save_scene(scene, tmp_path / "picked")
    assert _scene_digests(tmp_path / "picked") == picked
    for name, digests in (("generated", generated), ("picked", picked)):
        save_scene(load_scene(tmp_path / name), tmp_path / f"{name}-loaded")
        assert _scene_digests(tmp_path / f"{name}-loaded") == digests
