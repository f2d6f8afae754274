"""Command-line interface.

Subcommands: generate, plan, grasp, experiment, compare, agreement.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import load_experiment_config
from .errors import ParameterError
from .experiment import (
    ExperimentConfig,
    compare_conditions,
    run_experiment,
    summary_csv,
)
from .graspsim import FingerKind, FingerModel, execute_grasp
from .perception import (
    agreement,
    corrupt_masks,
    load_depth,
    load_masks,
    render_depth,
    render_masks,
    save_depth,
    save_masks,
)
from .planner import candidate_from_dict, plan, plan_to_dict
from .scenegen import default_resolution, generate_scene, load_scene, save_scene

import dataclasses

import numpy as np


def _base_config(args) -> ExperimentConfig:
    if args.config:
        cfg = load_experiment_config(args.config)
    else:
        cfg = ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg.base_seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.output_dir = args.out
    return cfg


def _generate_one(task) -> str:
    cfg, seed, out = task
    scene = generate_scene(cfg.scene_config(), seed)
    scene_dir = Path(out) / f"scene_{seed}"
    save_scene(scene, scene_dir)
    depth = render_depth(scene, cfg.depth_sigma, cfg.depth_quant,
                         np.random.default_rng((seed, 1)))
    save_depth(depth, scene_dir / "depth.pgm")
    masks = render_masks(scene)
    save_masks(masks, scene_dir, stem="masks")
    if not cfg.corruption.is_identity:
        corrupted = corrupt_masks(masks, cfg.corruption, np.random.default_rng((seed, 2)))
        save_masks(corrupted, scene_dir, stem="masks_corrupted")
    return str(scene_dir)


def cmd_generate(args) -> int:
    cfg = _base_config(args)
    out = args.out or cfg.output_dir or "scenes"
    tasks = [(cfg, cfg.base_seed + i, out) for i in range(args.count)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            dirs = list(pool.map(_generate_one, tasks))
    else:
        dirs = [_generate_one(t) for t in tasks]
    for d in dirs:
        print(d)
    return 0


def cmd_plan(args) -> int:
    cfg = _base_config(args)
    masks = load_masks(args.masks)
    sc = cfg.scene_config()
    resolution = default_resolution(sc.tray_dims[0]) if sc.resolution is None else sc.resolution
    depth = load_depth(args.depth, resolution)
    if args.archetype not in sc.archetypes:
        raise ParameterError(f"unknown archetype {args.archetype!r}; known: {sorted(sc.archetypes)}")
    p = plan(masks, depth, sc.archetypes[args.archetype], cfg.finger_geometry, not args.no_filter)
    doc = plan_to_dict(p)
    doc["archetype"] = args.archetype
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def cmd_grasp(args) -> int:
    cfg = _base_config(args)
    scene = load_scene(args.scene)
    plan_doc = json.loads(Path(args.plan).read_text())
    if plan_doc.get("target") is None:
        print("plan has no target; nothing to execute", file=sys.stderr)
        return 1
    candidate = candidate_from_dict(plan_doc["target"])
    fm = FingerModel(kind=FingerKind(args.finger), geometry=cfg.finger_geometry)
    outcome = execute_grasp(scene, candidate, fm, cfg.execution)
    out_scene = args.out_scene or args.scene
    save_scene(scene, out_scene)
    doc = {
        "classification": outcome.classification.value,
        "picked": sorted(outcome.picked),
        "damaged": {str(k): v for k, v in sorted(outcome.damaged.items())},
        "insertion": [
            {
                "commanded": f.commanded,
                "achieved": f.achieved,
                "retraction": f.retraction,
                "blocked": f.blocked,
                "contacts": {str(k): v for k, v in sorted(f.contacts.items())},
            }
            for f in outcome.insertion.fingers
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def cmd_experiment(args) -> int:
    cfg = _base_config(args)
    summary, _ = run_experiment(cfg)
    print(summary_csv([("campaign", cfg, summary)]), end="")
    return 0


def cmd_compare(args) -> int:
    base = _base_config(args)
    cfgs = []
    for finger in (FingerKind.ADAPTIVE, FingerKind.FIXED):
        for filtering in (True, False):
            cfg = dataclasses.replace(base, finger=finger, filtering=filtering)
            cfg.output_dir = (
                str(Path(base.output_dir) / f"{finger.value}_{'on' if filtering else 'off'}")
                if base.output_dir
                else None
            )
            cfgs.append(cfg)
    csv_text, _ = compare_conditions(cfgs)
    if base.output_dir:
        Path(base.output_dir).mkdir(parents=True, exist_ok=True)
        (Path(base.output_dir) / "comparison.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def cmd_agreement(args) -> int:
    sets = [load_masks(args.manifest_a), load_masks(args.manifest_b)]
    labels = ["a", "b"]
    lines = ["gt_role," + ",".join(f"pred_{l}" for l in labels)]
    for i, gt in enumerate(sets):
        row = [f"gt_{labels[i]}"]
        for pred in sets:
            row.append(f"{agreement(pred, gt).value:.4f}")
        lines.append(",".join(row))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traypick",
        description="Bin-picking simulator: scene generation, grasp planning, execution, campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--out", help="output directory or file")

    g = sub.add_parser("generate", help="generate scenes with depth and mask files")
    add_common(g)
    g.add_argument("--count", type=int, default=1, help="number of scenes")
    g.add_argument("--jobs", type=int, default=1, help="parallel workers")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("plan", help="plan a grasp from a mask manifest and depth PGM")
    add_common(p)
    p.add_argument("--masks", required=True, help="mask manifest JSON")
    p.add_argument("--depth", required=True, help="depth PGM (0.01 mm per level)")
    p.add_argument("--archetype", required=True, help="a name in the config's archetype set")
    p.add_argument("--no-filter", action="store_true", help="disable grasp filtering")
    p.set_defaults(func=cmd_plan)

    gr = sub.add_parser("grasp", help="execute a plan's target grasp on a scene")
    add_common(gr)
    gr.add_argument("--scene", required=True, help="scene directory")
    gr.add_argument("--plan", required=True, help="plan JSON from the plan subcommand")
    gr.add_argument("--finger", choices=["fixed", "adaptive"], default="adaptive")
    gr.add_argument("--out-scene", help="directory for the updated scene (default: in place)")
    gr.set_defaults(func=cmd_grasp)

    e = sub.add_parser("experiment", help="run a seeded grasp campaign")
    add_common(e)
    e.set_defaults(func=cmd_experiment)

    c = sub.add_parser("compare", help="run the finger x filtering comparison grid")
    add_common(c)
    c.set_defaults(func=cmd_compare)

    a = sub.add_parser("agreement", help="mask-agreement score matrix for two manifests")
    a.add_argument("manifest_a")
    a.add_argument("manifest_b")
    a.set_defaults(func=cmd_agreement)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
