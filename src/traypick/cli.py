"""Command-line interface.

Subcommands: generate, plan, grasp, experiment, compare, agreement.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .config import load_experiment_config
from .errors import ParameterError, check_number, read_json, read_object
from .experiment import ExperimentConfig, compare_conditions, observe, run_experiment, summary_csv
from .graspsim import execute_grasp
from .perception import agreement, load_depth, load_masks, save_depth, save_masks
from .planner import candidate_from_dict, plan, plan_to_dict
from .scenegen import generate_scene, load_scene, mm_per_pixel, save_scene


def _base_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg.base_seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    cfg.validate()  # again, with --seed and --out applied
    return cfg


def _emit(doc: dict, out: str | None) -> int:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text)
    else:
        print(text)
    return 0


def _generate_one(task) -> str:
    cfg, seed, out = task
    scene = generate_scene(cfg.scene_config(), seed)
    scene_dir = Path(out) / f"scene_{seed}"
    save_scene(scene, scene_dir)
    depth, masks, corrupted = observe(cfg, scene, seed)
    save_depth(depth, scene_dir / "depth.pgm")
    save_masks(masks, scene_dir, stem="masks")
    if corrupted is not None:
        save_masks(corrupted, scene_dir, stem="masks_corrupted")
    return str(scene_dir)


def cmd_generate(args) -> int:
    check_number("--count", args.count, integral=True, low=1)
    check_number("--jobs", args.jobs, integral=True, low=1)
    cfg = _base_config(args)
    tasks = [(cfg, cfg.base_seed + i, cfg.output_dir or "scenes") for i in range(args.count)]
    # a pool starts every worker at its first task, so start no more than there are tasks
    workers = min(args.jobs, args.count)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            dirs = list(pool.map(_generate_one, tasks))
    else:
        dirs = [_generate_one(t) for t in tasks]
    for d in dirs:
        print(d)
    return 0


def cmd_plan(args) -> int:
    cfg = _base_config(args)
    sc = cfg.scene_config()
    masks = load_masks(args.masks)
    depth = load_depth(args.depth, mm_per_pixel(sc.tray_dims, sc.resolution))
    p = plan(masks, depth, sc.archetypes[cfg.archetype], cfg.filtering)
    return _emit({**plan_to_dict(p), "archetype": cfg.archetype}, args.out)


def cmd_grasp(args) -> int:
    cfg = _base_config(args)
    scene = load_scene(args.scene)
    plan_doc = read_object(read_json(args.plan), f"{args.plan}: plan document", ("target",),
                           ("filtering_enabled", "candidates", "skipped", "archetype"))
    if plan_doc["target"] is None:
        print("plan has no target; nothing to execute", file=sys.stderr)
        return 1
    candidate = candidate_from_dict(plan_doc["target"])
    ny, nx = scene.shape
    if not (0 <= candidate.x < nx and 0 <= candidate.y < ny):
        raise ParameterError(f"{args.plan}: target ({candidate.x}, {candidate.y}) px is off the "
                             f"{nx} x {ny} px scene raster")
    outcome = execute_grasp(scene, candidate, cfg.finger)
    save_scene(scene, args.out_scene or args.scene)
    doc = {
        "classification": outcome.classification.value,
        "picked": sorted(outcome.picked),
        "damaged": {str(k): v for k, v in sorted(outcome.damaged.items())},
        # str keys: sort_keys would order int ids as numbers, 9 before 10
        "insertion": [{**asdict(f), "contacts": {str(k): v for k, v in sorted(f.contacts.items())}}
                      for f in outcome.insertion.fingers],
    }
    return _emit(doc, args.out)


def cmd_experiment(args) -> int:
    cfg = _base_config(args)
    summary, _ = run_experiment(cfg)
    print(summary_csv([("campaign", cfg, summary)]), end="")
    return 0


def cmd_compare(args) -> int:
    csv_text, _ = compare_conditions(_base_config(args))
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

    # pipeline values come from --config only; options name files and seeds
    def add_common(p, seed: bool):
        p.add_argument("--config", help="pipeline config JSON")
        if seed:
            p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--out", help="output directory or file")

    g = sub.add_parser("generate", help="generate scenes with depth and mask files")
    add_common(g, seed=True)
    g.add_argument("--count", type=int, default=1, help="number of scenes")
    g.add_argument("--jobs", type=int, default=1, help="parallel workers")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("plan", help="plan a grasp from a mask manifest and depth PGM")
    add_common(p, seed=False)
    p.add_argument("--masks", required=True, help="mask manifest JSON")
    p.add_argument("--depth", required=True, help="depth PGM (0.01 mm per level)")
    p.set_defaults(func=cmd_plan)

    gr = sub.add_parser("grasp", help="execute a plan's target grasp on a scene")
    add_common(gr, seed=False)
    gr.add_argument("--scene", required=True, help="scene directory")
    gr.add_argument("--plan", required=True, help="plan JSON from the plan subcommand")
    gr.add_argument("--out-scene", help="directory for the updated scene (default: in place)")
    gr.set_defaults(func=cmd_grasp)

    e = sub.add_parser("experiment", help="run a seeded grasp campaign")
    add_common(e, seed=True)
    e.set_defaults(func=cmd_experiment)

    c = sub.add_parser("compare", help="run the finger x filtering comparison grid")
    add_common(c, seed=True)
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
