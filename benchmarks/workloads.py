"""The benchmark's workloads: what one op is, and how its output is checked.

Every op's inputs are a pure function of (workload seed, op index): op i of
a run with seed s uses program seed ``s * SEED_STRIDE + i``. The warm-up op
uses index WARMUP_INDEX, outside any timed range.

Program functions are looked up as module attributes at call time
(``experiment.run_trial``, ``scenegen.generate_scene``, ...) so that a traced
run's patches take effect.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from traypick import experiment, perception, scenegen
from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.graspsim import Classification, FingerKind
from traypick.grids import heights_to_levels
from traypick.perception import CorruptionParams

SEED_STRIDE = 100_000
WARMUP_INDEX = SEED_STRIDE - 1
# Ops of a timed campaign that run_experiment re-runs to show the
# benchmark's loop produces the same records.
LOOP_CHECK_OPS = 8

CAMPAIGNS = {
    # acceptance check [5b]'s config: many small pieces, merged masks
    "campaign-dense": dict(
        archetype="mushroom",
        finger=FingerKind.FIXED,
        filtering=True,
        corruption=CorruptionParams(merge_prob=0.3),
    ),
    # no corruption, noisy quantized depth, adaptive finger
    "campaign-sparse": dict(
        archetype="fried_chicken",
        finger=FingerKind.ADAPTIVE,
        filtering=True,
        depth_sigma=0.5,
        depth_quant=0.25,
    ),
}

DATASET_CORRUPTION = CorruptionParams(boundary_jitter=1, merge_prob=0.2, drop_prob=0.05)

WORKLOADS = (*CAMPAIGNS, "dataset-eval")


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


class Campaign:
    """An op is one pick attempt: ``run_trial`` in the loop ``run_experiment``
    runs, on the fresh-scene refill policy."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.cfg = experiment.ExperimentConfig(
            **CAMPAIGNS[name],
            refill_policy=experiment.FRESH,
            base_seed=seed * SEED_STRIDE,
        )
        self.cfg.validate()
        self.workdir = workdir
        self.reset()

    def reset(self) -> None:
        self.scene = None
        self.epoch = 0

    def warm_up(self) -> None:
        experiment.run_trial(self.cfg, WARMUP_INDEX)

    def run_op(self, i: int):
        record, self.scene, self.epoch = experiment.run_trial(
            self.cfg, i, self.scene, self.epoch
        )
        return record

    def after_op(self, i: int, record) -> tuple[object, str, str | None, int]:
        """Untimed: (what persist and loop_check need, output line, problem
        or None, bytes written)."""
        return record, record.to_json(), _record_problem(self.cfg, i, record), 0

    def persist(self, records: list) -> None:
        experiment.write_records(records, self.workdir / "records.jsonl")

    def loop_check(self, records: list) -> dict[int, str]:
        """Records from run_experiment on the same config must equal the
        loop's, record by record and as records.jsonl bytes."""
        n = min(len(records), LOOP_CHECK_OPS)
        out = self.workdir / "loop_check"
        cfg = dataclasses.replace(self.cfg, n_attempts=n, output_dir=str(out))
        _, ref = experiment.run_experiment(cfg)
        problems = {
            i: "differs from run_experiment"
            for i in range(n)
            if ref[i].to_json() != records[i].to_json()
        }
        written = (self.workdir / "records.jsonl").read_bytes().splitlines(keepends=True)
        if (out / "records.jsonl").read_bytes() != b"".join(written[:n]) and not problems:
            problems[0] = "records.jsonl differs from run_experiment's"
        return problems

    def reference_outputs(self, seed: int, n: int) -> tuple[list[str], str, dict[int, str]]:
        """run_experiment's records at another workload seed: (lines,
        SHA-256 of records.jsonl, problems)."""
        out = self.workdir / f"reference_{seed}"
        cfg = dataclasses.replace(
            self.cfg, base_seed=seed * SEED_STRIDE, n_attempts=n, output_dir=str(out)
        )
        _, records = experiment.run_experiment(cfg)
        raw = (out / "records.jsonl").read_bytes()
        lines = raw.decode().splitlines()
        problems = {
            i: p for i, r in enumerate(records) if (p := _record_problem(cfg, i, r))
        }
        if lines != [r.to_json() for r in records]:
            problems[-1] = "records.jsonl lines differ from the returned records"
        return lines, hashlib.sha256(raw).hexdigest(), problems


def _record_problem(cfg, i: int, r) -> str | None:
    """Invariants every fresh-policy trial record satisfies."""
    expected = {
        Classification.FAILURE.value: 0,
        Classification.SUCCESS_SINGLE.value: 1,
    }
    if r.attempt != i or r.seed != cfg.base_seed + i or r.epoch != i + 1:
        return f"attempt/seed/epoch {r.attempt}/{r.seed}/{r.epoch} for op {i}"
    if r.classification in expected:
        if len(r.picked) != expected[r.classification]:
            return f"{r.classification} with {len(r.picked)} picked"
    elif r.classification != Classification.SUCCESS_MULTIPLE.value or len(r.picked) < 2:
        return f"{r.classification} with {len(r.picked)} picked"
    if (r.target_id is None) != (r.reason == "no-target"):
        return f"target {r.target_id} with reason {r.reason!r}"
    if r.picked and r.target_id not in r.picked:
        return f"target {r.target_id} not among picked {r.picked}"
    if not 0 <= r.retained_count <= r.candidate_count:
        return f"retained {r.retained_count} of {r.candidate_count} candidates"
    if r.picked != sorted(r.picked) or r.damaged != sorted(r.damaged):
        return "picked/damaged not sorted"
    return None


class DatasetEval:
    """An op is one scene through the dataset-export and segmentation-eval
    chain: generate -> save -> load -> render masks -> corrupt -> agreement
    against ground truth -> save masks -> load masks. Archetypes cycle with
    the op index."""

    ARCHETYPES = tuple(DEFAULT_ARCHETYPES)

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.base = seed * SEED_STRIDE
        self.workdir = workdir
        self.scene_configs = [scenegen.SceneConfig(archetype=a) for a in self.ARCHETYPES]

    def reset(self) -> None:
        pass

    def warm_up(self) -> None:
        self._op(self.base + WARMUP_INDEX, 0)
        shutil.rmtree(self.workdir / "op")

    def run_op(self, i: int):
        return self._op(self.base + i, i)

    def _op(self, seed: int, i: int):
        out = self.workdir / "op"
        scene = scenegen.generate_scene(self.scene_configs[i % len(self.ARCHETYPES)], seed)
        scenegen.save_scene(scene, out)
        loaded = scenegen.load_scene(out)
        gt = perception.render_masks(loaded)
        pred = perception.corrupt_masks(gt, DATASET_CORRUPTION, np.random.default_rng((seed, 2)))
        score = perception.agreement(pred, gt)
        manifest = perception.save_masks(pred, out)
        back = perception.load_masks(manifest)
        return scene, loaded, pred, back, score

    def after_op(self, i: int, result) -> tuple[object, str, str | None, int]:
        scene, loaded, pred, back, score = result
        out = self.workdir / "op"
        written = sum(f.stat().st_size for f in out.iterdir())
        shutil.rmtree(out)
        problem = _round_trip_problem(scene, loaded, pred, back, score)
        return None, _score_line(score), problem, written

    def persist(self, results: list) -> None:
        pass

    def loop_check(self, results: list) -> dict[int, str]:
        return {}

    def reference_outputs(self, seed: int, n: int) -> tuple[list[str], str, dict[int, str]]:
        base, self.base = self.base, seed * SEED_STRIDE
        try:
            lines, problems = [], {}
            for i in range(n):
                _, line, problem, _ = self.after_op(i, self.run_op(i))
                lines.append(line)
                if problem:
                    problems[i] = problem
        finally:
            self.base = base
        return lines, sha256_lines(lines), problems


def _score_line(score) -> str:
    return json.dumps({"value": score.value, "per_threshold": list(score.per_threshold.values())})


def _round_trip_problem(scene, loaded, pred, back, score) -> str | None:
    """Scene and mask files must round-trip exactly."""
    if sorted(scene.pieces) != sorted(loaded.pieces):
        return "piece ids changed through save/load_scene"
    if not np.array_equal(heights_to_levels(scene.heightmap), heights_to_levels(loaded.heightmap)):
        return "heightmap levels changed through save/load_scene"
    if not np.array_equal(scene.owner_map, loaded.owner_map):
        return "owner map changed through save/load_scene"
    if back.ids() != pred.ids() or back.source != pred.source:
        return "mask ids changed through save/load_masks"
    if back.confidences != pred.confidences:
        return "mask confidences changed through save/load_masks"
    for (_, a), (_, b) in zip(pred.masks, back.masks):
        if not np.array_equal(a, b):
            return "mask pixels changed through save/load_masks"
    if not 0.0 <= score.value <= 1.0:
        return f"agreement {score.value} outside [0, 1]"
    return None


def make(name: str, seed: int, workdir: Path):
    if name in CAMPAIGNS:
        return Campaign(name, seed, workdir)
    return DatasetEval(name, seed, workdir)
