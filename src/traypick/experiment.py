"""Seeded grasp campaigns: repeated pick attempts, records, and summaries.

A campaign runs n attempts of the full pipeline (generate or continue a
scene, render depth and masks, corrupt masks, plan, execute) with per-attempt
seeds derived additively from the base seed, so campaigns are reproducible
bit-for-bit and extensible without reshuffling history. Campaigns that
differ only in finger and filtering run in lock step and share each
attempt's scene, observation and fitted candidates (common random numbers).

An attempt with depth noise that generates a tray draws the noise on one
worker thread while the tray is generated: the draw has its own stream,
(seed, 1), so it does not depend on the tray, and numpy releases the
interpreter lock while it fills the raster. The worker runs that numpy call
alone; it starts at the first such attempt, and each attempt joins its draw
before it returns, so nothing runs between attempts. An attempt that only
continues scenes has nothing to overlap, and observe draws its noise itself.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, check_number, check_type, field_keys, read_object
from .graspsim import Classification, FingerKind, GraspOutcome, apply_outcome
# The outcome alone, under the name run_trial has always called it by, which
# benchmarks/tracing.py patches; the scene update is apply_outcome.
from .graspsim import grasp_outcome as execute_grasp
from .perception import (CorruptionParams, DepthImage, InstanceMaskSet, corrupt_masks,
                         render_depth, render_masks)
from .planner import FINGER_BREADTH, MIN_FIT_PIXELS, Plan, filter_plan, plan
from .scenegen import (SceneConfig, TrayScene, _max_semi_axis, _piece_shape, copy_scene, generate_scene,
                       mm_per_pixel, raster_shape)

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

FRESH = "fresh_scene_each_attempt"
DEPLETE = "deplete_until_empty_then_refresh"

# The one thread that draws attempts' depth noise, made at the first noisy
# attempt. A forked child does not inherit the thread, so it starts afresh:
# a submit to the parent's executor would wait forever.
_noise_worker: ThreadPoolExecutor | None = None


def _forget_noise_worker() -> None:
    global _noise_worker
    _noise_worker = None


if hasattr(os, "register_at_fork"):  # no fork, and no such call, on Windows
    os.register_at_fork(after_in_child=_forget_noise_worker)


def _depth_noise(seed: int, out: np.ndarray) -> np.ndarray:
    """out filled with attempt seed's depth-noise draws, stream (seed, 1): the worker's whole job."""
    return np.random.default_rng((seed, 1)).standard_normal(out=out)


def _submit_noise(seed: int, shape: tuple[int, int]) -> Future:
    global _noise_worker
    if _noise_worker is None:
        # imported here, so a process that never draws on the worker never
        # loads it (~0.7 MB of RSS and ~5 ms)
        from concurrent.futures import ThreadPoolExecutor
        _noise_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="traypick-depth-noise")
    # the raster is allocated on this thread: the worker's own array read no
    # lower peak RSS and ~3% fewer campaign-sparse ops/s
    return _noise_worker.submit(_depth_noise, seed, np.empty(shape))


@dataclass
class ExperimentConfig:
    archetype: str = SceneConfig.archetype
    finger: FingerKind = FingerKind.ADAPTIVE
    filtering: bool = True
    n_attempts: int = 50
    base_seed: int = 0
    refill_policy: str = DEPLETE
    depth_sigma: float = 0.0
    depth_quant: float = 0.0
    corruption: CorruptionParams = field(default_factory=CorruptionParams)
    scene: SceneConfig | None = None
    output_dir: str | None = None

    def validate(self) -> None:
        """Check every field's type and range, the nested parameter sets' too."""
        check_type("finger", self.finger, FingerKind)
        check_type("filtering", self.filtering, bool)
        check_number("n_attempts", self.n_attempts, integral=True, low=1)
        check_number("base_seed", self.base_seed, integral=True, low=0)
        if self.refill_policy not in (FRESH, DEPLETE):
            raise ParameterError(f"unknown refill policy {self.refill_policy!r}")
        check_number("depth_sigma", self.depth_sigma, low=0, finite=True)
        check_number("depth_quant", self.depth_quant, low=0, finite=True)
        check_type("output_dir", self.output_dir, (str, type(None)))
        check_type("scene", self.scene, (SceneConfig, type(None)))
        check_type("corruption", self.corruption, CorruptionParams)
        scene = self.scene_config()
        scene.validate()
        # the finger's largest size, so no contact rectangle is longer than the tray
        side = _max_semi_axis(scene.tray_dims)
        if FINGER_BREADTH > side:
            raise ParameterError(f"the finger's {FINGER_BREADTH} mm breadth is longer than the tray's "
                                 f"{side} mm side")
        if scene.archetype != self.archetype:
            raise ParameterError(
                f"archetype {self.archetype!r} differs from scene.archetype {scene.archetype!r}"
            )
        shape = raster_shape(scene.tray_dims, scene.resolution)
        self.corruption.validate(shape)
        # Trays on which the planner sees nothing, so every attempt would
        # record no-target. On a raster one pixel across, every mask's pixels
        # share that row or column, so no mask has a full-rank covariance.
        res = mm_per_pixel(scene.tray_dims, scene.resolution)
        if min(shape) < 2:
            i = 1 if shape[0] < 2 else 0
            raise ParameterError(f"tray_dims[{i}] of {scene.tray_dims[i]} mm is 1 px at {res:.4g} mm per pixel, "
                                 "and no mask one pixel across can be fitted; lower resolution or widen the tray")
        # The smallest unjittered piece, |u/a|^n + |v/b|^n < 1 with a and b at
        # the low end of the scale range, covers 4ab Gamma(1 + 1/n)^2 /
        # Gamma(1 + 2/n) mm^2; below MIN_FIT_PIXELS no mask of it can be fitted.
        arch = scene.archetypes[scene.archetype]
        a, b, n, _, _ = _piece_shape(arch, arch.scale_range[0], 0.0, (0.0, 0.0, 0.0))
        px = 4.0 * a * b * math.exp(2.0 * math.lgamma(1.0 + 1.0 / n) - math.lgamma(1.0 + 2.0 / n)) / res**2
        if not px >= MIN_FIT_PIXELS:
            raise ParameterError(f"the smallest {scene.archetype!r} piece covers {px:.3g} px at {res:.4g} mm "
                                 f"per pixel, fewer than the {MIN_FIT_PIXELS} px a mask needs to be fitted; "
                                 "lower resolution or shrink tray_dims")
        # render_depth's level of the tallest unjittered peak (top of the scale
        # range), as it computes levels (ceil(x) >= 1 iff x > 0): a peak that
        # keeps no level above 0 leaves a flat depth image.
        peak = _piece_shape(arch, arch.scale_range[1], 0.0, (0.0, 0.0, 0.0))[3]
        if self.depth_quant > 0 and not peak / self.depth_quant - 0.5 > 0.0:
            raise ParameterError(f"depth_quant of {self.depth_quant} mm rounds the tallest {scene.archetype!r} "
                                 f"peak, {peak:.3g} mm, to 0 mm")

    def scene_config(self) -> SceneConfig:
        if self.scene is not None:
            return self.scene
        return SceneConfig(archetype=self.archetype)


@dataclass
class TrialRecord:
    attempt: int
    seed: int
    epoch: int  # scene generation counter; piece ids are unique per epoch
    candidate_count: int
    retained_count: int
    target_id: int | None
    classification: str
    picked: list[int]
    damaged: list[int]
    reason: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class SummaryStats:
    n_attempts: int
    success_single_rate: float
    success_incl_multiple_rate: float
    multi_pick_rate: float
    damaged_piece_total: int
    no_target_count: int


def observe(
    cfg: ExperimentConfig, scene: TrayScene, seed: int,
    noise: Future | None = None, copy_noise: bool = False,
) -> tuple[DepthImage, InstanceMaskSet, InstanceMaskSet | None]:
    """The camera stage of an attempt on scene: (depth, ground-truth masks,
    corrupted masks or None when corruption is off).

    Depth noise draws from stream (seed, 1) and corruption from (seed, 2);
    the streams are independent, so a generator is built only for a stage
    that draws. noise, when given, is that depth draw already submitted to
    the worker (_submit_noise) by an attempt that generates a tray: observe
    waits for it, and render_depth renders into the draws, or into a copy
    of them with copy_noise, which keeps them for another scene of the same
    attempt. A worker's exception is raised here.
    """
    if noise is None:
        depth_rng = np.random.default_rng((seed, 1)) if cfg.depth_sigma > 0 else None
        depth = render_depth(scene, cfg.depth_sigma, cfg.depth_quant, depth_rng)
    else:
        draws = noise.result()
        depth = render_depth(scene, cfg.depth_sigma, cfg.depth_quant,
                             noise=draws.copy() if copy_noise else draws)
    masks = render_masks(scene)
    if cfg.corruption.is_identity:
        return depth, masks, None
    return depth, masks, corrupt_masks(masks, cfg.corruption, np.random.default_rng((seed, 2)))


def run_trial(
    cfg: ExperimentConfig,
    attempt_idx: int,
    scene: TrayScene | None = None,
    epoch: int = 0,
) -> tuple[TrialRecord, TrayScene | None, int]:
    """One pick attempt. Returns (record, scene-to-carry, epoch).

    With the fresh policy a new scene is generated every attempt and none is
    carried: the grasp's outcome is computed and the tray is left as it was
    generated. With the depleting policy the carried scene is reused, with
    each grasp's changes made to it (apply_outcome), until it runs out of
    pieces or yields no target, then refreshed with the attempt's seed.
    """
    cfg.validate()
    ((record, carry, epoch),) = _attempt([cfg], attempt_idx, [scene], [epoch])
    return record, carry, epoch


def _attempt(
    cfgs: list[ExperimentConfig], attempt_idx: int, scenes: list[TrayScene | None], epochs: list[int]
) -> list[tuple[TrialRecord, TrayScene | None, int]]:
    """run_trial for each of campaigns that differ only in finger, filtering
    and output_dir, on each one's carried scene and epoch, in lock step.

    Campaigns that refresh share the attempt's one fresh scene, and
    campaigns holding the same scene object share its observation, its
    fitted and derived candidates, one plan per filtering setting and one
    outcome per finger. Every outcome is computed before any scene changes;
    a depleting campaign then changes a copy of a scene another campaign
    still holds.
    """
    cfg = cfgs[0]
    seed = cfg.base_seed + attempt_idx
    refresh = [arm.refill_policy == FRESH or s is None or not s.pieces for arm, s in zip(cfgs, scenes)]
    # The depth noise of an attempt that generates a tray, drawn on the worker
    # meanwhile; observe joins it. The other scenes such an attempt observes
    # came from the same tray config (run_campaigns), so all share its shape.
    noise = fresh = None
    if any(refresh):
        scene_cfg = cfg.scene_config()
        if cfg.depth_sigma > 0:
            noise = _submit_noise(seed, raster_shape(scene_cfg.tray_dims, scene_cfg.resolution))
        fresh = generate_scene(scene_cfg, seed)
    scenes = [fresh if r else s for r, s in zip(refresh, scenes)]
    epochs = [e + r for e, r in zip(epochs, refresh)]

    plans: dict[tuple[int, bool], Plan] = {}
    distinct = list({id(s): s for s in scenes}.values())
    for k, scene in enumerate(distinct):
        # every scene gets the same draws; render_depth writes into them
        depth, masks, corrupted = observe(cfg, scene, seed, noise, copy_noise=k < len(distinct) - 1)
        args = (masks if corrupted is None else corrupted, depth, scene.archetypes[cfg.archetype])
        settings = {arm.filtering for arm, s in zip(cfgs, scenes) if s is scene}
        if len(settings) == 1:
            (filtering,) = settings
            plans[id(scene), filtering] = plan(*args, filtering)
        else:  # one fit and derivation; filtering annotates copies of the candidates
            plans[id(scene), False] = plan(*args, False)
            plans[id(scene), True] = filter_plan(plans[id(scene), False], depth)

    outcomes: dict[tuple[int, FingerKind, int], GraspOutcome] = {}
    records, carries, arm_outcomes = [], [], []
    for arm, scene, epoch in zip(cfgs, scenes, epochs):
        p = plans[id(scene), arm.filtering]
        outcome = None
        if p.target is not None:
            key = (id(scene), arm.finger, p.target.instance_id)
            if key not in outcomes:
                outcomes[key] = execute_grasp(scene, p.target, arm.finger)
            outcome = outcomes[key]
        records.append(TrialRecord(
            attempt=attempt_idx,
            seed=seed,
            epoch=epoch,
            candidate_count=len(p.candidates),
            retained_count=sum(not c.filtered for c in p.candidates),  # all of them when unfiltered
            target_id=None if p.target is None else p.target.instance_id,
            classification=(Classification.FAILURE if outcome is None else outcome.classification).value,
            picked=[] if outcome is None else sorted(outcome.picked),
            damaged=[] if outcome is None else sorted(outcome.damaged),
            reason="no-target" if p.target is None else "",
        ))
        # a depleting campaign must not retry the same dead scene forever
        carries.append(None if arm.refill_policy == FRESH or outcome is None else scene)
        arm_outcomes.append(outcome)

    for i, outcome in enumerate(arm_outcomes):
        if carries[i] is not None and (outcome.picked or outcome.damaged):
            if sum(carry is carries[i] for carry in carries) > 1:  # another campaign holds it too
                carries[i] = copy_scene(carries[i])
            apply_outcome(carries[i], outcome)
    return list(zip(records, carries, epochs))


def summarize(records: list[TrialRecord]) -> SummaryStats:
    n = len(records)
    single = sum(r.classification == Classification.SUCCESS_SINGLE.value for r in records)
    multiple = sum(
        r.classification == Classification.SUCCESS_MULTIPLE.value for r in records
    )
    # Table-style damage counting: pieces, not events, deduplicated per epoch
    damaged = {(r.epoch, pid) for r in records for pid in r.damaged}
    return SummaryStats(
        n_attempts=n,
        success_single_rate=single / n,
        success_incl_multiple_rate=(single + multiple) / n,
        multi_pick_rate=multiple / n,
        damaged_piece_total=len(damaged),
        no_target_count=sum(r.reason == "no-target" for r in records),
    )


def run_experiment(cfg: ExperimentConfig) -> tuple[SummaryStats, list[TrialRecord]]:
    """Run a full campaign; optionally persist records (JSONL) and summary (CSV)."""
    return run_campaigns([cfg])[0]


def run_campaigns(cfgs: list[ExperimentConfig]) -> list[tuple[SummaryStats, list[TrialRecord]]]:
    """run_experiment for each of campaigns that differ only in finger,
    filtering and output_dir, run in lock step so that they share each
    attempt's work on a scene they hold alike (_attempt). Returns each
    campaign's (summary, records), equal to its own run_experiment's; a
    list of campaigns that differ in any other field raises ParameterError.
    """
    for cfg in cfgs:
        cfg.validate()
    base = cfgs[0]
    for cfg in cfgs:
        if replace(cfg, finger=base.finger, filtering=base.filtering, output_dir=base.output_dir) != base:
            raise ParameterError("campaigns run together may differ only in finger, filtering and output_dir")
    records: list[list[TrialRecord]] = [[] for _ in cfgs]
    scenes: list[TrayScene | None] = [None] * len(cfgs)
    epochs = [0] * len(cfgs)
    for idx in range(base.n_attempts):
        for i, (record, scenes[i], epochs[i]) in enumerate(_attempt(cfgs, idx, scenes, epochs)):
            records[i].append(record)
    results = []
    for cfg, recs in zip(cfgs, records):
        summary = summarize(recs)
        if cfg.output_dir:
            out = Path(cfg.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_records(recs, out / "records.jsonl")
            (out / "summary.csv").write_text(summary_csv([("campaign", cfg, summary)]))
        results.append((summary, recs))
    return results


def write_records(records: list[TrialRecord], path: str | Path) -> None:
    with open(path, "w") as f:
        for r in records:
            f.write(r.to_json())
            f.write("\n")


def read_records(path: str | Path) -> list[TrialRecord]:
    """The records of a write_records file, which is outside input: a file
    that is not UTF-8, or a line that is not a JSON object holding every
    TrialRecord field (reason may be left out) and no other key, raises
    ParameterError naming the file or the line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise ParameterError(f"{path} is not UTF-8: {e}") from None
    records = []
    for n, line in enumerate(lines, 1):
        if line.strip():
            where = f"{path} line {n}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParameterError(f"{where} is not JSON: {e}") from None
            records.append(TrialRecord(**read_object(doc, where, *field_keys(TrialRecord))))
    return records


def summary_csv(rows: list[tuple[str, ExperimentConfig, SummaryStats]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["label", "archetype", "finger", "filtering", *(f.name for f in fields(SummaryStats))])
    for label, cfg, s in rows:
        w.writerow([label, cfg.archetype, cfg.finger.value, cfg.filtering,
                    *(f"{v:.4f}" if isinstance(v, float) else v for v in astuple(s))])
    return buf.getvalue()


def compare_conditions(
    base: ExperimentConfig,
) -> tuple[str, dict[tuple[str, bool], SummaryStats]]:
    """Run base under each finger (adaptive, fixed) with filtering on then off.

    With base.output_dir set, each campaign persists to
    <output_dir>/<finger>_<on|off> and the table to
    <output_dir>/comparison.csv. Returns (CSV: one row per condition, then
    each finger's filtering-on minus -off deltas; grid keyed by
    (finger, filtering)).
    """
    base.validate()
    cfgs = [
        replace(base, finger=finger, filtering=filtering,
                output_dir=(str(Path(base.output_dir) / f"{finger.value}_{'on' if filtering else 'off'}")
                            if base.output_dir else None))
        for finger in (FingerKind.ADAPTIVE, FingerKind.FIXED) for filtering in (True, False)
    ]
    grid: dict[tuple[str, bool], SummaryStats] = {}
    rows = []
    for cfg, (summary, _) in zip(cfgs, run_campaigns(cfgs)):
        grid[cfg.finger.value, cfg.filtering] = summary
        rows.append((f"{cfg.finger.value}/{'filter' if cfg.filtering else 'nofilter'}", cfg, summary))
    csv_text = summary_csv(rows)
    for finger in (FingerKind.ADAPTIVE.value, FingerKind.FIXED.value):
        on, off = grid[finger, True], grid[finger, False]
        csv_text += (
            f"delta_{finger},success_single,{on.success_single_rate - off.success_single_rate:+.4f},"
            f"multi_pick,{on.multi_pick_rate - off.multi_pick_rate:+.4f},"
            f"damaged,{on.damaged_piece_total - off.damaged_piece_total:+d}\n"
        )
    if base.output_dir:
        Path(base.output_dir).mkdir(parents=True, exist_ok=True)
        (Path(base.output_dir) / "comparison.csv").write_text(csv_text)
    return csv_text, grid


def paired_success_pvalue(
    records_a: list[TrialRecord],
    records_b: list[TrialRecord],
    success=Classification.SUCCESS_SINGLE,
) -> float:
    """One-sided McNemar exact test that condition A succeeds more than B on
    paired attempts (same seeds). Small p favors A."""
    if len(records_a) != len(records_b):
        raise ParameterError("paired campaigns must have equal length")
    a_only = b_only = 0
    for ra, rb in zip(records_a, records_b):
        sa = ra.classification == success.value
        sb = rb.classification == success.value
        if sa and not sb:
            a_only += 1
        elif sb and not sa:
            b_only += 1
    n = a_only + b_only
    if n == 0:
        return 1.0
    # exact binomial tail P(X >= a_only), X ~ Bin(n, 1/2), as a rounded integer ratio
    return sum(math.comb(n, k) for k in range(a_only, n + 1)) / 2**n
