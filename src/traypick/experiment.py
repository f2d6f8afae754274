"""Seeded grasp campaigns: repeated pick attempts, records, and summaries.

A campaign runs n attempts of the full pipeline (generate or continue a
scene, render depth and masks, corrupt masks, plan, execute) with per-attempt
seeds derived additively from the base seed, so campaigns are reproducible
bit-for-bit and extensible without reshuffling history. Campaigns that
differ only in finger and filtering run in lock step and share each
attempt's scene, observation and fitted candidates (common random numbers).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError, check_number, check_type, field_keys, read_object
from .graspsim import Classification, FingerKind, FingerModel, GraspOutcome, apply_outcome
# The outcome alone, under the name run_trial has always called it by, which
# benchmarks/tracing.py patches; the scene update is apply_outcome.
from .graspsim import grasp_outcome as execute_grasp
from .perception import (CorruptionParams, DepthImage, InstanceMaskSet, corrupt_masks,
                         render_depth, render_masks)
from .planner import MIN_FIT_PIXELS, FingerGeometry, Plan, check_finger, filter_plan, plan
from .scenegen import (SceneConfig, TrayScene, _max_semi_axis, copy_scene, generate_scene, mm_per_pixel,
                       raster_shape)

FRESH = "fresh_scene_each_attempt"
DEPLETE = "deplete_until_empty_then_refresh"


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
    finger_geometry: FingerGeometry = field(default_factory=FingerGeometry)
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
        for name, kind in (("corruption", CorruptionParams), ("finger_geometry", FingerGeometry)):
            check_type(name, getattr(self, name), kind)
        scene = self.scene_config()
        scene.validate()
        check_finger(self.finger_geometry, _max_semi_axis(scene.tray_dims))
        if scene.archetype != self.archetype:
            raise ParameterError(
                f"archetype {self.archetype!r} differs from scene.archetype {scene.archetype!r}"
            )
        self.corruption.validate(raster_shape(scene.tray_dims, scene.resolution))
        # Two trays on which the planner sees nothing, so every attempt would
        # record no-target. The smallest unjittered piece, |u/a|^n + |v/b|^n
        # < 1 with a and b at the low end of the scale range, covers
        # 4ab Gamma(1 + 1/n)^2 / Gamma(1 + 2/n) mm^2; below MIN_FIT_PIXELS no
        # mask of it can be fitted.
        arch = scene.archetypes[scene.archetype]
        res = mm_per_pixel(scene.tray_dims, scene.resolution)
        a, b = (s * arch.scale_range[0] for s in arch.semi_axes_mm)
        n = arch.exponent
        px = 4.0 * a * b * math.exp(2.0 * math.lgamma(1.0 + 1.0 / n) - math.lgamma(1.0 + 2.0 / n)) / res**2
        if not px >= MIN_FIT_PIXELS:
            raise ParameterError(f"the smallest {scene.archetype!r} piece covers {px:.3g} px at {res:.4g} mm "
                                 f"per pixel, fewer than the {MIN_FIT_PIXELS} px a mask needs to be fitted; "
                                 "lower resolution or shrink tray_dims")
        # render_depth's level of the tallest unjittered peak (top of the scale
        # range), as it computes levels (ceil(x) >= 1 iff x > 0): a peak that
        # keeps no level above 0 leaves a flat depth image.
        hi = arch.scale_range[1]
        peak = arch.dome_ratio * 0.5 * (arch.semi_axes_mm[0] * hi + arch.semi_axes_mm[1] * hi)
        if self.depth_quant > 0 and not peak / self.depth_quant - 0.5 > 0.0:
            raise ParameterError(f"depth_quant of {self.depth_quant} mm rounds the tallest {scene.archetype!r} "
                                 f"peak, {peak:.3g} mm, to 0 mm")

    def scene_config(self) -> SceneConfig:
        if self.scene is not None:
            return self.scene
        return SceneConfig(archetype=self.archetype)

    def finger_model(self) -> FingerModel:
        return FingerModel(kind=self.finger, geometry=self.finger_geometry)


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
    cfg: ExperimentConfig, scene: TrayScene, seed: int
) -> tuple[DepthImage, InstanceMaskSet, InstanceMaskSet | None]:
    """The camera stage of an attempt on scene: (depth, ground-truth masks,
    corrupted masks or None when corruption is off).

    Depth noise draws from stream (seed, 1) and corruption from (seed, 2);
    the streams are independent, so a generator is built only for a stage
    that draws.
    """
    depth_rng = np.random.default_rng((seed, 1)) if cfg.depth_sigma > 0 else None
    depth = render_depth(scene, cfg.depth_sigma, cfg.depth_quant, depth_rng)
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
    scenes, epochs = list(scenes), list(epochs)
    fresh = None
    for i, arm in enumerate(cfgs):
        if arm.refill_policy == FRESH or scenes[i] is None or not scenes[i].pieces:
            if fresh is None:
                fresh = generate_scene(cfg.scene_config(), seed)
            scenes[i] = fresh
            epochs[i] += 1

    plans: dict[tuple[int, bool], Plan] = {}
    for scene in {id(s): s for s in scenes}.values():
        depth, masks, corrupted = observe(cfg, scene, seed)
        args = (masks if corrupted is None else corrupted, depth, scene.archetypes[cfg.archetype],
                cfg.finger_geometry)
        settings = {arm.filtering for arm, s in zip(cfgs, scenes) if s is scene}
        if len(settings) == 1:
            (filtering,) = settings
            plans[id(scene), filtering] = plan(*args, filtering)
        else:  # one fit and derivation; filtering annotates copies of the candidates
            plans[id(scene), False] = plan(*args, False)
            plans[id(scene), True] = filter_plan(plans[id(scene), False], depth, cfg.finger_geometry)

    outcomes: dict[tuple[int, FingerKind, int], GraspOutcome] = {}
    records, carries, arm_outcomes = [], [], []
    for arm, scene, epoch in zip(cfgs, scenes, epochs):
        p = plans[id(scene), arm.filtering]
        outcome = None
        if p.target is not None:
            key = (id(scene), arm.finger, p.target.instance_id)
            if key not in outcomes:
                outcomes[key] = execute_grasp(scene, p.target, arm.finger_model())
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
