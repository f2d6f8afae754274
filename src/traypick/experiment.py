"""Seeded grasp campaigns: repeated pick attempts, records, and summaries.

A campaign runs n attempts of the full pipeline (generate or continue a
scene, render depth and masks, corrupt masks, plan, execute) with per-attempt
seeds derived additively from the base seed, so campaigns are reproducible
bit-for-bit and extensible without reshuffling history.
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
from .graspsim import Classification, FingerKind, FingerModel, execute_grasp
from .perception import (CorruptionParams, DepthImage, InstanceMaskSet, corrupt_masks,
                         render_depth, render_masks)
from .planner import FingerGeometry, check_finger, plan
from .scenegen import SceneConfig, TrayScene, _max_semi_axis, generate_scene, raster_shape

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

    With the fresh policy a new scene is generated every attempt; with the
    depleting policy the carried scene is reused until it runs out of pieces
    or yields no target, then refreshed with the attempt's seed.
    """
    cfg.validate()
    seed = cfg.base_seed + attempt_idx
    if cfg.refill_policy == FRESH or scene is None or not scene.pieces:
        scene = generate_scene(cfg.scene_config(), seed)
        epoch += 1

    depth, masks, corrupted = observe(cfg, scene, seed)
    arch = scene.archetypes[cfg.archetype]
    p = plan(masks if corrupted is None else corrupted, depth, arch, cfg.finger_geometry,
             cfg.filtering)
    retained = sum(not c.filtered for c in p.candidates)  # all of them when unfiltered
    outcome = None if p.target is None else execute_grasp(scene, p.target, cfg.finger_model())
    record = TrialRecord(
        attempt=attempt_idx,
        seed=seed,
        epoch=epoch,
        candidate_count=len(p.candidates),
        retained_count=retained,
        target_id=None if p.target is None else p.target.instance_id,
        classification=(Classification.FAILURE if outcome is None else outcome.classification).value,
        picked=[] if outcome is None else sorted(outcome.picked),
        damaged=[] if outcome is None else sorted(outcome.damaged),
        reason="no-target" if p.target is None else "",
    )
    # a depleting campaign must not retry the same dead scene forever
    carry = None if p.target is None and cfg.refill_policy == DEPLETE else scene
    return record, carry, epoch


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
    cfg.validate()
    records: list[TrialRecord] = []
    scene: TrayScene | None = None
    epoch = 0
    for idx in range(cfg.n_attempts):
        record, scene, epoch = run_trial(cfg, idx, scene, epoch)
        records.append(record)
    summary = summarize(records)
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_records(records, out / "records.jsonl")
        (out / "summary.csv").write_text(summary_csv([("campaign", cfg, summary)]))
    return summary, records


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
    grid: dict[tuple[str, bool], SummaryStats] = {}
    rows = []
    for finger in (FingerKind.ADAPTIVE, FingerKind.FIXED):
        for filtering in (True, False):
            out = (str(Path(base.output_dir) / f"{finger.value}_{'on' if filtering else 'off'}")
                   if base.output_dir else None)
            cfg = replace(base, finger=finger, filtering=filtering, output_dir=out)
            summary, _ = run_experiment(cfg)
            grid[finger.value, filtering] = summary
            rows.append((f"{finger.value}/{'filter' if filtering else 'nofilter'}", cfg, summary))
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
