"""Grasp execution on a tray scene with fixed or adaptive fingers.

Insertion is purely vertical at the planned height. Fixed fingers plough
through whatever stands above the insertion height, recording penetration
per contacted piece; adaptive fingers retract against a spring (up to the
retraction budget) and record the spring force instead. A capture rule then
decides which pieces leave the tray, and lateral closure contact can damage
pieces left behind.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_type
from .planner import (FingerGeometry, GraspCandidate, _contact_rectangles, _finger_half_sizes,
                      _rectangle_pixels, check_finger, median)
from .scenegen import TrayScene, _max_semi_axis, recompose, visible_window


class FingerKind(enum.Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


RETRACTION_BUDGET = 22.5  # mm an adaptive finger retracts at most
MAX_FORCE = 4.1  # N of spring force at full retraction
# The capture model's own thresholds; the paper gives none.
PIERCE_BLOCK = 15.0  # mm of fixed-finger penetration that blocks
GRASP_DEPTH_MARGIN = 5.0  # mm below the target median needed to hold
CAPTURE_FRACTION = 0.6  # of the target's visible mask inside the jaw
MULTIPICK_FRACTION = 0.5  # of a neighbor's visible mask inside the jaw


@dataclass
class FingerModel:
    kind: FingerKind = FingerKind.ADAPTIVE
    geometry: FingerGeometry = field(default_factory=FingerGeometry)

    def validate(self, side: float) -> None:
        """ParameterError for a kind that is no FingerKind or a geometry
        planner.check_finger refuses on a tray whose longer side is side mm."""
        check_type("kind", self.kind, FingerKind)
        check_finger(self.geometry, side)


@dataclass
class FingerInsertion:
    commanded: float  # mm, tray-frame insertion height h
    achieved: float  # mm, bottom height actually reached
    retraction: float  # mm (fixed: always 0)
    contacts: dict[int, float]  # piece id -> penetration mm (fixed) or force N (adaptive)
    blocked: bool


@dataclass
class InsertionResult:
    fingers: tuple[FingerInsertion, FingerInsertion]
    damaged: dict[int, float]  # piece id -> damage magnitude

    @property
    def blocked(self) -> bool:
        return self.fingers[0].blocked or self.fingers[1].blocked


class Classification(enum.Enum):
    SUCCESS_SINGLE = "success_single"
    SUCCESS_MULTIPLE = "success_multiple"
    FAILURE = "failure"


@dataclass
class GraspOutcome:
    classification: Classification
    picked: list[int]
    damaged: dict[int, float]
    insertion: InsertionResult


def _piece_tops(scene: TrayScene, region: np.ndarray) -> dict[int, float]:
    """Each piece's highest height among the flat raster indices region, by
    ascending id."""
    owners = scene.owner_map.take(region)
    heights = scene.heightmap.take(region)
    return {int(pid): float(heights[owners == pid].max()) for pid in np.unique(owners) if pid != 0}


def _magnitude(fm: FingerModel, overlap: float) -> float:
    """A contact's magnitude for an overlap of mm above the finger bottom:
    the penetration itself for a fixed finger, the spring force at the
    retraction it asks for (capped at the budget) for an adaptive one."""
    fixed = fm.kind is FingerKind.FIXED
    return overlap if fixed else MAX_FORCE / RETRACTION_BUDGET * min(overlap, RETRACTION_BUDGET)


def _insert_one(scene: TrayScene, region: np.ndarray, h: float, fm: FingerModel) -> FingerInsertion:
    """Every piece standing above h is a contact. A fixed finger penetrates
    each by its own overlap; an adaptive one retracts by the tallest
    obstruction, so all its contacts take the same force."""
    if not region.size:
        return FingerInsertion(h, h, 0.0, {}, False)
    obstruction = max(0.0, float(np.maximum.reduce(scene.heightmap.take(region))) - h)
    fixed = fm.kind is FingerKind.FIXED
    contacts = {pid: _magnitude(fm, top - h if fixed else obstruction)
                for pid, top in _piece_tops(scene, region).items() if top > h}
    if fixed:
        return FingerInsertion(h, h, 0.0, contacts, max(contacts.values(), default=0.0) > PIERCE_BLOCK)
    retraction = min(obstruction, RETRACTION_BUDGET)
    return FingerInsertion(h, h + retraction, retraction, contacts, obstruction > RETRACTION_BUDGET)


def _damage(
    scene: TrayScene, fm: FingerModel, pid: int, magnitude: float, damaged: dict[int, float]
) -> None:
    """Max-merge magnitude into damaged[pid] when it exceeds the piece's
    threshold for this finger: damage_tolerance (mm of penetration) for a
    fixed finger, fragility_force (N of spring force) for an adaptive one.
    An id that names no piece is skipped."""
    piece = scene.pieces.get(pid)
    if piece is None:
        return
    arch = scene.archetypes[piece.archetype]
    threshold = arch.damage_tolerance if fm.kind is FingerKind.FIXED else arch.fragility_force
    if magnitude > threshold:
        damaged[pid] = max(damaged.get(pid, 0.0), magnitude)


def _grasp_regions(scene: TrayScene, c: GraspCandidate, fg: FingerGeometry) -> list[np.ndarray]:
    """Flat raster indices of a grasp's four rectangles, in one
    _rectangle_pixels call: the two contact rectangles (as filter_grasps
    rasterizes them), the jaw, the rectangle between them, and the sweep,
    the full closure corridor including the finger start positions.

    A gripped piece is held even where it overhangs the fingers lengthwise,
    so the jaw and sweep span the piece's own major extent when that
    exceeds the finger breadth; both share the candidate's centre and axis.
    None of the four depends on the insertion."""
    res = scene.resolution
    hl, hb = _finger_half_sizes(fg, res)
    jaw_mm = c.w / 2.0 + fg.clearance
    held = max(hb, c.axis_major / 2.0)
    centre = (c.x, c.y, math.cos(c.theta), math.sin(c.theta))
    rects = [*_contact_rectangles(c, fg, res), centre, centre]
    half_len = [hl, hl, jaw_mm / res, (jaw_mm + fg.width) / res]
    half_breadth = [hb, hb, held, held]
    flat, counts = _rectangle_pixels(scene.shape, rects, half_len, half_breadth)
    stops = np.cumsum(counts).tolist()
    return [flat[stop - n : stop] for stop, n in zip(stops, counts.tolist())]


def insert_fingers(
    scene: TrayScene, c: GraspCandidate, fm: FingerModel, regions: list[np.ndarray] | None = None
) -> InsertionResult:
    """Insert both fingers vertically at the candidate's contact regions.

    A finger whose rectangle reaches past the tray interior hits the tray
    wall and blocks outright. A contact damages its piece when its
    magnitude exceeds the piece's threshold for this finger (_damage). A
    finger model that fails its validation on the scene's tray raises
    ParameterError. regions is _grasp_regions' list for this candidate and
    finger, when the caller has it; only its contact rectangles are read.
    """
    fm.validate(_max_semi_axis(scene.tray_dims))
    ny, nx = scene.shape
    hl, hb = _finger_half_sizes(fm.geometry, scene.resolution)
    if regions is None:
        regions = _grasp_regions(scene, c, fm.geometry)
    fins = []
    for (cx, cy, ux, uy), region in zip(_contact_rectangles(c, fm.geometry, scene.resolution), regions):
        # The raster covers the interior only, so a rectangle with a corner
        # beyond it hits the wall. Each sum is its extreme corner's, rounded
        # left to right as the corner's own coordinate is.
        inside = (0.0 <= cx - hl * abs(ux) - hb * abs(uy) and cx + hl * abs(ux) + hb * abs(uy) <= nx - 1
                  and 0.0 <= cy - hl * abs(uy) - hb * abs(ux) and cy + hl * abs(uy) + hb * abs(ux) <= ny - 1)
        fins.append(_insert_one(scene, region, c.h, fm) if inside
                    else FingerInsertion(c.h, c.h, 0.0, {}, True))
    damaged: dict[int, float] = {}
    for fin in fins:
        for pid, magnitude in fin.contacts.items():
            _damage(scene, fm, pid, magnitude, damaged)
    return InsertionResult(tuple(fins), damaged)


def _visible_fraction_in(scene: TrayScene, pid: int, label_counts: np.ndarray) -> float:
    """Share of pid's visible pixels in a region with these per-label counts;
    0 for an id that names no piece, the floor's 0 included."""
    inside = int(label_counts[pid]) if pid in scene.pieces and pid < label_counts.size else 0
    if inside == 0:
        return 0.0
    return inside / int(np.count_nonzero(visible_window(scene, pid)[1]))


def close_and_lift(
    scene: TrayScene, c: GraspCandidate, ins: InsertionResult, fm: FingerModel,
    regions: list[np.ndarray] | None = None,
) -> GraspOutcome:
    """Close the jaw and classify the outcome.

    The target is captured when neither finger is blocked, both finger
    bottoms reached far enough below the target's median height, and enough
    of its visible mask lies between the fingers. Neighbors mostly inside the
    jaw and taller than the finger bottoms come along as a multi-pick.
    Pieces swept laterally during closure but left behind take closure damage
    under the same force/penetration rules as insertion.

    The jaw and sweep regions are flat raster indices; jaw fractions divide
    label counts inside the jaw by counts on each piece's stamp window. A
    target id that names no piece is never captured. A finger model that
    fails its validation on the scene's tray raises ParameterError. regions
    is _grasp_regions' list for this candidate and finger, when the caller
    has it; only the jaw and sweep are read.
    """
    fm.validate(_max_semi_axis(scene.tray_dims))
    if regions is None:
        regions = _grasp_regions(scene, c, fm.geometry)
    jaw, sweep = regions[2:]
    in_jaw = np.bincount(scene.owner_map.take(jaw))
    bottoms = [fin.achieved for fin in ins.fingers]
    max_bottom = max(bottoms)
    picked: list[int] = []

    target_ok = (
        not ins.blocked
        and all(b <= c.food_median - GRASP_DEPTH_MARGIN for b in bottoms)
        and _visible_fraction_in(scene, c.instance_id, in_jaw) >= CAPTURE_FRACTION
    )
    if target_ok:
        picked.append(c.instance_id)
        for pid in np.flatnonzero(in_jaw).tolist():  # ascending labels with a jaw pixel
            if pid == c.instance_id or pid not in scene.pieces:
                continue
            win, visible = visible_window(scene, pid)
            if int(in_jaw[pid]) / int(np.count_nonzero(visible)) < MULTIPICK_FRACTION:
                continue
            if median(scene.heightmap[win][visible]) > max_bottom:
                picked.append(pid)

    damaged = dict(ins.damaged)
    for pid, top in _piece_tops(scene, sweep).items():
        if pid not in picked and top > max_bottom:
            _damage(scene, fm, pid, _magnitude(fm, top - max_bottom), damaged)

    if len(picked) == 1:
        classification = Classification.SUCCESS_SINGLE
    elif len(picked) >= 2:
        classification = Classification.SUCCESS_MULTIPLE
    else:
        classification = Classification.FAILURE
    return GraspOutcome(classification, picked, damaged, ins)


def grasp_outcome(scene: TrayScene, c: GraspCandidate, fm: FingerModel) -> GraspOutcome:
    """The outcome of a grasp on scene: insertion then closure, from one
    rasterization of the grasp's four rectangles. The scene is not changed."""
    fm.validate(_max_semi_axis(scene.tray_dims))  # before any rectangle is rasterized
    regions = _grasp_regions(scene, c, fm.geometry)
    return close_and_lift(scene, c, insert_fingers(scene, c, fm, regions), fm, regions)


def apply_outcome(scene: TrayScene, outcome: GraspOutcome) -> None:
    """Make the changes of a grasp whose outcome grasp_outcome gave on this
    scene: damaged pieces that were not picked stay in the tray with damage
    flags, picked pieces are removed, and the maps are rebuilt on the union
    of their stamp windows. The scene is mutated in place."""
    for pid, magnitude in outcome.damaged.items():
        piece = scene.pieces.get(pid)
        if piece is not None and pid not in outcome.picked:
            piece.damaged = True
            piece.damage_magnitude = max(piece.damage_magnitude, magnitude)
    removed = [scene.pieces.pop(pid) for pid in outcome.picked if pid in scene.pieces]
    if removed:
        wins = [p.window[0] for p in removed]
        recompose(scene, (slice(min(r.start for r, _ in wins), max(r.stop for r, _ in wins)),
                          slice(min(c.start for _, c in wins), max(c.stop for _, c in wins))))


def execute_grasp(scene: TrayScene, c: GraspCandidate, fm: FingerModel) -> GraspOutcome:
    """grasp_outcome, then apply_outcome: the scene is mutated in place."""
    outcome = grasp_outcome(scene, c, fm)
    apply_outcome(scene, outcome)
    return outcome
