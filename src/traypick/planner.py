"""Ellipse-fit grasp detection and median-height grasp filtering.

Each instance mask is summarized by its moment-equivalent ellipse; the grasp
closes across the minor axis, inserts at the median height of the ellipse
interior plus a per-food offset, and is filtered out when either finger
contact region has a median height at or above the food-area median.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .archetypes import FoodArchetype
from .errors import FitError, ParameterError, check_number
from .perception import DepthImage, InstanceMaskSet


@dataclass
class EllipseFit:
    """Moment-equivalent ellipse of a pixel mask.

    theta is the orientation of the minor axis (the grasp closing direction),
    normalized to [0, pi). axis_minor and axis_major are full axis lengths in
    pixels.
    """

    x: float  # px
    y: float  # px
    theta: float  # rad, minor-axis direction
    axis_minor: float  # px (A)
    axis_major: float  # px (B)


@dataclass
class FingerGeometry:
    width: float = 4.0  # mm along the grasp axis (contact-rectangle thickness)
    breadth: float = 20.0  # mm perpendicular to the grasp axis
    clearance: float = 2.0  # mm jaw-opening margin beyond w/2

    def validate(self) -> None:
        for name in ("width", "breadth", "clearance"):
            check_number(name, getattr(self, name), low=0, low_open=True)


@dataclass
class GraspCandidate:
    instance_id: int
    x: float  # px
    y: float  # px
    theta: float  # rad, grasp closing direction
    h: float  # mm, insertion height
    w: float  # mm, grasp width
    food_median: float  # mm
    fit: EllipseFit
    contact_medians: tuple[float, float] | None = None
    filtered: bool = False
    filter_reason: str = ""


@dataclass
class Plan:
    candidates: list[GraspCandidate]
    target: GraspCandidate | None
    skipped: dict[int, str] = field(default_factory=dict)  # id -> fit-error reason
    filtering_enabled: bool = True


def median(values: np.ndarray) -> float:
    """float(np.median(values)) of a non-empty 1-D float array, bit for bit,
    without np.median's fixed cost per call.

    It partitions at the same indices (the middle one or two, and the last,
    which holds any NaN), adds the middle values to 0.0 as np.mean's sum
    does (so -0.0 comes out as 0.0) and halves an even-length pair's sum.
    """
    half = values.size // 2
    if values.size % 2:
        part = np.partition(values, [half, -1])
        mid = 0.0 + part[half]
    else:
        part = np.partition(values, [half - 1, half, -1])
        mid = (0.0 + part[half - 1] + part[half]) / 2.0
    return float(part[-1] if math.isnan(part[-1]) else mid)


def fit_ellipse(mask: np.ndarray, offset: tuple[int, int] = (0, 0)) -> EllipseFit:
    """Fit the moment-equivalent ellipse: centroid plus eigen-decomposition of
    the pixel covariance, with semi-axis = 2 * sqrt(eigenvalue).

    Pixels are treated as unit squares (a 1/12 variance term) so rasterized
    shapes recover their continuous axes. Raises FitError for masks smaller
    than 5 px or with rank-deficient covariance.

    mask may be a window whose [0, 0] sits at raster (row, col) = offset.
    Its pixel coordinates are shifted back to the raster before any float
    math, so the fit is bit-identical to one over the whole raster.
    """
    ys, xs = np.nonzero(mask)
    ys += offset[0]
    xs += offset[1]
    n = xs.size
    if n < 5:
        raise FitError(f"mask has {n} pixels, need >= 5")
    mx, my = xs.mean(), ys.mean()
    dx, dy = xs - mx, ys - my
    cov = np.array(
        [
            [dx @ dx / n, dx @ dy / n],
            [dx @ dy / n, dy @ dy / n],
        ]
    )
    if np.linalg.eigvalsh(cov)[0] <= 1e-9:
        raise FitError("degenerate mask: rank-deficient pixel covariance")
    cov[0, 0] += 1.0 / 12.0
    cov[1, 1] += 1.0 / 12.0
    evals, evecs = np.linalg.eigh(cov)  # ascending
    minor_vec = evecs[:, 0]
    theta = math.atan2(minor_vec[1], minor_vec[0]) % math.pi
    axis_minor = 4.0 * math.sqrt(evals[0])
    axis_major = 4.0 * math.sqrt(evals[1])
    return EllipseFit(float(mx), float(my), theta, axis_minor, axis_major)


# (raster slices, boolean array of their shape): heights[slices][local]
Window = tuple[tuple[slice, slice], np.ndarray]


def _rotated_window(
    shape: tuple[int, int], cx: float, cy: float, theta: float, r: int,
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Window:
    """A region rotated by theta about (cx, cy) px, tested by inside(u, v) in
    its own frame (u along theta) over the raster-clipped square of half-side
    r around the centre. A window that misses the raster is empty."""
    r0 = max(0, int(cy) - r)
    r1 = max(r0, min(shape[0], int(cy) + r + 2))
    c0 = max(0, int(cx) - r)
    c1 = max(c0, min(shape[1], int(cx) + r + 2))
    dx = np.arange(c0, c1)[np.newaxis, :] - cx
    dy = np.arange(r0, r1)[:, np.newaxis] - cy
    c, s = math.cos(theta), math.sin(theta)
    return (slice(r0, r1), slice(c0, c1)), inside(dx * c + dy * s, dy * c - dx * s)


def _paste(shape: tuple[int, int], window: Window) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    out[window[0]] = window[1]
    return out


def _ellipse_window(fit: EllipseFit, shape: tuple[int, int]) -> Window:
    a = fit.axis_minor / 2.0  # semi-axis along theta
    b = fit.axis_major / 2.0  # semi-axis along theta + pi/2
    return _rotated_window(shape, fit.x, fit.y, fit.theta, math.ceil(max(a, b)) + 1,
                           lambda u, v: (u / a) ** 2 + (v / b) ** 2 <= 1.0)


def _rectangle_window(
    shape: tuple[int, int], cx: float, cy: float, theta: float, half_len: float, half_breadth: float
) -> Window:
    """Rectangle of half-sizes half_len along theta and half_breadth across, in px."""
    return _rotated_window(shape, cx, cy, theta, math.ceil(math.hypot(half_len, half_breadth)) + 1,
                           lambda u, v: (np.abs(u) <= half_len) & (np.abs(v) <= half_breadth))


def ellipse_interior(fit: EllipseFit, shape: tuple[int, int]) -> np.ndarray:
    """Boolean grid of pixels inside the fitted ellipse, clipped to raster."""
    return _paste(shape, _ellipse_window(fit, shape))


def derive_grasp(
    fit: EllipseFit, depth: DepthImage, archetype: FoodArchetype, instance_id: int = 0
) -> GraspCandidate:
    """Turn an ellipse fit into a grasp candidate.

    Grasp width is the minor axis converted to mm; insertion height is the
    median depth over the ellipse interior plus the archetype's offset,
    floored at the tray floor.
    """
    win, interior = _ellipse_window(fit, depth.heights.shape)
    heights = depth.heights[win][interior]
    if not heights.size:
        raise ParameterError("ellipse lies entirely outside the raster")
    food_median = median(heights)
    h = max(0.0, food_median + archetype.grasp_height_offset)
    return GraspCandidate(
        instance_id=instance_id,
        x=fit.x,
        y=fit.y,
        theta=fit.theta,
        h=h,
        w=fit.axis_minor * depth.resolution,
        food_median=food_median,
        fit=fit,
    )


def _contact_rectangles(c: GraspCandidate, fg: FingerGeometry, resolution: float) -> list[tuple]:
    """(cx, cy, half_len along c.theta, half_breadth) in px of each contact rectangle."""
    d_px = (c.w / 2.0 + fg.clearance + fg.width / 2.0) / resolution
    ux, uy = math.cos(c.theta), math.sin(c.theta)
    hl, hb = fg.width / 2.0 / resolution, fg.breadth / 2.0 / resolution
    return [(c.x + side * d_px * ux, c.y + side * d_px * uy, hl, hb) for side in (-1.0, 1.0)]


def _contact_windows(
    c: GraspCandidate, fg: FingerGeometry, resolution: float, shape: tuple[int, int]
) -> tuple[Window, Window]:
    """The two contact_regions rectangles as windows."""
    return tuple(
        _rectangle_window(shape, cx, cy, c.theta, hl, hb)
        for cx, cy, hl, hb in _contact_rectangles(c, fg, resolution)
    )


def contact_regions(
    c: GraspCandidate, fg: FingerGeometry, resolution: float, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Finger contact rectangles at the ends of the minor axis.

    Each rectangle is fg.width x fg.breadth, centered at distance
    w/2 + clearance + fg.width/2 from the grasp center along the closing
    direction, on opposite sides, and clipped to the raster. A rectangle
    fully outside the raster comes back empty.
    """
    left, right = _contact_windows(c, fg, resolution, shape)
    return _paste(shape, left), _paste(shape, right)


def filter_grasps(
    cands: list[GraspCandidate], depth: DepthImage, fg: FingerGeometry
) -> list[GraspCandidate]:
    """Annotate contact medians and keep candidates whose both contact-region
    medians are strictly below the food-area median.

    Filtered candidates stay in the input list with reason tags; the returned
    list holds the retained ones.
    """
    retained: list[GraspCandidate] = []
    for c in cands:
        (win_l, in_l), (win_r, in_r) = _contact_windows(
            c, fg, depth.resolution, depth.heights.shape
        )
        left, right = depth.heights[win_l][in_l], depth.heights[win_r][in_r]
        if not left.size or not right.size:
            c.filtered = True
            c.filter_reason = "out-of-tray"
            continue
        med_l = median(left)
        med_r = median(right)
        c.contact_medians = (med_l, med_r)
        if med_l < c.food_median and med_r < c.food_median:
            retained.append(c)
        else:
            c.filtered = True
            c.filter_reason = "contact-median-too-high"
    return retained


def select_grasp(retained: list[GraspCandidate]) -> GraspCandidate | None:
    """Highest food-area median wins; ties go to the lower instance id."""
    if not retained:
        return None
    return min(retained, key=lambda c: (-c.food_median, c.instance_id))


def plan(
    masks: InstanceMaskSet,
    depth: DepthImage,
    archetype: FoodArchetype,
    fg: FingerGeometry | None = None,
    filtering_enabled: bool = True,
) -> Plan:
    """Full detection pipeline: fit, derive, filter (optional), select."""
    fg = fg or FingerGeometry()
    fg.validate()
    candidates: list[GraspCandidate] = []
    skipped: dict[int, str] = {}
    for w in masks.windows:
        rows, cols = w.slices
        try:
            fit = fit_ellipse(w.local, (rows.start, cols.start))
            cand = derive_grasp(fit, depth, archetype, w.id)
        except (FitError, ParameterError) as exc:
            skipped[w.id] = str(exc)
            continue
        candidates.append(cand)
    if filtering_enabled:
        retained = filter_grasps(candidates, depth, fg)
    else:
        retained = list(candidates)
    target = select_grasp(retained)
    return Plan(candidates, target, skipped, filtering_enabled)


def plan_to_dict(p: Plan) -> dict:
    def cand_dict(c: GraspCandidate) -> dict:
        return {
            "instance_id": c.instance_id,
            "x": c.x,
            "y": c.y,
            "theta": c.theta,
            "h": c.h,
            "w": c.w,
            "food_median": c.food_median,
            "contact_medians": list(c.contact_medians) if c.contact_medians else None,
            "filtered": c.filtered,
            "filter_reason": c.filter_reason,
            "axis_minor": c.fit.axis_minor,
            "axis_major": c.fit.axis_major,
        }

    return {
        "filtering_enabled": p.filtering_enabled,
        "candidates": [cand_dict(c) for c in p.candidates],
        "skipped": {str(k): v for k, v in p.skipped.items()},
        "target": cand_dict(p.target) if p.target else None,
    }


def candidate_from_dict(d: dict) -> GraspCandidate:
    fit = EllipseFit(d["x"], d["y"], d["theta"], d["axis_minor"], d["axis_major"])
    return GraspCandidate(
        instance_id=d["instance_id"],
        x=d["x"],
        y=d["y"],
        theta=d["theta"],
        h=d["h"],
        w=d["w"],
        food_median=d["food_median"],
        fit=fit,
        contact_medians=tuple(d["contact_medians"]) if d.get("contact_medians") else None,
        filtered=d.get("filtered", False),
        filter_reason=d.get("filter_reason", ""),
    )
