"""Ellipse-fit grasp detection and median-height grasp filtering.

Each instance mask is summarized by its moment-equivalent ellipse; the grasp
closes across the minor axis, inserts at the median height of the ellipse
interior plus a per-food offset, and is filtered out when either finger
contact region has a median height at or above the food-area median.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .archetypes import FoodArchetype
from .errors import FitError, ParameterError, check_number, check_type, field_keys, read_object
from .perception import DepthImage, InstanceMaskSet
from .scenegen import Window


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
            check_number(name, getattr(self, name), low=0, low_open=True, finite=True)


def check_finger(fg: FingerGeometry, side: float) -> None:
    """fg.validate(), and ParameterError for a width, breadth or clearance
    longer than side, the tray's longer side in mm. _rectangle_pixels tests
    a square of (2 ceil(hypot(hl, hb)) + 4)^2 px per contact rectangle, so a
    finger larger than the tray only costs time and memory."""
    fg.validate()
    for name in ("width", "breadth", "clearance"):
        size = getattr(fg, name)
        if size > side:
            raise ParameterError(f"finger {name} of {size} mm is longer than the tray's {side} mm side")


@dataclass
class GraspCandidate:
    instance_id: int
    x: float  # px
    y: float  # px
    theta: float  # rad, grasp closing direction
    h: float  # mm, insertion height
    w: float  # mm, grasp width
    food_median: float  # mm
    axis_minor: float  # px, the fitted ellipse's full axes
    axis_major: float  # px
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

    It sorts a copy (np.sort), adds the middle value or two to 0.0 as
    np.mean's sum does (so the order of -0.0 and 0.0 cannot matter and -0.0
    comes out as 0.0) and halves an even-length pair's sum. NaN sorts last,
    but sorting can move NaN payloads; so when the last value is NaN the
    result is the last value of np.median's own partition, at its indices
    (the middle one or two, and the last).
    """
    ordered = values.copy()  # np.sort without its wrapper
    ordered.sort()
    half = values.size // 2
    if math.isnan(ordered[-1]):
        kth = [half, -1] if values.size % 2 else [half - 1, half, -1]
        return float(np.partition(values, kth)[-1])
    if values.size % 2:
        return float(0.0 + ordered[half])
    return float((0.0 + ordered[half - 1] + ordered[half]) / 2.0)


def fit_ellipses(
    windows: list[tuple[np.ndarray, tuple[int, int]]],
) -> list[EllipseFit | FitError]:
    """Fit the moment-equivalent ellipse of each (mask, offset): centroid plus
    eigen-decomposition of the pixel covariance, with semi-axis =
    2 * sqrt(eigenvalue). A mask that cannot be fitted gets a FitError in
    its place: one smaller than 5 px or with rank-deficient covariance.

    Pixels are treated as unit squares (a 1/12 variance term) so rasterized
    shapes recover their continuous axes.

    A mask may be a window whose [0, 0] sits at raster (row, col) = offset.
    Its pixel coordinates are shifted back to the raster before any float
    math, so the fit is bit-identical to one over the whole raster.

    Moments and the rank test run per mask; one eigh call then solves every
    fitted mask's covariance as one (N, 2, 2) stack, which LAPACK solves
    matrix by matrix exactly as it solves one.
    """
    fits: list[EllipseFit | FitError | None] = []
    centroids: list[tuple[float, float]] = []
    covs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for mask, offset in windows:
        ys, xs = mask.nonzero()
        ys += offset[0]
        xs += offset[1]
        n = xs.size
        if n < 5:
            fits.append(FitError(f"mask has {n} pixels, need >= 5"))
            continue
        # what ndarray.mean computes for integer input, without its wrapper;
        # the moments are Python floats, the same IEEE doubles as numpy's
        mx = float(np.add.reduce(xs, dtype=np.float64)) / n
        my = float(np.add.reduce(ys, dtype=np.float64)) / n
        dx, dy = xs - mx, ys - my
        sxx, sxy, syy = float(dx @ dx) / n, float(dx @ dy) / n, float(dy @ dy) / n
        # The smallest eigenvalue is at least det / tr, and the margin over the
        # 1e-9 rank test covers the rounding of det and of LAPACK, so eigvalsh
        # only runs where its answer could differ.
        tr = sxx + syy
        det = sxx * syy - sxy * sxy
        if not det > 2e-9 * tr + 1e-12 * tr * tr and (
            np.linalg.eigvalsh(np.array([[sxx, sxy], [sxy, syy]]))[0] <= 1e-9
        ):
            fits.append(FitError("degenerate mask: rank-deficient pixel covariance"))
            continue
        fits.append(None)
        centroids.append((mx, my))
        covs.append(((sxx + 1.0 / 12.0, sxy), (sxy, syy + 1.0 / 12.0)))
    if covs:
        evals, evecs = np.linalg.eigh(np.array(covs))  # ascending
        solved = zip(centroids, evals.tolist(), evecs[:, :, 0].tolist())  # minor axis: column 0
        for i, fit in enumerate(fits):
            if fit is None:
                (x, y), (e_minor, e_major), (vx, vy) = next(solved)
                fits[i] = EllipseFit(x, y, math.atan2(vy, vx) % math.pi,
                                     4.0 * math.sqrt(e_minor), 4.0 * math.sqrt(e_major))
    return fits


def fit_ellipse(mask: np.ndarray, offset: tuple[int, int] = (0, 0)) -> EllipseFit:
    """The one-mask case of fit_ellipses; raises its FitError."""
    (fit,) = fit_ellipses([(mask, offset)])
    if isinstance(fit, FitError):
        raise fit
    return fit


# Rectangles per vectorised pass of _rectangle_pixels. Over finger contacts
# (34 x 34 px squares at the default tray) a pass of 8 keeps each float
# temporary near 74 KB; passes of 16 (150 KB) and one pass over a whole
# tray's rectangles were slower and raised peak RSS more. Each pass keeps
# only the flat indices of its hits; one divmod, clip and bincount over
# all of them then does the bookkeeping, so no float temporary spans them.
_RECTANGLES_PER_PASS = 8


def _ellipse_window(fit: EllipseFit, shape: tuple[int, int]) -> Window:
    """Pixels inside the fitted ellipse, tested over its axis-aligned bounding
    box plus 1 px and clipped to the raster (an empty window when it misses).

    A pixel 1 px beyond the ellipse's extent has (u/a)^2 + (v/b)^2 >=
    1 + 2/max(a, b), far above rounding, so the margin keeps every pixel
    the test accepts."""
    a = fit.axis_minor / 2.0  # semi-axis along theta
    b = fit.axis_major / 2.0  # semi-axis along theta + pi/2
    c, s = math.cos(fit.theta), math.sin(fit.theta)
    half_x = math.sqrt(a * a * c * c + b * b * s * s)
    half_y = math.sqrt(a * a * s * s + b * b * c * c)
    r0 = max(0, math.ceil(fit.y - half_y) - 1)
    r1 = max(r0, min(shape[0], math.floor(fit.y + half_y) + 2))
    c0 = max(0, math.ceil(fit.x - half_x) - 1)
    c1 = max(c0, min(shape[1], math.floor(fit.x + half_x) + 2))
    dx = np.arange(c0, c1, dtype=np.float64)[np.newaxis, :] - fit.x
    dy = np.arange(r0, r1, dtype=np.float64)[:, np.newaxis] - fit.y
    u = dx * c + dy * s
    v = dy * c - dx * s
    # (u / a) ** 2 + (v / b) ** 2 in place; ** 2 on floats is x * x
    u /= a
    u *= u
    v /= b
    v *= v
    u += v
    return (slice(r0, r1), slice(c0, c1)), u <= 1.0


def _rectangle_pixels(
    shape: tuple[int, int], rects: list[tuple[float, float, float, float]],
    half_len: float, half_breadth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels inside rotated rectangles, as flat raster indices.

    rects holds (cx, cy, cos theta, sin theta) per rectangle, in px; each is
    half_len px long along theta and half_breadth px across it. A rectangle
    is tested over the square of side 2r + 2, r = ceil(hypot(half_len,
    half_breadth)) + 1, from int(cx) - r, int(cy) - r, in its own frame
    (u along theta), and clipped to the raster after selection.

    Returns the indices, grouped by rectangle in order and ascending within
    each, and each rectangle's pixel count (0 when it misses the raster).
    """
    ny, nx = shape
    r = math.ceil(math.hypot(half_len, half_breadth)) + 1
    side = 2 * r + 2
    geo = np.array(rects, dtype=float).reshape(-1, 4)
    col0 = np.array([int(cx) for cx, _, _, _ in rects], dtype=np.int64) - r
    row0 = np.array([int(cy) for _, cy, _, _ in rects], dtype=np.int64) - r
    steps = np.arange(side)
    dx = (col0[:, np.newaxis] + steps) - geo[:, 0:1]
    dy = (row0[:, np.newaxis] + steps) - geo[:, 1:2]
    cos, sin = geo[:, 2, np.newaxis, np.newaxis], geo[:, 3, np.newaxis, np.newaxis]
    hits = [np.zeros(0, dtype=np.int64)]  # indices into the (rect, row, col) squares
    for lo in range(0, len(rects), _RECTANGLES_PER_PASS):
        k = slice(lo, lo + _RECTANGLES_PER_PASS)
        x, y = dx[k, np.newaxis, :], dy[k, :, np.newaxis]
        inside = np.abs(x * cos[k] + y * sin[k]) <= half_len
        inside &= np.abs(y * cos[k] - x * sin[k]) <= half_breadth
        hits.append(inside.reshape(-1).nonzero()[0] + lo * side * side)
    rect, local = np.divmod(np.concatenate(hits), side * side)
    row, col = np.divmod(local, side)
    row += row0[rect]
    col += col0[rect]
    keep = (row >= 0) & (row < ny) & (col >= 0) & (col < nx)
    return (row * nx + col)[keep], np.bincount(rect[keep], minlength=len(rects))


def _segment_medians(values: np.ndarray, counts: np.ndarray) -> list[float]:
    """median() of each consecutive run of values with these lengths, bit for
    bit, from one row sort: each run is padded with +inf, and the middle one
    or two values are added to 0.0 as median() does. A run of length 0 gives
    inf. A run holding NaN sorts it last; np.sort drops NaN payloads, so
    such a run takes median() itself."""
    width = int(counts.max(initial=0)) + 1
    padded = np.full((counts.size, width), np.inf)
    padded[np.arange(width) < counts[:, np.newaxis]] = values
    padded.sort(axis=1)
    rows = np.arange(counts.size)
    half = counts // 2
    hi = padded[rows, half]
    odd = counts % 2 == 1
    mid = np.empty(counts.size)
    mid[odd] = 0.0 + hi[odd]
    even = ~odd
    mid[even] = (0.0 + padded[rows[even], half[even] - 1] + hi[even]) / 2.0
    out = mid.tolist()
    stops = np.cumsum(counts)
    for i in np.flatnonzero(np.isnan(padded[:, -1])).tolist():
        out[i] = median(values[stops[i] - counts[i] : stops[i]])
    return out


def derive_grasp(
    fit: EllipseFit, depth: DepthImage, archetype: FoodArchetype, instance_id: int
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
        axis_minor=fit.axis_minor,
        axis_major=fit.axis_major,
    )


def _finger_half_sizes(fg: FingerGeometry, resolution: float) -> tuple[float, float]:
    """Half-sizes in px of a contact rectangle, along the grasp axis and across."""
    return fg.width / 2.0 / resolution, fg.breadth / 2.0 / resolution


def _contact_rectangles(
    c: GraspCandidate, fg: FingerGeometry, resolution: float
) -> list[tuple[float, float, float, float]]:
    """(cx, cy, cos c.theta, sin c.theta) in px of each contact rectangle."""
    d_px = (c.w / 2.0 + fg.clearance + fg.width / 2.0) / resolution
    ux, uy = math.cos(c.theta), math.sin(c.theta)
    return [(c.x + side * d_px * ux, c.y + side * d_px * uy, ux, uy) for side in (-1.0, 1.0)]


def filter_grasps(
    cands: list[GraspCandidate], depth: DepthImage, fg: FingerGeometry
) -> list[GraspCandidate]:
    """Annotate contact medians and keep candidates whose both contact-region
    medians are strictly below the food-area median.

    Filtered candidates stay in the input list with reason tags; the returned
    list holds the retained ones. Every candidate's annotations are set
    afresh, so a list can be filtered again. All 2N contact rectangles are
    rasterized and their medians taken in a few vectorised passes.
    """
    rects = [rect for c in cands for rect in _contact_rectangles(c, fg, depth.resolution)]
    flat, counts = _rectangle_pixels(
        depth.heights.shape, rects, *_finger_half_sizes(fg, depth.resolution)
    )
    medians = _segment_medians(depth.heights.take(flat), counts)
    counts = counts.tolist()
    retained: list[GraspCandidate] = []
    for i, c in enumerate(cands):
        c.contact_medians, c.filtered, c.filter_reason = None, False, ""
        if not counts[2 * i] or not counts[2 * i + 1]:
            c.filtered = True
            c.filter_reason = "out-of-tray"
            continue
        med_l, med_r = medians[2 * i], medians[2 * i + 1]
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
    """Full detection pipeline: fit, derive, filter (optional), select.
    Masks and a depth image of different raster shapes raise ParameterError,
    and so does a finger check_finger refuses on the depth raster's longer
    side in mm."""
    fg = fg or FingerGeometry()
    if depth.heights.shape != tuple(masks.shape):
        (dh, dw), (mh, mw) = depth.heights.shape, masks.shape
        raise ParameterError(f"depth is {dh} x {dw} px, the masks' raster {mh} x {mw} px")
    check_finger(fg, max(depth.heights.shape) * depth.resolution)
    candidates: list[GraspCandidate] = []
    skipped: dict[int, str] = {}
    fits = fit_ellipses([(w.local, (w.slices[0].start, w.slices[1].start)) for w in masks.windows])
    for w, fit in zip(masks.windows, fits):
        if isinstance(fit, FitError):
            skipped[w.id] = str(fit)
            continue
        try:
            cand = derive_grasp(fit, depth, archetype, w.id)
        except ParameterError as exc:
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
        return {**asdict(c), "contact_medians": list(c.contact_medians) if c.contact_medians else None}

    return {
        "filtering_enabled": p.filtering_enabled,
        "candidates": [cand_dict(c) for c in p.candidates],
        "skipped": {str(k): v for k, v in p.skipped.items()},
        "target": cand_dict(p.target) if p.target else None,
    }


def candidate_from_dict(d: dict) -> GraspCandidate:
    """The candidate of a plan document entry, which is outside input: an
    object holding every GraspCandidate field without a default and no other
    key. Every number must be finite, h, w and both axes >= 0 and
    instance_id an integer >= 1; contact_medians, when given, must be two
    finite numbers or null, filtered a bool and filter_reason a string.
    Otherwise ParameterError names the key."""
    read_object(d, "plan candidate", *field_keys(GraspCandidate))
    for key, low in (("instance_id", 1), ("x", None), ("y", None), ("theta", None), ("h", 0),
                     ("w", 0), ("food_median", None), ("axis_minor", 0), ("axis_major", 0)):
        check_number(key, d[key], integral=key == "instance_id", low=low, finite=True)
    medians = d.get("contact_medians")
    if not (medians is None or isinstance(medians, list) and len(medians) == 2):
        raise ParameterError(f"contact_medians must be two numbers or null, got {medians!r}")
    for m in medians or ():
        check_number("contact_medians", m, finite=True)
    check_type("filtered", d.get("filtered", False), bool)
    check_type("filter_reason", d.get("filter_reason", ""), str)
    return GraspCandidate(**{**d, "contact_medians": tuple(medians) if medians else None})
