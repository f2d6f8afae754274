"""Ellipse-fit grasp detection and median-height grasp filtering.

Each instance mask is summarized by its moment-equivalent ellipse; the grasp
closes across the minor axis, inserts at the median height of the ellipse
interior plus a per-food offset, and is filtered out when either finger
contact region has a median height at or above the food-area median.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .archetypes import FoodArchetype
from .errors import FitError, ParameterError, check_number, check_type, field_keys, read_object
from .perception import DepthImage, InstanceMaskSet


MIN_FIT_PIXELS = 5  # px of the smallest mask fit_ellipses fits
# The gripper's one finger size, in mm.
FINGER_WIDTH = 4.0  # along the grasp axis (contact-rectangle thickness)
FINGER_BREADTH = 20.0  # across the grasp axis
FINGER_CLEARANCE = 2.0  # jaw-opening margin beyond w/2


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
    its place: one smaller than MIN_FIT_PIXELS or with rank-deficient covariance.

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
        if n < MIN_FIT_PIXELS:
            fits.append(FitError(f"mask has {n} pixels, need >= {MIN_FIT_PIXELS}"))
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


def _per_row(table: np.ndarray, r0: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table repeated for each row, each row as a float, bounds) for the
    k[i] rows from r0[i] of every shape i, shape by shape; shape i's rows
    are bounds[i]:bounds[i + 1]. table's last row is overwritten."""
    bounds = np.zeros(k.size + 1, dtype=np.intp)
    k.cumsum(out=bounds[1:])
    table[-1] = r0 - bounds[:-1]
    t = table.repeat(k, axis=1)
    return t, t[-1] + np.arange(t.shape[1]), bounds


# a span's columns (before, first, last, after): their steps from the
# estimated ends, and whether each must test inside
_SPAN_STEPS = np.array([-1.0, 0.0, 0.0, 1.0]).reshape(4, 1, 1)
_SPAN_INSIDE = np.array([False, True, True, False]).reshape(4, 1, 1)


def _exact_spans(inside, ok: np.ndarray, lo_c: np.ndarray, hi_c: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> None:
    """Set lo and hi of each row not ok from the shape's own test on every
    column of its clip range: inside(rows, cols) is that test on broadcast
    row indices and columns. The columns inside form one interval, so its
    first and last column bound it (hi = lo - 1 when there is none)."""
    if ok.all():
        return
    bad = (~ok).nonzero()[0]
    c0, c1 = lo_c[bad], hi_c[bad]
    cols = c0[:, np.newaxis] + np.arange(int((c1 - c0).max()) + 1)
    hit = inside(bad[:, np.newaxis], cols) & (cols <= c1[:, np.newaxis])
    lo[bad] = c0 + hit.argmax(axis=1)
    hi[bad] = np.where(hit.any(axis=1), c0 + hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1), lo[bad] - 1)


def _spans_to_flat(
    shape: tuple[int, int], bounds: np.ndarray, row: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat raster indices of the columns lo..hi of each row, row by row, and
    the pixel count of each shape, whose rows are bounds[i]:bounds[i + 1]
    (bounds may start above 0). The indices are intp, which take uses as
    they are."""
    ends = _pixels_before(lo, hi)
    flat = np.arange(ends[-1])
    start = row * shape[1]
    start += lo
    start -= ends[:-1]
    flat += start.astype(np.intp).repeat(ends[1:] - ends[:-1])
    ends = ends[bounds - bounds[0]]
    return flat, ends[1:] - ends[:-1]


def _pixels_before(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The pixels of the spans lo..hi before each one, and in all."""
    n = hi - lo
    n += 1.0
    np.maximum(n, 0.0, out=n)
    ends = np.zeros(n.size + 1, dtype=np.intp)
    n.astype(np.intp).cumsum(out=ends[1:])
    return ends


_END_SIDES = np.array([-1.0, 1.0]).reshape(2, 1, 1)
_SLAB_P = np.array([[1.0], [-1.0]])  # the column's factor in u is cos, in v -sin


def _slab_estimate(x: np.ndarray, p: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """[first, last]: per slab and row, the first column with (col - x) p + q
    >= -h and the last with (col - x) p + q <= h, for p >= 0, in real
    arithmetic. A p below 1e-300 (the sine of 0) counts as 1e-300, so the
    estimate lies far beyond the raster on the side a constant slab takes,
    and no division overflows or divides by 0."""
    ends = h * _END_SIDES
    ends -= q
    ends /= np.maximum(p, 1e-300)
    ends += x
    np.ceil(ends[0], out=ends[0])
    np.floor(ends[1], out=ends[1])
    return ends


def _rectangle_spans(
    shape: tuple[int, int], rects: list[tuple[float, float, float, float]],
    half_len: float | list[float], half_breadth: float | list[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_rectangle_pixels' spans: (bounds, row, lo, hi) for _spans_to_flat."""
    rect = np.array(rects, dtype=float).reshape(-1, 4).T
    # per rectangle: cx, cy; per slab |p|, q / dy and h; the clip bounds of
    # the first column (first, first - 1) and of the last (last + 1, last);
    # the row offset
    table = np.empty((13, rect.shape[1]))
    table[0:2] = rect[0:2]
    p = rect[2:4] * _SLAB_P
    sign = np.copysign(1.0, p)
    np.abs(p, out=table[2:4])
    np.multiply(rect[3:1:-1], sign, out=table[4:6])
    table[6], table[7] = half_len, half_breadth
    extent = table[2:4] * table[6]  # hl |cos| + hb |sin| along x, hl |sin| + hb |cos| along y
    extent += table[3:1:-1] * table[7]
    first = np.ceil(rect[0:2] - extent)  # the box's first column and row
    first -= 1.0
    np.maximum(first, 0.0, out=first)
    last = np.floor(rect[0:2] + extent)
    last += 1.0
    np.minimum(last, ((shape[1] - 1.0,), (shape[0] - 1.0,)), out=last)
    table[8:10] = first[0]
    table[9] -= 1.0
    table[10:12] = last[0]
    table[10] += 1.0
    rows = last[1] - first[1] + 1.0
    rows *= last[0] >= first[0]
    t, row, bounds = _per_row(table, first[1], np.maximum(rows, 0.0).astype(np.intp))
    x, p, h, lo_c, hi_c = t[0], t[2:4], t[6:8], t[8], t[11]
    # slab s = dx p + q: u = dx cos + dy sin and v = dx (-sin) + dy cos bit
    # for bit, made to rise with the column by negating both terms where
    # p < 0, which rounding does not see
    q = (row - t[1]) * t[4:6]
    ends = _slab_estimate(x, p, q, h)
    np.fmax(ends, t[8:10, np.newaxis], out=ends)  # NaN goes to the clip bound
    np.fmin(ends, t[10:12, np.newaxis], out=ends)
    s = ends.repeat(2, axis=0)
    s += _SPAN_STEPS
    ok = (s < lo_c) | (s > hi_c)  # beyond the box, where an end needs no neighbour outside
    s -= x  # the columns become their slab values
    s *= p
    s += q
    s[:2] *= -1.0  # s >= -h before and at the first column as -s <= h
    ok |= (s <= h) == _SPAN_INSIDE
    ok = np.logical_and.reduce(ok, axis=(0, 1))
    lo, hi = np.maximum(ends[0, 0], ends[0, 1]), np.minimum(ends[1, 0], ends[1, 1])

    def inside(j: np.ndarray, cols: np.ndarray) -> np.ndarray:
        tj, dx, dy = t[:, j], cols - x[j], row[j] - t[1, j]
        return (np.abs(dx * tj[2] + tj[4] * dy) <= tj[6]) & (np.abs(dx * tj[3] + tj[5] * dy) <= tj[7])

    _exact_spans(inside, ok, lo_c, hi_c, lo, hi)
    return bounds, row, lo, hi


def _rectangle_pixels(
    shape: tuple[int, int], rects: list[tuple[float, float, float, float]],
    half_len: float | list[float], half_breadth: float | list[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels inside rotated rectangles, as flat raster indices.

    rects holds (cx, cy, cos theta, sin theta) per rectangle, in px; each is
    half_len px long along theta and half_breadth px across it (one value
    for all, or one per rectangle). A pixel is inside when it lies in the
    raster, |u| <= half_len and |v| <= half_breadth, u = dx cos + dy sin
    and v = dy cos - dx sin its offset from the centre in the rectangle's
    frame. Only the rectangle's axis-aligned bounding box plus 1 px is
    scanned: a pixel beyond it misses by far more than rounding.

    Each row of the box is one span. On a row, u and v are monotone in the
    column (rounding is monotone), so each slab, |u| <= half_len or
    |v| <= half_breadth, holds one interval of columns: from the first
    column with s >= -h to the last with s <= h, s being u or v signed to
    rise with the column. Each end is estimated in real arithmetic and
    certified by the float test on its column and the one beyond it (or
    the box's edge); a row whose four ends all hold is the two intervals'
    intersection, possibly empty. A row that fails is tested on every
    column of its box. Returns the indices, grouped by rectangle in order
    and ascending within each, and each rectangle's pixel count (0 when it
    misses the raster).
    """
    return _spans_to_flat(shape, *_rectangle_spans(shape, rects, half_len, half_breadth))


def _ellipse_estimate(
    x: np.ndarray, dy: np.ndarray, cos: np.ndarray, sin: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, in real arithmetic: the first and last column inside the
    ellipse (first > last when there is none) and the column at or left of
    the minimum of (u/a)^2 + (v/b)^2, a quadratic in the column."""
    ia, ib = 1.0 / (a * a), 1.0 / (b * b)
    quad = cos * cos * ia + sin * sin * ib
    vertex = x - dy * cos * sin * (ia - ib) / quad
    disc = (x - vertex) ** 2 - (dy * dy * (sin * sin * ia + cos * cos * ib) - 1.0) / quad
    root = np.sqrt(np.abs(disc)) * np.sign(disc)  # < 0 where the row misses: first > last
    return np.ceil(vertex - root), np.floor(vertex + root), np.floor(vertex)


def _ellipse_spans(
    shape: tuple[int, int], fits: list[EllipseFit]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pixels inside fitted ellipses as row spans (bounds, row, lo, hi):
    fit i's rows are bounds[i]:bounds[i + 1], and _spans_to_flat turns them
    into flat raster indices, in raster order per fit, with each fit's
    pixel count (0 when it misses the raster). A pixel is inside when
    (u/a)^2 + (v/b)^2 <= 1, u = dx cos + dy sin and v = dy cos - dx sin its
    offset from the centre, a and b the semi-axes along theta and across
    it, and it lies in the ellipse's axis-aligned bounding box plus 1 px
    clipped to the raster. A pixel 1 px beyond the ellipse's extent has a
    value >= 1 + 2/max(a, b), far above rounding, so the box keeps every
    pixel the test accepts.

    Each row of the box is one span. On a row the value is a convex
    quadratic in the column whose second difference, 2(cos^2/a^2 +
    sin^2/b^2), dwarfs rounding, so the columns inside form one interval.
    It is estimated in real arithmetic and certified by the float test: its
    end columns inside and the columns beyond them outside (or beyond the
    box). A row estimated empty is certified by two adjacent columns
    outside that bracket the minimum: the column before them holds at
    least the first's value and the one after at least the second's. A row
    that fails is tested on every column of its box.
    """
    ny, nx = shape
    # per fit: x, y, cos, sin, a, b, the box's first and last column on the
    # raster, the row offset
    table = np.empty((9, len(fits)))
    table[:6] = np.array([(f.x, f.y, math.cos(f.theta), math.sin(f.theta), f.axis_minor / 2.0,
                           f.axis_major / 2.0) for f in fits], dtype=float).reshape(-1, 6).T
    x, y, cos, sin, a, b = table[:6]
    half_x = np.sqrt(a * a * cos * cos + b * b * sin * sin)
    half_y = np.sqrt(a * a * sin * sin + b * b * cos * cos)
    table[6] = np.maximum(0.0, np.ceil(x - half_x) - 1.0)
    table[7] = np.minimum(nx, np.floor(x + half_x) + 2.0) - 1.0
    r0 = np.maximum(0.0, np.ceil(y - half_y) - 1.0)
    r1 = np.maximum(r0, np.minimum(ny, np.floor(y + half_y) + 2.0))
    t, row, bounds = _per_row(table, r0, ((r1 - r0) * (table[7] >= table[6])).astype(np.intp))
    lo_c, hi_c = t[6], t[7]
    dy = row - t[1]

    def value(j, cols: np.ndarray) -> np.ndarray:
        tj, dyj = t[:, j], dy[j]
        dx = cols - tj[0]
        u = dx * tj[2]
        u += dyj * tj[3]
        u /= tj[4]
        dx *= tj[3]  # v = dy cos - dx sin, in dx's place
        np.subtract(dyj * tj[2], dx, out=dx)
        dx /= tj[5]
        u *= u
        dx *= dx
        u += dx
        return u

    # numpy keeps up to 7 freed buffers of each size under 1 KB, and a
    # tray's row count is a new size nearly every call; so the row flags
    # (empty, certified, bracketed) share one buffer and no other boolean
    # is row-sized
    first, last, vertex = _ellipse_estimate(t[0], dy, t[2], t[3], t[4], t[5])
    lo, hi = np.maximum(first, lo_c), np.minimum(last, hi_c)
    flags = np.empty((3, lo.size), dtype=bool)
    empty, ok, bracket = flags
    np.greater(lo, hi, out=empty)
    # a row estimated empty is tested at (m, m + 1), outside and bracketing the minimum
    np.copyto(lo, np.minimum(np.maximum(vertex, lo_c), hi_c - 1.0), where=empty)
    np.copyto(hi, lo + 1.0, where=empty)
    cols = np.stack((lo, lo, hi, hi)) + _SPAN_STEPS[:, 0]
    beyond = cols < lo_c
    beyond |= cols > hi_c
    f = value(slice(None), cols)
    test = f <= 1.0
    np.equal(test, _SPAN_INSIDE[:, 0], out=test)
    test |= beyond
    np.logical_and.reduce(test, axis=0, out=ok)
    np.greater(f, 1.0, out=test)
    np.greater_equal(f[0], f[1], out=test[0])
    np.greater_equal(f[3], f[2], out=test[3])
    test |= beyond
    np.logical_and.reduce(test, axis=0, out=bracket)
    np.copyto(ok, bracket, where=empty)
    np.copyto(hi, lo - 1.0, where=empty)
    _exact_spans(lambda j, cols: value(j, cols) <= 1.0, ok, lo_c, hi_c, lo, hi)
    return bounds, row, lo, hi


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


# Ellipse pixels per pass of derive_grasps: its indices and heights take
# 16 bytes a pixel, so a pass stays near 512 KB however many pixels a
# tray's ellipses hold (a sparse tray's ~50 hold ~60,000).
_MEDIAN_PASS_PIXELS = 1 << 15


def derive_grasps(
    fits: list[EllipseFit], depth: DepthImage, archetype: FoodArchetype, ids: list[int]
) -> list[GraspCandidate | ParameterError]:
    """Turn ellipse fits into grasp candidates, the i-th with instance id
    ids[i]. A fit whose ellipse lies entirely outside the raster gets a
    ParameterError in its place.

    Grasp width is the minor axis converted to mm; insertion height is the
    median depth over the ellipse interior plus the archetype's offset,
    floored at the tray floor. One _ellipse_spans call rasterizes every
    interior; their indices and heights are then taken in passes of whole
    fits of about _MEDIAN_PASS_PIXELS pixels (a larger fit alone).
    """
    bounds, row, lo, hi = _ellipse_spans(depth.heights.shape, fits)
    before = _pixels_before(lo, hi)[bounds].tolist()  # pixels before each fit, and in all
    passes = [0]
    while passes[-1] < len(fits):
        f0 = passes[-1]
        passes.append(max(f0 + 1, bisect.bisect_right(before, before[f0] + _MEDIAN_PASS_PIXELS, f0 + 1) - 1))
    medians: list[float | None] = []  # None for a fit with no pixel
    for f0, f1 in zip(passes, passes[1:]):
        r0, r1 = bounds[f0], bounds[f1]
        flat, counts = _spans_to_flat(depth.heights.shape, bounds[f0 : f1 + 1], row[r0:r1], lo[r0:r1], hi[r0:r1])
        medians += [median(h) if h.size else None
                    for h in np.split(depth.heights.take(flat), np.cumsum(counts)[:-1])]
    out: list[GraspCandidate | ParameterError] = []
    for fit, instance_id, food_median in zip(fits, ids, medians):
        if food_median is None:
            out.append(ParameterError("ellipse lies entirely outside the raster"))
            continue
        out.append(GraspCandidate(
            instance_id=instance_id,
            x=fit.x,
            y=fit.y,
            theta=fit.theta,
            h=max(0.0, food_median + archetype.grasp_height_offset),
            w=fit.axis_minor * depth.resolution,
            food_median=food_median,
            axis_minor=fit.axis_minor,
            axis_major=fit.axis_major,
        ))
    return out


def derive_grasp(
    fit: EllipseFit, depth: DepthImage, archetype: FoodArchetype, instance_id: int
) -> GraspCandidate:
    """The one-fit case of derive_grasps; raises its ParameterError."""
    (cand,) = derive_grasps([fit], depth, archetype, [instance_id])
    if isinstance(cand, ParameterError):
        raise cand
    return cand


def _finger_half_sizes(resolution: float) -> tuple[float, float]:
    """Half-sizes in px of a contact rectangle, along the grasp axis and across."""
    return FINGER_WIDTH / 2.0 / resolution, FINGER_BREADTH / 2.0 / resolution


def _contact_rectangles(c: GraspCandidate, resolution: float) -> list[tuple[float, float, float, float]]:
    """(cx, cy, cos c.theta, sin c.theta) in px of each contact rectangle."""
    d_px = (c.w / 2.0 + FINGER_CLEARANCE + FINGER_WIDTH / 2.0) / resolution
    ux, uy = math.cos(c.theta), math.sin(c.theta)
    return [(c.x + side * d_px * ux, c.y + side * d_px * uy, ux, uy) for side in (-1.0, 1.0)]


def filter_grasps(cands: list[GraspCandidate], depth: DepthImage) -> list[GraspCandidate]:
    """Annotate contact medians and keep candidates whose both contact-region
    medians are strictly below the food-area median.

    Filtered candidates stay in the input list with reason tags; the returned
    list holds the retained ones. Every candidate's annotations are set
    afresh, so a list can be filtered again. All 2N contact rectangles are
    rasterized and their medians taken in a few vectorised passes.
    """
    rects = [rect for c in cands for rect in _contact_rectangles(c, depth.resolution)]
    flat, counts = _rectangle_pixels(depth.heights.shape, rects, *_finger_half_sizes(depth.resolution))
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
    filtering_enabled: bool = True,
) -> Plan:
    """Full detection pipeline: fit, derive, filter (optional), select.
    Masks and a depth image of different raster shapes raise ParameterError,
    and so does a filtering_enabled that is not a bool."""
    check_type("filtering_enabled", filtering_enabled, bool)
    if depth.heights.shape != tuple(masks.shape):
        (dh, dw), (mh, mw) = depth.heights.shape, masks.shape
        raise ParameterError(f"depth is {dh} x {dw} px, the masks' raster {mh} x {mw} px")
    candidates: list[GraspCandidate] = []
    skipped: dict[int, str] = {}
    fits = fit_ellipses([(w.local, (w.slices[0].start, w.slices[1].start)) for w in masks.windows])
    fitted = [(w.id, fit) for w, fit in zip(masks.windows, fits) if not isinstance(fit, FitError)]
    derived = iter(derive_grasps([fit for _, fit in fitted], depth, archetype, [i for i, _ in fitted]))
    for w, fit in zip(masks.windows, fits):
        cand = fit if isinstance(fit, FitError) else next(derived)
        if isinstance(cand, GraspCandidate):
            candidates.append(cand)
        else:
            skipped[w.id] = str(cand)
    if filtering_enabled:
        retained = filter_grasps(candidates, depth)
    else:
        retained = list(candidates)
    target = select_grasp(retained)
    return Plan(candidates, target, skipped, filtering_enabled)


def filter_plan(p: Plan, depth: DepthImage) -> Plan:
    """What plan returns with filtering on, from p, its unfiltered plan of
    the same masks, depth and archetype, without fitting again.
    filter_grasps annotates copies of p's candidates, so p stays as it was."""
    candidates = [replace(c) for c in p.candidates]
    return Plan(candidates, select_grasp(filter_grasps(candidates, depth)), dict(p.skipped), True)


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
