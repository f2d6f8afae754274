"""Windowed per-mask computations equal the full-raster formulas they replace.

Each oracle below is the full-raster implementation the windowed code
replaced, kept verbatim (render_masks both as its definition, one
full-raster owner-map compare per piece, and as the find_objects scan it
used before reading recorded windows) so the property tests can require
exact equality: same pixels, same medians, same fractions, same RNG draws.
The same holds for the box-limited stamp rasterizer, the in-place depth
quantization, the partition median and the batched contact medians, each
against the code it replaced or np.median, and for scene generation, whose
oracle tries each drop as it draws it with scalar Generator.uniform calls,
rasterizing every stamp on its own over the full square.
plan's one stacked eigen-solve per tray is held to one fit_ellipse and
derive_grasp per window, the jaw and sweep to their own rectangles, each
piece's recorded window to a fresh stamp_window, the extreme-corner
tray-wall test to the four corners of each finger rectangle, and the one
contact rule and one overlap rule of both fingers to the loop per finger
kind they replaced.
"""
from __future__ import annotations

import math

import copy
import dataclasses
from collections import Counter
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from traypick import scenegen
from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.errors import FitError, ParameterError, PlacementError
from traypick.grids import read_pgm16
from traypick.graspsim import (
    MAX_FORCE,
    PIERCE_BLOCK,
    RETRACTION_BUDGET,
    FingerInsertion,
    FingerKind,
    _damage,
    _grasp_regions,
    _insert_one,
    _piece_tops,
    _visible_fraction_in,
    close_and_lift,
    execute_grasp,
    insert_fingers,
)
from traypick.perception import (
    IOU_THRESHOLDS,
    CorruptionParams,
    DepthImage,
    InstanceMaskSet,
    MaskWindow,
    _bbox,
    _cropped,
    _morph_jitter,
    _pixels_in,
    agreement,
    corrupt_masks,
    load_masks,
    render_depth,
    render_masks,
    save_masks,
)
from traypick.planner import (
    FINGER_BREADTH,
    FINGER_CLEARANCE,
    FINGER_WIDTH,
    EllipseFit,
    GraspCandidate,
    Plan,
    _contact_rectangles,
    _ellipse_spans,
    _finger_half_sizes,
    _rectangle_pixels,
    _segment_medians,
    _spans_to_flat,
    derive_grasp,
    derive_grasps,
    filter_grasps,
    fit_ellipse,
    median,
    plan,
    plan_to_dict,
    select_grasp,
)
from traypick.scenegen import (
    DEFAULT_TRAY_DIMS,
    PieceInstance,
    PieceStamp,
    SceneConfig,
    drop_piece,
    empty_scene,
    generate_scene,
    load_scene,
    rasterize_stamps,
    recompose,
    save_scene,
    stamp_window,
    visible_window,
)

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# full-raster oracles


def oracle_fit_ellipse(mask: np.ndarray) -> EllipseFit:
    ys, xs = np.nonzero(mask)
    n = xs.size
    if n < 5:
        raise FitError(f"mask has {n} pixels, need >= 5")
    mx, my = xs.mean(), ys.mean()
    dx, dy = xs - mx, ys - my
    cov = np.array([[dx @ dx / n, dx @ dy / n], [dx @ dy / n, dy @ dy / n]])
    if np.linalg.eigvalsh(cov)[0] <= 1e-9:
        raise FitError("degenerate mask: rank-deficient pixel covariance")
    cov[0, 0] += 1.0 / 12.0
    cov[1, 1] += 1.0 / 12.0
    evals, evecs = np.linalg.eigh(cov)
    minor_vec = evecs[:, 0]
    theta = math.atan2(minor_vec[1], minor_vec[0]) % math.pi
    return EllipseFit(float(mx), float(my), theta, 4.0 * math.sqrt(evals[0]), 4.0 * math.sqrt(evals[1]))


def oracle_ellipse_interior(fit: EllipseFit, shape: tuple[int, int]) -> np.ndarray:
    a = fit.axis_minor / 2.0
    b = fit.axis_major / 2.0
    r = math.ceil(max(a, b)) + 1
    r0 = max(0, int(fit.y) - r)
    r1 = min(shape[0], int(fit.y) + r + 2)
    c0 = max(0, int(fit.x) - r)
    c1 = min(shape[1], int(fit.x) + r + 2)
    out = np.zeros(shape, dtype=bool)
    if r1 <= r0 or c1 <= c0:
        return out
    ys, xs = np.mgrid[r0:r1, c0:c1]
    dx = xs - fit.x
    dy = ys - fit.y
    c, s = math.cos(fit.theta), math.sin(fit.theta)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    out[r0:r1, c0:c1] = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return out


def oracle_rectangle_mask(shape, center_px, theta, half_len_px, half_breadth_px) -> np.ndarray:
    cx, cy = center_px
    r = math.ceil(math.hypot(half_len_px, half_breadth_px)) + 1
    r0 = max(0, int(cy) - r)
    r1 = min(shape[0], int(cy) + r + 2)
    c0 = max(0, int(cx) - r)
    c1 = min(shape[1], int(cx) + r + 2)
    out = np.zeros(shape, dtype=bool)
    if r1 <= r0 or c1 <= c0:
        return out
    ys, xs = np.mgrid[r0:r1, c0:c1]
    dx = xs - cx
    dy = ys - cy
    c, s = math.cos(theta), math.sin(theta)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    out[r0:r1, c0:c1] = (np.abs(u) <= half_len_px) & (np.abs(v) <= half_breadth_px)
    return out


def oracle_contact_regions(c, resolution, shape):
    d_px = (c.w / 2.0 + FINGER_CLEARANCE + FINGER_WIDTH / 2.0) / resolution
    ux, uy = math.cos(c.theta), math.sin(c.theta)
    half_len = FINGER_WIDTH / 2.0 / resolution
    half_breadth = FINGER_BREADTH / 2.0 / resolution
    left = oracle_rectangle_mask(shape, (c.x - d_px * ux, c.y - d_px * uy), c.theta, half_len, half_breadth)
    right = oracle_rectangle_mask(shape, (c.x + d_px * ux, c.y + d_px * uy), c.theta, half_len, half_breadth)
    return left, right


def oracle_jaw_region(scene, c, outer):
    half_len_mm = c.w / 2.0 + FINGER_CLEARANCE + (FINGER_WIDTH if outer else 0.0)
    half_breadth_px = max(FINGER_BREADTH / 2.0 / scene.resolution, c.axis_major / 2.0)
    return oracle_rectangle_mask(
        scene.shape, (c.x, c.y), c.theta, half_len_mm / scene.resolution, half_breadth_px
    )


def oracle_finger_corners(scene, c):
    """The four corners (px, py) of each finger rectangle, as the per-corner
    tray-wall loop computed them."""
    hl, hb = _finger_half_sizes(scene.resolution)
    fingers = []
    for cx, cy, ux, uy in _contact_rectangles(c, scene.resolution):
        vx, vy = -uy, ux
        fingers.append([(cx + su * hl * ux + sv * hb * vx, cy + su * hl * uy + sv * hb * vy)
                        for su in (-1.0, 1.0) for sv in (-1.0, 1.0)])
    return fingers


def oracle_wall_contacts(scene, c):
    """Whether each finger rectangle has a corner beyond the raster."""
    ny, nx = scene.shape
    return tuple(any(not (0.0 <= px <= nx - 1 and 0.0 <= py <= ny - 1) for px, py in corners)
                 for corners in oracle_finger_corners(scene, c))


def oracle_pieces_in_region(scene, region):
    """Heights of each piece's pixels among the flat raster indices region."""
    owners = scene.owner_map.take(region)
    heights = scene.heightmap.take(region)
    return {int(pid): heights[owners == pid] for pid in np.unique(owners) if pid != 0}


def oracle_insert_one(scene, region, h, fm):
    """_insert_one with one contact loop per finger kind and the adaptive
    force written out."""
    if not region.size:
        return FingerInsertion(h, h, 0.0, {}, False)
    obstruction = max(0.0, float(scene.heightmap.take(region).max()) - h)
    by_piece = oracle_pieces_in_region(scene, region)
    contacts = {}
    if fm is FingerKind.FIXED:
        blocked = False
        for pid, heights in by_piece.items():
            pen = float(heights.max()) - h
            if pen <= 0:
                continue
            contacts[pid] = pen
            if pen > PIERCE_BLOCK:
                blocked = True
        return FingerInsertion(h, h, 0.0, contacts, blocked)
    retraction = min(obstruction, RETRACTION_BUDGET)
    force = MAX_FORCE / RETRACTION_BUDGET * retraction
    for pid, heights in by_piece.items():
        if float(heights.max()) > h:
            contacts[pid] = force
    return FingerInsertion(h, h + retraction, retraction, contacts, obstruction > RETRACTION_BUDGET)


def oracle_sweep_damage(scene, sweep, picked, max_bottom, fm, damaged):
    """close_and_lift's closure-damage loop with the spring rule inline."""
    for pid, heights in oracle_pieces_in_region(scene, sweep).items():
        if pid in picked:
            continue
        overlap = float(heights.max()) - max_bottom
        if overlap <= 0:
            continue
        magnitude = (overlap if fm is FingerKind.FIXED
                     else MAX_FORCE / RETRACTION_BUDGET * min(overlap, RETRACTION_BUDGET))
        _damage(scene, fm, pid, magnitude, damaged)
    return damaged


def oracle_visible_fraction_in(scene, pid, region) -> float:
    if pid not in scene.pieces:
        return 0.0
    visible = scene.owner_map == pid
    total = int(np.count_nonzero(visible))
    if total == 0:
        return 0.0
    return int(np.count_nonzero(visible & region)) / total


def oracle_render_masks(scene):
    """render_masks as one ndimage.find_objects scan of the owner map, each
    window the bounding box of its label."""
    windows = []
    slices = ndimage.find_objects(scene.owner_map, max_label=scene.next_id - 1)
    for pid in sorted(scene.pieces):
        sl = slices[pid - 1] if pid - 1 < len(slices) else None
        if sl is not None:
            windows.append(MaskWindow(pid, sl, scene.owner_map[sl] == pid))
    return InstanceMaskSet(windows, scene.shape, "ground_truth")


def oracle_full_raster_masks(scene):
    """render_masks with one full raster per mask."""
    masks = []
    for pid in sorted(scene.pieces):
        full = scene.owner_map == pid
        if full.any():
            masks.append((pid, full))
    return masks


def oracle_adjacent(a, b, ba, bb):
    if ba is None or bb is None:
        return False
    ny, nx = a.shape
    r0 = max(ba[0] - 1, bb[0] - 1, 0)
    r1 = min(ba[1] + 1, bb[1] + 1, ny)
    c0 = max(ba[2] - 1, bb[2] - 1, 0)
    c1 = min(ba[3] + 1, bb[3] + 1, nx)
    if r1 <= r0 or c1 <= c0:
        return False
    win = (slice(r0, r1), slice(c0, c1))
    return bool(
        (ndimage.binary_dilation(a[win], structure=np.ones((3, 3), bool)) & b[win]).any()
    )


def oracle_morph_jitter(mask, steps):
    box = _bbox(mask)
    if box is None:
        return mask
    pad = abs(steps) + 1
    r0 = max(box[0] - pad, 0)
    r1 = min(box[1] + pad, mask.shape[0])
    c0 = max(box[2] - pad, 0)
    c1 = min(box[3] + pad, mask.shape[1])
    win = (slice(r0, r1), slice(c0, c1))
    out = np.zeros_like(mask)
    if steps > 0:
        out[win] = ndimage.binary_dilation(mask[win], iterations=steps)
    else:
        out[win] = ndimage.binary_erosion(mask[win], iterations=-steps)
    return out


def oracle_corrupt_masks(masks, params, rng):
    """corrupt_masks on full rasters with the unpruned O(n^2) merge scan;
    returns (id, full raster) pairs and the confidences."""
    jittered = []
    for pid, mask in masks.masks:
        m = mask
        if params.boundary_jitter > 0:
            steps = int(rng.integers(-params.boundary_jitter, params.boundary_jitter + 1))
            if steps != 0:
                m = oracle_morph_jitter(m, steps)
                if not m.any():
                    continue
        jittered.append((pid, m))
    parent = {pid: pid for pid, _ in jittered}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if params.merge_prob > 0:
        by_id = dict(jittered)
        ids = sorted(by_id)
        boxes = {pid: _bbox(by_id[pid]) for pid in ids}
        for i_idx, i in enumerate(ids):
            for j in ids[i_idx + 1 :]:
                if oracle_adjacent(by_id[i], by_id[j], boxes[i], boxes[j]) and (
                    rng.random() < params.merge_prob
                ):
                    parent[find(j)] = find(i)
    groups = {}
    for pid, m in jittered:
        groups.setdefault(find(pid), []).append(m)
    out, confidences = [], {}
    for root in sorted(groups):
        merged = groups[root][0]
        for m in groups[root][1:]:
            merged = merged | m
        if params.drop_prob > 0 and rng.random() < params.drop_prob:
            continue
        out.append((root, merged))
        confidences[root] = float(rng.uniform(0.5, 1.0))
    return out, confidences


def oracle_agreement_ious(pred, gt):
    """Every (pred, gt) pair's IoU on the full rasters: shared pixels over
    the pixels of either, 0 when both are empty."""
    def iou(a, b):
        union = np.count_nonzero(a | b)
        return np.count_nonzero(a & b) / union if union else 0.0

    return np.array([[iou(pm, gm) for _, gm in gt.masks] for _, pm in pred.masks])


def oracle_recompose(scene):
    """recompose over fresh full rasters, and each piece's occlusion flag
    from a compare of the whole owner map."""
    heightmap = np.zeros(scene.shape)
    owner_map = np.zeros(scene.shape, dtype=np.int32)
    for pid in sorted(scene.pieces):
        piece = scene.pieces[pid]
        win, st = stamp_window(scene, piece.stamp, piece.position)
        new_top = piece.rest_height + piece.stamp.top[st]
        window = heightmap[win]
        raised = piece.stamp.mask[st] & (new_top > window)
        window[raised] = new_top[raised]
        owner_map[win][raised] = pid
    flags = {pid: not (owner_map == pid).any() for pid in scene.pieces}
    return heightmap, owner_map, flags


def oracle_rasterize_stamp(semi_a, semi_b, exponent, peak, rotation, resolution):
    """(top, mask) of the superellipse evaluated over the whole square stamp."""
    half_mm = max(semi_a, semi_b)
    half_px = int(math.ceil(half_mm / resolution)) + 1
    side = 2 * half_px + 1
    coords = (np.arange(side) - half_px) * resolution
    xs, ys = np.meshgrid(coords, coords)
    c, s = math.cos(rotation), math.sin(rotation)
    u = xs * c + ys * s
    v = -xs * s + ys * c
    f = np.abs(u / semi_a) ** exponent + np.abs(v / semi_b) ** exponent
    mask = f < 1.0
    top = np.zeros((side, side))
    top[mask] = peak * np.sqrt(1.0 - f[mask])
    return top, mask


def oracle_piece_stamp(archetype, scale, rotation, rng, res):
    """A generated piece's stamp from its own three jitter draws (axis-a,
    axis-b, dome), on the full-square rasterizer."""
    j = archetype.jitter
    ja, jb, jd = 1.0 + rng.uniform(-j, j, 3)
    semi_a = archetype.semi_axes_mm[0] * scale * ja
    semi_b = archetype.semi_axes_mm[1] * scale * jb
    peak = archetype.dome_ratio * 0.5 * (semi_a + semi_b) * jd
    top, mask = oracle_rasterize_stamp(semi_a, semi_b, archetype.exponent, peak, rotation, res)
    params = {"semi_a": semi_a, "semi_b": semi_b, "exponent": archetype.exponent,
              "peak": peak, "rotation": rotation}
    return PieceStamp(top=top, mask=mask, params=params, resolution=res)


def oracle_drop_piece(scene, stamp, x, y, archetype_name):
    """drop_piece with its support and raised pixels gathered by indexing."""
    if not (0 <= x < scene.tray_dims[0] and 0 <= y < scene.tray_dims[1]):
        raise PlacementError(f"drop position ({x}, {y}) outside tray")
    win, st = stamp_window(scene, stamp, (x, y))
    if win[0].stop <= win[0].start or win[1].stop <= win[1].start:
        raise PlacementError("stamp footprint entirely outside tray")
    mask = stamp.mask[st]
    window = scene.heightmap[win]
    support = window[mask]
    if not support.size:
        raise PlacementError("clipped footprint is empty")
    top = stamp.top[st]
    rest = float(max(0.0, support.max()))
    new_top = rest + top
    raised = mask & (new_top > window)

    piece_id = scene.next_id
    scene.next_id += 1
    window[raised] = new_top[raised]
    scene.owner_map[win][raised] = piece_id

    piece = PieceInstance(
        id=piece_id,
        archetype=archetype_name,
        stamp=stamp,
        position=(x, y),
        window=(win, st),
        rest_height=rest,
    )
    scene.pieces[piece_id] = piece
    return piece


def oracle_generate_scene(config, seed):
    """generate_scene as one draw, rasterize, try-drop loop per piece. Also
    returns how many drop positions were rejected and how many pieces were
    skipped."""
    config.validate()
    arch = config.archetypes[config.archetype]
    rng = np.random.default_rng(seed)
    scene = empty_scene(config.archetypes, config.tray_dims, config.resolution, seed)

    # the appearance record's four draw calls, their values discarded
    rng.uniform(0.0, 2.0 * math.pi)
    rng.uniform(math.pi / 6, math.pi / 2)
    rng.uniform(0.5, 1.0, 3)
    rng.random()

    rejected = skipped = 0
    count = int(rng.integers(arch.count_range[0], arch.count_range[1] + 1))
    for _ in range(count):
        scale = float(rng.uniform(*arch.scale_range))
        rotation = float(rng.uniform(0.0, math.pi))
        stamp = oracle_piece_stamp(arch, scale, rotation, rng, scene.resolution)
        for _ in range(scenegen.MAX_PLACEMENT_RETRIES):
            x = float(rng.uniform(0.0, config.tray_dims[0]))
            y = float(rng.uniform(0.0, config.tray_dims[1]))
            try:
                oracle_drop_piece(scene, stamp, x, y, arch.name)
            except PlacementError:
                rejected += 1
                continue
            break
        else:
            skipped += 1
    return scene, rejected, skipped


def oracle_render_depth(scene, sigma, quant, rng):
    """Depth heights with quantization on freshly allocated temporaries."""
    heights = scene.heightmap.copy()
    if sigma > 0:
        heights += rng.normal(0.0, sigma, heights.shape)
    np.maximum(heights, 0.0, out=heights)
    if quant > 0:
        heights = np.ceil(heights / quant - 0.5) * quant
        np.maximum(heights, 0.0, out=heights)
    return heights


# ---------------------------------------------------------------------------
# strategies

shapes = st.tuples(st.integers(1, 48), st.integers(1, 48))
# centres well inside, on the edge of and entirely outside a <= 48 px raster
coords = st.floats(-90.0, 140.0, allow_nan=False)
# 0, pi/2 (cos 6.1e-17) and the last double below pi among any angle
thetas = st.one_of(st.sampled_from([0.0, math.pi / 2, math.nextafter(math.pi, 0.0)]),
                   st.floats(0.0, math.pi, allow_nan=False, exclude_max=True))
axes = st.floats(0.6, 50.0, allow_nan=False)


@st.composite
def fits(draw):
    a, b = sorted((draw(axes), draw(axes)))
    return EllipseFit(draw(coords), draw(coords), draw(thetas), a, b)


@st.composite
def candidates(draw):
    fit = draw(fits())
    return GraspCandidate(
        instance_id=1, x=fit.x, y=fit.y, theta=fit.theta, h=0.0,
        w=draw(st.floats(0.5, 60.0)), food_median=draw(st.floats(0.0, 40.0)),
        axis_minor=fit.axis_minor, axis_major=fit.axis_major,
    )


def heights_for(shape, seed):
    return np.random.default_rng(seed).uniform(0.0, 40.0, shape).round(2)


# ---------------------------------------------------------------------------
# rotated windows


# shape counts per rasterizer call: none, one, two and many
batch_sizes = st.sampled_from([0, 1, 2, 17, 40])


@SETTINGS
@given(shape=shapes, data=st.data(), k=batch_sizes)
def test_ellipse_window_equals_full_raster(shape, data, k):
    """Each fit of a batch gets its full-raster interior, in raster order."""
    fit_list = data.draw(st.lists(fits(), min_size=k, max_size=k))
    flat, counts = ellipse_pixels(shape, fit_list)
    assert counts.shape == (k,) and flat.size == counts.sum()
    for fit, seg in zip(fit_list, segments(flat, counts)):
        assert (np.diff(seg) > 0).all()
        np.testing.assert_array_equal(paste_flat(shape, seg), oracle_ellipse_interior(fit, shape))


def ellipse_pixels(shape, fits):
    """Flat raster indices of the fits' interiors and each fit's count."""
    return _spans_to_flat(shape, *_ellipse_spans(shape, fits))


def paste_window(shape, fit) -> np.ndarray:
    """One fit's ellipse_pixels on a full raster."""
    return paste_flat(shape, ellipse_pixels(shape, [fit])[0])


def paste_flat(shape, flat) -> np.ndarray:
    out = np.zeros(shape[0] * shape[1], dtype=bool)
    out[flat] = True
    return out.reshape(shape)


def segments(flat, counts):
    return np.split(flat, np.cumsum(counts)[:-1])


# half-sizes from a tenth of a pixel (a rectangle thinner than a pixel) up
half_sizes = st.floats(0.1, 30.0)


@SETTINGS
@given(shape=shapes, data=st.data(), k=batch_sizes, half_len=half_sizes, half_breadth=half_sizes,
       each=st.booleans())
def test_rectangle_pixels_equal_full_raster(shape, data, k, half_len, half_breadth, each):
    """Each rectangle of a batch gets its full-raster pixels, in raster
    order, with one pair of half-sizes for the batch or, when each, one
    pair per rectangle (as the jaw and sweep take)."""
    centres_angles = data.draw(st.lists(st.tuples(coords, coords, thetas), min_size=k, max_size=k))
    rects = [(cx, cy, math.cos(t), math.sin(t)) for cx, cy, t in centres_angles]
    sizes = data.draw(st.lists(st.tuples(half_sizes, half_sizes), min_size=k, max_size=k)) if each \
        else [(half_len, half_breadth)] * k
    if each:
        flat, counts = _rectangle_pixels(shape, rects, [hl for hl, _ in sizes], [hb for _, hb in sizes])
    else:
        flat, counts = _rectangle_pixels(shape, rects, half_len, half_breadth)
    assert counts.shape == (k,) and flat.size == counts.sum()
    for (cx, cy, theta), (hl, hb), seg in zip(centres_angles, sizes, segments(flat, counts)):
        assert (np.diff(seg) > 0).all()  # raster order, as a window's pixels are
        np.testing.assert_array_equal(paste_flat(shape, seg), oracle_rectangle_mask(shape, (cx, cy), theta, hl, hb))


def test_fully_clipped_windows_index_cleanly():
    heights = np.ones((20, 30))
    for cx, cy in [(-500.0, 10.0), (10.0, -500.0), (500.0, 500.0), (-500.0, -500.0), (60.0, 10.0)]:
        flat, counts = _rectangle_pixels(heights.shape, [(cx, cy, math.cos(0.3), math.sin(0.3))], 2.0, 3.0)
        assert heights.take(flat).size == 0 and counts.tolist() == [0]
        flat, counts = ellipse_pixels(heights.shape, [EllipseFit(cx, cy, 0.3, 4.0, 6.0)])
        assert heights.take(flat).size == 0 and counts.tolist() == [0]


@settings(max_examples=500, deadline=None, suppress_health_check=list(HealthCheck))
@given(theta=thetas, a=st.floats(0.3, 25.0), b=st.floats(0.3, 25.0), quarter_ulps=st.integers(-8, 8),
       axis=st.sampled_from("xy"))
def test_ellipse_window_keeps_pixels_at_the_extent(theta, a, b, quarter_ulps, axis):
    """The ellipse's extreme point in x (or y) sits within ulps of a pixel,
    where rounding decides the test; the window keeps that pixel exactly as
    the full square does. The centre is placed below 1.5 px on that axis so
    its own rounding is finer than the extent's."""
    c, s = math.cos(theta), math.sin(theta)
    ext = math.hypot(a * c, b * s) if axis == "x" else math.hypot(a * s, b * c)
    other = (a * a - b * b) * s * c / ext  # the extreme point's offset on the other axis
    near = math.ceil(ext + 0.5) - ext + quarter_ulps * math.ulp(ext) / 4
    x, y = (near, 60.0 - other) if axis == "x" else (60.0 - other, near)
    fit = EllipseFit(x, y, theta, 2.0 * a, 2.0 * b)
    np.testing.assert_array_equal(paste_window((120, 120), fit), oracle_ellipse_interior(fit, (120, 120)))


def span_cases():
    """A 40 x 48 raster with 24 rectangles and 24 ellipses: centres on it,
    at its edges and off it; theta 0, pi/2, the last double below pi and
    others; rectangles thinner than a pixel, per-rectangle half-sizes, and
    centres on pixel centres and halfway between."""
    rng = np.random.default_rng(26)
    angles = [0.0, math.pi / 2, math.nextafter(math.pi, 0.0), *rng.uniform(0.0, math.pi, 21)]
    centres = [(20.0, 17.0), (20.5, 17.5), (-3.0, 10.0), (47.6, 39.2), *rng.uniform(-12.0, 60.0, (20, 2))]
    rects = [(cx, cy, math.cos(t), math.sin(t)) for (cx, cy), t in zip(centres, angles)]
    half_len = [0.2, 0.45, 0.5, *rng.uniform(0.1, 12.0, 21)]
    half_breadth = [0.3, 6.0, 0.5, *rng.uniform(0.1, 12.0, 21)]
    fit_list = [EllipseFit(cx, cy, t, a, a + d)
                for (cx, cy), t, a, d in zip(centres, angles, rng.uniform(0.6, 15.0, 24), rng.uniform(0.0, 20.0, 24))]
    return (40, 48), angles, rects, half_len, half_breadth, fit_list


OFFSETS = (-40, -2, -1, 1, 2, 40)


@pytest.mark.parametrize("off_last", OFFSETS)
@pytest.mark.parametrize("off_first", OFFSETS)
def test_spans_never_rest_on_the_estimate(monkeypatch, off_first, off_last):
    """With every span estimate moved off by whole pixels, the rows the
    certificate refuses are tested column by column, and the pixels stay
    the same, bit for bit, as the oracles' and the true estimate's."""
    from traypick import planner

    shape, angles, rects, half_len, half_breadth, fit_list = span_cases()
    expected = (_rectangle_pixels(shape, rects, half_len, half_breadth), ellipse_pixels(shape, fit_list))
    for (cx, cy, _, _), theta, hl, hb, seg in zip(rects, angles, half_len, half_breadth, segments(*expected[0])):
        np.testing.assert_array_equal(paste_flat(shape, seg), oracle_rectangle_mask(shape, (cx, cy), theta, hl, hb))
    for fit, seg in zip(fit_list, segments(*expected[1])):
        np.testing.assert_array_equal(paste_flat(shape, seg), oracle_ellipse_interior(fit, shape))
    slab, ellipse = planner._slab_estimate, planner._ellipse_estimate
    monkeypatch.setattr(planner, "_slab_estimate",
                        lambda *args: slab(*args) + np.reshape((off_first, off_last), (2, 1, 1)))
    monkeypatch.setattr(planner, "_ellipse_estimate", lambda *args: tuple(
        e + off for e, off in zip(ellipse(*args), (off_first, off_last, off_first))))
    got = (_rectangle_pixels(shape, rects, half_len, half_breadth), ellipse_pixels(shape, fit_list))
    for (flat, counts), (want_flat, want_counts) in zip(got, expected):
        assert flat.dtype == want_flat.dtype
        np.testing.assert_array_equal(flat, want_flat)
        np.testing.assert_array_equal(counts, want_counts)


# ---------------------------------------------------------------------------
# ellipse fit


@st.composite
def border_masks(draw):
    mask = draw(arrays(bool, shapes))
    for edge in draw(st.lists(st.sampled_from(["top", "bottom", "left", "right"]), unique=True)):
        sl = {"top": (0, slice(None)), "bottom": (-1, slice(None)),
              "left": (slice(None), 0), "right": (slice(None), -1)}[edge]
        mask[sl] = True
    return mask


@SETTINGS
@given(mask=border_masks())
def test_fit_ellipse_bit_identical(mask):
    try:
        expected = oracle_fit_ellipse(mask)
    except FitError as exc:
        with pytest.raises(FitError, match=str(exc)):
            fit_ellipse(mask)
        return
    assert fit_ellipse(mask) == expected
    (w,) = InstanceMaskSet.from_rasters([(1, mask)]).windows
    assert fit_ellipse(w.local, (w.slices[0].start, w.slices[1].start)) == expected


@st.composite
def near_degenerate_masks(draw):
    """Masks whose covariance is singular or nearly so: digital lines at any
    angle, 5-px masks and two-row slivers."""
    mask = np.zeros((64, 64), dtype=bool)
    kind = draw(st.sampled_from(["line", "five", "sliver"]))
    if kind == "line":
        angle = draw(st.floats(0.0, math.pi))
        length = draw(st.integers(4, 60))
        t = np.arange(length)
        rows = np.rint(2.0 + 58.0 * (math.sin(angle) < 0) + t * math.sin(angle)).astype(int)
        cols = np.rint(32.0 + t * math.cos(angle) / 2.0).astype(int)
        mask[rows.clip(0, 63), cols.clip(0, 63)] = True
        if draw(st.booleans()):  # one stray pixel beside the line
            mask[min(rows[0] + 1, 63), cols[0]] = True
    elif kind == "five":
        cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=5, max_size=5, unique=True))
        for r, c in cells:
            mask[30 + r, 30 + c] = True
    else:
        lo, hi = sorted(draw(st.lists(st.integers(0, 63), min_size=2, max_size=2, unique=True)))
        mask[20, lo:hi + 1] = True
        c0, c1 = sorted(draw(st.lists(st.integers(0, 64), min_size=2, max_size=2, unique=True)))
        mask[21, c0:c1] = True
    return mask


@settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
@given(mask=near_degenerate_masks())
@example(mask=np.eye(9, dtype=bool))
@example(mask=np.pad(np.ones((1, 7), dtype=bool), 3))
def test_fit_ellipse_near_degenerate_bit_identical(mask):
    test_fit_ellipse_bit_identical.hypothesis.inner_test(mask)


# ---------------------------------------------------------------------------
# plan: every window's moments, then one stacked eigen-solve


def oracle_plan(masks, depth, archetype, filtering_enabled):
    """plan with one fit_ellipse and one derive_grasp per window."""
    candidates, skipped = [], {}
    for w in masks.windows:
        rows, cols = w.slices
        try:
            fit = fit_ellipse(w.local, (rows.start, cols.start))
            cand = derive_grasp(fit, depth, archetype, w.id)
        except (FitError, ParameterError) as exc:
            skipped[w.id] = str(exc)
            continue
        candidates.append(cand)
    retained = filter_grasps(candidates, depth) if filtering_enabled else list(candidates)
    return Plan(candidates, select_grasp(retained), skipped, filtering_enabled)


def assert_plan_equals_per_window_fits(masks, depth, filtering_enabled):
    archetype = DEFAULT_ARCHETYPES["mushroom"]
    got = plan(masks, depth, archetype, filtering_enabled)
    expected = oracle_plan(masks, depth, archetype, filtering_enabled)
    assert ([(c.x, c.y, c.theta, c.axis_minor, c.axis_major) for c in got.candidates]
            == [(c.x, c.y, c.theta, c.axis_minor, c.axis_major) for c in expected.candidates])
    assert list(got.skipped.items()) == list(expected.skipped.items())  # same ids, order, messages
    assert repr(plan_to_dict(got)) == repr(plan_to_dict(expected))  # repr tells every float apart
    return got


@st.composite
def mixed_mask_sets(draw):
    """(mask set, depth shape): scattered label masks, some under 5 px,
    digital lines, whose covariance is rank-deficient, and compact blobs;
    a depth raster cut short is refused. Ids come in shuffled order."""
    h, w = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    labels = draw(arrays(np.int32, (h, w), elements=st.integers(0, 6)))
    rasters = [labels == p for p in range(1, 7)]
    for kind in draw(st.lists(st.sampled_from(["row", "column", "diagonal", "blob"]), max_size=6)):
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        k = draw(st.integers(2, 12))
        mask = np.zeros((h, w), dtype=bool)
        if kind == "row":
            mask[r, c:c + k] = True
        elif kind == "column":
            mask[r:r + k, c] = True
        elif kind == "diagonal":
            idx = np.arange(min(k, h - r, w - c))
            mask[r + idx, c + idx] = True
        else:
            mask[r:r + k // 4 + 2, c:c + k // 3 + 2] = True
        rasters.append(mask)
    ids = draw(st.permutations(range(1, len(rasters) + 1)))
    masks = InstanceMaskSet.from_rasters([(i, m) for i, m in zip(ids, rasters) if m.any()], shape=(h, w))
    depth_shape = (draw(st.integers(1, h)), draw(st.integers(1, w)))
    return masks, depth_shape


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(case=mixed_mask_sets(), seed=st.integers(0, 2**32 - 1), filtering_enabled=st.booleans())
@example(case=(InstanceMaskSet([], (5, 7)), (5, 7)), seed=0, filtering_enabled=True)
def test_plan_batched_fit_equals_per_window_fits(case, seed, filtering_enabled):
    masks, depth_shape = case
    if depth_shape != masks.shape:
        with pytest.raises(ParameterError, match="the masks' raster"):
            plan(masks, DepthImage(heights_for(depth_shape, seed), 0.7), DEFAULT_ARCHETYPES["mushroom"])
    assert_plan_equals_per_window_fits(masks, DepthImage(heights_for(masks.shape, seed), 0.7), filtering_enabled)


def test_plan_batched_fit_skips_as_per_window_fits():
    """Each way a window fails, between windows that fit, and a set where
    every window fails."""
    shape = (30, 40)
    rasters = {}
    for pid, (r0, r1, c0, c1) in {4: (2, 9, 3, 12), 9: (1, 2, 5, 9), 2: (12, 20, 20, 27),
                                  7: (5, 6, 2, 30), 3: (25, 29, 33, 39), 8: (15, 28, 3, 4)}.items():
        rasters[pid] = np.zeros(shape, dtype=bool)
        rasters[pid][r0:r1, c0:c1] = True
    rasters[5] = np.eye(*shape, dtype=bool)  # a diagonal line
    depth = DepthImage(heights_for(shape, 1), 0.7)
    masks = InstanceMaskSet.from_rasters(list(rasters.items()), shape=shape)
    got = assert_plan_equals_per_window_fits(masks, depth, True)
    assert [c.instance_id for c in got.candidates] == [4, 2, 3]
    assert list(got.skipped) == [9, 7, 8, 5]
    assert {*got.skipped.values()} == {
        "mask has 4 pixels, need >= 5", "degenerate mask: rank-deficient pixel covariance"}
    failing = InstanceMaskSet.from_rasters([(i, rasters[i]) for i in (9, 7, 8, 5)], shape=shape)
    got = assert_plan_equals_per_window_fits(failing, depth, True)
    assert (got.candidates, got.target, list(got.skipped)) == ([], None, [9, 7, 8, 5])
    # a depth raster that leaves blob 3 out is refused, not planned on clipped windows
    with pytest.raises(ParameterError, match="depth is 24 x 32 px, the masks' raster 30 x 40 px"):
        plan(masks, DepthImage(heights_for((24, 32), 1), 0.7), DEFAULT_ARCHETYPES["mushroom"])


# ---------------------------------------------------------------------------
# contact and food medians


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def nan_with_payload(bits: int) -> float:
    """The NaN whose IEEE bits are bits, e.g. 0x7ff8000000000001."""
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Two quiet NaNs and a negative one, told apart only by their bits. np.sort
# may rewrite a NaN's payload (numpy's x86-64 AVX-512 sort returned
# 0x7ff8000000000000 for each of them), so a median taken from a plain sort
# would give other bits than np.median's.
NAN_A, NAN_B, NAN_NEG = (nan_with_payload(b) for b in (0x7FF8000000000001, 0x7FF8000000000002,
                                                       0xFFF8000000000003))


special_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
sample_values = st.one_of(special_floats, st.floats(-1e6, 1e6), st.floats(width=64))


def special_heights(shape, seed, mode):
    """Heights with ties, signed zeros or NaN, so medians land on -0.0 and NaN."""
    rng = np.random.default_rng(seed)
    heights = heights_for(shape, seed)
    if mode == "signed-zeros":
        heights = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    elif mode == "nan":
        heights[rng.random(shape) < 0.02] = np.nan
    elif mode == "ties":
        heights = rng.integers(0, 3, shape) * 10.0
    return heights


@SETTINGS
@given(shape=shapes, data=st.data(), seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 7, 8, 9, 16, 17]), mode=st.sampled_from(["plain", "signed-zeros", "nan", "ties"]),
       res=st.sampled_from([0.5, 0.7066666666666667, 1.3]))
def test_filter_medians_equal_full_raster(shape, data, seed, n, mode, res):
    """Every candidate of a tray, its 2n rectangles in one rasterizer call,
    gets the np.median of its full-raster contact regions, bit for bit, and
    the decision those medians give."""
    cands = data.draw(st.lists(candidates(), min_size=n, max_size=n))
    depth = DepthImage(special_heights(shape, seed, mode), res)
    regions = [oracle_contact_regions(c, res, shape) for c in cands]
    retained = filter_grasps(cands, depth)
    expected_retained = []
    for c, (left, right) in zip(cands, regions):
        flat, counts = _rectangle_pixels(shape, _contact_rectangles(c, res), *_finger_half_sizes(res))
        got_left, got_right = paste_flat(shape, flat[: counts[0]]), paste_flat(shape, flat[counts[0] :])
        np.testing.assert_array_equal(got_left, left)
        np.testing.assert_array_equal(got_right, right)
        if not left.any() or not right.any():
            assert (c.filtered, c.filter_reason, c.contact_medians) == (True, "out-of-tray", None)
            continue
        expected = (float(np.median(depth.heights[left])), float(np.median(depth.heights[right])))
        assert [float_bits(m) for m in c.contact_medians] == [float_bits(m) for m in expected]
        keep = expected[0] < c.food_median and expected[1] < c.food_median
        assert (c.filtered, c.filter_reason) == (
            (False, "") if keep else (True, "contact-median-too-high")
        )
        if keep:
            expected_retained.append(c)
    assert retained == expected_retained


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(runs=st.lists(st.lists(sample_values, max_size=40), max_size=20))
@example(runs=[[NAN_A, NAN_B], [1.0, 2.0], [NAN_B, 3.0, NAN_A], []])
def test_segment_medians_equal_median(runs):
    """Each run's median from the padded row sort is median()'s, bit for bit;
    an empty run gives inf."""
    counts = np.array([len(r) for r in runs], dtype=np.int64)
    values = np.array([v for r in runs for v in r], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _segment_medians(values, counts)
        expected = [median(np.array(r)) if r else math.inf for r in runs]
    assert [float_bits(m) for m in got] == [float_bits(m) for m in expected]


@SETTINGS
@given(shape=shapes, fit=fits(), seed=st.integers(0, 2**32 - 1))
def test_food_median_equals_full_raster(shape, fit, seed):
    depth = DepthImage(heights_for(shape, seed), 0.7)
    interior = oracle_ellipse_interior(fit, shape)
    if not interior.any():
        return
    cand = derive_grasp(fit, depth, DEFAULT_ARCHETYPES["mushroom"], 1)
    assert cand.food_median == float(np.median(depth.heights[interior]))


@pytest.mark.parametrize("pass_pixels", [1, 40, 1 << 15])
def test_food_medians_in_passes_equal_full_raster(monkeypatch, pass_pixels):
    """derive_grasps takes its heights in passes of whole fits; at any pass
    size each fit gets its full-raster median, bit for bit, and a fit off
    the raster its ParameterError."""
    from traypick import planner

    monkeypatch.setattr(planner, "_MEDIAN_PASS_PIXELS", pass_pixels)
    shape, *_, fit_list = span_cases()
    fit_list = [*fit_list[:5], EllipseFit(-80.0, 20.0, 0.4, 3.0, 5.0), *fit_list[5:]]
    depth = DepthImage(special_heights(shape, 7, "ties"), 0.7)
    got = derive_grasps(fit_list, depth, DEFAULT_ARCHETYPES["mushroom"], list(range(1, len(fit_list) + 1)))
    for i, (fit, cand) in enumerate(zip(fit_list, got), start=1):
        interior = oracle_ellipse_interior(fit, shape)
        if not interior.any():
            assert isinstance(cand, ParameterError) and str(cand) == "ellipse lies entirely outside the raster"
            continue
        assert cand.instance_id == i
        assert float_bits(cand.food_median) == float_bits(float(np.median(depth.heights[interior])))
    assert isinstance(got[5], ParameterError)


@st.composite
def median_inputs(draw):
    n = draw(st.integers(1, 600))
    if draw(st.booleans()):  # a few values, each repeated many times
        pool = draw(st.lists(sample_values, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return draw(arrays(np.float64, n, elements=sample_values))


@settings(max_examples=500, deadline=None, suppress_health_check=list(HealthCheck))
@given(values=median_inputs())
@example(values=np.array([-0.0]))
@example(values=np.array([-0.0, -0.0]))
@example(values=np.array([-5e-324, 0.0]))  # the halved sum rounds to -0.0
@example(values=np.array([1.0, math.nan, 2.0, 3.0]))
@example(values=np.array([math.inf, -math.inf]))
# NaN runs take np.median's payload: two payloads in both orders, a
# negative NaN, and odd-length runs holding NaN
@example(values=np.array([NAN_A, NAN_B]))
@example(values=np.array([NAN_B, NAN_A]))
@example(values=np.array([NAN_NEG, NAN_A]))
@example(values=np.array([1.0, NAN_A, 2.0]))
@example(values=np.array([NAN_A, NAN_NEG, 1.0, NAN_B, 2.0]))
def test_median_equals_numpy_bit_for_bit(values):
    before = values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.median(values))
        got = median(values)
    assert type(got) is float
    assert float_bits(got) == float_bits(expected)
    assert before.tobytes() == values.tobytes()  # the input is left as it was


# ---------------------------------------------------------------------------
# stamps and depth


@SETTINGS
@given(semi_a=st.floats(0.3, 40.0), semi_b=st.floats(0.3, 40.0),
       exponent=st.floats(0.0, 8.0, exclude_min=True) | st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 8.0]),
       peak=st.floats(0.0, 60.0), rotation=st.floats(0.0, math.pi),
       res=st.floats(0.3, 3.0) | st.just(424.0 / 600))
# semi-axes below one pixel give the smallest stamp (half_px 2, one row mirrored
# below the centre row); the rotations put the major axis on a raster axis or
# just short of its half-turn
@example(semi_a=0.6, semi_b=0.4, exponent=2.0, peak=10.0, rotation=0.3, res=424.0 / 600)
@example(semi_a=12.0, semi_b=5.0, exponent=2.5, peak=30.0, rotation=0.0, res=424.0 / 600)
@example(semi_a=12.0, semi_b=5.0, exponent=2.5, peak=30.0, rotation=math.pi / 2, res=424.0 / 600)
@example(semi_a=12.0, semi_b=5.0, exponent=2.5, peak=30.0, rotation=math.nextafter(math.pi, 0.0),
         res=424.0 / 600)
def test_rasterize_stamp_equals_full_square(semi_a, semi_b, exponent, peak, rotation, res):
    stamp = rasterize_stamps([(semi_a, semi_b, exponent, peak, rotation)], res)[0]
    top, mask = oracle_rasterize_stamp(semi_a, semi_b, exponent, peak, rotation, res)
    np.testing.assert_array_equal(stamp.mask, mask)
    assert stamp.top.tobytes() == top.tobytes()


@pytest.mark.parametrize("res", [424.0 / 600, 0.5, 1.3])
def test_rasterize_stamp_equals_its_slice_of_a_batch(res):
    """Stamps batched by side and exponent equal the same stamps rasterized
    one at a time, in one-shape batches, bit for bit."""
    rng = np.random.default_rng(17)
    rotations = [0.0, math.pi / 2, math.nextafter(math.pi, 0.0), *rng.uniform(0.0, math.pi, 87)]
    shapes = [
        (float(rng.uniform(3.0, 20.0)), float(rng.uniform(3.0, 20.0)),
         float(rng.choice([2.0, 2.5, 4.0])), float(rng.uniform(1.0, 30.0)), float(rot))
        for rot in rotations
    ]
    batches = Counter((int(math.ceil(max(a, b) / res)) + 1, n) for a, b, n, _, _ in shapes)
    assert sum(k for k in batches.values() if k > 1) >= len(shapes) // 2
    for shape, got in zip(shapes, rasterize_stamps(shapes, res)):
        alone = rasterize_stamps([shape], res)[0]
        assert got.top.tobytes() == alone.top.tobytes()
        assert got.mask.tobytes() == alone.mask.tobytes()
        assert got.top.shape == alone.top.shape
        assert (got.params, got.resolution) == (alone.params, res)


# At sigma 5e-324 most of sigma * z rounds to +-0.0: the noise is then drawn
# into the output and the heightmap added after, which equals adding
# rng.normal's 0.0 + sigma * z to a copy only because no height is -0.0.
@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(idx=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       sigma=st.sampled_from([0.0, 5e-324, 1e-3, 0.5, 3.0]),
       quant=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.7, 1.0, 2.5]))
def test_render_depth_equals_fresh_temporaries(trays, idx, seed, sigma, quant):
    scene = trays[idx]
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    before = scene.heightmap.copy()
    got = render_depth(scene, sigma, quant, rng_new)
    assert got.heights.tobytes() == oracle_render_depth(scene, sigma, quant, rng_old).tobytes()
    assert scene.heightmap.tobytes() == before.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    # the same draws made beforehand, as the campaign's noise worker makes them
    noise = np.random.default_rng(seed).standard_normal(scene.heightmap.shape)
    given = render_depth(scene, sigma, quant, noise=noise)
    assert given.heights is noise and given.heights.tobytes() == got.heights.tobytes()
    assert scene.heightmap.tobytes() == before.tobytes()


@pytest.mark.parametrize("sigma, quant", [(0.5, 0.25), (0.0, 0.25)])
def test_render_depth_allocates_one_raster(trays, sigma, quant):
    """The heights are the only raster-sized allocation: noise is drawn into
    them and quantized in place. Draws made beforehand are the heights, so
    then no raster is allocated at all."""
    scene, rng = trays[0], np.random.default_rng(0)
    render_depth(scene, sigma, quant, rng)  # first-call set-up stays out of the peak
    noise = rng.standard_normal(scene.heightmap.shape)
    for kwargs, allowed in (({"rng": rng}, scene.heightmap.nbytes), ({"noise": noise}, 0)):
        tracemalloc.start()
        try:
            depth = render_depth(scene, sigma, quant, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert depth.heights.nbytes == scene.heightmap.nbytes
        assert peak <= allowed + 64 * 1024


# ---------------------------------------------------------------------------
# jaw contents and visible fractions on generated scenes


@pytest.fixture(scope="module")
def scenes():
    out = [generate_scene(SceneConfig(archetype="mushroom"), 37),
           generate_scene(SceneConfig(archetype="fried_chicken"), 39)]
    pruned = generate_scene(SceneConfig(archetype="gyoza"), 39)
    for pid in sorted(pruned.pieces)[::3]:
        del pruned.pieces[pid]
    recompose(pruned)  # a tray after picks, with fully occluded pieces uncovered
    return out + [pruned]


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(idx=st.integers(0, 2), c=candidates(), outer=st.booleans())
def test_jaw_contents_and_fractions_equal_full_raster(scenes, idx, c, outer):
    scene = scenes[idx]
    c.x, c.y = c.x * 6.0, c.y * 3.0  # spread the candidates over the 600 x 436 raster
    jaw, sweep = _grasp_regions(scene, c)[2:]
    for got, rect_is_outer in ((jaw, False), (sweep, True)):
        assert (np.diff(got) > 0).all()
        np.testing.assert_array_equal(paste_flat(scene.shape, got), oracle_jaw_region(scene, c, rect_is_outer))
    region = oracle_jaw_region(scene, c, outer)
    flat = sweep if outer else jaw

    got = _piece_tops(scene, flat)
    owners = scene.owner_map[region]
    expected = {int(p): scene.heightmap[region][owners == p].max() for p in np.unique(owners) if p != 0}
    assert list(got) == sorted(expected)
    assert {pid: float_bits(top) for pid, top in got.items()} == {
        pid: float_bits(top) for pid, top in expected.items()
    }

    in_region = np.bincount(scene.owner_map.take(flat))
    for pid in [0, -1, scene.next_id + 5, *scene.pieces]:
        assert _visible_fraction_in(scene, pid, in_region) == oracle_visible_fraction_in(
            scene, pid, region
        )


def insertion_bits(fin):
    """A FingerInsertion's fields, floats as their bytes, contacts in order."""
    return (float_bits(fin.commanded), float_bits(fin.achieved), float_bits(fin.retraction),
            [(pid, float_bits(v)) for pid, v in fin.contacts.items()], fin.blocked)


def damage_bits(damaged):
    return [(pid, float_bits(v)) for pid, v in damaged.items()]


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(idx=st.integers(0, 2), c=candidates(), kind=st.sampled_from(FingerKind),
       # depths at and either side of the fixed block (15 mm) and the adaptive budget (22.5 mm) too
       depth=st.one_of(st.floats(-5.0, 45.0),
                       st.tuples(st.sampled_from([15.0, 22.5]), st.sampled_from([0.5, 0.0, -0.5])).map(sum)),
       h_is=st.sampled_from(["below the top", "a piece top", "-0.0"]), on_piece=st.booleans(),
       data=st.data())
def test_finger_rules_equal_two_branch_oracles(scenes, idx, c, kind, depth, h_is, on_piece, data):
    """One contact rule for both fingers and one overlap rule give the
    insertions and damage of one loop per finger kind, bit for bit, also
    for an empty region and a piece whose top is exactly h."""
    scene = scenes[idx]
    ny, nx = scene.shape
    if on_piece:  # aimed at a piece, within 10 px of its centre
        c.instance_id = data.draw(st.sampled_from(sorted(scene.pieces)))
        x, y = scene.pieces[c.instance_id].position
        c.x, c.y = x / scene.resolution + (c.x - 25.0) / 11.5, y / scene.resolution + (c.y - 25.0) / 11.5
    else:  # anywhere over the raster, the tray walls included
        c.x, c.y = (c.x + 90.0) * 2.6, (c.y + 90.0) * 1.9
        c.instance_id = int(scene.owner_map[min(max(int(c.y), 0), ny - 1), min(max(int(c.x), 0), nx - 1)]) or 1
    hl, hb = _finger_half_sizes(scene.resolution)
    flat, counts = _rectangle_pixels(scene.shape, _contact_rectangles(c, scene.resolution), hl, hb)
    regions = [*segments(flat, counts), np.zeros(0, dtype=np.int64)]
    tops = oracle_pieces_in_region(scene, flat)
    h = float(scene.heightmap.take(flat).max(initial=0.0)) - depth
    if h_is == "-0.0":
        h = -0.0
    elif h_is == "a piece top" and tops:
        h = float(tops[data.draw(st.sampled_from(sorted(tops)))].max())
    for region in regions:
        assert insertion_bits(_insert_one(scene, region, h, kind)) == insertion_bits(
            oracle_insert_one(scene, region, h, kind))

    c.h = h
    ins = insert_fingers(scene, c, kind)
    fins = [FingerInsertion(h, h, 0.0, {}, True) if wall else oracle_insert_one(scene, region, h, kind)
            for wall, region in zip(oracle_wall_contacts(scene, c), regions)]
    assert [insertion_bits(f) for f in ins.fingers] == [insertion_bits(f) for f in fins]
    damaged = {}
    for fin in fins:
        for pid, magnitude in fin.contacts.items():
            _damage(scene, kind, pid, magnitude, damaged)
    assert damage_bits(ins.damaged) == damage_bits(damaged)

    outcome = close_and_lift(scene, c, ins, kind)
    sweep = np.flatnonzero(oracle_jaw_region(scene, c, True))
    expected = oracle_sweep_damage(scene, sweep, outcome.picked, max(f.achieved for f in fins), kind, damaged)
    assert damage_bits(outcome.damaged) == damage_bits(expected)


def test_wall_test_equals_four_corners_at_the_boundary():
    """A finger's outermost corner is placed on each raster edge and the
    centre nudged by up to 8 ulps either way: insert_fingers blocks exactly
    the fingers with one of their four corners beyond the raster, also
    where a corner lands on the edge itself."""
    scene = empty_scene()
    ny, nx = scene.shape
    fm = FingerKind.FIXED
    hl, hb = _finger_half_sizes(scene.resolution)
    rng = np.random.default_rng(7)
    thetas = [0.0, math.pi / 4, math.pi / 2, *rng.uniform(0.0, math.pi, 150).tolist()]
    outcomes, on_edge = Counter(), 0
    for theta in thetas:
        w = float(rng.uniform(1.0, 20.0))
        ux, uy = abs(math.cos(theta)), abs(math.sin(theta))
        d = (w / 2.0 + FINGER_CLEARANCE + FINGER_WIDTH / 2.0) / scene.resolution
        reach_x, reach_y = (d + hl) * ux + hb * uy, (d + hl) * uy + hb * ux
        for x0, y0 in [(reach_x, ny / 2), (nx - 1 - reach_x, ny / 2), (nx / 2, reach_y), (nx / 2, ny - 1 - reach_y)]:
            for ulps in range(-8, 9):
                x, y = x0, y0
                for _ in range(abs(ulps)):
                    x, y = math.nextafter(x, ulps * math.inf), math.nextafter(y, ulps * math.inf)
                c = GraspCandidate(1, x, y, theta, 0.0, w, 0.0, 1.0, 1.0)
                blocked = tuple(f.blocked for f in insert_fingers(scene, c, fm).fingers)
                assert blocked == oracle_wall_contacts(scene, c)
                outcomes[blocked] += 1
                corners = [xy for finger in oracle_finger_corners(scene, c) for xy in finger]
                on_edge += any(px in (0.0, nx - 1) or py in (0.0, ny - 1) for px, py in corners)
    assert outcomes[(False, False)] and outcomes[(True, False)] and outcomes[(False, True)]
    assert on_edge


def test_visible_windows_hold_every_visible_pixel(scenes):
    for scene in scenes:
        for pid in scene.pieces:
            win, visible = visible_window(scene, pid)
            full = scene.owner_map == pid
            assert int(np.count_nonzero(visible)) == int(np.count_nonzero(full))
            if full.any():
                assert float(np.median(scene.heightmap[win][visible])) == float(
                    np.median(scene.heightmap[full])
                )


def test_occlusion_flags_match_label_presence(scenes):
    """save_scene's flags are label presence on the owner map."""
    occluded = 0
    for scene in scenes:
        present = set(np.unique(scene.owner_map).tolist())
        flags = saved_flags(scene)
        assert flags == {pid: pid not in present for pid in scene.pieces}
        occluded += sum(flags.values())
    assert occluded > 0


# ---------------------------------------------------------------------------
# windowed mask sets: render, corrupt (jitter, pruned merge scan, drop),
# agreement and mask files


def assert_windows_tight(masks):
    """Every window is its mask's bounding box, placed inside the raster."""
    for w in masks.windows:
        rows, cols = w.slices
        assert w.local.shape == (rows.stop - rows.start, cols.stop - cols.start)
        if w.local.size:
            assert _bbox(w.local) == (0, w.local.shape[0], 0, w.local.shape[1])
            assert 0 <= rows.start and rows.stop <= masks.shape[0]
            assert 0 <= cols.start and cols.stop <= masks.shape[1]


def assert_same_masks(got, expected):
    """got (a mask set) holds exactly the (id, full raster) pairs expected."""
    assert got.ids() == [pid for pid, _ in expected]
    for (_, a), (_, b) in zip(got.masks, expected):
        np.testing.assert_array_equal(a, b)
    assert_windows_tight(got)


@st.composite
def label_maps(draw):
    h, w = draw(shapes)
    labels = draw(arrays(np.int32, (h, w), elements=st.integers(0, 9)))
    return InstanceMaskSet.from_rasters(
        [(int(p), labels == p) for p in np.unique(labels) if p != 0], shape=(h, w)
    )


corruptions = st.builds(
    CorruptionParams,
    boundary_jitter=st.integers(0, 3),
    merge_prob=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    drop_prob=st.sampled_from([0.0, 0.3]),
)


def corner_masks_with_an_empty_one():
    """Mask 1 is empty, a 0 x 0 window at the origin, so its padded box
    meets that of mask 2 in the raster's corner."""
    labels = np.zeros((7, 9), dtype=np.int32)
    labels[0:3, 0:3] = 2
    labels[3:6, 1:4] = 3
    labels[1:4, 5:8] = 4
    return InstanceMaskSet.from_rasters([(pid, labels == pid) for pid in (1, 2, 3, 4)])


@SETTINGS
@given(masks=label_maps(), seed=st.integers(0, 2**32 - 1), jitter=st.integers(0, 3),
       merge=st.floats(0.05, 1.0), drop=st.sampled_from([0.0, 0.3]))
# the empty mask paired with mask 2 unjittered, dilated (seed 0's first
# jitter step is +1) and left as it is (seed 1's is 0)
@example(masks=corner_masks_with_an_empty_one(), seed=0, jitter=0, merge=1.0, drop=0.0)
@example(masks=corner_masks_with_an_empty_one(), seed=0, jitter=1, merge=1.0, drop=0.0)
@example(masks=corner_masks_with_an_empty_one(), seed=1, jitter=1, merge=0.5, drop=0.3)
def test_pruned_merge_scan_matches_unpruned(masks, seed, jitter, merge, drop):
    jitter = min(jitter, max(masks.shape))  # corrupt_masks refuses a jitter wider than the raster
    params = CorruptionParams(boundary_jitter=jitter, merge_prob=merge, drop_prob=drop)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = corrupt_masks(masks, params, rng_new)
    expected, confidences = oracle_corrupt_masks(masks, params, rng_old)
    assert_same_masks(got, expected)
    assert got.confidences == confidences
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def morph_cases():
    """(name, mask) on a 9 x 11 raster: blocks whose padded box is clipped at
    each raster edge, at none and at all four, and masks that erosion
    removes entirely (see test_morph_cases_erode_away)."""
    shape = (9, 11)
    block = lambda r0, r1, c0, c1: np.pad(np.ones((r1 - r0, c1 - c0), bool),
                                          ((r0, shape[0] - r1), (c0, shape[1] - c1)))
    ring = block(0, 9, 0, 11) & ~block(1, 8, 1, 10)
    return [
        ("top", block(0, 4, 3, 8)), ("bottom", block(5, 9, 3, 8)),
        ("left", block(2, 7, 0, 4)), ("right", block(2, 7, 7, 11)),
        ("one px in from the top left", block(1, 5, 1, 6)), ("inside", block(4, 7, 4, 7)),
        ("whole raster", np.ones(shape, bool)), ("edge ring", ring),
        ("one pixel", block(4, 5, 5, 6)), ("two-pixel-wide bar", block(3, 5, 2, 9)),
        ("5 x 5 block", block(2, 7, 3, 8)),
    ]


@pytest.mark.parametrize("steps", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("name, mask", morph_cases(), ids=[name for name, _ in morph_cases()])
def test_morph_jitter_equals_ndimage(name, mask, steps):
    got = _morph_jitter(_cropped(1, mask), steps, mask.shape)
    expected = oracle_morph_jitter(mask, steps)
    np.testing.assert_array_equal(_pixels_in(got, 0, mask.shape[0], 0, mask.shape[1]), expected)
    if not expected.any():
        assert got.local.size == 0 and got.slices == (slice(0, 0), slice(0, 0))


def test_morph_cases_erode_away():
    cases = dict(morph_cases())
    for name in ("one pixel", "two-pixel-wide bar", "edge ring"):
        assert not oracle_morph_jitter(cases[name], -1).any(), name
    assert oracle_morph_jitter(cases["5 x 5 block"], -2).any()
    assert not oracle_morph_jitter(cases["5 x 5 block"], -3).any()


@SETTINGS
@given(mask=shapes.flatmap(lambda s: arrays(bool, s)),
       steps=st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_morph_jitter_equals_ndimage_on_random_masks(mask, steps):
    got = _morph_jitter(_cropped(1, mask), steps, mask.shape)
    np.testing.assert_array_equal(_pixels_in(got, 0, mask.shape[0], 0, mask.shape[1]),
                                  oracle_morph_jitter(mask, steps))


@pytest.fixture(scope="module")
def trays():
    """Generated trays, two of them small enough that most stamp windows
    are clipped at the raster edge."""
    small = (60.0, 45.0, 160.0)
    return [
        generate_scene(SceneConfig(archetype="mushroom"), 34),
        generate_scene(SceneConfig(archetype="gyoza"), 5),
        generate_scene(SceneConfig(archetype="fried_chicken", tray_dims=small), 8),
        generate_scene(SceneConfig(archetype="mushroom", tray_dims=small), 9),
    ]


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(idx=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), params=corruptions)
def test_render_and_corrupt_masks_on_trays_equal_full_raster(trays, idx, seed, params):
    scene = trays[idx]
    truth = render_masks(scene)
    assert_same_masks(truth, oracle_full_raster_masks(scene))
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = corrupt_masks(truth, params, rng_new)
    expected, confidences = oracle_corrupt_masks(truth, params, rng_old)
    assert_same_masks(got, expected)
    assert got.confidences == confidences
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _square(shape, r0, c0, size):
    m = np.zeros(shape, dtype=bool)
    m[r0 : r0 + size, c0 : c0 + size] = True
    return m


@SETTINGS
@given(pred=label_maps(), gt=label_maps(), seed=st.integers(0, 2**32 - 1), params=corruptions)
@example(  # an empty mask on each side, and predictions that overlap each other and both truths
    pred=InstanceMaskSet.from_rasters([(1, np.zeros((12, 12), bool)), (2, _square((12, 12), 2, 2, 5)),
                                       (3, _square((12, 12), 4, 4, 6))]),
    gt=InstanceMaskSet.from_rasters([(4, np.zeros((12, 12), bool)), (5, _square((12, 12), 2, 2, 4)),
                                     (6, _square((12, 12), 6, 6, 5))]),
    seed=0, params=CorruptionParams(),
)
def test_agreement_equals_every_pair_iou(pred, gt, seed, params):
    # corrupt_masks refuses a jitter wider than the raster
    params = dataclasses.replace(params, boundary_jitter=min(params.boundary_jitter, max(pred.shape)))
    pred = corrupt_masks(pred, params, np.random.default_rng(seed))  # may overlap
    if pred.shape != gt.shape:  # refused, empty sets too
        with pytest.raises(ParameterError, match="mask shape mismatch"):
            agreement(pred, gt)
        return
    ious = oracle_agreement_ious(pred, gt)
    pred_ids, gt_ids = pred.ids(), gt.ids()
    pairs = sorted(
        ((ious[i, j], i, j) for i in range(len(pred_ids)) for j in range(len(gt_ids))),
        key=lambda t: (-t[0], pred_ids[t[1]], gt_ids[t[2]]),
    )
    score = agreement(pred, gt)
    if not pred_ids:
        return
    for t in IOU_THRESHOLDS:
        used_p, used_g = set(), set()
        for iou, i, j in pairs:
            if iou >= t and i not in used_p and j not in used_g:
                used_p.add(i)
                used_g.add(j)
        assert score.per_threshold[t] == len(used_p) / len(pred_ids)
    assert score.value == sum(score.per_threshold[t] for t in IOU_THRESHOLDS) / len(IOU_THRESHOLDS)


@SETTINGS
@given(masks=label_maps(), seed=st.integers(0, 2**32 - 1), jitter=st.integers(0, 2))
@example(masks=InstanceMaskSet([], (5, 7)), seed=0, jitter=1)
@example(  # the corner pixel that ends the column-major order; a mask of every pixel
    masks=InstanceMaskSet.from_rasters([(2, _square((6, 5), 3, 2, 3)), (7, np.ones((6, 5), bool))]),
    seed=0, jitter=0,
)
@example(  # overlapping masks that merge_prob 0.3 does not merge at this seed
    masks=InstanceMaskSet.from_rasters([(1, _square((30, 30), 5, 5, 10)),
                                        (2, _square((30, 30), 8, 8, 10))]),
    seed=1, jitter=0,
)
def test_mask_files_round_trip(masks, seed, jitter):
    jitter = min(jitter, max(masks.shape))  # corrupt_masks refuses a jitter wider than the raster
    params = CorruptionParams(boundary_jitter=jitter, merge_prob=0.3)
    corrupted = corrupt_masks(masks, params, np.random.default_rng(seed))  # may overlap
    for original in (masks, corrupted):
        with tempfile.TemporaryDirectory() as out:
            manifest = save_masks(original, out)
            assert os.listdir(out) == [manifest.name]  # the manifest alone, no .pgm
            loaded = load_masks(manifest)
        assert loaded.shape == original.shape
        assert loaded.source == original.source
        assert loaded.confidences == original.confidences
        assert loaded.ids() == original.ids()
        for a, b in zip(loaded.windows, original.windows):
            assert a.slices == b.slices
            np.testing.assert_array_equal(a.local, b.local)


def test_pruned_merge_scan_on_a_dense_tray():
    truth = render_masks(generate_scene(SceneConfig(archetype="mushroom"), 34))
    params = CorruptionParams(boundary_jitter=1, merge_prob=0.3, drop_prob=0.05)
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    got = corrupt_masks(truth, params, rng_new)
    expected, confidences = oracle_corrupt_masks(truth, params, rng_old)
    assert len(expected) < len(truth.windows)  # some masks merged or dropped
    assert_same_masks(got, expected)
    assert got.confidences == confidences
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# ---------------------------------------------------------------------------
# windowed recompose after removing pieces


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(idx=st.integers(0, 3), data=st.data())
def test_windowed_recompose_equals_full_recompose(trays, idx, data):
    scene = copy.deepcopy(trays[idx])
    ids = sorted(scene.pieces)
    removed = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    wins = [stamp_window(scene, scene.pieces[pid].stamp, scene.pieces[pid].position)[0]
            for pid in removed]
    for pid in removed:
        del scene.pieces[pid]
    region = (slice(min(r.start for r, _ in wins), max(r.stop for r, _ in wins)),
              slice(min(c.start for _, c in wins), max(c.stop for _, c in wins)))
    recompose(scene, region)
    heightmap, owner_map, flags = oracle_recompose(scene)
    np.testing.assert_array_equal(scene.heightmap, heightmap)
    np.testing.assert_array_equal(scene.owner_map, owner_map)
    assert saved_flags(scene) == flags
    assert_windows_recorded(scene)


def test_maps_after_picks_equal_full_recompose(trays):
    """execute_grasp recomposes the union of the picked pieces' windows."""
    tray = copy.deepcopy(trays[0])
    rng = np.random.default_rng(0)
    picked = []
    for _ in range(12):  # merged masks make a multi-pick likely
        masks = corrupt_masks(render_masks(tray), CorruptionParams(merge_prob=0.5), rng)
        p = plan(masks, render_depth(tray), DEFAULT_ARCHETYPES["mushroom"])
        outcome = execute_grasp(tray, p.target, FingerKind.FIXED)
        picked.append(len(outcome.picked))
        heightmap, owner_map, flags = oracle_recompose(tray)
        np.testing.assert_array_equal(tray.heightmap, heightmap)
        np.testing.assert_array_equal(tray.owner_map, owner_map)
        assert saved_flags(tray) == flags
        assert_windows_recorded(tray)
    assert sum(n > 0 for n in picked) >= 5 and max(picked) >= 2


def test_small_trays_clip_stamp_windows(trays):
    """The small trays of the recompose test do reach the raster edge."""
    for scene in trays[2:]:
        clipped = 0
        for piece in scene.pieces.values():
            win, st_ = stamp_window(scene, piece.stamp, piece.position)
            clipped += win[0].stop - win[0].start < piece.stamp.top.shape[0] or (
                win[1].stop - win[1].start < piece.stamp.top.shape[1]
            )
        assert clipped >= len(scene.pieces) // 2


# ---------------------------------------------------------------------------
# recorded piece windows, and the owner map save_scene writes from them


def assert_windows_recorded(scene):
    for piece in scene.pieces.values():
        assert piece.window == stamp_window(scene, piece.stamp, piece.position)


def saved_flags(scene):
    """Per piece id, whether the owner map save_scene writes lacks it: a
    fully occluded piece is an id missing from owner_map.pgm."""
    with tempfile.TemporaryDirectory() as out:
        save_scene(scene, out)
        present = set(np.unique(read_pgm16(Path(out) / "owner_map.pgm")).tolist())
    return {pid: pid not in present for pid in scene.pieces}


@pytest.fixture(scope="module")
def kept_scenes(trays, tmp_path_factory):
    """(name, scene) after drops, after picks (windowed recompose) and
    after a save and load, on the default tray and a small clipped one."""
    out = []
    for i in (0, 2):
        generated = trays[i]
        picked = copy.deepcopy(generated)
        archetype = DEFAULT_ARCHETYPES[next(iter(picked.pieces.values())).archetype]
        rng = np.random.default_rng(i)
        for _ in range(4):
            masks = corrupt_masks(render_masks(picked), CorruptionParams(merge_prob=0.5), rng)
            p = plan(masks, render_depth(picked), archetype)
            if p.target is not None:
                execute_grasp(picked, p.target, FingerKind.FIXED)
        out_dir = tmp_path_factory.mktemp(f"scene{i}")
        save_scene(picked, out_dir)
        out += [(f"generated-{i}", generated), (f"picked-{i}", picked), (f"loaded-{i}", load_scene(out_dir))]
    assert len(out[1][1].pieces) < len(out[0][1].pieces)  # the picks removed pieces
    return out


def test_recorded_windows_equal_stamp_window(kept_scenes):
    for _, scene in kept_scenes:
        assert_windows_recorded(scene)


def test_render_masks_leaves_occlusion_flags(kept_scenes):
    """After drops, picks and a load, the saved flags are label presence on
    the owner map; render_masks gives a mask to exactly the pieces they call
    visible and leaves the flags as they are."""
    occluded = 0
    for _, scene in kept_scenes:
        flags = saved_flags(scene)
        present = set(np.unique(scene.owner_map).tolist())
        assert flags == {pid: pid not in present for pid in scene.pieces}
        assert render_masks(scene).ids() == sorted(pid for pid, hidden in flags.items() if not hidden)
        assert saved_flags(scene) == flags
        occluded += sum(flags.values())
    assert occluded > 0


def buried_scene():
    """A hand-built tray: a piece buried under a later, larger drop, and a
    piece clipped at the raster's corner."""
    scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 80.0))
    drop_piece(scene, rasterize_stamps([(4.0, 4.0, 2.0, 1.0, 0.0)], 1.0)[0], 50.0, 50.0, "mushroom")
    drop_piece(scene, rasterize_stamps([(15.0, 15.0, 2.0, 10.0, 0.0)], 1.0)[0], 50.0, 50.0, "mushroom")
    drop_piece(scene, rasterize_stamps([(9.0, 4.0, 2.0, 12.0, 0.5)], 1.0)[0], 99.5, 1.0, "mushroom")
    return scene


@pytest.fixture(scope="module")
def archetype_trays():
    """Every built-in archetype on the default tray and on a 60 x 45 mm one,
    where most stamp windows are clipped at the raster edge."""
    return [generate_scene(SceneConfig(archetype=name, tray_dims=dims), seed)
            for seed, name in enumerate(sorted(DEFAULT_ARCHETYPES))
            for dims in (DEFAULT_TRAY_DIMS, (60.0, 45.0, 160.0))]


def test_render_masks_equals_find_objects_scan(archetype_trays, kept_scenes):
    """Masks read on the recorded stamp windows equal the owner map's
    find_objects boxes: same ids, slices and local bytes, after drops, picks
    and a load, with clipped windows and a fully buried piece."""
    buried = buried_scene()
    scenes = [*archetype_trays, *(scene for _, scene in kept_scenes), buried]
    clipped = 0
    for scene in scenes:
        got, expected = render_masks(scene), oracle_render_masks(scene)
        assert (got.shape, got.source) == (expected.shape, expected.source)
        assert got.ids() == expected.ids()
        for a, b in zip(got.windows, expected.windows):
            assert a.slices == b.slices
            assert (a.local.shape, a.local.tobytes()) == (b.local.shape, b.local.tobytes())
        clipped += sum(p.window[1][0] != slice(0, p.stamp.top.shape[0])
                       or p.window[1][1] != slice(0, p.stamp.top.shape[1]) for p in scene.pieces.values())
    assert render_masks(buried).ids() == [2, 3]  # piece 1 is buried
    assert clipped >= 100


# ---------------------------------------------------------------------------
# scene generation: draw, rasterize in batches, drop


def assert_same_scene(got, expected):
    assert got.heightmap.tobytes() == expected.heightmap.tobytes()
    assert got.owner_map.tobytes() == expected.owner_map.tobytes()
    assert (got.shape, got.resolution, got.next_id, got.seed) == (
        expected.shape, expected.resolution, expected.next_id, expected.seed)
    assert sorted(got.pieces) == sorted(expected.pieces)
    for pid, p in expected.pieces.items():
        q = got.pieces[pid]
        assert (q.id, q.archetype, q.window) == (p.id, p.archetype, p.window)
        assert [float_bits(v) for v in (*q.position, q.rest_height)] == [
            float_bits(v) for v in (*p.position, p.rest_height)]
        assert list(q.stamp.params) == list(p.stamp.params)
        assert [float_bits(v) for v in q.stamp.params.values()] == [
            float_bits(v) for v in p.stamp.params.values()]
        assert q.stamp.top.shape == p.stamp.top.shape
        assert q.stamp.top.tobytes() == p.stamp.top.tobytes()
        assert q.stamp.mask.tobytes() == p.stamp.mask.tobytes()


GENERATION_CASES = [
    *((SceneConfig(archetype=name), seed) for name in sorted(DEFAULT_ARCHETYPES) for seed in range(20)),
    *((SceneConfig(archetype=name, tray_dims=(106.0, 106.0, 160.0)), seed)
      for seed, name in enumerate(sorted(DEFAULT_ARCHETYPES) * 3)),
    *((SceneConfig(archetype=name, resolution=1.3), seed)
      for seed, name in enumerate(sorted(DEFAULT_ARCHETYPES) * 3)),
]


@pytest.mark.parametrize("config, seed", GENERATION_CASES,
                         ids=[f"{c.archetype}-{c.tray_dims[0]:g}mm-res{c.resolution}-{s}"
                              for c, s in GENERATION_CASES])
def test_generate_scene_equals_try_drop_loop(config, seed):
    expected, _, _ = oracle_generate_scene(config, seed)
    assert_same_scene(generate_scene(config, seed), expected)


@pytest.mark.parametrize("retries", [1, 2])
def test_sub_pixel_pieces_rejected_and_skipped_as_by_the_loop(retries, monkeypatch):
    """Pieces smaller than a pixel: a centre one past the last row or column
    leaves an empty clipped footprint, so positions are rejected and, within
    a budget of one or two, whole pieces skipped."""
    tiny = dataclasses.replace(DEFAULT_ARCHETYPES["mushroom"], name="tiny", semi_axes_mm=(0.3, 0.2))
    monkeypatch.setattr(scenegen, "MAX_PLACEMENT_RETRIES", retries)
    config = SceneConfig(archetype="tiny", archetypes={"tiny": tiny}, tray_dims=(40.0, 30.0, 50.0),
                         resolution=5.0)
    rejected = skipped = 0
    for seed in range(20):
        expected, r, k = oracle_generate_scene(config, seed)
        rejected, skipped = rejected + r, skipped + k
        assert_same_scene(generate_scene(config, seed), expected)
    assert skipped > 0
    if retries > 1:
        assert rejected > retries * skipped  # some pieces placed after a rejection


def test_generate_scene_refills_its_block_of_draws():
    """Sub-pixel pieces on a one-pixel raster: a centre outside it is
    rejected, so most positions are, and the draws of a tray run past the
    first block of 7 per piece (scale, rotation, three jitters, x, y) into
    several more."""
    tiny = dataclasses.replace(DEFAULT_ARCHETYPES["mushroom"], name="tiny", semi_axes_mm=(0.3, 0.2))
    config = SceneConfig(archetype="tiny", archetypes={"tiny": tiny}, tray_dims=(6.0, 6.0, 50.0),
                         resolution=5.0)
    for seed in range(3):
        expected, rejected, skipped = oracle_generate_scene(config, seed)
        count = len(expected.pieces) + skipped
        used = 5 * count + 2 * (len(expected.pieces) + rejected)  # every placed or rejected position
        assert used > 2 * 7 * count
        assert_same_scene(generate_scene(config, seed), expected)


UNIFORM_RANGES = sorted({
    (0.0, math.pi),
    *((0.0, float(dim)) for dims in (DEFAULT_TRAY_DIMS, (60.0, 45.0, 160.0), (106.0, 106.0, 160.0))
      for dim in dims[:2]),
    *(tuple(map(float, a.scale_range)) for a in DEFAULT_ARCHETYPES.values()),
    *((-float(a.jitter), float(a.jitter)) for a in DEFAULT_ARCHETYPES.values()),
})


@pytest.mark.parametrize("low, high", UNIFORM_RANGES)
def test_uniform_is_low_plus_range_times_random(low, high):
    """generate_scene reads Generator.uniform(low, high) as
    low + (high - low) * random(), in Python floats, from blocks of
    rng.random; the oracle calls uniform, one value and three at a time."""
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    got = [a.uniform(low, high) for _ in range(2000)] + a.uniform(low, high, 6000).tolist()
    expected = [low + (high - low) * r for r in b.random(8000).tolist()]
    assert [float_bits(v) for v in got] == [float_bits(v) for v in expected]
