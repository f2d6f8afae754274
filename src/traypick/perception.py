"""Depth rendering, instance masks, mask corruption, and mask agreement.

The simulator supplies ground-truth visible-region masks straight from the
owner map; a parametric corruption model stands in for an imperfect
segmentation model. Agreement between two mask sets is the threshold-averaged
greedy-matched precision over IoU thresholds 0.50:0.95.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, check_number, read_json, read_object
from .grids import heights_to_levels, levels_to_heights, read_pgm16, write_pgm16
from .scenegen import MAX_RASTER_SIDE, TrayScene, _clip_window, visible_window

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass
class DepthImage:
    heights: np.ndarray  # mm above tray floor, orthographic top-down
    resolution: float  # mm per pixel


class MaskWindow(NamedTuple):
    """One instance mask: its pixels on its bounding box. slices place local
    in the raster; a mask with no pixels has an empty window at the origin."""

    id: int
    slices: tuple[slice, slice]
    local: np.ndarray  # boolean, the shape of the box


_EMPTY_BOX = (slice(0, 0), slice(0, 0))


def _boxes(windows: Sequence[MaskWindow]) -> np.ndarray:
    """The (n, 4) int array of the windows' boxes, (r0, r1, c0, c1) each."""
    return np.array([(r.start, r.stop, c.start, c.stop) for r, c in (w.slices for w in windows)],
                    dtype=np.int64).reshape(-1, 4)


def _grown(boxes: np.ndarray, pad: int, shape: tuple[int, int]) -> np.ndarray:
    """boxes grown by pad px on every side and clipped to the raster."""
    ny, nx = shape
    return np.clip(boxes + (-pad, pad, -pad, pad), 0, (ny, ny, nx, nx))


def _overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, boxes): the indices of each box of a and box of b that
    intersect, in row-major (i, j) order, and their intersections as an
    (n, 4) array of (r0, r1, c0, c1)."""
    lo = np.maximum(a[:, None, ::2], b[None, :, ::2])
    hi = np.minimum(a[:, None, 1::2], b[None, :, 1::2])
    ii, jj = np.logical_and.reduce(hi > lo, axis=2).nonzero()
    lo, hi = lo[ii, jj], hi[ii, jj]
    return ii, jj, np.stack((lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]), axis=1)


def _pixels_in(w: MaskWindow, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """w's pixels on the raster box [r0, r1) x [c0, c1), which may reach
    past w's own box."""
    out = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    whole = (slice(0, w.local.shape[0]), slice(0, w.local.shape[1]))
    (rows, cols), local = _clip_window((w.slices, whole), (slice(r0, r1), slice(c0, c1)))
    out[rows.start - r0 : rows.stop - r0, cols.start - c0 : cols.stop - c0] = w.local[local]
    return out


def _cropped(pid: int, mask: np.ndarray, r0: int = 0, c0: int = 0) -> MaskWindow:
    """The window of a boolean array whose [0, 0] sits at raster (r0, c0)."""
    box = _bbox(mask)
    if box is None:
        return MaskWindow(pid, _EMPTY_BOX, mask[_EMPTY_BOX])
    b0, b1, b2, b3 = box
    return MaskWindow(pid, (slice(r0 + b0, r0 + b1), slice(c0 + b2, c0 + b3)), mask[b0:b1, b2:b3])


class _Rasters(Sequence):
    """Read-only (id, full raster) view of windows, each raster built on
    access; len() builds none."""

    def __init__(self, windows: list[MaskWindow], shape: tuple[int, int]) -> None:
        self._windows = windows
        self._shape = shape

    def __len__(self) -> int:
        return len(self._windows)

    def __getitem__(self, i: int) -> tuple[int, np.ndarray]:
        w = self._windows[i]
        return w.id, _pixels_in(w, 0, self._shape[0], 0, self._shape[1])


MASK_SOURCES = ("ground_truth", "corrupted", "external")


@dataclass(eq=False)  # identity equality: == on the windows' arrays has no single truth value
class InstanceMaskSet:
    """Instance masks held as windows on a raster of the given shape."""

    windows: list[MaskWindow]
    shape: tuple[int, int]
    source: str = "ground_truth"  # one of MASK_SOURCES
    confidences: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_rasters(cls, masks: list[tuple[int, np.ndarray]], source: str = "ground_truth",
                     confidences: dict[int, float] | None = None,
                     shape: tuple[int, int] | None = None) -> InstanceMaskSet:
        """(id, full raster) pairs, each cropped to its bounding box, on a
        raster of the given shape (default: the first raster's). No masks
        and no shape, a raster of another shape and a repeated id raise
        ParameterError."""
        if shape is None:
            if not masks:
                raise ParameterError("an empty mask set needs a shape")
            shape = masks[0][1].shape
        shape = tuple(shape)
        seen: set[int] = set()
        for pid, m in masks:
            if m.shape != shape:
                raise ParameterError(f"mask {pid} has shape {m.shape}, not {shape}")
            if pid in seen:
                raise ParameterError(f"duplicate instance id {pid}")
            seen.add(pid)
        return cls([_cropped(pid, m) for pid, m in masks], shape, source, confidences or {})

    @property
    def masks(self) -> Sequence[tuple[int, np.ndarray]]:
        """(instance id, full boolean raster) per mask, built on access."""
        return _Rasters(self.windows, self.shape)

    def ids(self) -> list[int]:
        return [w.id for w in self.windows]


@dataclass
class AgreementScore:
    value: float
    per_threshold: dict[float, float]


def render_depth(
    scene: TrayScene,
    sigma: float = 0.0,
    quant: float = 0.0,
    rng: np.random.Generator | None = None,
    *,
    noise: np.ndarray | None = None,
) -> DepthImage:
    """Orthographic top-down depth: heightmap + Gaussian noise, quantized.

    The noise is sigma times standard normal draws: rng.standard_normal's,
    or noise, draws made already (float64, C-contiguous, writable, of the
    heightmap's shape), which become the output and are overwritten. Give
    one of rng and noise when sigma > 0; at sigma 0 rng is not used.
    Quantization rounds half-down: 12.5 mm at 1 mm steps yields 12 mm.
    sigma = quant = 0 returns the exact heightmap.
    """
    check_number("sigma", sigma, low=0, finite=True)
    check_number("quant", quant, low=0, finite=True)
    if noise is not None:
        if rng is not None:
            raise ParameterError("render_depth takes rng or noise, not both")
        if not isinstance(noise, np.ndarray) or noise.shape != scene.heightmap.shape:
            raise ParameterError(f"noise must be an array of the heightmap's shape {scene.heightmap.shape}, "
                                 f"got {getattr(noise, 'shape', type(noise).__name__)}")
        if noise.dtype != np.float64 or not (noise.flags.c_contiguous and noise.flags.writeable):
            raise ParameterError(f"noise must be writable C-contiguous float64, got {noise.dtype} with "
                                 f"C_CONTIGUOUS {noise.flags.c_contiguous} and WRITEABLE {noise.flags.writeable}")
    if sigma > 0:
        if noise is None:
            if rng is None:
                raise ParameterError("rng or noise required when sigma > 0")
            noise = rng.standard_normal(scene.heightmap.shape)
        # rng.normal(0.0, sigma) is 0.0 + sigma * z from these draws; adding the
        # heightmap after differs only at a -0.0 height, which no heightmap holds
        heights = noise
        heights *= sigma
        heights += scene.heightmap
    elif noise is None:
        heights = scene.heightmap.copy()
    else:  # the draws are still the output
        heights = noise
        heights[...] = scene.heightmap
    np.maximum(heights, 0.0, out=heights)
    if quant > 0:
        heights /= quant
        heights -= 0.5
        np.ceil(heights, out=heights)
        heights *= quant
        np.maximum(heights, 0.0, out=heights)
    return DepthImage(heights, scene.resolution)


def render_masks(scene: TrayScene) -> InstanceMaskSet:
    """Ground-truth visible-region masks, one per piece with a pixel on the
    owner map, in id order. Each is read on the piece's recorded stamp
    window, which holds every pixel the piece can own. The scene is not
    changed."""
    windows: list[MaskWindow] = []
    for pid in sorted(scene.pieces):
        (rows, cols), visible = visible_window(scene, pid)
        w = _cropped(pid, visible, rows.start, cols.start)
        if w.local.size:
            windows.append(w)
    return InstanceMaskSet(windows, scene.shape, "ground_truth")


@dataclass
class CorruptionParams:
    boundary_jitter: int = 0  # px; uniform dilation/erosion amplitude
    merge_prob: float = 0.0  # per adjacent pair
    drop_prob: float = 0.0  # per mask

    def validate(self, shape: tuple[int, int]) -> None:
        """Check each value's type and range on a raster of shape (ny, nx):
        a jitter wider than its longer side is refused."""
        check_number("boundary_jitter", self.boundary_jitter, integral=True, low=0, high=max(shape))
        for name in ("merge_prob", "drop_prob"):
            check_number(name, getattr(self, name), low=0, high=1)

    @property
    def is_identity(self) -> bool:
        return self.boundary_jitter == 0 and self.merge_prob == 0 and self.drop_prob == 0


def _bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    rows = np.logical_or.reduce(mask, axis=1).nonzero()[0]
    if rows.size == 0:
        return None
    cols = np.logical_or.reduce(mask[rows[0] : rows[-1] + 1], axis=0).nonzero()[0]
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _spread(px: np.ndarray, axis: int) -> np.ndarray:
    """px OR'd with its one-pixel shifts both ways along axis 0 or 1;
    nothing enters from outside the array."""
    out = px.copy()
    o, p = (out, px) if axis == 0 else (out.T, px.T)
    o[1:] |= p[:-1]
    o[:-1] |= p[1:]
    return out


def _adjacent(a: MaskWindow, b: MaskWindow, r0: int, r1: int, c0: int, c1: int) -> bool:
    """8-neighborhood adjacency, evaluated on rows r0:r1 and columns c0:c1,
    the non-empty overlap of the pair's boxes padded by 1 px and clipped to
    the raster."""
    # 3 x 3 dilation of a, separable: rows, then columns
    dilated = _spread(_spread(_pixels_in(a, r0, r1, c0, c1), 0), 1)
    return bool(np.count_nonzero(dilated & _pixels_in(b, r0, r1, c0, c1)))


def _morph_jitter(w: MaskWindow, steps: int, shape: tuple[int, int]) -> MaskWindow:
    """Dilate (steps > 0) or erode (steps < 0) on the box padded by
    |steps| + 1 px and clipped to the raster."""
    r0, r1, c0, c1 = _grown(_boxes([w]), abs(steps) + 1, shape)[0].tolist()
    px = _pixels_in(w, r0, r1, c0, c1)
    # |steps| passes of the 4-neighbour cross; erosion keeps a pixel unless
    # it or a cross neighbour is background, and everything outside the box
    # is background, so the box's edge rows and columns always go
    for _ in range(abs(steps)):
        if steps > 0:
            px = _spread(px, 0) | _spread(px, 1)
        else:
            gaps = ~px
            px = ~(_spread(gaps, 0) | _spread(gaps, 1))
            px[0] = px[-1] = False
            px[:, 0] = px[:, -1] = False
    return _cropped(w.id, px, r0, c0)


def corrupt_masks(
    masks: InstanceMaskSet,
    params: CorruptionParams,
    rng: np.random.Generator,
) -> InstanceMaskSet:
    """Emulate segmentation error on ground-truth masks.

    Each mask is independently dilated or eroded by a uniform jitter, adjacent
    pairs are merged with merge_prob, and each surviving mask is dropped with
    drop_prob. Output is tagged "corrupted"; masks may overlap after dilation.
    """
    params.validate(masks.shape)
    if masks.source != "ground_truth":
        raise ParameterError("corrupt_masks expects ground-truth masks")
    shape = masks.shape
    jittered: list[MaskWindow] = []
    for w in masks.windows:
        if params.boundary_jitter > 0:
            steps = int(rng.integers(-params.boundary_jitter, params.boundary_jitter + 1))
            if steps != 0:
                w = _morph_jitter(w, steps, shape)
                if w.local.size == 0:
                    continue  # eroded away entirely
        jittered.append(w)

    # union-find over pairwise merges, pairs visited in sorted id order
    parent = {w.id: w.id for w in jittered}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if params.merge_prob > 0 and jittered:
        ordered = sorted(jittered, key=lambda w: w.id)
        # only pairs whose boxes, grown by 1 px, overlap can be adjacent; the
        # row-major scan keeps the sorted pair order of the RNG draws, and
        # each pair comes once, as i < j
        grown = _grown(_boxes(ordered), 1, shape)
        ii, jj, boxes = _overlaps(grown, grown)
        pair = ii < jj
        for i, j, box in zip(ii[pair].tolist(), jj[pair].tolist(), boxes[pair].tolist()):
            if _adjacent(ordered[i], ordered[j], *box) and rng.random() < params.merge_prob:
                parent[find(ordered[j].id)] = find(ordered[i].id)

    groups: dict[int, list[MaskWindow]] = {}
    for w in jittered:
        groups.setdefault(find(w.id), []).append(w)

    out: list[MaskWindow] = []
    confidences: dict[int, float] = {}
    for root in sorted(groups):
        group = groups[root]
        merged = group[0]
        if len(group) > 1:
            boxes = _boxes(group)
            r0, c0 = boxes[:, ::2].min(axis=0).tolist()
            r1, c1 = boxes[:, 1::2].max(axis=0).tolist()
            local = np.zeros((r1 - r0, c1 - c0), dtype=bool)
            for w in group:
                local |= _pixels_in(w, r0, r1, c0, c1)
            merged = MaskWindow(root, (slice(r0, r1), slice(c0, c1)), local)
        if params.drop_prob > 0 and rng.random() < params.drop_prob:
            continue
        out.append(merged)
        confidences[root] = float(rng.uniform(0.5, 1.0))  # an emulated detector score
    return InstanceMaskSet(out, shape, "corrupted", confidences)


def agreement(pred: InstanceMaskSet, gt: InstanceMaskSet) -> AgreementScore:
    """Threshold-averaged greedy-matched precision of pred against gt over
    IOU_THRESHOLDS.

    (pred, gt) pairs are matched one-to-one greedily in descending IoU order
    (ties broken by lower pred id, then gt id); precision at a threshold is
    the matches with IoU at or above it over |pred|. The pairs come sorted,
    so one greedy pass over every pair with IoU > 0 gives the matches of
    every threshold. Empty-vs-empty scores 1, empty-pred-vs-nonempty-gt
    scores 0. Sets of different shapes raise ParameterError, empty ones
    too. Not symmetric by design.
    """
    if pred.shape != gt.shape:
        raise ParameterError(f"mask shape mismatch: {pred.shape} vs {gt.shape}")
    n_pred, n_gt = len(pred.windows), len(gt.windows)
    if n_pred == 0:
        p = 1.0 if n_gt == 0 else 0.0
        return AgreementScore(p, {t: p for t in IOU_THRESHOLDS})

    # a pair whose boxes do not intersect shares no pixel: its IoU is 0;
    # the pixels a pair shares all lie in the intersection of its boxes
    pred_px = [int(np.count_nonzero(w.local)) for w in pred.windows]
    gt_px = [int(np.count_nonzero(w.local)) for w in gt.windows]
    pairs: list[tuple[float, int, int]] = []  # (IoU, pred index, gt index)
    for i, j, box in zip(*(a.tolist() for a in _overlaps(_boxes(pred.windows), _boxes(gt.windows)))):
        shared = int(np.count_nonzero(_pixels_in(pred.windows[i], *box) & _pixels_in(gt.windows[j], *box)))
        if shared > 0:
            pairs.append((shared / (pred_px[i] + gt_px[j] - shared), i, j))
    pred_ids, gt_ids = pred.ids(), gt.ids()
    pairs.sort(key=lambda t: (-t[0], pred_ids[t[1]], gt_ids[t[2]]))

    used_p: set[int] = set()
    used_g: set[int] = set()
    matched: list[float] = []  # IoU of each match, descending
    for iou, i, j in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        matched.append(iou)
    per_threshold = {t: sum(iou >= t for iou in matched) / n_pred for t in IOU_THRESHOLDS}
    return AgreementScore(sum(per_threshold.values()) / len(IOU_THRESHOLDS), per_threshold)


# ---------------------------------------------------------------------------
# mask and depth files


def save_depth(depth: DepthImage, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_pgm16(path, heights_to_levels(depth.heights))


def load_depth(path: str | Path, resolution: float) -> DepthImage:
    return DepthImage(levels_to_heights(read_pgm16(path)), resolution)


def _rle_counts(w: MaskWindow, shape: tuple[int, int]) -> list[int]:
    """COCO uncompressed RLE of w's mask over the raster: run lengths in
    column-major order, starting with a run of zeros. Only the columns of
    w's box are laid out, at full height, between two zeros."""
    h, width = shape
    rows, cols = w.slices
    padded = np.zeros(w.local.shape[1] * h + 2, dtype=bool)
    padded[1:-1].reshape(-1, h)[:, rows] = w.local.T
    edges = np.flatnonzero(padded[1:] != padded[:-1]) + cols.start * h
    return np.diff(edges, prepend=0, append=h * width).tolist()


def _rle_window(pid: int, counts: list[int], h: int) -> MaskWindow:
    """The tight window of a COCO uncompressed RLE over a raster of height h,
    decoded on the columns from its first run of ones to its last."""
    ends = np.cumsum(counts, dtype=np.int64)
    starts, stops = ends[0:-1:2], ends[1::2]  # [start, stop) of each run of ones
    c0, c1 = (int(starts[0]) // h, (int(stops[-1]) - 1) // h + 1) if starts.size else (0, 0)
    strip = np.zeros((c1 - c0, h), dtype=bool)  # one row per raster column
    flat = strip.reshape(-1)
    for start, stop in zip((starts - c0 * h).tolist(), (stops - c0 * h).tolist()):
        flat[start:stop] = True
    return _cropped(pid, strip.T, 0, c0)


def save_masks(masks: InstanceMaskSet, out_dir: str | Path, stem: str = "masks") -> Path:
    """Write <stem>_manifest.json: the source, the raster size [h, w] and per
    instance its id, its confidence when one is set and counts, its mask as
    COCO uncompressed RLE (see _rle_counts)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instances = []
    for w in masks.windows:
        entry = {"id": w.id, "counts": _rle_counts(w, masks.shape)}
        if w.id in masks.confidences:
            entry["confidence"] = masks.confidences[w.id]
        instances.append(entry)
    manifest = {"source": masks.source, "size": list(masks.shape), "instances": instances}
    manifest_path = out / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, separators=(",", ":")))
    return manifest_path


def load_masks(manifest_path: str | Path) -> InstanceMaskSet:
    """Read a manifest written by save_masks. It is outside input: a document
    that is not an object holding exactly source, size and instances, a
    source other than ground_truth, corrupted or external, a size that is
    not two integers from 1 to MAX_RASTER_SIDE, an instance that is not an
    object holding id, counts and optionally confidence, an id that is not
    an integer >= 1 or is repeated, counts that are not non-negative
    integers summing to h * w, or a confidence outside [0, 1] raise
    ParameterError."""
    where = f"mask manifest {manifest_path}"
    manifest = read_object(read_json(manifest_path), where, ("source", "size", "instances"))
    source, size, instances = manifest["source"], manifest["size"], manifest["instances"]
    if source not in MASK_SOURCES:
        raise ParameterError(f"mask source must be one of {', '.join(MASK_SOURCES)}, got {source!r}")
    if not (isinstance(size, list) and len(size) == 2
            and all(type(n) is int and 0 < n <= MAX_RASTER_SIDE for n in size)):
        raise ParameterError(f"mask size must be [height, width], two integers from 1 to {MAX_RASTER_SIDE}, "
                             f"got {size!r}")
    if not isinstance(instances, list):
        raise ParameterError("mask instances must be a list")
    windows: dict[int, MaskWindow] = {}
    confidences: dict[int, float] = {}
    for i, entry in enumerate(instances):
        read_object(entry, f"{where} instances[{i}]", ("id", "counts"), ("confidence",))
        pid, counts = entry["id"], entry["counts"]
        check_number("instance id", pid, integral=True, low=1)
        if pid in windows:
            raise ParameterError(f"duplicate instance id {pid}")
        if not (isinstance(counts, list) and all(type(c) is int and c >= 0 for c in counts)
                and sum(counts) == size[0] * size[1]):
            raise ParameterError(f"instance {pid}: counts must be non-negative integers summing to h * w")
        if "confidence" in entry:
            check_number(f"instance {pid} confidence", entry["confidence"], low=0, high=1)
            confidences[pid] = entry["confidence"]
        windows[pid] = _rle_window(pid, counts, size[0])
    return InstanceMaskSet(list(windows.values()), tuple(size), source, confidences)
